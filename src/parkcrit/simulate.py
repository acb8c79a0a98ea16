"""Monte Carlo simulation of parking on a depth-truncated binary tree.

Each sample owns its own counter-based random stream, keyed by
(seed << 64) + sample_index, and draws its arrival counts level by
level starting from the root.  Two consequences, both load-bearing:

* results are bit-identical regardless of how samples are split across
  worker threads, and
* the same (seed, index) pair at a larger depth reuses exactly the
  draws of the smaller depth and extends them, so estimates are
  monotone-coupled across depths sample by sample.

Loads are settled bottom up: load(v) = arrivals(v) + surplus of both
children, surplus(u) = max(load(u) - 1, 0).  The truncation treats the
nodes below the deepest level as absent, which only loses the flux they
would push up; root-level estimates converge from below as depth grows.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, OutOfDomain, UnsampleableLaw

NODE_BUDGET = 1e10
CLUSTER_DEPTH_CAP = 22
_UNIFORM_DTYPE = np.float32  # 24 uniform bits per node; thresholds are far coarser


def _threshold_sampler(cdf_values, values):
    cdf = np.asarray(cdf_values, dtype=np.float64)
    vals = np.asarray(values, dtype=np.int32)
    top = len(vals) - 1

    def draw(rng, size):
        u = rng.random(size, dtype=_UNIFORM_DTYPE)
        idx = np.searchsorted(cdf, u, side="right")
        np.minimum(idx, top, out=idx)
        return vals[idx]

    return draw


def make_sampler(law):
    """draw(rng, size) -> int32 arrival counts, or raise UnsampleableLaw."""
    kind = law.kind
    if kind == "binary0k":
        pk = float(law.alpha) / law.k
        k = law.k

        def draw(rng, size):
            if size < 2048 or pk > 0.0625:
                return (rng.random(size, dtype=_UNIFORM_DTYPE) < pk).astype(np.int32) * k
            # sparse path: gaps between arrival sites are iid geometric, so
            # a level costs about size * pk draws instead of size
            out = np.zeros(size, dtype=np.int32)
            lam = size * pk
            budget = int(lam + 6.0 * math.sqrt(lam) + 16.0)
            pos = np.cumsum(rng.geometric(pk, budget))
            while pos[-1] < size:
                more = np.cumsum(rng.geometric(pk, budget)) + pos[-1]
                pos = np.concatenate([pos, more])
            out[pos[pos <= size] - 1] = k
            return out

        return draw
    if kind == "finite":
        probs = [float(p) for p in law.probs]
        cdf = np.cumsum(probs)
        return _threshold_sampler(cdf, range(len(probs)))
    if kind == "poisson":
        a = law.alpha

        def draw(rng, size):
            return rng.poisson(a, size).astype(np.int32)

        return draw
    if kind == "geometric":
        p = 1.0 / (1.0 + float(law.alpha))

        def draw(rng, size):
            return (rng.geometric(p, size) - 1).astype(np.int32)

        return draw
    if kind == "nongeneric_example":
        acc, k, cum = 0.0, 0, []
        while acc < 1.0 - 1e-15:
            acc += law.coefficient(k)
            cum.append(acc)
            k += 1
            if k > 500:
                break
        return _threshold_sampler(cum, range(len(cum)))
    raise UnsampleableLaw(f"no sampler for {law.describe()}")


def _resolve_threads(threads):
    if threads is None:
        threads = int(os.environ.get("PARKCRIT_THREADS", "1"))
    threads = int(threads)
    if threads < 1:
        raise OutOfDomain(f"thread count must be positive, got {threads}")
    return threads


def _check_run(depth, samples, seed, budget):
    if depth < 0:
        raise OutOfDomain("depth must be nonnegative")
    if samples < 1:
        raise OutOfDomain("need at least one sample")
    if not 0 <= seed < 2**64:
        raise OutOfDomain("seed must fit in 64 bits")
    cost = samples * 2**depth
    if cost > budget:
        raise BudgetExceeded(
            f"samples * 2^depth = {cost:.3g} exceeds the budget {budget:.3g}"
        )


def _sample_rng(seed, index):
    return np.random.Generator(np.random.Philox(key=(seed << 64) + index))


def _draw_levels(draw, seed, index, depth):
    """Arrival counts of one sample, level by level from the root down."""
    rng = _sample_rng(seed, index)
    return [draw(rng, 1 << lvl) for lvl in range(depth + 1)]


def _settle(levels):
    """Loads per level, deepest first; each array is reused once the next is asked for."""
    x = levels[-1]
    yield x
    for arrivals in reversed(levels[:-1]):
        np.subtract(x, 1, out=x)
        np.maximum(x, 0, out=x)
        x = x[0::2] + x[1::2]
        np.add(x, arrivals, out=x)
        yield x


def _root_load_chunk(draw, depth, seed, start, stop):
    out = np.empty(stop - start, dtype=np.int64)
    for j, i in enumerate(range(start, stop)):
        # levels stays bound until the next sample is drawn: freeing the big
        # arrays before that draw made depth-18 binary0k runs 1.5x slower
        # (glibc malloc, 2-core x86-64)
        levels = _draw_levels(draw, seed, i, depth)
        for x in _settle(levels):
            pass
        out[j] = int(x[0])
    return out


def _run_chunks(chunk, draw, depth, seed, samples, threads):
    """chunk(draw, depth, seed, start, stop) per thread's range, in sample order."""
    if threads == 1 or samples < 2 * threads:
        return [chunk(draw, depth, seed, 0, samples)]
    step = -(-samples // threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futs = [
            pool.submit(chunk, draw, depth, seed, a, min(a + step, samples))
            for a in range(0, samples, step)
        ]
        return [f.result() for f in futs]


def sample_root_load(law, depth, samples, seed=0, threads=None, budget=NODE_BUDGET):
    """Per-sample number of cars ending up at the root, as an int64 array."""
    threads = _resolve_threads(threads)
    _check_run(depth, samples, seed, budget)
    draw = make_sampler(law)
    parts = _run_chunks(_root_load_chunk, draw, depth, seed, samples, threads)
    return np.concatenate(parts)


@dataclass(frozen=True)
class SimulationStats:
    law_desc: str
    depth: int
    samples: int
    seed: int
    threads: int
    root_load_counts: tuple  # histogram over the root load, index = load
    empty_prob_hat: float
    empty_prob_ci: float  # normal-approximation 95 percent half width
    mean_load: float
    flux_probs: tuple  # estimated P(root flux = k)
    elapsed_seconds: float

    def flux_standard_error(self, k):
        p = self.flux_probs[k] if k < len(self.flux_probs) else 0.0
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.samples)


def estimate_root_law(law, depth, samples, seed=0, threads=None, budget=NODE_BUDGET):
    """Simulate and summarize the root load and flux distributions."""
    threads = _resolve_threads(threads)
    t0 = time.perf_counter()
    loads = sample_root_load(law, depth, samples, seed, threads, budget)
    elapsed = time.perf_counter() - t0
    counts = np.bincount(loads)
    n = float(samples)
    p_hat = counts[0] / n
    flux = [float((counts[0] + (counts[1] if len(counts) > 1 else 0)) / n)]
    for k in range(1, max(len(counts) - 1, 1)):
        flux.append(float(counts[k + 1] / n) if k + 1 < len(counts) else 0.0)
    return SimulationStats(
        law_desc=law.describe(),
        depth=depth,
        samples=samples,
        seed=seed,
        threads=threads,
        root_load_counts=tuple(int(c) for c in counts),
        empty_prob_hat=float(p_hat),
        empty_prob_ci=1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n),
        mean_load=float(loads.mean()),
        flux_probs=tuple(flux),
        elapsed_seconds=elapsed,
    )


@dataclass(frozen=True)
class ClusterStats:
    law_desc: str
    depth: int
    samples: int
    seed: int
    size_counts: tuple  # histogram over root-cluster sizes, index = size
    censored: int  # clusters that touch the deepest simulated level
    elapsed_seconds: float

    def size_prob(self, n):
        if n < len(self.size_counts):
            return self.size_counts[n] / self.samples
        return 0.0


def _cluster_chunk(draw, depth, seed, start, stop):
    sizes = np.zeros(stop - start, dtype=np.int64)
    censored = np.zeros(stop - start, dtype=bool)
    for j, i in enumerate(range(start, stop)):
        levels = _draw_levels(draw, seed, i, depth)
        occupied = [x > 0 for x in _settle(levels)][::-1]
        mask = occupied[0]  # the cluster's vertices on the current level
        for level in occupied[1:]:
            hits = int(mask.sum())
            if not hits:
                break
            sizes[j] += hits
            mask = np.repeat(mask, 2) & level
        sizes[j] += mask.sum()
        censored[j] = mask.any()
    return sizes, censored


def root_cluster_stats(law, depth, samples, seed=0, threads=None, budget=NODE_BUDGET):
    """Size of the occupied cluster through the root, per sample.

    A cluster reaching the deepest level is flagged censored: its true
    size on the infinite tree is larger than measured.  Depth is capped
    because the whole occupancy field is kept in memory per sample.
    """
    threads = _resolve_threads(threads)
    if depth > CLUSTER_DEPTH_CAP:
        raise BudgetExceeded(f"cluster extraction is capped at depth {CLUSTER_DEPTH_CAP}")
    _check_run(depth, samples, seed, budget)
    draw = make_sampler(law)
    t0 = time.perf_counter()
    results = _run_chunks(_cluster_chunk, draw, depth, seed, samples, threads)
    sizes = np.concatenate([r[0] for r in results])
    censored = np.concatenate([r[1] for r in results])
    return ClusterStats(
        law_desc=law.describe(),
        depth=depth,
        samples=samples,
        seed=seed,
        size_counts=tuple(int(c) for c in np.bincount(sizes)),
        censored=int(censored.sum()),
        elapsed_seconds=time.perf_counter() - t0,
    )
