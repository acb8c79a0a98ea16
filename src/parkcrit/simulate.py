"""Monte Carlo simulation of parking on a depth-truncated binary tree.

Each sample owns its own counter-based random stream, keyed by
(seed << 64) + sample_index, and draws its arrival counts level by
level starting from the root.  Two consequences, both load-bearing:

* results are bit-identical regardless of how samples are split across
  worker threads, and
* the same (seed, index) pair at a larger depth reuses exactly the
  draws of the smaller depth and extends them, so estimates are
  monotone-coupled across depths sample by sample.

Levels of at least 2048 nodes are drawn sparsely when few nodes get a
car: for binary0k when P(A > 0) <= 1/16, for every other law when
P(A > 0) <= 1/4.  Arrival sites are placed by iid geometric gaps, then
one value per site is drawn from A | A > 0.  Smaller levels and denser
laws draw one value per node.

Loads are settled bottom up: load(v) = arrivals(v) + surplus of both
children, surplus(u) = max(load(u) - 1, 0).  The truncation treats the
nodes below the deepest level as absent, which only loses the flux they
would push up; root-level estimates converge from below as depth grows.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, OutOfDomain, UnsampleableLaw

NODE_BUDGET = 1e10
CLUSTER_DEPTH_CAP = 22
# Levels this big whose q = P(A > 0) is at most the cut-off are drawn by gaps.
# At level size 2^16 (x86-64) gaps beat the dense draw for poisson and
# geometric up to q ~ 0.3; binary0k's dense draw is a single float32
# compare, so its crossover is lower.
_SPARSE_MIN_SIZE = 2048
_SPARSE_MAX_Q = 0.25
_BINARY0K_SPARSE_MAX_Q = 0.0625
_TABLE_TAIL = 2.0**-53  # mass of A | A > 0 left beyond a value table's end


def _uniform_dtype(smallest_mass):
    """float32 uniforms resolve a mass only to 2^-24; below that use float64."""
    return np.float32 if smallest_mass >= 2.0**-24 else np.float64


def _threshold_sampler(masses, values):
    masses = np.asarray(masses, dtype=np.float64)
    cdf = np.cumsum(masses)
    vals = np.asarray(values, dtype=np.int32)
    top = len(vals) - 1
    dtype = _uniform_dtype(masses[masses > 0].min())

    def draw(rng, size):
        u = rng.random(size, dtype=dtype)
        idx = np.searchsorted(cdf, u, side="right")
        np.minimum(idx, top, out=idx)
        return vals[idx]

    return draw


def _positive_masses(law):
    """(P(A = k) for k = 1..K, P(A > 0) as the sum of all positive masses).

    K is the first cut leaving less than _TABLE_TAIL of P(A > 0) beyond it.
    Unbounded laws are expanded until a term falls below 2^-64 of the first;
    the laws sampled here decay geometrically, so what lies past that is
    negligible.
    """
    top = law.finite_support()
    if top is not None:
        masses = [float(law.coefficient(k)) for k in range(1, top + 1)]
    else:
        masses = [float(law.coefficient(1))]
        while masses[-1] > 2.0**-64 * masses[0]:
            masses.append(float(law.coefficient(len(masses) + 1)))
    beyond = np.append(np.cumsum(masses[::-1])[::-1], 0.0)  # beyond[j]: mass of k > j
    q = math.fsum(masses)
    return masses[: int(np.argmax(beyond < _TABLE_TAIL * q))], q


def _conditional_sampler(masses, q):
    """Draw of A | A > 0 by an inverse-CDF table, from _positive_masses."""
    return _threshold_sampler(np.divide(masses, q), range(1, len(masses) + 1))


def _sparse(dense, q, values):
    """Draw levels of at least _SPARSE_MIN_SIZE nodes by gaps, smaller ones densely.

    The gaps between arrival sites are iid Geometric(q), so a level costs
    about size * q draws instead of size.  All gaps of a level are drawn
    first, then values(rng, n) gives A | A > 0 at its n sites.
    """

    def draw(rng, size):
        if size < _SPARSE_MIN_SIZE:
            return dense(rng, size)
        out = np.zeros(size, dtype=np.int32)
        lam = size * q
        budget = int(lam + 6.0 * math.sqrt(lam) + 16.0)
        # a gap past the level ends it; capping gaps there keeps cumsum from
        # overflowing when q is tiny, and moves no site inside the level
        pos = np.cumsum(np.minimum(rng.geometric(q, budget), size + 1))
        while pos[-1] < size:
            more = np.cumsum(np.minimum(rng.geometric(q, budget), size + 1)) + pos[-1]
            pos = np.concatenate([pos, more])
        sites = pos[pos <= size] - 1
        out[sites] = values(rng, len(sites))
        return out

    return draw


def make_sampler(law):
    """draw(rng, size) -> int32 arrival counts, or raise UnsampleableLaw.

    Each family has a dense draw, one value per node.  When q = P(A > 0) is
    at most the cut-off, _sparse draws the big levels by gaps instead.
    """
    kind = law.kind
    max_q = _SPARSE_MAX_Q
    if kind == "binary0k":
        pk, k = float(law.alpha) / law.k, law.k
        dtype = _uniform_dtype(pk)

        def dense(rng, size):
            return (rng.random(size, dtype=dtype) < pk).astype(np.int32) * k

        def values(rng, n):
            return k

        q, max_q = pk, _BINARY0K_SPARSE_MAX_Q
    elif kind == "poisson":
        a = law.alpha

        def dense(rng, size):
            return rng.poisson(a, size).astype(np.int32)

        q = -math.expm1(-a)
        if q <= max_q:  # a big mean would need a long table
            values = _conditional_sampler(*_positive_masses(law))
    elif kind == "geometric":
        p = 1.0 / (1.0 + float(law.alpha))

        def dense(rng, size):
            return (rng.geometric(p, size) - 1).astype(np.int32)

        def values(rng, n):
            # memoryless: A | A > 0 is Geometric(p) on 1, 2, ...
            return rng.geometric(p, n)

        q = float(law.alpha / (1 + law.alpha))
    elif kind in ("finite", "nongeneric_example"):
        masses, q = _positive_masses(law)
        table = [float(law.coefficient(0))] + masses
        dense = _threshold_sampler(table, range(len(table)))
        values = _conditional_sampler(masses, q)
    else:
        raise UnsampleableLaw(f"no sampler for {law.describe()}")
    return dense if q > max_q else _sparse(dense, q, values)


def _resolve_threads(threads):
    threads = 1 if threads is None else int(threads)
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


def _mnodes_per_s(stats):
    """Millions of tree nodes simulated per second of elapsed_seconds."""
    nodes = stats.samples * ((2 << stats.depth) - 1)
    return nodes / stats.elapsed_seconds / 1e6 if stats.elapsed_seconds > 0 else math.inf


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

    @property
    def mnodes_per_s(self):
        return _mnodes_per_s(self)

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

    @property
    def mnodes_per_s(self):
        return _mnodes_per_s(self)

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
