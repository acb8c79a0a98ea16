"""Monte Carlo simulation of parking on a depth-truncated binary tree.

Each sample owns its own random stream, an SFC64 generator seeded through
SeedSequence with (seed << 64) + sample_index.  It draws the arrival
counts of its whole tree in one call, root first, and takes each level as
a view of that array.  Every draw gives as its first n values the values
of a draw of n from the same stream.  Two consequences, both load-bearing:

* results are bit-identical regardless of how samples are split across
  worker threads, and
* the same (seed, index) pair at a larger depth reuses exactly the
  draws of the smaller depth and extends them, so estimates are
  monotone-coupled across depths sample by sample.

Trees are drawn sparsely when few nodes get a car: for binary0k when
P(A > 0) <= 1/16, for every other law when P(A > 0) <= 1/4.  One sequence
of iid geometric gaps places the arrival sites over the whole tree, and
site j reads row j of the uniforms for its gap and its value of
A | A > 0.  Denser laws draw one value per node.

Loads are settled bottom up: load(v) = arrivals(v) + surplus of both
children, surplus(u) = max(load(u) - 1, 0), each level's loads written
over its arrivals, in int32: a run whose loads could pass 2^31 - 1 is
refused before its first draw (_check_loads).  sample_root_load settles
each sample's levels below level 10 alone, down to its loads at level
10; its levels 0..10 (2047 nodes) then become its row of a batch of
_BATCH samples, whose top levels settle together, a few calls on the
whole batch per level.
root_cluster_stats keeps every level's occupancy, so it settles each
sample alone.  The truncation treats the nodes below the deepest level
as absent, which only loses the flux they would push up; root-level
estimates converge from below as depth grows.
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
# Trees whose q = P(A > 0) is at most the cut-off are drawn by gaps.  On a
# 2^17-node tree (x86-64) gaps beat the dense draw up to q ~ 0.25-0.3 for
# geometric, and still at q = 0.5 for poisson and at 0.2 for binary0k,
# whose lower cut-off was set when each level drew its own gaps.
_SPARSE_MAX_Q = 0.25
_BINARY0K_SPARSE_MAX_Q = 0.0625
_TABLE_TAIL = 2.0**-53  # mass of A | A > 0 left beyond a value table's end
# Levels 0.._TOP of a batch of _BATCH trees settle together.  Small per-level
# calls cost their Python overhead and, with several threads, a GIL hand-over
# each.
_TOP = 10
_BATCH = 64
_LOAD_MAX = 2**31 - 1  # loads settle in int32
_LOG_TAIL = -64.0 * math.log(2.0)  # log of the overflow risk a tree may take


def _uniform_dtype(smallest_mass):
    """float32 uniforms resolve a mass only to 2^-24; below that use float64."""
    return np.float32 if smallest_mass >= 2.0**-24 else np.float64


def _inverse_cdf(masses, values):
    """u -> values[i] for the first i whose cumulative mass exceeds u."""
    cdf = np.cumsum(masses)
    vals = np.asarray(values, dtype=np.int32)
    top = len(vals) - 1

    def lookup(u):
        idx = np.searchsorted(cdf, u, side="right")
        np.minimum(idx, top, out=idx)
        return vals[idx]

    return lookup


def _positive_masses(law):
    """(P(A = k) for k = 1..K, P(A > 0) as the sum of all positive masses).

    K is the first cut leaving less than _TABLE_TAIL of P(A > 0) beyond it.
    Unbounded laws are expanded until a term falls below 2^-64 of the first;
    the laws sampled here decay geometrically, so what lies past that is
    negligible.
    """
    top = law.finite_support()
    if top is not None:
        masses = law.float_coefficients(top)[1:]
    else:
        masses = [float(law.coefficient(1))]
        while masses[-1] > 2.0**-64 * masses[0]:
            masses.append(float(law.coefficient(len(masses) + 1)))
    beyond = np.append(np.cumsum(masses[::-1])[::-1], 0.0)  # beyond[j]: mass of k > j
    q = math.fsum(masses)
    return masses[: int(np.argmax(beyond < _TABLE_TAIL * q))], q


def _sparse(q, values):
    """Draw by gaps between the sites where A > 0: about size * q rows, not size.

    Site j reads row j of the float64 uniforms.  Its gap from site j - 1 is
    1 + floor(log1p(-u) / log1p(-q)), which is Geometric(q), and its value
    of A | A > 0 is values(w), or values itself when that is a constant.
    Row j is always the same doubles of the stream, however the rows are
    cut into blocks, so a bigger size keeps the sites of a smaller one and
    adds more.
    """
    log_miss = math.log1p(-q)
    cols = 1 if isinstance(values, int) else 2

    def draw(rng, size):
        out = np.zeros(size, dtype=np.int32)
        lam = size * q
        block = int(lam + 6.0 * math.sqrt(lam) + 16.0)
        last = -1.0  # index of the last site placed
        while last < size - 1:
            rows = rng.random((block, cols))
            sites = np.log1p(-rows[:, 0])
            # a gap past the tree ends the draw; capping it there keeps the
            # quotient finite however small q is
            np.maximum(sites, (size + 1) * log_miss, out=sites)
            sites /= log_miss
            np.floor(sites, out=sites)
            sites += 1.0
            np.cumsum(sites, out=sites)
            sites += last
            n = int(np.searchsorted(sites, size - 1, side="right"))
            out[sites[:n].astype(np.intp)] = values if cols == 1 else values(rows[:n, 1])
            last = sites[-1]
        return out

    return draw


def _largest(draw, value):
    """draw, marked with the largest value it gives, or None if it has none."""
    draw.largest = value
    return draw


def make_sampler(law):
    """draw(rng, size) -> int32 arrival counts, or raise UnsampleableLaw.

    Each family has a dense draw, one value per node.  When q = P(A > 0) is
    at most the cut-off, _sparse draws by gaps instead.  Either draw is a
    prefix of any longer one from the same stream.  draw.largest is the
    largest value it can give: None for the dense poisson and geometric
    draws, which have none.
    """
    kind = law.kind
    if kind == "binary0k":
        pk, k = float(law.alpha) / law.k, law.k
        dtype = _uniform_dtype(pk)

        def dense(rng, size):
            return (rng.random(size, dtype=dtype) < pk).astype(np.int32) * k

        return _largest(_sparse(pk, k) if pk <= _BINARY0K_SPARSE_MAX_Q else dense, k)
    if kind == "poisson":
        a = law.alpha

        def dense(rng, size):
            return rng.poisson(a, size).astype(np.int32)

        q, largest = -math.expm1(-a), None  # a big mean would need a long table
    elif kind == "geometric":
        p = 1.0 / (1.0 + float(law.alpha))

        def dense(rng, size):
            return (rng.geometric(p, size) - 1).astype(np.int32)

        q, largest = float(law.alpha / (1 + law.alpha)), None
    elif kind in ("finite", "nongeneric_example"):
        masses, q = _positive_masses(law)
        table = law.float_coefficients(len(masses))
        lookup = _inverse_cdf(table, range(len(table)))
        dtype = _uniform_dtype(min(m for m in table if m > 0))

        def dense(rng, size):
            return lookup(rng.random(size, dtype=dtype))

        largest = len(table) - 1
    else:
        raise UnsampleableLaw(f"no sampler for {law.describe()}")
    if q > _SPARSE_MAX_Q:
        return _largest(dense, largest)
    masses, q = _positive_masses(law)
    draw = _sparse(q, _inverse_cdf(np.divide(masses, q), range(1, len(masses) + 1)))
    return _largest(draw, len(masses))


def _log_sum_tail(law, n, x):
    """Chernoff bound on log P(S >= x), S the sum of n draws of a poisson
    or geometric law, for x above the mean of S (0.0 at or below it).

    poisson: S is Poisson(lam), lam = n alpha, and P(S >= x) <=
    e^-lam (e lam / x)^x.  geometric: with r = alpha / (1 + alpha),
    E[e^(s A)] = (1 - r) / (1 - r e^s); e^s = x / (r (n + x)) gives
    P(S >= x) <= ((n + x) / (n (1 + alpha)))^n (alpha (n + x) / (x (1 + alpha)))^x.
    """
    alpha = float(law.alpha)
    if x <= n * alpha:
        return 0.0
    if law.kind == "poisson":
        lam = n * alpha
        return x * math.log(lam / x) + x - lam
    return (n * math.log((n + x) / (n * (1.0 + alpha)))
            + x * math.log(alpha * (n + x) / (x * (1.0 + alpha))))


def _check_loads(law, draw, depth):
    """Refuse a run whose loads could leave int32, before any tree is drawn.

    A load is at most the load of the root of a tree whose n = 2^(depth+1) - 1
    nodes all draw the largest value M: n (M - 1) + 1, certain where the
    draw has one.  The dense poisson and geometric draws have none; a load
    is at most the sum S of a tree's arrivals, and the run is refused
    unless a Chernoff bound puts P(S > 2^31 - 1) at most 2^-64 per tree.
    """
    n = (2 << depth) - 1
    if draw.largest is None:
        if _log_sum_tail(law, n, _LOAD_MAX + 1.0) <= _LOG_TAIL:
            return
        worst = "a sum of arrivals that may exceed it"
    else:
        most = n * (draw.largest - 1) + 1
        if most <= _LOAD_MAX:
            return
        worst = f"up to {most}"
    raise BudgetExceeded(
        f"{law.describe()} at depth {depth}: loads settle in int32 "
        f"(at most {_LOAD_MAX}), and {n} nodes can give {worst}"
    )


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
    # an int compares exactly with a float of any size, but may be too big to
    # format as one; a NaN budget caps nothing, so it is refused too
    if not samples * 2**depth <= budget:
        raise BudgetExceeded(
            f"samples * 2^depth = {samples} * 2^{depth} exceeds the budget {budget:.3g}"
        )


def _sample_rng(seed, index):
    return np.random.Generator(np.random.SFC64((seed << 64) + index))


def _split(block, top):
    """Levels 0..top of trees stored root first along block's last axis, as views."""
    return [block[..., (1 << lvl) - 1 : (2 << lvl) - 1] for lvl in range(top + 1)]


def _draw_levels(draw, seed, index, depth):
    """Arrival counts of one sample, levels 0..depth as views of one draw of its tree."""
    return _split(draw(_sample_rng(seed, index), (2 << depth) - 1), depth)


def _settle(levels):
    """Loads per level, deepest first, each written over its level's arrivals.

    The levels may hold one tree or, along their last axis, a batch of them.
    """
    x = levels[-1]
    yield x
    for load in reversed(levels[:-1]):
        np.subtract(x, 1, out=x)
        np.maximum(x, 0, out=x)
        np.add(load, x[..., 0::2], out=load)
        np.add(load, x[..., 1::2], out=load)
        x = load
        yield x


def _root_load_chunk(draw, depth, seed, start, stop):
    # each sample settles its levels below `top` alone, then its block of
    # levels 0..top (arrivals above top, loads at top) becomes its row of a
    # batch, and the batch settles those levels together
    top = min(depth, _TOP)
    rows = np.empty((min(_BATCH, stop - start), (2 << top) - 1), dtype=np.int32)
    out = np.empty(stop - start, dtype=np.int64)
    for a in range(start, stop, _BATCH):
        batch = rows[: stop - a]
        for row, i in zip(batch, range(a, stop)):
            # levels stays bound until the next sample is drawn: freeing the
            # big arrays before that draw made depth-18 binary0k runs 1.5x
            # slower (glibc malloc, 2-core x86-64)
            levels = _draw_levels(draw, seed, i, depth)
            for _ in _settle(levels[top:]):
                pass
            np.concatenate(levels[: top + 1], out=row)
        for x in _settle(_split(batch, top)):
            pass
        out[a - start : a - start + len(batch)] = x[:, 0]
    return out


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunks(chunk, draw, depth, seed, samples, threads):
    """chunk(draw, depth, seed, start, stop) over `threads` ranges, in sample order.

    At most one worker per usable CPU runs them: a thread beyond the cores
    only adds GIL hand-overs.
    """
    if threads == 1 or samples < 2 * threads:
        return [chunk(draw, depth, seed, 0, samples)]
    step = -(-samples // threads)
    with ThreadPoolExecutor(max_workers=min(threads, _usable_cpus())) as pool:
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
    _check_loads(law, draw, depth)
    parts = _run_chunks(_root_load_chunk, draw, depth, seed, samples, threads)
    return np.concatenate(parts)


def _standard_error(p, n):
    """Standard error of a frequency p over n samples."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass(frozen=True)
class RunStats:
    """What every Monte Carlo summary records about its run."""

    law_desc: str
    depth: int
    samples: int
    seed: int
    threads: int
    elapsed_seconds: float  # checks, sampler and chunks

    @property
    def mnodes_per_s(self):
        """Millions of tree nodes simulated per second of elapsed_seconds."""
        nodes = self.samples * ((2 << self.depth) - 1)
        return nodes / self.elapsed_seconds / 1e6 if self.elapsed_seconds > 0 else math.inf


@dataclass(frozen=True)
class SimulationStats(RunStats):
    root_load_counts: tuple  # histogram over the root load, index = load
    empty_prob_hat: float
    empty_prob_ci: float  # normal-approximation 95 percent half width
    mean_load: float
    flux_probs: tuple  # estimated P(root flux = k)

    def flux_standard_error(self, k):
        p = self.flux_probs[k] if k < len(self.flux_probs) else 0.0
        return _standard_error(p, self.samples)


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
    flux.extend(float(c / n) for c in counts[2:])
    return SimulationStats(
        law_desc=law.describe(),
        depth=depth,
        samples=samples,
        seed=seed,
        threads=threads,
        root_load_counts=tuple(int(c) for c in counts),
        empty_prob_hat=float(p_hat),
        empty_prob_ci=1.96 * _standard_error(p_hat, n),
        mean_load=float(loads.mean()),
        flux_probs=tuple(flux),
        elapsed_seconds=elapsed,
    )


@dataclass(frozen=True)
class ClusterStats(RunStats):
    size_counts: tuple  # histogram over root-cluster sizes, index = size
    censored: int  # clusters that touch the deepest simulated level

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
    # the span estimate_root_law times: checks, sampler, chunks, concatenation
    t0 = time.perf_counter()
    _check_run(depth, samples, seed, budget)
    draw = make_sampler(law)
    _check_loads(law, draw, depth)
    results = _run_chunks(_cluster_chunk, draw, depth, seed, samples, threads)
    sizes = np.concatenate([r[0] for r in results])
    censored = np.concatenate([r[1] for r in results])
    elapsed = time.perf_counter() - t0
    return ClusterStats(
        law_desc=law.describe(),
        depth=depth,
        samples=samples,
        seed=seed,
        threads=threads,
        size_counts=tuple(int(c) for c in np.bincount(sizes)),
        censored=int(censored.sum()),
        elapsed_seconds=elapsed,
    )
