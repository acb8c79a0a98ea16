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
children, surplus(u) = max(load(u) - 1, 0), each level's loads (less 2,
see _settle) written over its arrivals, in int16 where a run's trees cannot
hold more than 2^15 - 1 cars, else in int32: a run whose loads could pass
2^31 - 1 is refused before its first draw (_check_loads).  The width
changes no value.

Each chunk of samples (one per worker thread) allocates its arrays once,
through draw.workspace, and draws and settles its trees a group at a time
in them.  A group holds G trees, the largest power of two up to
_GROUP_CAP (16) whose arrays, temporaries included, fit in _GROUP_BYTES
(2 MiB): 16 trees up to depth 13, and at depth 16 four poisson(0.1) or
eight binary0k(0.05) int16 trees in sample_root_load.  One numpy call
then covers a group: the sparse draw's gap arithmetic, value lookup and
placement, and each level of the settle.  Fewer calls per tree cost less
interpreter time, and with several threads fewer GIL hand-overs.
sample_root_load reads each tree's root load off its settled group; its
sparse trees leave out their deepest level, half their nodes: each site
there hands its surplus to its parent as it is placed.
root_cluster_stats keeps every level's occupancy.  The truncation treats
the nodes below the deepest level as absent, which only loses the flux
they would push up; root-level estimates converge from below as depth
grows.
"""
from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import _order
from .errors import BudgetExceeded, EvaluationBeyondRadius, OutOfDomain, UnsampleableLaw

NODE_BUDGET = 1e10
LOAD_BINS = 1024  # estimate_root_law's histograms have a bin per load below it
CLUSTER_DEPTH_CAP = 22
# Trees whose q = P(A > 0) is at most the cut-off are drawn by gaps.  On a
# 2^17-node tree (x86-64) gaps beat the dense draw up to q ~ 0.25-0.3 for
# geometric, and still at q = 0.5 for poisson and at 0.2 for binary0k,
# whose lower cut-off was set when each level drew its own gaps.
_SPARSE_MAX_Q = 0.25
_BINARY0K_SPARSE_MAX_Q = 0.0625
_TABLE_TAIL = 2.0**-53  # mass of A | A > 0 left beyond a value table's end
# Trees of a chunk are drawn and settled in groups (see above) of at most
# _GROUP_CAP trees.  A group's arrays, temporaries included, are capped too,
# since they multiply with the threads and add to the peak RSS.
_GROUP_CAP = 16
_GROUP_BYTES = 2 << 20
# The settle's max(y, -1) takes its -1 from these arrays, a row at a time, one
# per width: numpy's maximum has no vector loop for a scalar, and is 3x slower.
_MINUS_ONES = {np.dtype(t): np.full(1 << 13, -1, dtype=t) for t in (np.int16, np.int32)}
for _row in _MINUS_ONES.values():
    _row.flags.writeable = False
# Per byte of packed bits (np.packbits' order, first bit highest): its ones,
# and each of its bits twice, as two bytes
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_ONES_IN = _BITS.sum(axis=1, dtype=np.uint8)
_TWICE = np.packbits(np.repeat(_BITS, 2, axis=1), axis=1).view(">u2")[:, 0]
_INT16_MAX = 2**15 - 1
_LOAD_MAX = 2**31 - 1  # loads settle in int32 when they may pass _INT16_MAX
_LOG_TAIL = -64.0 * math.log(2.0)  # log of the overflow risk a tree may take


def _uniform_dtype(smallest_mass):
    """float32 uniforms resolve a mass only to 2^-24; below that use float64."""
    return np.float32 if smallest_mass >= 2.0**-24 else np.float64


def _inverse_cdf(masses, base):
    """lookup(u, out) writes into out, for each u, base + i for the first i
    whose cumulative mass exceeds u, or base + len(masses) - 1 if none does."""
    # no u passes the last cut, and a table of one value has a second cut too
    cdf = np.append(np.cumsum(masses)[:-1], [np.inf, np.inf])
    # arrays, not scalars: numpy 1.x would compare float32 u with a float64
    # scalar in float32, and searchsorted compares in float64
    first, second = cdf[:1], cdf[1:2]

    def lookup(u, out):
        # nearly every u falls below the second cut, and one comparison
        # places it; the rest are searched
        np.greater_equal(u, first, out=out)
        out += base
        far = u >= second  # a mask, not indices of u.flat: u may be strided
        out[far] = base + np.searchsorted(cdf, u[far], side="right")
        return out

    return lookup


def _positive_masses(law):
    """(P(A = k) for k = 1..K, P(A > 0) as the sum of all positive masses).

    K is the first cut leaving less than _TABLE_TAIL of P(A > 0) beyond it,
    and at least 1: where P(A > 0) is subnormal, _TABLE_TAIL of it rounds to
    0, and no cut leaves less than that.
    Unbounded laws are expanded, in lists of doubling length, up to the first
    term at most 2^-64 of the first; the laws sampled here decay
    geometrically, so what lies past that is negligible.
    """
    top = law.finite_support()
    if top is not None:
        masses = law.float_coefficients(top)[1:]
    else:
        n = 32
        while (masses := law.float_coefficients(n)[1:])[-1] > 2.0**-64 * masses[0]:
            n *= 2
        cut = 2.0**-64 * masses[0]
        masses = masses[: next(k for k, m in enumerate(masses, 1) if not m > cut)]
    beyond = np.append(np.cumsum(masses[::-1])[::-1], 0.0)  # beyond[j]: mass of k > j
    q = math.fsum(masses)
    return masses[: max(1, int(np.argmax(beyond < _TABLE_TAIL * q)))], q


def _group_size(tree_bytes, most, once=0):
    """Trees drawn and settled together: the largest power of two whose
    arrays, `tree_bytes` a tree and `once` for the group, fit _GROUP_BYTES,
    capped at `most` and at _GROUP_CAP."""
    group = 1
    while 2 * group <= min(most, _GROUP_CAP) and once + 2 * group * tree_bytes <= _GROUP_BYTES:
        group *= 2
    return group


def _sampler(workspace, largest):
    """draw(rng, size), with draw.workspace and draw.largest.

    workspace(size, most, fold, dtype) -> (group, fill) allocates the arrays
    of a group of up to `group` <= most trees of `size` nodes; fill(rngs)
    draws tree i from rngs[i] into them and returns the trees as the rows of
    a view of that dtype.  With fold, a sparse draw keeps the trees without
    their deepest level, whose surplus it adds to the level above (_sparse);
    a dense draw keeps every level.  draw(rng, size) is one whole int32 tree
    from a workspace of its own.
    """

    def draw(rng, size):
        return workspace(size, 1, False, np.int32)[1]([rng])[0]

    draw.workspace, draw.largest = workspace, largest
    return draw


def _dense(fill_tree, largest):
    """A draw of one value per node: fill_tree(rng, tree) writes a whole tree."""

    def workspace(size, most, fold, dtype):
        # fill_tree's temporaries, for one tree at a time: its int64 or float
        # draws and a bool mask
        group = _group_size(np.dtype(dtype).itemsize * size, most, once=9 * size)
        trees = np.empty((group, size), dtype)

        def fill(rngs):
            for rng, tree in zip(rngs, trees):
                fill_tree(rng, tree)
            return trees[: len(rngs)]

        return group, fill

    return _sampler(workspace, largest)


def _sparse(q, values):
    """Draw by gaps between the sites where A > 0: about size * q rows, not size.

    values is A | A > 0: a constant, or the table of its masses for 1, 2, ...
    Site j reads row j of the float64 uniforms.  Its gap from site j - 1 is
    1 + floor(log1p(-u) / log1p(-q)), which is Geometric(q), and its value
    of A | A > 0 is a lookup of u, or values itself when that is a constant.
    Row j is always the same doubles of the stream, however the rows are
    cut into blocks, so a bigger size keeps the sites of a smaller one and
    adds more.  Each tree of a group reads its first block of rows from its
    own stream into its own lane, and the lanes take their gaps, sites and
    values together; a tree whose block ends inside it draws on alone.

    A folded tree leaves out its deepest level, half its nodes.  A site
    there with value v has load v and surplus v - 1, which is added to its
    parent's arrivals: the parent's load is then complete.
    """
    log_miss = math.log1p(-q)
    cols = 1 if isinstance(values, int) else 2
    # every site of binary0k, k >= 2, has a surplus on the deepest level
    largest, surplus_share = (values, 1.0) if cols == 1 else (len(values), 1.0 - values[0])
    if cols == 2:
        values = _inverse_cdf(values, 1)

    def workspace(size, most, fold, dtype):
        lam = size * q
        block = int(lam + 6.0 * math.sqrt(lam) + 16.0)
        kept = size // 2 if fold and size > 1 else size  # nodes kept per tree
        item = np.dtype(dtype).itemsize
        # per row its uniforms, gap, value if it has its own and bool masks,
        # and when folding, a deepest-level site's index, parent and surplus
        # for about half the rows' surplus share
        row = 8 * cols + 8 + item * (cols - 1) + 2 + (kept < size) * surplus_share * (16 + item) / 2
        group = _group_size(item * (kept + 1) + block * row, most)
        trees = np.empty((group, kept + 1), dtype)
        flat = trees.reshape(-1)
        rows = np.empty((group, block, cols), np.float64)
        gaps = np.empty((group, block), np.float64)
        # the sites, in int64 over the head of the uniforms, which are spent
        # by then: lanes lo..hi lie over the rows of lanes below hi
        at = rows.reshape(-1).view(np.int64)[: group * block].reshape(group, block)
        vals = np.empty((group, block if cols == 2 else 0), dtype)
        lanes = (kept + 1) * np.arange(group)[:, None]  # where each tree starts in flat

        def place(lo, hi, last):
            """Place the block of rows lo..hi after sites `last`; the last site of each."""
            u, s, i, v = rows[lo:hi], gaps[lo:hi], at[lo:hi], vals[lo:hi]
            if cols == 2:
                np.copyto(s, u[..., 1])  # comparisons are slow on a strided column
                values(s, v)
            np.negative(u[..., 0], out=s)
            np.log1p(s, out=s)
            # a gap past the tree ends the draw; capping it there keeps the
            # quotient finite however small q is
            np.maximum(s, (size + 1) * log_miss, out=s)
            s /= log_miss
            # the sites add up in int64; summed in floats they would be the
            # same up to 2^53, and past the tree all land in the spare slot
            np.floor(s, out=i, casting="unsafe")
            i += 1
            i[:, 0] += last
            np.cumsum(i, axis=1, out=i)
            ends = i[:, -1].tolist()
            if kept < size:
                # the sites on the deepest level, and their parents in flat
                deep = (i >= kept) & (i < size)
                if cols == 2:
                    deep &= v > 1  # a value of 1 has no surplus
                deep = np.flatnonzero(deep)
                parents = i.flat[deep]
                parents -= 1
                parents >>= 1
                # of flat's dtype: numpy's add.at is 20-40x slower with a
                # scalar or another dtype
                if cols == 2:
                    surplus = v.flat[deep]
                    surplus -= 1
                else:
                    surplus = np.full(len(deep), values - 1, dtype=dtype)
                deep //= block
                deep += lo
                deep *= kept + 1
                parents += deep
            np.minimum(i, kept, out=i)  # sites past what is kept land in the spare slot
            i += lanes[lo:hi]
            flat[i] = values if cols == 1 else v
            if kept < size:
                np.add.at(flat, parents, surplus)
            return ends

        def fill(rngs):
            n = len(rngs)
            trees[:n].fill(0)
            for rng, u in zip(rngs, rows):
                rng.random((block, cols), out=u)
            for j, last in enumerate(place(0, n, -1)):
                while last < size - 1:
                    rngs[j].random((block, cols), out=rows[j])
                    last = place(j, j + 1, last)[0]
            return trees[:n, :kept]

        return group, fill

    return _sampler(workspace, largest)


def make_sampler(law):
    """draw(rng, size) -> int32 arrival counts, or raise UnsampleableLaw.

    Each family has a dense draw, one value per node.  When q = P(A > 0) is
    at most the cut-off, _sparse draws by gaps instead.  Either draw is a
    prefix of any longer one from the same stream.  draw.largest is the
    largest value it can give: None for the dense poisson and geometric
    draws, which have none.  draw.workspace draws groups of trees into
    arrays that a chunk of samples reuses (_sampler).
    """
    kind = law.kind
    if kind == "binary0k":
        pk, k = float(law.alpha) / law.k, law.k
        dtype = _uniform_dtype(pk)

        def dense(rng, tree):
            np.multiply(rng.random(len(tree), dtype=dtype) < pk, k, out=tree)

        return _sparse(pk, k) if pk <= _BINARY0K_SPARSE_MAX_Q else _dense(dense, k)
    if kind == "poisson":
        a = law.alpha

        def dense(rng, tree):
            tree[:] = rng.poisson(a, len(tree))

        q, largest = -math.expm1(-a), None  # a big mean would need a long table
    elif kind == "geometric":
        p = 1.0 / (1.0 + float(law.alpha))

        def dense(rng, tree):
            tree[:] = rng.geometric(p, len(tree))
            tree -= 1

        q, largest = float(law.alpha / (1 + law.alpha)), None
    elif kind in ("finite", "nongeneric_example"):
        masses, q = _positive_masses(law)
        table = [law.mu0, *masses]
        lookup = _inverse_cdf(table, 0)
        dtype = _uniform_dtype(min(m for m in table if m > 0))

        def dense(rng, tree):
            lookup(rng.random(len(tree), dtype=dtype), tree)

        largest = len(table) - 1
    else:
        raise UnsampleableLaw(f"no sampler for {law.describe()}")
    if q > _SPARSE_MAX_Q:
        return _dense(dense, largest)
    if kind in ("poisson", "geometric"):
        masses, q = _positive_masses(law)
    return _sparse(q, np.divide(masses, q))


def _log_sum_tail(law, n, x):
    """Chernoff bound on log P(S >= x), S the sum of n draws of the law, for
    x above the mean of S (0.0 at or below it).

    P(S >= x) <= G(t)^n t^-x for every t > 1 where G is finite.  poisson:
    S is Poisson(lam), lam = n alpha, and the least bound is
    e^-lam (e lam / x)^x; on the way there G(t) overflows floats for a law
    far below x.  Any other law: n log G(t) - x log t is convex in log t,
    least where the tilted mean t G'(t) / G(t) is x / n, and log t is
    bisected towards that point, or towards the largest t where G is
    finite, until the exponent is at most _LOG_TAIL.
    """
    mean = float(law.mean())
    if x <= n * mean:
        return 0.0
    if law.kind == "poisson":
        lam = n * mean
        return x * math.log(lam / x) + x - lam
    lo, hi, best = 0.0, math.log(law.radius), 0.0  # bounds on log t
    while best > _LOG_TAIL:
        s = (lo + hi) / 2 if hi < math.inf else 2 * lo + 1
        if not lo < s < hi:
            break
        try:
            t = math.exp(s)
            g, tilted = law.pgf(t), law.tilted_moments(t)[0]
        except (OverflowError, EvaluationBeyondRadius):
            g = math.inf
        if g < math.inf:
            best = min(best, n * math.log(g) - x * math.log(t))
        if g < math.inf and n * tilted < x:
            lo = s
        else:
            hi = s
    return best


def _check_loads(law, draw, depth):
    """The dtype a run's loads settle in, int16 or int32, or refuse the run
    before any tree is drawn.

    Every value the settle holds lies between -2 and the largest load, which
    is at most the sum S of its tree's arrivals and, where the draw has a
    largest value M, at most n (M - 1) + 1, n = 2^(depth+1) - 1: certain.
    int16 takes a run where that certain bound fits it, or where M fits it
    and a Chernoff bound (_log_sum_tail) puts P(S > 2^15 - 1) at most 2^-64
    per tree.  int32 takes the rest where the certain bound fits it and,
    for the dense poisson and geometric draws, which have no M, where the
    bound puts P(S > 2^31 - 1) at most 2^-64 per tree.
    """
    n = (2 << depth) - 1
    largest = draw.largest
    most = math.inf if largest is None else n * (largest - 1) + 1
    if most <= _INT16_MAX or (
        (largest or 0) <= _INT16_MAX and _log_sum_tail(law, n, _INT16_MAX + 1) <= _LOG_TAIL
    ):
        return np.dtype(np.int16)
    if largest is None:
        if _log_sum_tail(law, n, _LOAD_MAX + 1.0) <= _LOG_TAIL:
            return np.dtype(np.int32)
        worst = "a sum of arrivals that may exceed it"
    else:
        if most <= _LOAD_MAX:
            return np.dtype(np.int32)
        worst = f"up to {most}"
    raise BudgetExceeded(
        f"{law.describe()} at depth {depth}: loads settle in int32 "
        f"(at most {_LOAD_MAX}), and {n} nodes can give {worst}"
    )


def _check_run(depth, samples, seed, threads, budget):
    """(depth, samples, seed, threads) as ints, or the error that refuses the run."""
    threads = 1 if threads is None else _order(threads, "thread count")
    if threads < 1:
        raise OutOfDomain(f"thread count must be positive, got {threads}")
    if (depth := _order(depth, "depth")) < 0:
        raise OutOfDomain("depth must be nonnegative")
    if (samples := _order(samples, "sample count")) < 1:
        raise OutOfDomain("need at least one sample")
    if not 0 <= (seed := _order(seed, "seed")) < 2**64:
        raise OutOfDomain("seed must fit in 64 bits")
    # an int compares exactly with a float of any size, but may be too big to
    # format as one; a NaN budget caps nothing, so it is refused too
    if not samples * 2**depth <= budget:
        raise BudgetExceeded(
            f"samples * 2^depth = {samples} * 2^{depth} exceeds the budget {budget:.3g}"
        )
    return depth, samples, seed, threads


def _sample_rng(seed, index):
    return np.random.Generator(np.random.SFC64((seed << 64) + index))


def _split(block, top):
    """Levels 0..top of trees stored root first along block's last axis, as views."""
    return [block[..., (1 << lvl) - 1 : (2 << lvl) - 1] for lvl in range(top + 1)]


def _groups(workspace, depth, seed, start, stop, fold=False):
    """The settle (_settle) of each group of the trees of samples
    start..stop, drawn into one array that every group reuses (_sampler's
    workspace, with the run's dtype)."""
    group, fill = workspace((2 << depth) - 1, stop - start, fold)
    for a in range(start, stop, group):
        trees = fill([_sample_rng(seed, i) for i in range(a, min(a + group, stop))])
        yield _settle(_split(trees, trees.shape[1].bit_length() - 1))


def _settle(levels):
    """Loads less 2 per level, deepest first, each written over its level's arrivals.

    The levels hold a group's trees as rows: arrivals, and loads on the
    deepest level.  With y = load - 2, a node's surplus max(load - 1, 0) is
    max(y, -1) + 1, so a parent's load less 2 is its arrivals plus
    max(y, -1) of both children, one pass over the children fewer than
    taking their surplus.
    """
    x = levels[-1]
    x -= 2
    minus_ones = _MINUS_ONES[x.dtype]
    yield x
    for y in reversed(levels[:-1]):
        # a view: a level's width is a power of two
        cut = x.reshape(len(x), -1, min(x.shape[1], len(minus_ones)))
        np.maximum(cut, minus_ones[: cut.shape[-1]], out=cut)
        np.add(y, x[:, 0::2], out=y)
        np.add(y, x[:, 1::2], out=y)
        x = y
        yield x


def _root_load_chunk(workspace, depth, seed, start, stop):
    # a group's root loads are its last settled level, less 2; its sparse
    # trees leave out their deepest level (_sparse)
    groups = _groups(workspace, depth, seed, start, stop, fold=True)
    return np.concatenate([[*settle][-1][:, 0] + 2 for settle in groups], dtype=np.int64)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _layout(law, depth, samples, fold):
    """RunStats' load_bits and group_trees of a run, its samples in one chunk."""
    draw = make_sampler(law)
    dtype = _check_loads(law, draw, depth)
    group = draw.workspace((2 << depth) - 1, samples, fold, dtype)[0]  # np.empty maps no page
    return {"load_bits": 8 * dtype.itemsize, "group_trees": group}


def _run(chunk, law, depth, samples, seed, threads):
    """chunk(workspace, depth, seed, start, stop) over `threads` ranges of the
    checked run, in sample order; workspace is draw.workspace at the dtype
    that _check_loads picks.

    At most one worker per usable CPU runs them: a thread beyond the cores
    only adds GIL hand-overs.
    """
    draw = make_sampler(law)
    workspace = functools.partial(draw.workspace, dtype=_check_loads(law, draw, depth))
    if threads == 1 or samples < 2 * threads:
        return [chunk(workspace, depth, seed, 0, samples)]
    step = -(-samples // threads)
    with ThreadPoolExecutor(max_workers=min(threads, _usable_cpus())) as pool:
        futs = [
            pool.submit(chunk, workspace, depth, seed, a, min(a + step, samples))
            for a in range(0, samples, step)
        ]
        return [f.result() for f in futs]


def sample_root_load(law, depth, samples, seed=0, threads=None, budget=NODE_BUDGET):
    """Per-sample number of cars ending up at the root, as an int64 array."""
    run = _check_run(depth, samples, seed, threads, budget)
    return np.concatenate(_run(_root_load_chunk, law, *run))


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
    load_bits: int  # 16 or 32: the width the loads settle in (_check_loads)
    group_trees: int  # trees drawn and settled together, at most
    elapsed_seconds: float  # checks, sampler and chunks

    @property
    def mnodes_per_s(self):
        """Millions of tree nodes simulated per second of elapsed_seconds."""
        nodes = self.samples * ((2 << self.depth) - 1)
        return nodes / self.elapsed_seconds / 1e6 if self.elapsed_seconds > 0 else math.inf


@dataclass(frozen=True)
class SimulationStats(RunStats):
    root_load_counts: tuple  # histogram over the root loads below LOAD_BINS, index = load
    root_load_tail: int  # samples whose root load is LOAD_BINS or more
    empty_prob_hat: float
    empty_prob_ci: float  # normal-approximation 95 percent half width
    mean_load: float
    flux_probs: tuple  # estimated P(root flux = k), for k below LOAD_BINS - 1

    def flux_standard_error(self, k):
        p = self.flux_probs[k] if k < len(self.flux_probs) else 0.0
        return _standard_error(p, self.samples)


def estimate_root_law(law, depth, samples, seed=0, threads=None, budget=NODE_BUDGET):
    """Simulate and summarize the root load and flux distributions.

    The histograms stop at LOAD_BINS = 1024: root_load_counts has a bin for
    each load below it and flux_probs one for each flux below 1023, and
    root_load_tail counts the samples beyond them.  mean_load takes every
    sample at its own load.
    """
    depth, samples, seed, threads = _check_run(depth, samples, seed, threads, budget)
    t0 = time.perf_counter()
    loads = sample_root_load(law, depth, samples, seed, threads, budget)
    elapsed = time.perf_counter() - t0
    counts = np.bincount(np.minimum(loads, LOAD_BINS))
    tail = int(counts[LOAD_BINS]) if len(counts) > LOAD_BINS else 0
    counts = counts[:LOAD_BINS]
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
        root_load_tail=tail,
        empty_prob_hat=float(p_hat),
        empty_prob_ci=1.96 * _standard_error(p_hat, n),
        mean_load=float(loads.mean()),
        flux_probs=tuple(flux),
        elapsed_seconds=elapsed,
        **_layout(law, depth, samples, True),
    )


@dataclass(frozen=True)
class ClusterStats(RunStats):
    size_counts: tuple  # histogram over root-cluster sizes, index = size
    censored: int  # clusters that touch the deepest simulated level

    def size_prob(self, n):
        if n < len(self.size_counts):
            return self.size_counts[n] / self.samples
        return 0.0


def _cluster_chunk(workspace, depth, seed, start, stop):
    sizes, censored = [], []
    for settle in _groups(workspace, depth, seed, start, stop):
        # each level's occupancy, root first, in bits, a tree at a time: a
        # level of the group's bools would be a quarter of its int16 trees
        occupied = [np.array([np.packbits(row > -2) for row in x]) for x in settle][::-1]
        mask = occupied[0]  # each tree's cluster vertices on the current level, in bits
        size = np.zeros(len(mask), dtype=np.int64)
        for lvl in range(1, depth + 1):
            hits = _ONES_IN[mask].sum(axis=1, dtype=np.int64)
            if not hits.any():
                break
            size += hits
            # each vertex's bit twice, for its two children
            mask = _TWICE[mask].view(np.uint8)[:, : occupied[lvl].shape[1]] & occupied[lvl]
        sizes.append(size + _ONES_IN[mask].sum(axis=1, dtype=np.int64))
        censored.append(mask.any(axis=1))
    return np.concatenate(sizes), np.concatenate(censored)


def root_cluster_stats(law, depth, samples, seed=0, threads=None, budget=NODE_BUDGET):
    """Size of the occupied cluster through the root, per sample.

    A cluster reaching the deepest level is flagged censored: its true
    size on the infinite tree is larger than measured.  Depth is capped
    because the whole occupancy field is kept in memory per sample.
    """
    # the span estimate_root_law times: checks, sampler, chunks, concatenation
    t0 = time.perf_counter()
    depth, samples, seed, threads = _check_run(depth, samples, seed, threads, budget)
    if depth > CLUSTER_DEPTH_CAP:
        raise BudgetExceeded(f"cluster extraction is capped at depth {CLUSTER_DEPTH_CAP}")
    results = _run(_cluster_chunk, law, depth, samples, seed, threads)
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
        **_layout(law, depth, samples, False),
    )
