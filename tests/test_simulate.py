"""Monte Carlo sampler for the root load on deep truncated trees.

Statistical assertions use wide (5 sigma) bands so they stay quiet on
reruns; exact reproducibility assertions use fixed seeds.
"""

import hashlib
import json
import math
import time
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from parkcrit import cli, simulate
from parkcrit.analytic import classify, flux_distribution
from parkcrit.errors import BudgetExceeded, OutOfDomain, UnsampleableLaw
from parkcrit.laws import (
    CustomAnalyticLaw,
    binary0k,
    geometric,
    make_finite_law,
    nongeneric_example,
    poisson,
)
from parkcrit.simulate import (
    _positive_masses,
    estimate_root_law,
    make_sampler,
    root_cluster_stats,
    sample_root_load,
)

B02 = binary0k(Fraction(1, 14))


def draw_levels(draw, seed, index, depth):
    """Arrival counts of one sample, levels 0..depth as views of one draw of its tree."""
    return simulate._split(draw(simulate._sample_rng(seed, index), (2 << depth) - 1), depth)


def test_depth_zero_is_the_arrival_law():
    # with no subtree the root load is the arrival count itself
    loads = sample_root_load(B02, depth=0, samples=4000, seed=7)
    assert set(np.unique(loads)) <= {0, 2}
    p_hat = float(np.mean(loads == 0))
    sigma = math.sqrt((27 / 28) * (1 / 28) / 4000)
    assert abs(p_hat - 27 / 28) < 5 * sigma


def test_seed_reproducibility():
    a = sample_root_load(B02, depth=6, samples=200, seed=1)
    b = sample_root_load(B02, depth=6, samples=200, seed=1)
    c = sample_root_load(B02, depth=6, samples=200, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_thread_count_does_not_change_the_stream():
    one = sample_root_load(B02, depth=5, samples=300, seed=9, threads=1)
    several = sample_root_load(B02, depth=5, samples=300, seed=9, threads=4)
    assert np.array_equal(one, several)


def test_sample_prefix_stable_in_sample_count():
    # sample i only depends on (seed, i), so prefixes agree
    short = sample_root_load(B02, depth=4, samples=50, seed=3)
    long = sample_root_load(B02, depth=4, samples=120, seed=3)
    assert np.array_equal(short, long[:50])


def test_cluster_stats_thread_count_does_not_change_the_stream():
    one = root_cluster_stats(B02, depth=8, samples=300, seed=9, threads=1)
    several = root_cluster_stats(B02, depth=8, samples=300, seed=9, threads=4)
    assert (one.size_counts, one.censored) == (several.size_counts, several.censored)


def test_cluster_stats_prefix_stable_in_sample_count():
    # sample i only depends on (seed, i), so a longer run only adds samples
    def sizes(samples):
        stats = root_cluster_stats(B02, depth=8, samples=samples, seed=3)
        return Counter(dict(enumerate(stats.size_counts)))

    short = sizes(50)
    assert not short - sizes(120)
    assert sum((sizes(51) - short).values()) == 1


# Both kinds of binary0k law: the sparse one leaves most root loads at 0, the
# dense one gives every sample its own load.  The sample counts straddle the
# groups of trees drawn and settled together (a power of two, 16 at most)
# and the splits over 2 and 3 threads.
STREAM_LAWS = [B02, binary0k(Fraction(1, 5), k=3)]
BATCH_EDGES = (1, 2, 3, 15, 16, 17, 33, 130)


@pytest.mark.parametrize("law", STREAM_LAWS, ids=str)
@pytest.mark.parametrize("depth", [5, 10, 11])
def test_thread_count_does_not_change_the_stream_at_batch_edges(law, depth):
    for samples in BATCH_EDGES + (300,):
        one = sample_root_load(law, depth, samples, seed=9, threads=1)
        for threads in (2, 3, 4):
            several = sample_root_load(law, depth, samples, seed=9, threads=threads)
            assert np.array_equal(one, several), (samples, threads)


def test_workers_never_outnumber_the_cpus(monkeypatch):
    # threads = 4 still runs 4 chunks, so the same chunk edges, but on the
    # one worker that a single usable CPU allows
    one = sample_root_load(B02, depth=5, samples=130, seed=9, threads=1)
    chunks, pools = [], []
    root_load_chunk = simulate._root_load_chunk

    def chunk(draw, depth, seed, start, stop):
        chunks.append((start, stop))
        return root_load_chunk(draw, depth, seed, start, stop)

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(simulate, "_root_load_chunk", chunk)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Pool)
    assert np.array_equal(one, sample_root_load(B02, depth=5, samples=130, seed=9, threads=4))
    assert chunks == [(0, 33), (33, 66), (66, 99), (99, 130)]
    assert pools == [1]
    assert estimate_root_law(B02, depth=5, samples=130, seed=9, threads=4).threads == 4
    assert root_cluster_stats(B02, depth=5, samples=130, seed=9, threads=4).threads == 4
    assert pools == [1, 1, 1]


def test_threads_default_to_one_whatever_the_environment(monkeypatch):
    monkeypatch.setenv("PARKCRIT_THREADS", "0")
    assert estimate_root_law(B02, depth=3, samples=20, seed=9).threads == 1
    assert root_cluster_stats(B02, depth=3, samples=20, seed=9).threads == 1
    assert root_cluster_stats(B02, depth=3, samples=20, seed=9, threads=3).threads == 3


@pytest.mark.parametrize("law", STREAM_LAWS, ids=str)
@pytest.mark.parametrize("depth", [4, 5, 10, 11])
def test_sample_prefix_stable_at_batch_edges(law, depth):
    # sample i only depends on (seed, i), so prefixes agree
    long = sample_root_load(law, depth, samples=130, seed=3)
    # and each equals its tree settled alone, a level at a time
    draw = make_sampler(law)
    for i, got in enumerate(long):
        levels = draw_levels(draw, 3, i, depth)
        load = levels[-1].astype(np.int64)
        for arrivals in reversed(levels[:-1]):
            surplus = np.maximum(load - 1, 0)
            load = arrivals + surplus[0::2] + surplus[1::2]
        assert got == load[0], i
    for samples in (50,) + BATCH_EDGES:
        for threads in (1, 2, 3):
            short = sample_root_load(law, depth, samples, seed=3, threads=threads)
            assert np.array_equal(short, long[:samples]), (samples, threads)


@pytest.mark.parametrize("law", STREAM_LAWS, ids=str)
@pytest.mark.parametrize("depth", [5, 8, 10, 11])
def test_cluster_stats_thread_count_does_not_change_the_stream_at_batch_edges(law, depth):
    for samples in BATCH_EDGES + (300,):
        one = root_cluster_stats(law, depth, samples, seed=9, threads=1)
        for threads in (2, 3, 4):
            several = root_cluster_stats(law, depth, samples, seed=9, threads=threads)
            assert (one.size_counts, one.censored) == (several.size_counts, several.censored)


@pytest.mark.parametrize("law", STREAM_LAWS, ids=str)
@pytest.mark.parametrize("depth", [5, 8, 10, 11])
def test_cluster_stats_prefix_stable_at_batch_edges(law, depth):
    # sample i only depends on (seed, i), so a longer run only adds samples
    def sizes(samples, threads=1):
        stats = root_cluster_stats(law, depth, samples, seed=3, threads=threads)
        return Counter(dict(enumerate(stats.size_counts)))

    longest = sizes(130)
    for samples in (50,) + BATCH_EDGES[:-1]:
        short = sizes(samples)
        assert not short - longest
        for threads in (1, 2, 3):
            assert sum((sizes(samples + 1, threads) - short).values()) == 1


# Seed 2026, depth 12, 40 samples, recorded when each tree came to be drawn
# in one call from an SFC64 stream: binary0k(1/5, k=3) draws densely, the
# other five by gaps.  Root loads and clusters of these subcritical laws
# rarely reach levels 11 and 12, so PINNED_LEVEL_DIGESTS below pins every
# drawn level as well.
PINNED_STREAMS = {
    "binary0k-dense": (
        binary0k(Fraction(1, 5), k=3),
        [121, 70, 89, 73, 79, 62, 74, 103, 57, 60, 93, 67, 80, 64, 94, 51, 86, 57,
         59, 71, 45, 84, 89, 95, 83, 77, 100, 80, 102, 42, 77, 68, 74, 115, 77, 61,
         68, 79, 49, 81],
        {439: 1, 535: 1, 561: 1, 565: 1, 575: 1, 581: 1, 583: 1, 590: 1, 609: 1,
         613: 1, 618: 1, 628: 1, 644: 1, 652: 1, 659: 1, 661: 1, 665: 1, 674: 2,
         677: 1, 681: 1, 686: 1, 691: 1, 694: 1, 695: 1, 701: 2, 719: 1, 723: 1,
         738: 1, 749: 1, 753: 1, 755: 1, 762: 1, 765: 1, 771: 1, 792: 1, 800: 1,
         801: 1, 834: 1},
        40,
    ),
    "binary0k-sparse": (
        binary0k(Fraction(1, 20)),
        [0] * 23 + [1] + [0] * 15 + [2],
        {0: 38, 1: 1, 8: 1},
        0,
    ),
    "poisson": (
        poisson(0.1),
        [2] + [0] * 11 + [1] + [0] * 10 + [1] + [0] * 15 + [1],
        {0: 36, 1: 2, 2: 1, 3: 1},
        0,
    ),
    "geometric": (
        geometric(Fraction(1, 10)),
        [2] + [0] * 11 + [1] + [0] * 10 + [2] + [0] * 15 + [2],
        {0: 36, 1: 2, 2: 1, 3: 1},
        0,
    ),
    "finite": (
        make_finite_law(
            [Fraction(49, 50), Fraction(1, 100), Fraction(1, 200), Fraction(1, 200)]
        ),
        [1] + [0] * 18 + [2] + [0] * 19 + [3],
        {0: 37, 1: 1, 3: 1, 8: 1},
        0,
    ),
    "nongeneric": (
        nongeneric_example(Fraction(1, 2)),
        [1] + [0] * 11 + [1] + [0] * 26 + [1],
        {0: 37, 1: 2, 2: 1},
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
@pytest.mark.parametrize("threads", [1, 2])
def test_pinned_streams(name, threads):
    law, loads, clusters, censored = PINNED_STREAMS[name]
    got = sample_root_load(law, depth=12, samples=40, seed=2026, threads=threads)
    assert got.tolist() == loads
    stats = root_cluster_stats(law, depth=12, samples=40, seed=2026, threads=threads)
    assert {n: c for n, c in enumerate(stats.size_counts) if c} == clusters
    assert stats.censored == censored


# sha256 of all 13 levels of the 40 samples above, as little-endian int32,
# first 16 hex digits.
PINNED_LEVEL_DIGESTS = {
    "binary0k-dense": "29ff24dce082d530",
    "binary0k-sparse": "a6db85a0855dfc1b",
    "poisson": "657d0e3d2f469567",
    "geometric": "8235d6ebb221eccb",
    "finite": "d305fef0c799f110",
    "nongeneric": "d9844dce5167824d",
}


@pytest.mark.parametrize("name", sorted(PINNED_LEVEL_DIGESTS))
def test_pinned_level_digests(name):
    draw = make_sampler(PINNED_STREAMS[name][0])
    digest = hashlib.sha256()
    for i in range(40):
        for x in draw_levels(draw, 2026, i, 12):
            digest.update(x.astype("<i4").tobytes())
    assert digest.hexdigest()[:16] == PINNED_LEVEL_DIGESTS[name]


# The six pinned laws, plus poisson(2), whose trees are drawn densely.
DRAW_LEVEL_LAWS = {name: entry[0] for name, entry in PINNED_STREAMS.items()}
DRAW_LEVEL_LAWS["poisson-dense"] = poisson(2)


@pytest.mark.parametrize("name", sorted(DRAW_LEVEL_LAWS))
@pytest.mark.parametrize("depth", range(18))
def test_draw_levels_extend_to_the_next_depth(name, depth):
    # the same (seed, index) at depth + 1 keeps every arrival of depth and
    # draws one more level, so estimates are coupled across depths
    draw = make_sampler(DRAW_LEVEL_LAWS[name])
    for index in range(3):
        got = draw_levels(draw, 2026, index, depth)
        deeper = draw_levels(draw, 2026, index, depth + 1)
        assert len(got) == depth + 1 and len(deeper) == depth + 2
        for lvl, (g, w) in enumerate(zip(got, deeper)):
            assert g.tolist() == w.tolist(), (index, lvl)


@pytest.mark.parametrize("name", sorted(DRAW_LEVEL_LAWS))
@pytest.mark.parametrize("depth", [0, 10, 11, 16])
def test_draw_levels_match_one_draw_per_level(name, depth):
    # level lvl of a tree is the last 2^lvl values of a draw of the tree down
    # to lvl, one draw per level, each from a fresh copy of the sample's stream
    draw = make_sampler(DRAW_LEVEL_LAWS[name])
    for index in range(3):
        want = []
        for lvl in range(depth + 1):
            rng = np.random.Generator(np.random.SFC64((2026 << 64) + index))
            want.append(draw(rng, (2 << lvl) - 1)[(1 << lvl) - 1 :])
        got = draw_levels(draw, 2026, index, depth)
        assert len(got) == depth + 1
        for lvl, (g, w) in enumerate(zip(got, want)):
            assert g.tolist() == w.tolist(), (index, lvl)


def test_input_validation():
    with pytest.raises(OutOfDomain):
        sample_root_load(B02, depth=-1, samples=10)
    with pytest.raises(OutOfDomain):
        sample_root_load(B02, depth=1, samples=0)
    with pytest.raises(OutOfDomain):
        sample_root_load(B02, depth=1, samples=10, seed=-1)
    with pytest.raises(BudgetExceeded):
        sample_root_load(B02, depth=40, samples=10**6)
    # 2^2000 overflows a float, yet the refusal still states the cost
    with pytest.raises(BudgetExceeded, match=r"1 \* 2\^2000"):
        estimate_root_law(poisson(0.1), 2000, 1)


@pytest.mark.parametrize("run", [sample_root_load, estimate_root_law, root_cluster_stats])
@pytest.mark.parametrize(
    "bad", [{"depth": 2.5}, {"samples": 4.0}, {"seed": 1.5}, {"threads": 1.5}, {"seed": "1"}], ids=repr
)
def test_non_integer_run_arguments_are_refused(run, bad):
    # seed = 1.5 and depth = 2.5 raised a raw TypeError from <<, samples = 4.0
    # one from range, and threads = 1.5 was cut to 1
    args = {"depth": 3, "samples": 4, "seed": 1, "threads": 1, **bad}
    with pytest.raises(OutOfDomain, match="is not an integer"):
        run(binary0k(0.05), **args)


@pytest.mark.parametrize("run", [sample_root_load, root_cluster_stats])
def test_numpy_integer_run_arguments_are_their_ints(run):
    # np.int64(s) << 64 wrapped to 0, so every numpy seed drew seed 0's stream
    law = binary0k(0.3)
    for seed in (3, 5):
        want = run(law, 4, 6, seed=seed, threads=2)
        got = run(law, np.int64(4), np.int64(6), seed=np.uint64(seed), threads=np.int64(2))
        want, got = (x if run is sample_root_load else x.size_counts for x in (want, got))
        assert np.array_equal(got, want), seed


@pytest.mark.parametrize("run", [estimate_root_law, root_cluster_stats])
def test_run_records_hold_the_checked_ints(run):
    # estimate_root_law recorded the caller's numpy ints, which the JSON
    # output wrote as strings
    st = run(binary0k(0.3), np.int64(3), np.int64(20), seed=np.int64(5), threads=np.int64(2))
    fields = {name: getattr(st, name) for name in ("depth", "samples", "seed", "threads")}
    assert fields == {"depth": 3, "samples": 20, "seed": 5, "threads": 2}
    assert all(type(v) is int for v in fields.values())
    doc = json.loads(json.dumps(cli._plain(cli._record(st))))
    assert {name: doc[name] for name in fields} == fields


@pytest.mark.parametrize("run", [sample_root_load, estimate_root_law, root_cluster_stats])
def test_thread_count_is_checked_first(run):
    with pytest.raises(OutOfDomain, match="thread count must be positive, got 0"):
        run(B02, depth=-1, samples=0, seed=-1, threads=0)


@pytest.mark.parametrize("run, depth", [(estimate_root_law, 40), (root_cluster_stats, 22)])
@pytest.mark.parametrize("budget", [math.nan, 0.0])
def test_budget_that_caps_nothing_is_refused_before_sampling(monkeypatch, run, depth, budget):
    # a NaN budget compares false with every cost; were it let through, a
    # 2^40-node run would start, so building the sampler fails the test at once
    def refuse(law):
        raise AssertionError("the budget check let the run through")

    monkeypatch.setattr(simulate, "make_sampler", refuse)
    with pytest.raises(BudgetExceeded):
        run(B02, depth=depth, samples=10**6, budget=budget)


@pytest.mark.parametrize("run", [sample_root_load, estimate_root_law, root_cluster_stats])
@pytest.mark.parametrize(
    "law, depth",
    [(poisson(3e8), 3), (geometric(1e8), 4), (binary0k(Fraction(1, 2), 2**32), 2)],
    ids=repr,
)
def test_loads_beyond_int32_are_refused_before_any_draw(monkeypatch, run, law, depth):
    # loads settle in int32: poisson(3e8) wrapped to about 2.05e8 a sample
    # where the root load is about 4.5e9, geometric(1e8) gave negative loads
    # and k = 2^32 raised a raw OverflowError; numpy 1.24 may only warn.
    # Every tree is drawn from its own stream, so no stream may be made.
    def refuse(*args):
        raise AssertionError("a tree was drawn")

    monkeypatch.setattr(simulate, "_sample_rng", refuse)
    with pytest.raises(BudgetExceeded, match="int32"):
        run(law, depth, 3, seed=1)


def test_int32_bound_is_the_worst_tree():
    # one node drawing k = 2^31 - 1 fits, k = 2^31 does not
    k = 2**31 - 1
    loads = sample_root_load(binary0k(k - Fraction(1, 2), k), depth=0, samples=4, seed=0)
    assert loads.tolist() == [2**31 - 1] * 4
    with pytest.raises(BudgetExceeded, match="up to 2147483648"):
        sample_root_load(binary0k(Fraction(1, 2), 2**31), depth=0, samples=4, seed=0)
    # three nodes that all draw k give the root 3 k - 2, which is 2^31 - 1
    # at k = 715827883: that k runs and settles exactly, k + 1 is refused
    k = 715827883
    loads = sample_root_load(binary0k(k - Fraction(1, 2), k), depth=1, samples=4, seed=0)
    assert loads.tolist() == [2**31 - 1] * 4
    with pytest.raises(BudgetExceeded, match="up to 2147483650"):
        sample_root_load(binary0k(k + Fraction(1, 2), k + 1), depth=1, samples=4, seed=0)
    # int16's top edge: the same worst trees settle in int16 up to a root
    # load of 2^15 - 1, and one car more in int32
    for k, depth, bits in [(32767, 0, 16), (10923, 1, 16), (32768, 0, 32), (10924, 1, 32)]:
        law = binary0k(k - Fraction(1, 2), k)
        loads = sample_root_load(law, depth, samples=4, seed=0)
        assert loads.tolist() == [((2 << depth) - 1) * (k - 1) + 1] * 4
        assert estimate_root_law(law, depth, samples=4, seed=0).load_bits == bits


def test_tail_bound_of_the_dense_draws():
    # poisson and geometric draw without a largest value: a run is refused
    # unless the tail of the tree's sum past 2^31 - 1 is below 2^-64, about
    # e^-44; below the bound the loads are the sums, not int32 wraps
    x = 2.0**31
    for near, far in [(poisson(x - 8 * math.sqrt(x)), poisson(x - 12 * math.sqrt(x))),
                      (geometric(x / 30), geometric(x / 80))]:
        # P(A >= 2^31) is about e^-35 and e^-30 for the near laws
        with pytest.raises(BudgetExceeded, match="int32"):
            sample_root_load(near, depth=0, samples=4, seed=1)
        loads = sample_root_load(far, depth=0, samples=4, seed=1)
        assert loads.min() > 0 and loads.max() < x
    loads = sample_root_load(poisson(1e8), depth=3, samples=4, seed=1)
    # 15 nodes with about 1e8 cars each: every node but the root keeps one
    assert np.all(np.abs(loads - (15e8 - 14)) < 6 * math.sqrt(15e8))
    loads = sample_root_load(geometric(1e6), depth=3, samples=4, seed=1)
    assert loads.min() > 0 and loads.mean() == pytest.approx(15e6, rel=0.6)


def test_estimate_matches_analytic_empty_prob():
    law = binary0k(0.05)
    stats = estimate_root_law(law, depth=12, samples=3000, seed=11)
    p = classify(law).empty_prob
    assert abs(stats.empty_prob_hat - p) < 3 * stats.empty_prob_ci
    assert sum(stats.root_load_counts) == 3000
    assert stats.flux_probs[0] == pytest.approx(
        (stats.root_load_counts[0] + stats.root_load_counts[1]) / 3000
    )
    assert stats.mean_load == pytest.approx(
        sum(k * c for k, c in enumerate(stats.root_load_counts)) / 3000
    )


def test_both_clocks_include_building_the_sampler(monkeypatch):
    # estimate_root_law and root_cluster_stats time the same span: checks,
    # sampler, chunks and concatenation
    real = simulate.make_sampler

    def slow(law):
        time.sleep(0.05)
        return real(law)

    monkeypatch.setattr(simulate, "make_sampler", slow)
    for stats in (
        estimate_root_law(B02, depth=3, samples=10, seed=1),
        root_cluster_stats(B02, depth=3, samples=10, seed=1),
    ):
        assert stats.elapsed_seconds >= 0.05


def test_throughput_matches_elapsed_seconds():
    nodes = 50 * (2**11 - 1)
    for stats in (
        estimate_root_law(B02, depth=10, samples=50, seed=4),
        root_cluster_stats(B02, depth=10, samples=50, seed=4),
    ):
        assert stats.mnodes_per_s > 0
        assert stats.mnodes_per_s * stats.elapsed_seconds * 1e6 == pytest.approx(nodes)


def test_estimate_flux_against_analytic():
    law = binary0k(0.05)
    stats = estimate_root_law(law, depth=12, samples=4000, seed=5)
    flux = flux_distribution(law, order=30)
    for k in range(3):
        se = stats.flux_standard_error(k)
        assert abs(stats.flux_probs[k] - flux.probs[k]) < 5 * max(se, 1e-4)


def test_poisson_and_geometric_samplers():
    for law, mean in ((poisson(0.3), 0.3), (geometric(0.25), 0.25)):
        draw = make_sampler(law)
        rng = np.random.default_rng(0)
        vals = draw(rng, 20000)
        assert vals.min() >= 0
        assert np.mean(vals) == pytest.approx(mean, abs=5 * math.sqrt(1.0 / 20000) * 2)


def test_finite_law_sampler_hits_support():
    law = make_finite_law([Fraction(1, 2), Fraction(1, 4), 0, Fraction(1, 4)])
    draw = make_sampler(law)
    rng = np.random.default_rng(1)
    vals = draw(rng, 8000)
    assert set(np.unique(vals)) <= {0, 1, 3}
    assert np.mean(vals == 3) == pytest.approx(0.25, abs=0.03)


def test_nongeneric_sampler_mean():
    law = nongeneric_example(1)
    draw = make_sampler(law)
    rng = np.random.default_rng(2)
    vals = draw(rng, 40000)
    assert np.mean(vals) == pytest.approx(1 / 6, abs=0.02)


class RecordingRng:
    """A generator that records (method, size) of each draw."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls.append((name, args[-1]))
            return getattr(self.rng, name)(*args, **kwargs)

        return call


class ZeroGapRng(RecordingRng):
    """Every gap uniform is 0, so every node is an arrival site."""

    def random(self, size, out=None):
        self.calls.append(("random", size))
        rows = self.rng.random(size, out=out)
        rows[:, 0] = 0.0
        return rows


@pytest.fixture
def recorded(monkeypatch):
    """The RecordingRng of each sample that draw_levels draws, in order."""
    rngs, sample_rng = [], simulate._sample_rng

    def recording(seed, index):
        rngs.append(RecordingRng(sample_rng(seed, index)))
        return rngs[-1]

    monkeypatch.setattr(simulate, "_sample_rng", recording)
    return rngs


SPARSE_LAWS = {
    "binary0k": binary0k(Fraction(1, 20)),
    "poisson": poisson(0.1),
    "geometric": geometric(Fraction(1, 10)),
    "finite": PINNED_STREAMS["finite"][0],
    "nongeneric": nongeneric_example(Fraction(1, 2)),
}


@pytest.mark.parametrize("name", sorted(SPARSE_LAWS))
def test_sparse_level_has_the_arrival_law(name, recorded):
    law, depth = SPARSE_LAWS[name], 15
    size = (2 << depth) - 1
    tree = np.concatenate(draw_levels(make_sampler(law), 31, 0, depth))
    counts = np.bincount(tree, minlength=12)
    # one block of rows, far fewer than one per node: a gap uniform per site,
    # and a value uniform unless every site takes the same value
    [(method, (rows, cols))] = recorded[0].calls
    assert method == "random" and rows < size // 4
    assert cols == (1 if name == "binary0k" else 2)
    for k, hits in enumerate(counts):
        p = float(law.coefficient(k))
        # each standard error floored at that of a bin expecting 25 hits
        se = math.sqrt(max(p * (1.0 - p), 25.0 / size) / size)
        assert abs(hits / size - p) < 5 * se, (k, hits, p)


def test_sparse_level_extends_its_gaps():
    # gaps of 1 use up the first block of rows long before the tree ends
    for law, support in ((binary0k(Fraction(1, 20)), {2}), (poisson(0.1), None)):
        rng = ZeroGapRng(np.random.default_rng(5))
        vals = make_sampler(law)(rng, 4096)
        assert len(rng.calls) > 1
        assert vals.min() >= 1
        if support:
            assert set(np.unique(vals)) == support


def test_sparse_level_with_vanishing_arrival_probability():
    # gaps near 2^63, or past the largest float, must not overflow into sites
    # inside the tree, nor overflow at all
    for law in (binary0k(Fraction(1, 10**18)), poisson(1e-19), geometric(1e-19),
                poisson(5e-324)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not make_sampler(law)(np.random.default_rng(3), 1 << 16).any()


def test_dense_level_when_arrivals_are_common(recorded):
    # P(A > 0) = 1 - exp(-2) is above the cut-off, so the whole tree is one
    # dense call
    draw_levels(make_sampler(poisson(2)), 2026, 0, 16)
    assert recorded[0].calls == [("poisson", (2 << 16) - 1)]


@pytest.mark.parametrize(
    "law",
    [poisson(0.1), poisson(0.25), poisson(1e-6), nongeneric_example(Fraction(1, 2)),
     nongeneric_example(1), PINNED_STREAMS["finite"][0]],
    ids=str,
)
def test_conditional_table_misses_almost_no_mass(law):
    masses, q = _positive_masses(law)
    top = len(masses)
    assert masses == [float(law.coefficient(k)) for k in range(1, top + 1)]
    missing = math.fsum(float(law.coefficient(k)) for k in range(top + 1, top + 400))
    assert missing / q < 2.0**-52
    assert q == pytest.approx(1.0 - float(law.coefficient(0)), rel=1e-12)


def _positive_masses_by_coefficient(law):
    # the per-k loop that _positive_masses ran before it read float_coefficients
    masses = [float(law.coefficient(1))]
    while masses[-1] > 2.0**-64 * masses[0]:
        masses.append(float(law.coefficient(len(masses) + 1)))
    beyond = np.append(np.cumsum(masses[::-1])[::-1], 0.0)
    q = math.fsum(masses)
    return masses[: max(1, int(np.argmax(beyond < simulate._TABLE_TAIL * q)))], q


@pytest.mark.parametrize(
    "law",
    [poisson(a) for a in (1e-300, 1e-9, 1e-3, 0.1, 0.25, 0.28, 5.0)]
    + [geometric(a) for a in (1e-9, 0.01, 0.2, 1 / 3, 3.0)]
    + [geometric(Fraction(a)) for a in ("1/10", "1/3", "2/7")]
    + [nongeneric_example(m) for m in (1e-9, 0.01, Fraction(1, 2), 1)],
    ids=str,
)
def test_positive_masses_read_as_the_per_k_loop_did(law):
    # the streams rest on these bits: the same terms, cut at the same k,
    # summed into the same q
    masses, q = _positive_masses(law)
    want, want_q = _positive_masses_by_coefficient(law)
    assert [m.hex() for m in masses] == [m.hex() for m in want]
    assert q.hex() == want_q.hex()


def test_uniforms_resolve_masses_below_2_to_the_minus_24():
    # the largest uniform below 1 lands in a top atom of mass 3e-8 only if
    # it is drawn in float64: float32 stops 2^-24 short of 1
    class TopRng:
        def random(self, size, dtype):
            return np.full(size, np.nextafter(dtype(1), dtype(0)), dtype=dtype)

    tiny = Fraction(3, 10**8)
    law = make_finite_law([Fraction(1, 2), Fraction(1, 2) - tiny, tiny])
    assert make_sampler(law)(TopRng(), 16).tolist() == [2] * 16


def test_unsampleable_law():
    law = CustomAnalyticLaw(
        derivs=lambda t: (1.0, 0.0, 0.0),
        radius=math.inf,
        mu_zero=1.0,
        mean=0.0,
        name="opaque",
    )
    with pytest.raises(UnsampleableLaw):
        make_sampler(law)


def test_cluster_stats_consistent_with_empty_prob():
    law = B02
    stats = root_cluster_stats(law, depth=10, samples=3000, seed=13)
    loads = sample_root_load(law, depth=10, samples=3000, seed=13)
    # size 0 means the root parked no car, which is exactly load 0
    assert stats.size_counts[0] == int(np.sum(loads == 0))
    assert sum(stats.size_counts) + stats.censored <= 3000 + stats.censored
    assert stats.size_prob(0) == pytest.approx(stats.size_counts[0] / 3000)


def test_cluster_size_one_matches_the_weight_table():
    # P(cluster size 1) = p^2 * (mass of arrivals >= 2)
    law = B02
    p = classify(law).empty_prob
    predicted = p * p * float(1 - law.coefficient(0) - law.coefficient(1))
    stats = root_cluster_stats(law, depth=12, samples=6000, seed=17)
    got = stats.size_prob(1)
    sigma = math.sqrt(predicted * (1 - predicted) / 6000)
    assert abs(got - predicted) < 5 * sigma


def test_cluster_depth_cap():
    with pytest.raises(BudgetExceeded):
        root_cluster_stats(B02, depth=23, samples=10)


# --- the grouped kernel against one tree at a time ----------------------------

def gap_tree(rng, size, q, value):
    """A sparse tree drawn one block of rows at a time, with its sites summed
    in floats and its values found by a binary search: row j's first uniform
    sets the gap to site j, its second, if value is a table, the site's
    value."""
    tree = np.zeros(size, dtype=np.int32)
    log_miss = math.log1p(-q)
    cols = 1 if isinstance(value, int) else 2
    last = -1.0
    while last < size - 1:
        rows = rng.random((1000, cols))
        gaps = np.maximum(np.log1p(-rows[:, 0]), (size + 1) * log_miss)
        sites = np.cumsum(np.floor(gaps / log_miss) + 1.0) + last
        inside = sites <= size - 1
        if cols == 1:
            tree[sites[inside].astype(np.intp)] = value
        else:
            masses, values = value
            cdf = np.cumsum(masses)
            idx = np.minimum(np.searchsorted(cdf, rows[inside, 1], side="right"), len(cdf) - 1)
            tree[sites[inside].astype(np.intp)] = values[idx]
        last = sites[-1]
    return tree


def table(law):
    """The masses of A | A > 0 and their values, as the sparse draw reads them."""
    masses, q = _positive_masses(law)
    return q, (np.divide(masses, q), np.arange(1, len(masses) + 1))


POISSON_Q, POISSON_TABLE = table(poisson(0.1))
FINITE_Q, FINITE_TABLE = table(PINNED_STREAMS["finite"][0])
# law, and its tree of `size` nodes drawn from rng
REFERENCE_LAWS = {
    "sparse-one-column": (B02, lambda rng, size: gap_tree(rng, size, 1 / 28, 2)),
    "sparse-poisson": (
        poisson(0.1), lambda rng, size: gap_tree(rng, size, POISSON_Q, POISSON_TABLE)),
    "sparse-finite": (
        PINNED_STREAMS["finite"][0],
        lambda rng, size: gap_tree(rng, size, FINITE_Q, FINITE_TABLE)),
    "dense-binary0k": (
        binary0k(Fraction(1, 5), k=3),
        lambda rng, size: (rng.random(size, dtype=np.float32) < 0.2 / 3).astype(np.int32) * 3),
    "dense-poisson": (poisson(0.5), lambda rng, size: rng.poisson(0.5, size)),
}


def settled_alone(tree, depth):
    """(root load, cluster size, censored) of one tree, settled a level at a time."""
    levels = [tree[(1 << lvl) - 1 : (2 << lvl) - 1].astype(np.int64) for lvl in range(depth + 1)]
    loads = [levels[-1]]
    for arrivals in reversed(levels[:-1]):
        surplus = np.maximum(loads[0] - 1, 0)
        loads.insert(0, arrivals + surplus[0::2] + surplus[1::2])
    cluster, size = loads[0] > 0, 0
    for lvl in range(depth + 1):
        size += int(cluster.sum())
        if lvl < depth:
            cluster = np.repeat(cluster, 2) & (loads[lvl + 1] > 0)
    return int(loads[0][0]), size, bool(cluster.any())


def reference_run(draw, depth, samples, seed, rng_of=None):
    """Root loads, cluster size counts and censored count, one tree at a time."""
    rng_of = rng_of or (lambda i: np.random.Generator(np.random.SFC64((seed << 64) + i)))
    runs = [settled_alone(draw(rng_of(i), (2 << depth) - 1), depth) for i in range(samples)]
    sizes = Counter(size for _, size, _ in runs)
    counts = tuple(sizes[n] for n in range(max(sizes) + 1))
    return [load for load, _, _ in runs], counts, sum(c for _, _, c in runs)


# Sample counts by depth: a group holds up to 16 trees of depth 10 or 11,
# 4 to 8 of depth 16 and 1 or 2 of depth 18; 130 and 35 straddle the
# groups, and split over 2 to 4 threads they leave part groups.
REFERENCE_SAMPLES = {0: 130, 1: 130, 10: 130, 11: 130, 16: 35, 18: 5}


@pytest.mark.parametrize("name", sorted(REFERENCE_LAWS))
@pytest.mark.parametrize("depth", sorted(REFERENCE_SAMPLES))
def test_grouped_runs_match_one_tree_at_a_time(name, depth):
    law, samples = REFERENCE_LAWS[name][0], REFERENCE_SAMPLES[depth]
    loads, counts, censored = reference_run(REFERENCE_LAWS[name][1], depth, samples, seed=77)
    for threads in (1, 2, 3, 4):
        got = sample_root_load(law, depth, samples, seed=77, threads=threads)
        assert got.tolist() == loads, threads
        stats = root_cluster_stats(law, depth, samples, seed=77, threads=threads)
        assert (stats.size_counts, stats.censored) == (counts, censored), threads
    for samples in (n for n in BATCH_EDGES if n < samples):
        got = sample_root_load(law, depth, samples, seed=77, threads=2)
        assert got.tolist() == loads[:samples], samples


# A run whose loads settle in int16, and one just past that width, which
# settles in int32: the arrivals of a depth-14 poisson(2) tree sum to 65,534
# on average.  19 samples fill groups of 8 and leave part groups, at one
# thread and at two.
WIDTH_RUNS = {
    "int16": (binary0k(0.05), 16, lambda rng, size: gap_tree(rng, size, 0.025, 2)),
    "int32": (poisson(2), 14, lambda rng, size: rng.poisson(2.0, size)),
}


@pytest.mark.parametrize("name", sorted(WIDTH_RUNS))
def test_both_load_widths_match_one_tree_at_a_time(name):
    law, depth, draw_tree = WIDTH_RUNS[name]
    loads, counts, censored = reference_run(draw_tree, depth, 19, seed=77)
    for threads in (1, 2):
        got = sample_root_load(law, depth, 19, seed=77, threads=threads)
        assert got.tolist() == loads, threads
        assert got.dtype == np.int64  # not the width the loads settle in
        stats = root_cluster_stats(law, depth, 19, seed=77, threads=threads)
        assert (stats.size_counts, stats.censored) == (counts, censored), threads
        assert stats.load_bits == int(name[3:])
    assert make_sampler(law)(np.random.default_rng(1), 7).dtype == np.int32


# The mc-root-law benchmark's laws.  At depth 16 their trees settle in int16,
# and sample_root_load's groups hold twice the trees that int32 trees allow.
GROUP_LAWS = {
    "binary0k": (binary0k(0.05), 8),
    "poisson": (poisson(0.1), 4),
    "geometric": (geometric(0.1), 4),
    "finite": (PINNED_STREAMS["finite"][0], 8),
}


@pytest.mark.parametrize("name", sorted(GROUP_LAWS))
def test_int16_groups_double_and_fit_the_budget(name):
    law, group = GROUP_LAWS[name]
    stats = estimate_root_law(law, 16, 2 * group, seed=3, threads=1)
    assert (stats.load_bits, stats.group_trees) == (16, group)
    size = (2 << 16) - 1
    assert make_sampler(law).workspace(size, 16, True, np.int32)[0] == group // 2
    # every array a group allocates, temporaries included, within the budget;
    # the run's output is its chunk's
    tracemalloc.start()
    try:
        sample_root_load(law, 16, group, seed=3, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= simulate._GROUP_BYTES + group * 8 + 64 * 1024, peak


def test_load_width_follows_the_tail_bound():
    finite = PINNED_STREAMS["finite"][0]
    cases = [
        (binary0k(0.05), 18, 16),  # the tail past 2^15 - 1 is below e^-380
        (binary0k(0.05), 19, 32),  # the mean sum, 52,429, is past it
        (poisson(0.1), 17, 16),
        (poisson(0.1), 18, 32),
        (finite, 16, 16),
        (poisson(2), 13, 32),  # a mean sum of 32,766: the tail is far above 2^-64
        (poisson(2), 12, 16),
        # a certain bound of 2^15 and a tail of 1e-30: the value 2^15 itself
        # does not fit int16
        (binary0k(Fraction(2, 10**30), 2**15), 0, 32),
    ]
    for law, depth, bits in cases:
        assert simulate._layout(law, depth, 1, False)["load_bits"] == bits, (law, depth)


@pytest.mark.parametrize("alpha, depth", [(0.05, 16), (0.05, 18), (0.01, 19), (0.24, 16)])
def test_tail_bound_through_the_pgf_bounds_the_binomial_tail(alpha, depth):
    # binary0k(alpha) draws 2 Binomial(n, alpha / 2) cars over n nodes.  The
    # bound through its pgf lies above the log of the exact tail; where it
    # does not settle int16 at once, the bisection ends at the least bound,
    # within log n of the exact tail
    n, p, x = (2 << depth) - 1, alpha / 2, 2**15
    terms = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
             + j * math.log(p) + (n - j) * math.log1p(-p)
             for j in range(x // 2, min(n, x // 2 + 5000) + 1)]  # the rest adds below 1e-100
    top = max(terms)
    exact = top + math.log(math.fsum(math.exp(t - top) for t in terms))
    bound = simulate._log_sum_tail(binary0k(alpha), n, x)
    if bound <= simulate._LOG_TAIL:
        assert exact <= bound < 0
    else:
        assert exact - 1e-9 <= bound <= exact + math.log(n)


@pytest.mark.parametrize("name", ["sparse-one-column", "sparse-poisson"])
def test_a_tree_whose_first_block_ends_inside_it_draws_on_alone(monkeypatch, name):
    # sample 1 reads gap uniforms of 0: every node is a site, so its first
    # block of rows ends far inside its tree, while the rest of its group
    # places each tree's sites from one block.  At depth 11 sample_root_load
    # folds the deepest level into the one above, and root_cluster_stats
    # keeps it.
    law, depth, rngs = REFERENCE_LAWS[name][0], 11, {}

    def rng_of(i):
        rng = np.random.Generator(np.random.SFC64((5 << 64) + i))
        return ZeroGapRng(rng) if i == 1 else RecordingRng(rng)

    def recording(seed, index):
        rngs[index] = rng_of(index)
        return rngs[index]

    loads, counts, censored = reference_run(REFERENCE_LAWS[name][1], depth, 4, seed=5, rng_of=rng_of)
    monkeypatch.setattr(simulate, "_sample_rng", recording)
    assert sample_root_load(law, depth, 4, seed=5).tolist() == loads
    calls = [len(rngs[i].calls) for i in range(4)]
    assert calls[1] > 1 and calls[:1] + calls[2:] == [1, 1, 1]
    stats = root_cluster_stats(law, depth, 4, seed=5)
    assert (stats.size_counts, stats.censored) == (counts, censored)
    assert counts[-1] == 1 and censored == 1  # the tree of sites fills to the bottom


@pytest.mark.parametrize(
    "law",
    [poisson(0.1), poisson(0.25), poisson(1e-6), geometric(Fraction(1, 10)),
     PINNED_STREAMS["finite"][0], nongeneric_example(Fraction(1, 2))],
    ids=str,
)
def test_cut_lookup_matches_a_binary_search(law):
    # u below the second cut takes its value from one comparison; the rest
    # must find what a binary search over the whole table finds
    masses, q = _positive_masses(law)
    for table, base in ((np.divide(masses, q), 1), (masses[:1], 1), (masses[:2], 1),
                        (law.float_coefficients(len(masses)), 0)):
        cdf = np.cumsum(table)
        lookup = simulate._inverse_cdf(table, base)
        for dtype in (np.float64, np.float32):
            u = np.concatenate([[0.0], cdf, [np.nextafter(1.0, 0.0)],
                                np.random.default_rng(8).random(10**5)]).astype(dtype)
            want = base + np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
            assert lookup(u, np.empty(len(u), np.int32)).tolist() == want.tolist()
            rows = u[:100_000].reshape(2, -1)
            got = lookup(rows, np.empty(rows.shape, np.int32))
            assert got.reshape(-1).tolist() == want[:100_000].tolist()


def test_root_load_histogram_stops_at_load_bins():
    # poisson(1e5) at depth 3 gives root loads near 1.5e6: a bin per load
    # took 1.5 million bins for 4 samples
    stats = estimate_root_law(poisson(1e5), 3, 4, seed=1)
    loads = sample_root_load(poisson(1e5), 3, 4, seed=1)
    assert stats.root_load_counts == (0,) * simulate.LOAD_BINS
    assert stats.root_load_tail == 4
    assert stats.flux_probs == (0.0,) * (simulate.LOAD_BINS - 1)
    assert stats.mean_load == loads.mean()
    # poisson(70) gives 15 nodes about 1050 cars and the root about 1036
    loads = sample_root_load(poisson(70), 3, 60, seed=2)
    stats = estimate_root_law(poisson(70), 3, 60, seed=2)
    assert 0 < stats.root_load_tail == np.sum(loads >= simulate.LOAD_BINS) < 60
    assert stats.root_load_counts == tuple(
        int(np.sum(loads == k)) for k in range(simulate.LOAD_BINS))
