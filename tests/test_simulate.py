"""Monte Carlo sampler for the root load on deep truncated trees.

Statistical assertions use wide (5 sigma) bands so they stay quiet on
reruns; exact reproducibility assertions use fixed seeds.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

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
    estimate_root_law,
    make_sampler,
    root_cluster_stats,
    sample_root_load,
)

B02 = binary0k(Fraction(1, 14))


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


# Streams recorded before the draw-and-settle kernel was shared between
# sample_root_load and root_cluster_stats: seed 2026, depth 12, 40 samples.
# binary0k(1/5, k=3) draws its big levels densely, binary0k(1/20) sparsely.
PINNED_STREAMS = {
    "binary0k-dense": (
        binary0k(Fraction(1, 5), k=3),
        [51, 75, 83, 53, 60, 57, 61, 78, 75, 59, 89, 97, 73, 63, 41, 89, 109, 72,
         94, 83, 38, 68, 102, 65, 61, 66, 73, 42, 82, 100, 53, 45, 82, 61, 107,
         100, 83, 89, 52, 77],
        {n: 1 for n in (
            457, 463, 505, 510, 529, 536, 542, 553, 563, 574, 578, 604, 629, 639,
            641, 644, 655, 660, 665, 667, 668, 672, 682, 696, 699, 711, 723, 725,
            731, 740, 741, 750, 764, 772, 782, 783, 784, 792, 794, 801)},
        40,
    ),
    "binary0k-sparse": (
        binary0k(Fraction(1, 20)),
        [0] * 8 + [1] + [0] * 16 + [1, 0, 0, 0, 2] + [0] * 10,
        {0: 37, 1: 1, 2: 1, 14: 1},
        0,
    ),
    "poisson": (
        poisson(0.1),
        [1, 0, 0, 0, 0, 0, 1] + [0] * 17 + [1] + [0] * 15,
        {0: 37, 1: 3},
        0,
    ),
    "geometric": (
        geometric(Fraction(1, 10)),
        [1, 0, 0, 0, 0, 0, 1, 0, 0, 1] + [0] * 14 + [1] + [0] * 13 + [1, 0],
        {0: 35, 1: 3, 2: 2},
        0,
    ),
    "finite": (
        make_finite_law(
            [Fraction(49, 50), Fraction(1, 100), Fraction(1, 200), Fraction(1, 200)]
        ),
        [0, 0, 1] + [0] * 6 + [1] + [0] * 6 + [2] + [0] * 21 + [1, 0],
        {0: 36, 1: 1, 3: 2, 12: 1},
        0,
    ),
    "nongeneric": (
        nongeneric_example(Fraction(1, 2)),
        [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1] + [0] * 19,
        {0: 35, 1: 3, 2: 1, 3: 1},
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


def test_input_validation():
    with pytest.raises(OutOfDomain):
        sample_root_load(B02, depth=-1, samples=10)
    with pytest.raises(OutOfDomain):
        sample_root_load(B02, depth=1, samples=0)
    with pytest.raises(OutOfDomain):
        sample_root_load(B02, depth=1, samples=10, seed=-1)
    with pytest.raises(BudgetExceeded):
        sample_root_load(B02, depth=40, samples=10**6)


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


def test_unsampleable_law():
    law = CustomAnalyticLaw(
        derivs=lambda t, order: (1.0,) + (0.0,) * order,
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
