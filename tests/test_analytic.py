"""Regime classification, critical quantities, and the flux law.

The numeric targets here were computed independently with exact algebra
(see the closed forms inline) and frozen, so a regression in any solver
shows up as a drift from these constants.
"""

import contextlib
import dataclasses
import hashlib
import math
import operator
import random
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from parkcrit import analytic
from parkcrit.analytic import (
    classify,
    critical_quantities,
    density_from_time,
    empty_vertex_offspring,
    find_alpha_c,
    find_critical_time,
    flux_distribution,
    flux_zero_gf,
    kernel_margin,
    mean_identities,
    occupancy_self_consistency,
    solve_empty_prob,
    time_from_density,
)
from parkcrit.errors import (
    BracketFailure,
    IterationCapExceeded,
    NegativeCoefficient,
    NoRootWithinBudget,
    NoSolution,
    NotCritical,
    OutOfDomain,
    ParkingModelError,
)
from parkcrit.laws import (
    CustomAnalyticLaw,
    PoissonLaw,
    binary0k,
    geometric,
    make_finite_law,
    nongeneric_example,
    poisson,
)

B02_CRIT = binary0k(Fraction(1, 14))
B02_SUB = binary0k(0.05)
B02_SUP = binary0k(0.2)
GEO_CRIT = geometric(Fraction(1, 8))
GEO_SUB = geometric(0.05)
POI_CRIT = poisson(3 - 2 * math.sqrt(2))


def test_critical_binary_pair():
    r = classify(B02_CRIT)
    assert r.regime == "critical"
    assert r.critical_time == pytest.approx(3.0, abs=1e-9)
    assert r.crit_density == pytest.approx(7 / 8, abs=1e-12)
    assert r.empty_prob == pytest.approx(7 / 8, abs=1e-12)
    # 2 G sqrt(G - t G') / ((2G - t G') sqrt(mu0)) at t = 3 is 4 sqrt(6) / 9
    assert r.gf_at_crit == pytest.approx(4 * math.sqrt(6) / 9, rel=1e-12)
    assert r.occupied_no_flux_prob == pytest.approx(7 / (3 * math.sqrt(6)) - 7 / 8, rel=1e-10)


def test_critical_geometric():
    r = classify(GEO_CRIT)
    assert r.regime == "critical"
    assert r.empty_prob == pytest.approx(27 / 32, abs=1e-10)
    assert r.gf_at_crit == pytest.approx(2 / math.sqrt(3), rel=1e-10)


def test_critical_poisson():
    r = classify(POI_CRIT)
    assert r.regime == "critical"
    assert r.critical_time == pytest.approx(2 + math.sqrt(2), abs=1e-9)


def test_subcritical_binary():
    r = classify(B02_SUB)
    assert r.regime == "subcritical"
    assert r.gap > 0
    assert r.critical_time == pytest.approx(math.sqrt(13), abs=1e-9)
    assert r.crit_density == pytest.approx(1.0400628679223047, abs=1e-10)
    # with G'' constant the empty prob solves t^3 - 39 t + 78 = 0 scaled back
    assert r.empty_prob == pytest.approx(0.9187370948512927, abs=1e-10)


def test_supercritical_binary():
    r = classify(B02_SUP)
    assert r.regime == "supercritical"
    assert r.gap < 0
    assert r.empty_prob is None
    assert r.crit_density is None
    with pytest.raises(NoSolution):
        flux_distribution(B02_SUP)
    with pytest.raises(NotCritical):
        critical_quantities(B02_SUP)


def _patch_report(monkeypatch, **fields):
    """Make analytic.classify report the given fields over the true report.

    classify itself refuses what no packaged law gives, so the guards
    downstream of it are reached through a planted report.
    """
    true = analytic.classify
    monkeypatch.setattr(analytic, "classify", lambda law: dataclasses.replace(true(law), **fields))


# below the first block, on one block, and over several
_BLOCK_ORDERS = [analytic._FLUX_BLOCK - 1, 40, 3 * analytic._FLUX_BLOCK + 5]


@pytest.mark.parametrize("order", _BLOCK_ORDERS)
def test_flux_refuses_entries_that_are_not_probabilities(monkeypatch, order):
    # P(flux = 0) = sqrt(p / mu0) overflows to inf, and every later entry is
    # NaN: the blocks carry that through without a numpy warning
    _patch_report(monkeypatch, empty_prob=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoSolution, match=r"P\(flux = 0\) came out inf"):
            flux_distribution(B02_SUB, order)


@pytest.mark.parametrize("order", _BLOCK_ORDERS + [200])
def test_flux_refuses_an_overflow_without_a_warning(monkeypatch, order):
    # an empty_prob of 1e-6 makes the entries grow until, at order 200, the
    # blocks' products overflow: numpy must not warn, and the error is the
    # one the first bad entry gives at any order
    _patch_report(monkeypatch, empty_prob=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NegativeCoefficient, match=r"P\(flux = 4\) came out -8322929\.4"):
            flux_distribution(B02_SUB, order)


@pytest.mark.parametrize("order", [60] + _BLOCK_ORDERS[1:])
def test_flux_refuses_a_mass_above_one(monkeypatch, order):
    # an empty_prob 2% low gives entries in [0, 1] that sum to 1 + 3.2e-11
    _patch_report(monkeypatch, empty_prob=0.98 * classify(poisson(0.1)).empty_prob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoSolution, match=r"flux mass 1\.00000000003\d* exceeds 1"):
            flux_distribution(poisson(0.1), order)


def _flux_from_blocks(monkeypatch, entries, base=0.5):
    """flux_distribution(B02_SUB, 40) with the blocks returning base^(k+1)
    at each k = 0..40, or the value entries give for k."""
    q = [base ** (k + 1) for k in range(41)]
    for k, v in entries.items():
        q[k] = v
    monkeypatch.setattr(analytic, "_flux_blocks", lambda g, p, head, s, order: list(q))
    return flux_distribution(B02_SUB, 40)


# each message is the one that a loop over the entries, first for those
# below -1e-10 and then for those not in [0, 1], gave for the same list
@pytest.mark.parametrize(
    "entries, error, message",
    [
        ({7: -1e-9, 12: -2e-9}, NegativeCoefficient, "P(flux = 7) came out -1e-09"),
        ({3: math.nan, 9: -1e-9}, NegativeCoefficient, "P(flux = 9) came out -1e-09"),
        ({0: math.nan}, NoSolution, "P(flux = 0) came out nan"),
        ({5: math.nan, 8: 1.5}, NoSolution, "P(flux = 5) came out nan"),
        ({6: math.inf, 30: math.nan}, NoSolution, "P(flux = 6) came out inf"),
        ({4: 1.5, 20: math.nan}, NoSolution, "P(flux = 4) came out 1.5"),
        ({4: math.inf, 8: -math.inf}, NegativeCoefficient, "P(flux = 8) came out -inf"),
        ({0: -math.inf, 1: math.inf}, NegativeCoefficient, "P(flux = 0) came out -inf"),
        ({2: 1e308, 3: 1e308}, NoSolution, "P(flux = 2) came out 1e+308"),
    ],
)
def test_flux_checks_name_the_first_bad_entry(monkeypatch, entries, error, message):
    # +inf with -inf makes fsum raise ValueError, and 1e308 twice overflows
    # it: the coded error comes first either way
    with pytest.raises(error) as info:
        _flux_from_blocks(monkeypatch, entries)
    assert str(info.value) == message


def test_flux_checks_refuse_a_mass_above_one(monkeypatch):
    with pytest.raises(NoSolution) as info:
        _flux_from_blocks(monkeypatch, {0: 0.75, 1: 0.25 + 2e-12}, base=0.0)
    assert str(info.value) == "flux mass 1.000000000002 exceeds 1"


def test_flux_checks_zero_a_rounding_slip(monkeypatch):
    # an entry in [-1e-10, 0) becomes 0.0; -0.0 is not below 0 and stays
    got = _flux_from_blocks(monkeypatch, {5: -1e-12, 6: -1e-10, 7: -0.0})
    want = [0.5 ** (k + 1) for k in range(41)]
    want[5:8] = [0.0, 0.0, -0.0]
    assert [v.hex() for v in got.probs] == [v.hex() for v in want]
    assert got.tail_mass == 1.0 - math.fsum(want)


def test_critical_quantities_refuses_empty_prob_outside_unit_interval(monkeypatch):
    # at t = 1.5 the closed form t^2 / (4 (t - 1) G(t)) of binary0k(1/14) is 1.077
    _patch_report(monkeypatch, critical_time=1.5)
    with pytest.raises(NoSolution, match=r"not in \[0, 1\]"):
        critical_quantities(B02_CRIT)


def test_classify_refuses_impossible_probabilities(monkeypatch):
    # guards only: no packaged law reaches them once the decision is scale-free
    monkeypatch.setattr(analytic, "solve_empty_prob", lambda law: (2.5, 1.5))
    with pytest.raises(NoSolution, match=r"empty-root probability 1\.5 is not in \[0, 1\]"):
        classify.__wrapped__(B02_SUB)
    monkeypatch.setattr(analytic, "_occupied_no_flux", lambda law, p: -0.25)
    with pytest.raises(NoSolution, match=r"P\(occupied, no flux\) = -0.25 is negative"):
        classify.__wrapped__(B02_CRIT)


# ROADMAP item 1: at these means poisson read critical with an empty_prob up to
# 3.1e40, raised ZeroDivisionError once G^2 underflowed, or, like geometric at
# 1e-7 and 1e-8, ran out of the grid's time budget
@pytest.mark.parametrize(
    "law",
    [poisson(a) for a in (22, 40, 100, 360, 440, 500, 1e3, 1e5, 1e9)] + [geometric(3e9)],
    ids=repr,
)
def test_large_means_are_supercritical(law):
    r = classify(law)
    assert (r.regime, r.empty_prob) == ("supercritical", None)


@pytest.mark.parametrize(
    "law, regime",
    [
        (poisson(1e300), "supercritical"),  # t_c = 5.9e-301, 1000 halvings from t = 1
        (poisson(1e-300), "subcritical"),
        (geometric(1e-300), "subcritical"),
        (binary0k(1e-323), "subcritical"),  # t_c = 2.6e161, where t^2 overflows
    ],
    ids=repr,
)
def test_means_at_the_ends_of_the_floats_get_a_regime(law, regime):
    # the grid scan raised NoRootWithinBudget on all four (poisson(1e300) was
    # not even a law); each search now ends, though it doubles or halves
    # about 1000 times
    r = classify(law)
    assert r.regime == regime
    if regime == "subcritical":
        # 1 - mean rounds to 1; the density at the root could round above it
        assert r.empty_prob == 1.0 and r.occupied_no_flux_prob == 0.0


def _nan_from(start, radius):
    """G = 1 below start and NaN from there on."""
    return CustomAnalyticLaw(
        lambda t: (1.0, 0.0, 0.0) if t < start else (math.nan,) * 3,
        radius, 0.5, 0.4, f"NaN from {start}",
    )


def test_search_ends_on_a_nan_margin():
    # h is NaN from t = 1: the search halved t down to 0, about 1075 times,
    # and the law came back supercritical
    with pytest.raises(NoSolution, match="margin is NaN"):
        find_critical_time(_nan_from(0.0, math.inf))


def test_search_refuses_a_nan_margin_inside_the_bracket():
    # poisson(0.3) but NaN on (1.5, 1.9): the log-scale halving took the NaN
    # for a negative margin and ended at t = 1.4999999999999445, where the
    # true t_c is 1.953
    base = poisson(0.3)

    def derivs(t):
        g = base.pgf(t)
        return (math.nan,) * 3 if 1.5 < t < 1.9 else (g, 0.3 * g, 0.3 * 0.3 * g)

    law = CustomAnalyticLaw(derivs, math.inf, base.mu0, 0.3, "poisson(0.3) with a NaN band")
    with pytest.raises(NoSolution, match="margin is NaN"):
        find_critical_time(law)


def test_search_refuses_a_nan_margin_at_the_radius():
    # h = sqrt(2) up to the cap, NaN at the radius: it read evaluable there
    with pytest.raises(NoSolution, match="margin is NaN"):
        find_critical_time(_nan_from(10.0, 10.0))


@pytest.mark.parametrize("law", [poisson(1e-7), geometric(1e-7), geometric(1e-8)], ids=repr)
def test_small_means_are_subcritical(law):
    r = classify(law)
    assert r.regime == "subcritical"
    assert 1.0 - 2.0 * law.mean() < r.empty_prob < 1.0
    if law.kind == "poisson":
        t_c = (2.0 - math.sqrt(2.0)) / law.mean()
        assert abs(r.critical_time - t_c) <= analytic.REL_ROOT_TOL * t_c


def test_regime_monotone_in_mean():
    regimes = [classify(binary0k(a)).regime for a in (0.02, Fraction(1, 14), 0.4)]
    assert regimes == ["subcritical", "critical", "supercritical"]


def test_kernel_margin_sign_change():
    assert kernel_margin(B02_CRIT, 1.0) > 0
    assert kernel_margin(B02_CRIT, 3.5) < 0
    assert abs(kernel_margin(B02_CRIT, 3.0)) < 1e-12


def test_kernel_margin_is_the_margin_over_g_squared():
    assert kernel_margin(B02_CRIT, 0) == 2
    # exact at an exact t
    for t in (Fraction(1, 2), Fraction(3, 2), 3):
        g0, g1, g2 = (
            sum(math.perm(k, j) * p * t ** (k - j) for k, p in B02_CRIT.atoms if k >= j)
            for j in range(3)
        )
        assert B02_CRIT.pgf(t) == g0
        assert kernel_margin(B02_CRIT, t) == (2 * (g0 - t * g1) ** 2 - t * t * g0 * g2) / g0**2


def test_find_critical_time_caches_and_reports():
    info = find_critical_time(B02_CRIT)
    assert info.evaluable and not info.at_radius
    assert info.t == pytest.approx(3.0, abs=1e-9)
    assert find_critical_time(B02_CRIT) is info  # cached


def test_density_time_round_trip():
    for law in (B02_CRIT, B02_SUB, GEO_CRIT):
        t_c = find_critical_time(law).t
        for frac in (0.2, 0.5, 0.9):
            t = frac * t_c
            x = density_from_time(law, t)
            assert time_from_density(law, x) == pytest.approx(t, rel=1e-9)


def test_density_increasing_up_to_critical_time():
    t_c = find_critical_time(B02_CRIT).t
    ts = [t_c * f / 10 for f in range(1, 11)]
    xs = [density_from_time(B02_CRIT, t) for t in ts]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_fixed_point_identity():
    # mu0 x F0(x)^2 = 1 at the empty probability, whatever the regime
    for law in (B02_CRIT, B02_SUB, GEO_CRIT, GEO_SUB, POI_CRIT):
        r = classify(law)
        residual = law.mu0 * r.empty_prob * flux_zero_gf(law, r.empty_prob) ** 2 - 1
        assert abs(residual) < 1e-9


def test_solve_empty_prob_subcritical_root():
    t_star, p = solve_empty_prob(B02_SUB)
    assert p == pytest.approx(0.9187370948512927, abs=1e-10)
    # the fixed point value crosses 1 strictly before the margin vanishes
    assert 0 < t_star < find_critical_time(B02_SUB).t
    assert density_from_time(B02_SUB, t_star) == pytest.approx(p, abs=1e-12)


def test_critical_quantities_closed_form():
    q = critical_quantities(B02_CRIT)
    g = 9 / 7
    t = q.critical_time
    assert q.crit_density == pytest.approx(t * t / (4 * (t - 1) * g), rel=1e-9)
    assert q.crit_density == pytest.approx(7 / 8, abs=1e-10)


def test_offspring_law_at_criticality():
    r = classify(B02_CRIT)
    off = empty_vertex_offspring(r.empty_prob, r.occupied_no_flux_prob)
    assert off.p0 + off.p1 + off.p2 == pytest.approx(1.0, abs=1e-12)
    assert off.mean == pytest.approx(off.p1 + 2 * off.p2, abs=1e-12)
    assert off.mean > 1  # empty vertices branch supercritically below t_c


def test_flux_distribution_subcritical():
    flux = flux_distribution(B02_SUB, order=50)
    total = math.fsum(flux.probs)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert flux.probs[0] == pytest.approx(flux.empty_prob + flux.occupied_no_flux_prob, abs=1e-12)
    assert all(p >= 0 for p in flux.probs)
    assert flux.tail_mass < 1e-9
    # mean flux and mean load tie back to the arrival mean
    assert flux.mean_flux == pytest.approx((1 - flux.empty_prob) - 0.05, abs=1e-9)
    assert flux.mean_occupancy == pytest.approx(2 * (1 - flux.empty_prob) - 0.05, abs=1e-9)


@pytest.mark.parametrize("order", [2.5, 40.0, "40"])
def test_flux_order_must_be_an_integer(order):
    # these used to raise a raw TypeError
    with pytest.raises(OutOfDomain, match="not an integer"):
        flux_distribution(B02_SUB, order)


def test_time_from_density_refuses_nan():
    # NaN used to pass the range checks and run ITER_CAP bisection steps
    with pytest.raises(OutOfDomain, match="NaN"):
        time_from_density(poisson(0.1), math.nan)


def test_flux_distribution_critical_matches_quantities():
    flux = flux_distribution(B02_CRIT, order=50)
    assert flux.empty_prob == pytest.approx(7 / 8, abs=1e-10)
    assert flux.probs[0] == pytest.approx(math.sqrt((7 / 8) / (27 / 28)), abs=1e-10)
    assert flux.mean_occupancy == pytest.approx(5 / 28, abs=1e-9)
    assert flux.mean_flux == pytest.approx(3 / 56, abs=1e-9)


def test_occupancy_probs_and_self_consistency():
    flux = flux_distribution(B02_SUB, order=50)
    occ = flux.occupancy_probs(10)
    assert occ[0] == pytest.approx(flux.empty_prob, abs=1e-12)
    assert occ[1] == pytest.approx(flux.probs[0] - flux.empty_prob, abs=1e-12)
    assert occ[2] == pytest.approx(flux.probs[1], abs=1e-12)
    residuals = occupancy_self_consistency(B02_SUB, flux, upto=30)
    assert max(abs(r) for r in residuals) < 1e-9


def test_mean_identities():
    report = mean_identities(B02_SUB)
    flux = flux_distribution(B02_SUB, order=50)
    assert report["mean_arrivals"] == pytest.approx(0.05, abs=1e-15)
    assert report["mean_flux"] == pytest.approx(flux.mean_flux, abs=1e-9)
    assert report["mean_occupancy"] == pytest.approx(flux.mean_occupancy, abs=1e-9)
    with pytest.raises(NoSolution):
        mean_identities(B02_SUP)


def test_each_law_is_classified_once():
    # the decision band is one constant, so every caller shares classify's cache entry
    classify.cache_clear()
    classify(B02_CRIT)
    flux_distribution(B02_CRIT, order=10)
    mean_identities(B02_CRIT)
    critical_quantities(B02_CRIT)
    assert classify.cache_info().misses == 1


def test_alpha_c_known_values():
    assert find_alpha_c("binary0k", k=2) == pytest.approx(1 / 14, abs=1e-9)
    assert find_alpha_c("poisson") == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-9)
    assert find_alpha_c("geometric") == pytest.approx(1 / 8, abs=1e-9)


def test_alpha_c_bracket_failure():
    with pytest.raises(BracketFailure):
        find_alpha_c("binary0k", k=2, lo=0.2, hi=0.5)


# (float.hex of alpha_c, pairs in the trace) per (family, k, tol), recorded
# when find_alpha_c began to solve the critical system by Newton's method:
# the trace is the two flanks.  poisson's is the correctly rounded
# 3 - 2 sqrt(2) (the float expression 3 - 2 * math.sqrt(2) is 7 ulps below
# it) and geometric's is 1/8; binary0k's are one ulp below float(1/14) and
# two ulps above the correctly rounded k = 3 closed form
PINNED_ALPHA_C = {
    ("binary0k", 2, 1e-9): ("0x1.2492492492491p-4", 2),
    ("binary0k", 2, 1e-11): ("0x1.2492492492491p-4", 2),
    ("binary0k", 3, 1e-9): ("0x1.8c69c039d5802p-6", 2),
    ("binary0k", 3, 1e-11): ("0x1.8c69c039d5802p-6", 2),
    ("poisson", None, 1e-9): ("0x1.5f619980c4337p-3", 2),
    ("poisson", None, 1e-11): ("0x1.5f619980c4337p-3", 2),
    ("geometric", None, 1e-9): ("0x1.0000000000000p-3", 2),
    ("geometric", None, 1e-11): ("0x1.0000000000000p-3", 2),
}

# the same, recorded while find_alpha_c bisected the whole bracket
BISECTION_ALPHA_C = {
    ("binary0k", 2, 1e-9): ("0x1.249249345598fp-4", 33),
    ("binary0k", 2, 1e-11): ("0x1.2492492495998p-4", 40),
    ("binary0k", 3, 1e-9): ("0x1.8c69c06e71d7ep-6", 34),
    ("binary0k", 3, 1e-11): ("0x1.8c69c03931d92p-6", 41),
    ("poisson", None, 1e-9): ("0x1.5f61997ec9776p-3", 38),
    ("poisson", None, 1e-11): ("0x1.5f619980d6772p-3", 45),
    ("geometric", None, 1e-9): ("0x1.ffffffecadee1p-4", 38),
    ("geometric", None, 1e-11): ("0x1.0000000001f70p-3", 45),
}


@contextlib.contextmanager
def regime_gaps():
    """The (alpha, gap) pairs that find_alpha_c reads inside the block, in order."""
    seen, gap = [], analytic._regime_gap

    def recorded(law):
        seen.append((law.alpha, gap(law)))
        return seen[-1][1]

    with mock.patch.object(analytic, "_regime_gap", recorded):
        yield seen


@pytest.mark.parametrize("family, k, tol", list(PINNED_ALPHA_C))
def test_alpha_c_pinned(family, k, tol):
    with regime_gaps() as trace:
        alpha_c = find_alpha_c(family, k=k, tol=tol)
    assert (alpha_c.hex(), len(trace)) == PINNED_ALPHA_C[family, k, tol]


@pytest.mark.parametrize("family, k, tol", list(BISECTION_ALPHA_C))
def test_alpha_c_within_tol_of_the_bisection(family, k, tol):
    # both end on a bracket of width at most tol around the same sign change
    old = float.fromhex(BISECTION_ALPHA_C[family, k, tol][0])
    assert abs(find_alpha_c(family, k=k, tol=tol) - old) <= tol


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_alpha_c_refuses_a_tol_that_is_not_finite(tol):
    # an infinite tol used to return the bracket midpoint, a NaN one ran as 0,
    # and one of at most 0 ran the bracket search until its cap
    with pytest.raises(OutOfDomain, match="not positive" if math.isfinite(tol) else "not finite"):
        find_alpha_c("poisson", tol=tol)


def _binary0k_alpha_c(k):
    """The closed form of binary0k's alpha_c, as criterion 2 states it."""
    s = math.sqrt((k + 7) / (k - 1))
    inner = (k - 1) * (k + 4) + k * math.sqrt((k + 7) * (k - 1))
    return k / (1 + 2 ** (-k - 2) * (3 + s) ** k * inner)


def _family(family, k):
    """(make, closed-form alpha_c) of a family that find_alpha_c brackets."""
    if family == "binary0k":
        return (lambda a: binary0k(a, k)), _binary0k_alpha_c(k)
    return {"poisson": (poisson, 3 - 2 * math.sqrt(2)), "geometric": (geometric, 1 / 8)}[family]


@pytest.mark.parametrize("tol", [1e-9, 1e-11])
def test_alpha_c_default_bracket_holds_binary0k_alpha_c(tol):
    # alpha_c(16) = 6.5e-7 fell below a fixed lo = 1e-6
    for k in range(2, 61):
        assert abs(find_alpha_c("binary0k", k=k, tol=tol) - _binary0k_alpha_c(k)) <= tol / 2, k


@pytest.mark.parametrize("k", [16, 20, 30])
def test_alpha_c_flanks_are_relative(k):
    # alpha_c(16) = 6.5e-7 and alpha_c(30) = 2.2e-11: flanks an absolute
    # tol/2 = 5e-10 away were far from alpha_c, and from k = 17 the lower one
    # was lo itself.  Both must lie within alpha tol/2 of the closed form
    # (+1e-13 relative for Newton's own error), one on either side
    target, tol = _binary0k_alpha_c(k), 1e-9
    with regime_gaps() as trace:
        find_alpha_c("binary0k", k=k)
    (below, g_below), (above, g_above) = trace
    lo = min(1e-6, k * 8.0**-k)
    assert lo < below < target < above
    assert target - below <= target * (tol / 2 + 1e-13)
    assert above - target <= target * (tol / 2 + 1e-13)
    assert g_below > 0.0 > g_above


# (lo, hi) ranges as multiples of alpha_c: perfbench's sweeps draw theirs
# log-uniformly from the first pair
_BRACKET_SHAPES = {
    "sweep": ((0.02, 0.5), (2.0, 50.0)),
    "narrow": ((0.5, 0.999), (1.001, 1.5)),
    "wide": ((1e-6, 0.02), (50.0, 1e6)),
}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    case=st.sampled_from([("binary0k", k) for k in range(2, 9)] + [("poisson", None), ("geometric", None)]),
    shape=st.sampled_from(list(_BRACKET_SHAPES)),
    u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    tol=st.sampled_from([1e-9, 1e-8]),
)
def test_alpha_c_is_flanked_by_both_regimes(case, shape, u, tol):
    # the answer is Newton's, and the middle of a bracket of relative width
    # tol whose ends have gaps of either sign; an absolute tol/2 away on either side,
    # classify reads both regimes.  Below tol = 1e-9 the ends can fall inside
    # classify's band of 1e-9 on the gap and read critical
    family, k = case
    make, target = _family(family, k)
    lo, hi = (target * a * (b / a) ** x for (a, b), x in zip(_BRACKET_SHAPES[shape], u))
    if family == "binary0k":
        hi = min(hi, k * 0.999)
    with regime_gaps() as trace:
        alpha_c = find_alpha_c(family, k=k, lo=lo, hi=hi, tol=tol)
    assert classify(make(alpha_c - tol / 2)).regime != "supercritical"
    assert classify(make(alpha_c + tol / 2)).regime == "supercritical"
    assert abs(alpha_c - target) <= 1e-9
    (below, g_below), (above, g_above) = trace  # Newton's, not the fallback's
    assert (below, above) == (alpha_c * (1 - tol / 2), alpha_c * (1 + tol / 2))
    assert g_below > 0.0 > g_above


@pytest.mark.parametrize("family, k", [("binary0k", 2), ("poisson", None), ("geometric", None)])
def test_alpha_c_newton_keeps_alpha_in_the_bracket(family, k):
    # unclipped, Newton's steps from lo overshoot this bracket's hi by
    # 1.4-1.7 times; only the difference step may pass hi
    make, target = _family(family, k)
    lo, hi, seen = 0.9 * target, 1.01 * target, []
    alpha_c = analytic._newton_alpha_c(lambda a: seen.append(a) or make(a), lo, hi)
    assert abs(alpha_c - target) <= 1e-12 * target
    assert lo <= min(seen) and max(seen) <= hi * (1 + 2 * analytic._NEWTON_H)


@pytest.mark.parametrize("newton", ["real", "lands-on-alpha-c"])
@pytest.mark.parametrize("family, k", [("binary0k", 2), ("binary0k", 5), ("poisson", None)])
def test_alpha_c_bracket_wholly_on_one_side(monkeypatch, family, k, newton):
    # Newton gives up on these brackets; one that lands on alpha_c, outside
    # them, is clipped to the bracket: every gap is taken inside it
    _, target = _family(family, k)
    if newton != "real":
        monkeypatch.setattr(analytic, "_newton_alpha_c", lambda make, lo, hi: target)
    seen, gap = [], analytic._regime_gap
    monkeypatch.setattr(analytic, "_regime_gap", lambda law: seen.append(law.mean()) or gap(law))
    for lo, hi, side in [(target / 10, target / 2, "super"), (target * 2, target * 3, "sub")]:
        seen.clear()
        with pytest.raises(BracketFailure, match=f"not {side}critical"):
            find_alpha_c(family, k=k, lo=lo, hi=hi)
        assert seen and all(lo <= x <= hi for x in seen), (lo, hi, seen)


@pytest.mark.parametrize("family, k", [("binary0k", 2), ("poisson", None), ("geometric", None)])
def test_alpha_c_near_the_bracket_end_falls_back(family, k):
    # Newton's alpha is within alpha tol/2 of lo, so its lower flank is
    # clamped to lo: the sign change lies in [lo, alpha (1 + tol/2)], within
    # alpha tol/2 of alpha
    _, target = _family(family, k)
    tol = 1e-9
    lo = target * (1 - tol / 4)
    with regime_gaps() as trace:
        alpha_c = find_alpha_c(family, k=k, lo=lo, hi=2 * target, tol=tol)
    (below, g_below), (above, g_above) = trace
    assert (below, above) == (lo, alpha_c * (1 + tol / 2))
    assert g_below > 0.0 > g_above
    assert abs(alpha_c - target) <= tol * target


@pytest.mark.parametrize("family, k", [("binary0k", 2), ("poisson", None)])
def test_alpha_c_when_newton_gives_up(monkeypatch, family, k):
    # the ends decide the message: BracketFailure on a bracket wholly on one
    # side, a coded NoSolution on a bracket that holds alpha_c
    _, target = _family(family, k)
    monkeypatch.setattr(analytic, "_newton_alpha_c", lambda make, lo, hi: None)
    with pytest.raises(BracketFailure, match="not supercritical"):
        find_alpha_c(family, k=k, lo=target / 10, hi=target / 2)
    with pytest.raises(BracketFailure, match="not subcritical"):
        find_alpha_c(family, k=k, lo=target * 2, hi=target * 3)
    with pytest.raises(NoSolution) as exc:
        find_alpha_c(family, k=k, lo=target / 2, hi=target * 2)
    assert exc.value.code == "NoSolution"


# (regime, float.hex of the RegimeReport fields below, first 16 hex digits of
# the sha256 of the float.hex strings of flux_distribution(law, 60).probs) per
# exact law, recorded when the bracket search from t = 1 replaced the grid
# scan and lhs and rhs became the paper's sides over G(t_c); each law kept its
# regime, and binary0k(0.05) gives what binary0k(1/20) gives.  Supercritical
# laws report no crit_density since.  binary0k("0.013", 3), binary0k("0.3", 30)
# and the finite laws were re-recorded when binary0k became a finite law and
# every finite law came to sum k p_k t^k and k (k - 1) p_k t^k over G for its
# tilted moments: each moved float is within 1e-12 relative of its old value.
# Every flux digest but geometric(0.05)'s was re-recorded when the entries
# from the first block on came from block solves: each moved entry is within
# 1e-31 of the recurrence's
PINNED_FIELDS = (
    "critical_time", "crit_density", "gf_at_crit", "lhs", "rhs", "gap",
    "empty_prob", "occupied_no_flux_prob",
)
PINNED_EXACT_LAWS = {
    ("binary0k", ("1/20", 2)): (
        "subcritical",
        (
            "0x1.cd82b446159f3p+1", "0x1.0a418f6382a0dp+0",
            "0x1.16b28f55d72d4p+0", "0x1.9b05688c2b3e6p+0",
            "0x1.4d82b446159f3p+0", "0x1.360ad118567ccp-2",
            "0x1.d664b560044e6p-1", "0x1.a9d4f6385b600p-5",
        ),
        "b9f2e6531c0bcc00",
    ),
    ("binary0k", ("1/14", 2)): (
        "critical",
        (
            "0x1.7ffffffffff58p+1", "0x1.c000000000001p-1",
            "0x1.16b28f55d72d4p+0", "0x1.ffffffffffd60p-1",
            "0x1.ffffffffffd60p-1", "0x0.0p+0",
            "0x1.c000000000001p-1", "0x1.3dc3d6b1c4798p-4",
        ),
        "590a703bc37f584b",
    ),
    ("binary0k", ("0.013", 3)): (
        "subcritical",
        (
            "0x1.9cb8b2f213c5cp+1", "0x1.24a77a44f1692p+0",
            "0x1.0a4b47dcb3f43p+0", "0x1.397165e4278b8p+0",
            "0x1.b30405c277bcfp-1", "0x1.7fbd8c0baeb42p-2",
            "0x1.ef4fe34d01f65p-1", "0x1.2bd30a31973a0p-6",
        ),
        "3d7eb7c2b8fb1e4b",
    ),
    ("binary0k", ("0.3", 30)): (
        "supercritical",
        (
            "0x1.e559402fd3894p-1", None,
            "0x1.0022423d4816fp+0", "-0x1.0d535fe8163b6p+0",
            "-0x1.9f07b0c9987fdp-9", "-0x1.0c83dc0fb16f2p+0",
            None, None,
        ),
        None,
    ),
    ("finite", ("0.98", "0.01", "0.006", "0.004")): (
        "subcritical",
        (
            "0x1.892221793b20bp+1", "0x1.073d49cae1a73p+0",
            "0x1.0f732cdd881ebp+0", "0x1.124442f276416p+0",
            "0x1.b89e85984db42p-1", "0x1.afa801327b3a8p-3",
            "0x1.e0b10a8dfd661p-1", "0x1.471a78028f3f0p-5",
        ),
        "a35ebd492445de5f",
    ),
    ("finite", ("0.985", "0.005", "0", "0.006", "0.004")): (
        "supercritical",
        (
            "0x1.f27a3482bc16fp+0", None,
            "0x1.0862cf72759e8p+0", "-0x1.b0b96fa87d220p-5",
            "0x1.499a0eab34f8ep-2", "-0x1.7fb13ca0449d2p-2",
            None, None,
        ),
        None,
    ),
    ("geometric", ("1/8",)): (
        "critical",
        (
            "0x1.8000000000000p+1", "0x1.b000000000000p-1",
            "0x1.279a74590331cp+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x0.0p+0",
            "0x1.b000000000000p-1", "0x1.0b529158d5900p-3",
        ),
        "8a84bfb75e6670fe",
    ),
    ("geometric", ("1/10",)): (
        "subcritical",
        (
            "0x1.d555555555555p+1", "0x1.0222222222222p+0",
            "0x1.279a74590331cp+0", "0x1.aaaaaaaaaaaaap+0",
            "0x1.5555555555555p+0", "0x1.5555555555554p-2",
            "0x1.c4e3a050533c6p-1", "0x1.a13882e6cffa0p-4",
        ),
        "a235656706b2c12a",
    ),
    ("nongeneric_example", ("1/10",)): (
        "subcritical",
        (
            "0x1.8000000000000p+1", "0x1.6573ac901e573p+0",
            "0x1.06d3ff06f5061p+0", "0x1.72c234f72c235p+0",
            "0x1.0000000000000p+0", "0x1.cb08d3dcb08d4p-2",
            "0x1.f6e92d352e9d4p-1", "0x1.13fa3cc6ca840p-6",
        ),
        "cc116ba8c5de4e59",
    ),
    ("binary0k", (0.05, 2)): (
        "subcritical",
        (
            "0x1.cd82b446159f3p+1", "0x1.0a418f6382a0dp+0",
            "0x1.16b28f55d72d4p+0", "0x1.9b05688c2b3e6p+0",
            "0x1.4d82b446159f3p+0", "0x1.360ad118567ccp-2",
            "0x1.d664b560044e6p-1", "0x1.a9d4f6385b600p-5",
        ),
        "b9f2e6531c0bcc00",
    ),
    ("binary0k", (0.3, 3)): (
        "supercritical",
        (
            "0x1.1854a6c7ba371p+0", None,
            "0x1.0a4b47dcb3f43p+0", "-0x1.cf56b2708b91ep-1",
            "0x1.296442df88cb6p-5", "-0x1.e1ecf69e841e9p-1",
            None, None,
        ),
        None,
    ),
    ("poisson", (0.1,)): (
        "subcritical",
        (
            "0x1.76e73ffc1ea80p+2", "0x1.462e93ccc18dbp+0",
            "0x1.384c418a03561p+0", "0x1.edce7ff83d500p+1",
            "0x1.6c3ef314ef1eap+1", "0x1.031f19c69c62cp+0",
            "0x1.c95db352c0cb6p-1", "0x1.9adbc470522c0p-4",
        ),
        "33eea1de3bb5f315",
    ),
    ("poisson", (3 - 2 * math.sqrt(2),)): (
        "critical",
        (
            "0x1.b504f333f9defp+1", "0x1.986fd998db4a8p-1",
            "0x1.384c418a03560p+0", "0x1.6a09e667f3bdep+0",
            "0x1.6a09e667f3bd7p+0", "0x1.c000000000000p-50",
            "0x1.986fd998db4a8p-1", "0x1.6748857a84db0p-3",
        ),
        "b43e3bc18bafdef6"
    ),
    ("geometric", (0.05,)): (
        "subcritical",
        (
            "0x1.bffffffffff3ap+2", "0x1.d666666666667p+0",
            "0x1.279a74590331dp+0", "0x1.3ffffffffff3ap+2",
            "0x1.7fffffffffe3bp+1", "0x1.0000000000039p+1",
            "0x1.e4e09fe01cebfp-1", "0x1.9ae624ba934a0p-5",
        ),
        "6087e6d32e38b1a8",
    ),
    ("geometric", (0.125,)): (
        "critical",
        (
            "0x1.8000000000000p+1", "0x1.b000000000000p-1",
            "0x1.279a74590331cp+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x0.0p+0",
            "0x1.b000000000000p-1", "0x1.0b529158d5900p-3",
        ),
        "c8e6661f2b5fe450",
    ),
}


def _pinned_law(kind, args):
    # floats pass through as floats; strings become Fractions
    args = [a if isinstance(a, (float, int)) else Fraction(a) for a in args]
    if kind == "finite":
        return make_finite_law(args)
    return {
        "binary0k": binary0k,
        "poisson": poisson,
        "geometric": geometric,
        "nongeneric_example": nongeneric_example,
    }[kind](*args)


@pytest.mark.parametrize("kind, args", list(PINNED_EXACT_LAWS))
def test_exact_law_answers_pinned(kind, args):
    law = _pinned_law(kind, args)
    rep = classify(law)
    fields = tuple(
        None if getattr(rep, f) is None else getattr(rep, f).hex() for f in PINNED_FIELDS
    )
    digest = None
    if rep.empty_prob is not None:
        probs = flux_distribution(law, 60).probs
        digest = hashlib.sha256(" ".join(p.hex() for p in probs).encode()).hexdigest()[:16]
    assert (rep.regime, fields, digest) == PINNED_EXACT_LAWS[kind, args]


def _mix_laws(n=200):
    """n laws of the benchmark's analytic-mix families over its ranges,
    binary0k four times in ten, from a fixed stream; every parameter is a
    decimal, so no float of a law depends on the platform."""
    rng = random.Random(2205)

    def decimal(lo, hi):  # four digits, in [10^lo, 10^hi)
        return float(f"{rng.randrange(1000, 10000)}e{rng.randrange(lo, hi) - 3}")

    cycle = ("binary0k", "poisson", "binary0k", "geometric", "finite") * 2
    laws = []
    for i in range(n):
        family = "nongeneric_example" if i % 10 == 9 else cycle[i % 10]
        if family == "binary0k":
            k = rng.randrange(2, 31)
            alpha = Fraction(rng.randrange(1000, 10000), 10 ** rng.randrange(3, 7))
            laws.append(binary0k(min(alpha, k - Fraction(1, 10**6)), k))
        elif family == "finite":
            top = 10 ** rng.randrange(3, 6)
            masses = [Fraction(rng.randrange(1, top), 10**6) for _ in range(rng.randrange(3, 6))]
            laws.append(make_finite_law([1 - sum(masses), *masses]))
        elif family == "nongeneric_example":
            laws.append(nongeneric_example(decimal(-3, 0)))
        else:
            laws.append({"poisson": poisson, "geometric": geometric}[family](decimal(-3, 3)))
    return laws


def _answers(law):
    """The law, every field of classify's report and, unless it has none,
    every field of flux_distribution(law, 60), floats as hex; or the name
    of what either raised."""
    def text(value):
        if isinstance(value, tuple):
            return " ".join(map(text, value))
        return value.hex() if isinstance(value, float) else repr(value)

    out = [law.describe()]
    for answer in (lambda: classify(law), lambda: flux_distribution(law, 60)):
        got = _outcome(answer)
        if isinstance(got, str):
            return " ".join(out + [got])
        out += [text(getattr(got, f.name)) for f in dataclasses.fields(got)]
        if got.empty_prob is None:
            break
    return " ".join(out)


# the first 16 hex digits of the sha256 of _answers over _mix_laws(),
# recorded while _root still called max, abs and copysign and the flux
# checks looped over every entry
ANALYTIC_MIX_DIGEST = "fde31493058d8c9b"


def test_analytic_mix_answers_pinned():
    text = "\n".join(_answers(law) for law in _mix_laws())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == ANALYTIC_MIX_DIGEST


def _decimal_g(law, t):
    """G(t) and G'(t) in decimal, from the law's exact parameters."""
    def dec(x):
        x = Fraction(x)
        return Decimal(x.numerator) / Decimal(x.denominator)

    if law.kind == "poisson":
        g = (dec(law.alpha) * (t - 1)).exp()
        return g, dec(law.alpha) * g
    if law.kind == "geometric":
        a = dec(law.alpha)
        g = 1 / (1 + a - a * t)
        return g, a * g * g
    if law.kind == "nongeneric_example":
        m, u = dec(law.mix), (3 - t) / 2
        g = 1 - m + m * (1 + (1 + t * t) / 26 - u ** (Decimal(7) / 3) / 13)
        return g, m * (t / 13 + Decimal(7) / 78 * u ** (Decimal(4) / 3))
    probs = [dec(law.coefficient(j)) for j in range(law.finite_support() + 1)]
    return (
        sum(p * t**j for j, p in enumerate(probs)),
        sum(j * p * t ** (j - 1) for j, p in enumerate(probs) if j),
    )


@pytest.mark.parametrize(
    "kind, args", [law for law, pin in PINNED_EXACT_LAWS.items() if pin[0] == "subcritical"]
)
def test_empty_prob_matches_60_digits(kind, args):
    # the fixed point t (1 - u) / (2 - u) = 1 bisected at 60 digits; read off
    # density_from_time, nongeneric_example(1/10) was 2.3e-14 off
    law = _pinned_law(kind, args)
    with localcontext() as ctx:
        ctx.prec = 60
        lo, hi = Decimal(2), Decimal(find_critical_time(law).t)
        for _ in range(200):
            t = (lo + hi) / 2
            g, g1 = _decimal_g(law, t)
            u = t * g1 / g
            lo, hi = (t, hi) if t * (1 - u) < 2 - u else (lo, t)
        p = lo * lo / (4 * (lo - 1) * _decimal_g(law, lo)[0])
        assert abs(Decimal(classify(law).empty_prob) - p) <= Decimal("2.5e-16")


def reference_flux(law, order):
    """P(flux = k) for k = 0..order by flux_distribution's recurrence alone,
    q_n from q_0..q_{n-1} at every n, with its clipping of small negatives:
    the reference for the block solves, which give the same head."""
    p = classify(law).empty_prob
    support = law.finite_support()
    top = order if support is None else min(order, support)
    g = law.float_coefficients(top)
    while g[-1] == 0.0:
        g.pop()
    g0, g_rest = g[0], g[1:]
    q0 = math.sqrt(p / law.mu0)
    den = 2.0 * g0 * q0
    q, s = [q0], [q0 * q0]
    for n in range(1, order + 1):
        r = 2.0 * sum(map(operator.mul, q[1 : (n + 1) // 2], reversed(q)), 0.0)
        if n % 2 == 0:
            r += q[n // 2] * q[n // 2]
        c = q[n - 1] - g0 * r - sum(map(operator.mul, g_rest, reversed(s)), 0.0)
        if n == 1:
            c -= p
        qn = c / den
        q.append(qn)
        s.append(2.0 * q0 * qn + r)
    return [0.0 if v < 0.0 else v for v in q]


def _decimal_flux(law, order, digits=60):
    """reference_flux's recurrence run in decimal at the given digits.

    It starts from the same float p, coefficients and q_0 = sqrt(p / mu0)
    (the value classify reports too), so the difference from the float
    run is the recurrence's own rounding.
    """
    p = classify(law).empty_prob
    with localcontext() as ctx:
        ctx.prec = digits
        g = [Decimal(float(law.coefficient(k))) for k in range(order + 1)]
        q0 = Decimal(math.sqrt(p / law.mu0))
        q, s = [q0], [q0 * q0]
        for n in range(1, order + 1):
            r = sum((q[j] * q[n - j] for j in range(1, n)), Decimal(0))
            c = q[n - 1] - g[0] * r - sum((g[i] * s[n - i] for i in range(1, n + 1)), Decimal(0))
            if n == 1:
                c -= Decimal(p)
            q.append(c / (2 * g[0] * q0))
            s.append(2 * q0 * q[n] + r)
    return q


_FLUX_LAWS = [key for key, pinned in PINNED_EXACT_LAWS.items() if pinned[2] is not None]


@pytest.mark.parametrize("kind, args", _FLUX_LAWS)
def test_flux_recurrence_matches_60_digits(kind, args):
    law = _pinned_law(kind, args)
    got = flux_distribution(law, 200).probs
    ref = _decimal_flux(law, 200)
    assert max(abs(Decimal(v) - r) for v, r in zip(got, ref)) <= Decimal("5e-17")


@pytest.mark.parametrize("kind, args", _FLUX_LAWS)
def test_flux_and_classify_agree_on_occupied_no_flux(kind, args):
    law = _pinned_law(kind, args)
    assert flux_distribution(law).occupied_no_flux_prob == classify(law).occupied_no_flux_prob


@pytest.mark.parametrize(
    "family, why",
    [("nongeneric_example", "no supercritical member"), ("zeta", "unknown family")],
)
def test_alpha_c_refuses_families_it_cannot_bracket(family, why):
    # every mix in (0, 1] of nongeneric_example is subcritical or critical
    with pytest.raises(BracketFailure, match=why):
        find_alpha_c(family)


def test_nongeneric_margin_vanishes_at_radius():
    r = classify(nongeneric_example(1))
    assert r.regime == "critical"
    assert r.margin_vanishes
    info = find_critical_time(nongeneric_example(1))
    assert info.at_radius and info.t == pytest.approx(3.0, abs=1e-12)
    assert r.empty_prob == pytest.approx(13 / 16, abs=1e-9)


def test_nongeneric_diluted_is_subcritical_by_radius_test():
    r = classify(nongeneric_example(0.1))
    assert r.regime == "subcritical"
    assert r.test == "radius"
    assert not r.margin_vanishes
    assert r.empty_prob == pytest.approx(0.9822477462214609, abs=1e-9)


def test_margin_positive_forever_exhausts_budget():
    # constant pgf: margin is 2 everywhere, so doubling t runs into inf
    law = CustomAnalyticLaw(
        derivs=lambda t: (1.0, 0.0, 0.0),
        radius=math.inf,
        mu_zero=1.0,
        mean=0.0,
        name="no arrivals",
    )
    with pytest.raises(NoRootWithinBudget):
        find_critical_time(law)


def _flat_law(radius, visited):
    """G = 1 everywhere: the margin is 2 at every t the search visits."""

    def derivs(t):
        visited.append(t)
        return (1.0, 0.0, 0.0)

    return CustomAnalyticLaw(derivs, radius, 0.5, 0.4, f"flat to {radius}")


def test_search_doubles_to_the_cap_then_probes_the_radius():
    visited = []
    ct = find_critical_time(_flat_law(10.0, visited))
    assert ct == analytic.CriticalTime(10.0, False, True, True)
    # doubling from t = 1, clipped at the cap, then the probe at the radius
    assert visited == [1.0, 2.0, 4.0, 8.0, 10.0 * (1 - 1e-12), 10.0]
    assert ct.evaluations == len(visited)


@pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0])
def test_search_refuses_a_radius_that_is_not_positive(radius):
    # a NaN radius used to give a NaN critical time
    with pytest.raises(OutOfDomain, match="is not positive"):
        find_critical_time(_flat_law(radius, []))


def _scan_outcome(law):
    """find_critical_time's result as float.hex and flags, or the exception's type."""
    try:
        ct = find_critical_time(law)
    except (ParkingModelError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    return ct.t.hex(), ct.margin_vanishes, ct.at_radius, ct.evaluable


def _decades(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


_UNIT_OPEN = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
FAMILY_LAWS = {
    "poisson": _decades(-9, 9).map(poisson),
    "geometric": _decades(-9, 9).map(geometric),
    # k >= 3 includes supercritical laws whose margin turns positive again
    # past its first zero
    "binary0k": st.tuples(st.integers(2, 30), _UNIT_OPEN)
    .filter(lambda ku: 0.0 < ku[0] * ku[1] < ku[0])
    .map(lambda ku: binary0k(ku[0] * ku[1], ku[0])),
    "nongeneric_example": _decades(-9, 0).map(nongeneric_example),
    "finite": st.lists(st.integers(0, 100), min_size=3, max_size=7)
    .filter(lambda w: w[0] > 0 and sum(w[2:]) > 0)
    .map(lambda w: make_finite_law([Fraction(x, sum(w)) for x in w])),
}

_REGIME_RANK = {"subcritical": 0, "critical": 1, "supercritical": 2}
_ALPHA_C_TOL = 1e-9  # find_alpha_c's default


@lru_cache(maxsize=None)
def _alpha_c(family, k):
    return find_alpha_c(family, k=k, tol=_ALPHA_C_TOL)


@pytest.mark.parametrize("family", ["poisson", "geometric", "binary0k"])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_regime_is_monotone_along_each_family(family, data):
    # ROADMAP item 1: sorted by alpha, the regime never steps back, and where
    # find_alpha_c applies the change lies within its tol of alpha_c
    if family == "binary0k":
        k = data.draw(st.integers(2, 30))
        alphas = data.draw(st.lists(_UNIT_OPEN.map(lambda u: k * u), min_size=2, max_size=10))
        alphas = [a for a in alphas if 0.0 < a < k]
        make = lambda a: binary0k(a, k)  # noqa: E731
    else:
        k = None
        alphas = data.draw(st.lists(_decades(-9, 9), min_size=2, max_size=10))
        make = {"poisson": poisson, "geometric": geometric}[family]
    if k is None or k <= 8:
        # and a few within 1e-6 relative of alpha_c, where a wrong side shows
        alpha_c = _alpha_c(family, k)
        near = st.floats(min_value=-1e-6, max_value=1e-6).map(lambda d: alpha_c * (1.0 + d))
        alphas += data.draw(st.lists(near, min_size=1, max_size=4))
    alphas = sorted(set(alphas))
    regimes = [classify(make(a)).regime for a in alphas]
    ranks = [_REGIME_RANK[r] for r in regimes]
    assert ranks == sorted(ranks), list(zip(alphas, regimes))
    if k is None or k <= 8:
        for a, r in zip(alphas, regimes):
            assert r != "subcritical" or a <= alpha_c + _ALPHA_C_TOL, (a, alpha_c)
            assert r != "supercritical" or a >= alpha_c - _ALPHA_C_TOL, (a, alpha_c)


# (float.hex of t, margin_vanishes, at_radius, evaluable) per law, recorded
# when the bracket search from t = 1 on sqrt(2) (1 - u) - sqrt(v) replaced the
# grid scan; finite(1/2, 1/4, 1/8, 1/8) moved 2.5e-14 relative when finite laws
# came to sum their tilted moments
PINNED_CRITICAL_TIMES = {
    ("binary0k", ("1/14", 2)): ("0x1.7ffffffffff58p+1", True, False, True),
    ("binary0k", (0.05, 2)): ("0x1.cd82b446159f3p+1", True, False, True),
    ("binary0k", (0.3, 3)): ("0x1.1854a6c7ba371p+0", True, False, True),
    ("binary0k", (2.5, 5)): ("0x1.205134e3e63d0p-1", True, False, True),
    ("binary0k", (29.9, 30)): ("0x1.585baa93afb0ap-1", True, False, True),
    ("poisson", (0.1,)): ("0x1.76e73ffc1ea80p+2", True, False, True),
    ("poisson", (20.0,)): ("0x1.dfe051e68da3ep-6", True, False, True),
    ("geometric", (0.05,)): ("0x1.bffffffffff3ap+2", True, False, True),
    ("geometric", ("1/8",)): ("0x1.8000000000000p+1", True, False, True),
    ("nongeneric_example", (1,)): ("0x1.8000000000000p+1", True, True, True),
    ("nongeneric_example", (0.1,)): ("0x1.8000000000000p+1", False, True, True),
    ("finite", ("1/2", "1/4", "1/8", "1/8")): ("0x1.5ad77e8d663adp-1", True, False, True),
    ("finite", ("9/10", "0", "0", "1/20", "1/20")): ("0x1.fb36f4560c4eap-1", True, False, True),
}

# the same, recorded while the grid scan handed its last bracket to _root (ITP)
GRID_CRITICAL_TIMES = {
    ("binary0k", ("1/14", 2)): ("0x1.8000000000000p+1", True, False, True),
    ("binary0k", (0.05, 2)): ("0x1.cd82b44615928p+1", True, False, True),
    ("binary0k", (0.3, 3)): ("0x1.1854a6c7ba33cp+0", True, False, True),
    ("binary0k", (2.5, 5)): ("0x1.205134e3e63d0p-1", True, False, True),
    ("binary0k", (29.9, 30)): ("0x1.585baa93af9dep-1", True, False, True),
    ("poisson", (0.1,)): ("0x1.76e73ffc1eb25p+2", True, False, True),
    ("poisson", (20.0,)): ("0x1.dfe051e68d96ap-6", True, False, True),
    ("geometric", (0.05,)): ("0x1.c000000000000p+2", True, False, True),
    ("geometric", ("1/8",)): ("0x1.8000000000000p+1", True, False, True),
    ("nongeneric_example", (1,)): ("0x1.8000000000000p+1", True, True, True),
    ("nongeneric_example", (0.1,)): ("0x1.8000000000000p+1", False, True, True),
    ("finite", ("1/2", "1/4", "1/8", "1/8")): ("0x1.5ad77e8d66314p-1", True, False, True),
    ("finite", ("9/10", "0", "0", "1/20", "1/20")): ("0x1.fb36f4560c4eap-1", True, False, True),
}


# float.hex of the critical time per law of the two tables above, recorded
# while every root search bisected
BISECTION_CRITICAL_TIMES = {
    ("binary0k", ("1/14", 2)): "0x1.7ffffffffff9fp+1",
    ("binary0k", (0.05, 2)): "0x1.cd82b44615a60p+1",
    ("binary0k", (0.3, 3)): "0x1.1854a6c7ba292p+0",
    ("binary0k", (2.5, 5)): "0x1.205134e3e644ep-1",
    ("binary0k", (29.9, 30)): "0x1.585baa93afb77p-1",
    ("poisson", (0.1,)): "0x1.76e73ffc1e9e2p+2",
    ("poisson", (20.0,)): "0x1.dfe051e68d902p-6",
    ("geometric", (0.05,)): "0x1.bfffffffffeb6p+2",
    ("geometric", ("1/8",)): "0x1.7ffffffffff9fp+1",
    ("nongeneric_example", (1,)): "0x1.8000000000000p+1",
    ("nongeneric_example", (0.1,)): "0x1.8000000000000p+1",
    ("finite", ("1/2", "1/4", "1/8", "1/8")): "0x1.5ad77e8d662a9p-1",
    ("finite", ("9/10", "0", "0", "1/20", "1/20")): "0x1.fb36f4560c3d5p-1",
    ("binary0k", ("1/20", 2)): "0x1.cd82b44615a60p+1",
    ("binary0k", ("0.013", 3)): "0x1.9cb8b2f213c80p+1",
    ("binary0k", ("0.3", 30)): "0x1.e559402fd390fp-1",
    ("finite", ("0.98", "0.01", "0.006", "0.004")): "0x1.892221793b220p+1",
    ("finite", ("0.985", "0.005", "0", "0.006", "0.004")): "0x1.f27a3482bbf8dp+0",
    ("geometric", ("1/10",)): "0x1.d555555555403p+1",
    ("nongeneric_example", ("1/10",)): "0x1.8000000000000p+1",
    ("poisson", (3 - 2 * math.sqrt(2),)): "0x1.b504f333f9de6p+1",
    ("geometric", (0.125,)): "0x1.7ffffffffff9fp+1",
}


@pytest.mark.parametrize("kind, args", list(PINNED_CRITICAL_TIMES))
def test_critical_time_pinned(kind, args):
    assert _scan_outcome(_pinned_law(kind, args)) == PINNED_CRITICAL_TIMES[kind, args]


@pytest.mark.parametrize("kind, args", list(BISECTION_CRITICAL_TIMES))
def test_critical_time_within_the_stopping_width_of_the_bisection(kind, args):
    # both end on a bracket of width at most REL_ROOT_TOL times its larger
    # end around the same sign change of the margin
    old = float.fromhex(BISECTION_CRITICAL_TIMES[kind, args])
    new = find_critical_time(_pinned_law(kind, args)).t
    assert abs(new - old) <= analytic.REL_ROOT_TOL * max(new, old)


@pytest.mark.parametrize("kind, args", list(GRID_CRITICAL_TIMES))
def test_critical_time_within_the_stopping_width_of_the_grid_scan(kind, args):
    # both end on a bracket of width at most REL_ROOT_TOL times its larger
    # end around the same zero of the margin, with the same flags
    old_hex, *old_flags = GRID_CRITICAL_TIMES[kind, args]
    old = float.fromhex(old_hex)
    ct = find_critical_time(_pinned_law(kind, args))
    assert [ct.margin_vanishes, ct.at_radius, ct.evaluable] == old_flags
    assert abs(ct.t - old) <= analytic.REL_ROOT_TOL * max(ct.t, old)


@pytest.mark.parametrize("kind, args", list({**PINNED_CRITICAL_TIMES, **PINNED_EXACT_LAWS}))
def test_critical_time_evaluation_count(monkeypatch, kind, args):
    # the grid scan took 18-20 margin evaluations on these laws, 10 at the radius
    law = _pinned_law(kind, args)
    calls, tilted = [], type(law).tilted_moments
    counted = lambda law, t: calls.append(t) or tilted(law, t)  # noqa: E731
    monkeypatch.setattr(type(law), "tilted_moments", counted)
    ct = find_critical_time.__wrapped__(law)
    assert ct.evaluations == len(calls)
    assert ct.evaluations <= (4 if ct.at_radius else 18)


@pytest.mark.parametrize("law, count", [(poisson(1e-7), 34), (geometric(1e-8), 36)], ids=repr)
def test_critical_time_far_from_one_costs_its_doublings(law, count):
    # t_c = 5.9e6 and 3.3e7: 23 and 25 doublings from t = 1 before the log
    # phase and the root; the grid scan stopped at 1e6 and raised
    assert find_critical_time.__wrapped__(law).evaluations == count


@pytest.mark.parametrize(
    "kind, args", [law for law, pin in PINNED_EXACT_LAWS.items() if pin[0] == "subcritical"]
)
def test_fixed_point_search_evaluation_count(monkeypatch, kind, args):
    # bisection took 44-45 evaluations on these laws
    law = _pinned_law(kind, args)
    find_critical_time(law)  # so that only the fixed-point search runs below
    evaluated, root = [], analytic._root

    def counted_root(f, *args, **kw):
        return root(lambda s: evaluated.append(s) or f(s), *args, **kw)

    monkeypatch.setattr(analytic, "_root", counted_root)
    solve_empty_prob(law)
    assert 0 < len(evaluated) <= 16


@pytest.mark.parametrize(
    "family, k",
    [("binary0k", 2), ("binary0k", 3), ("binary0k", 5), ("binary0k", 8), ("poisson", None),
     ("geometric", None)],
)
def test_alpha_c_evaluation_count(monkeypatch, family, k):
    # the bracket search took 216-267 tilted_moments calls at the default
    # brackets; Newton and the two flanks' critical-time searches take 40-50
    calls, cls = [], type(_family(family, k)[0](0.01))
    tilted = cls.tilted_moments
    monkeypatch.setattr(cls, "tilted_moments", lambda law, t: calls.append(t) or tilted(law, t))
    find_critical_time.cache_clear()
    find_alpha_c(family, k=k)
    assert 0 < len(calls) <= 80


def test_root_is_at_most_one_step_behind_bisection():
    # past a step in f, regula falsi creeps in from the flat side; the window
    # about the midpoint keeps ITP within n0 = 1 step of bisection's 44
    calls = []

    def step(x):
        calls.append(x)
        return 1e-12 if x < 0.7 else -1.0

    x = analytic._root(step, 0.0, 1.0, 1e-12, -1.0)
    assert abs(x - 0.7) <= analytic.REL_ROOT_TOL
    assert len(calls) <= math.ceil(math.log2(1.0 / analytic.REL_ROOT_TOL)) + 1


def _bisect(f, a, b):
    """Plain bisection of f(a) > 0 > f(b) with _root's stopping rule."""
    for _ in range(analytic.ITER_CAP):
        if b - a <= analytic.REL_ROOT_TOL * max(abs(a), abs(b), 1e-300):
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm > 0.0:
            a = mid
        else:
            b = mid
    raise IterationCapExceeded(f"bracket ({a!r}, {b!r}) open")


def _outcome(solve):
    """solve()'s value, or the name of the exception it raised."""
    try:
        return solve()
    except (ParkingModelError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("family", list(FAMILY_LAWS))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_root_agrees_with_bisection(family, data):
    # on the scan's bracket and the fixed-point bracket of each law
    law = data.draw(FAMILY_LAWS[family])
    root = analytic._root

    def both(f, a, b, fa=None, fb=None):
        ref = _outcome(lambda: _bisect(f, a, b))
        try:
            x = root(f, a, b, fa, fb)
        except (ParkingModelError, ArithmeticError, ValueError) as exc:
            assert ref == type(exc).__name__, (law, a, b)
            raise
        assert not isinstance(ref, str), (law, a, b, ref)
        # each ends on a bracket narrower than the stopping width around the
        # same sign change, so the two midpoints are this close
        gap = abs(x - ref)
        assert gap <= analytic.REL_ROOT_TOL * (max(abs(x), abs(ref)) + gap), (law, a, b, x, ref)
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "_root", both)
        _outcome(lambda: find_critical_time.__wrapped__(law))
        _outcome(lambda: solve_empty_prob(law))


def _builtin_itp(f, a, b, fa, fb):
    """_root's ITP loop as it stood with max, abs, copysign and 2.0 ** (1 - j), verbatim."""
    w0 = b - a
    for j in range(analytic.ITER_CAP):
        w = b - a
        tol = analytic.REL_ROOT_TOL * max(b, -a, 1e-300)  # max(|a|, |b|) as a <= b
        if w <= tol:
            return 0.5 * (a + b)
        x = mid = 0.5 * (a + b)
        xf = (b * fa - a * fb) / (fa - fb)
        if a <= xf <= b:  # false when an end value is not finite
            d = mid - xf
            delta = max(0.2 * w * w / w0, 0.5 * tol)
            xt = xf + math.copysign(delta, d) if delta <= abs(d) else mid
            r = 0.5 * (w0 * 2.0 ** (1 - j) - w)
            x = xt if abs(xt - mid) <= r else mid - math.copysign(r, d)
        fx = f(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
    raise IterationCapExceeded(f"bracket ({a!r}, {b!r}) open after {analytic.ITER_CAP} steps")


def _itp_trace(root, f, a, b, fa, fb):
    """root's answer as hex, or the name of what it raised, and the points it evaluated f at."""
    seen = []

    def logged(x):
        seen.append(x.hex())
        return f(x)

    out = _outcome(lambda: root(logged, a, b, fa, fb))
    return (out if isinstance(out, str) else out.hex()), seen


# decreasing through c: smooth, kinked, a step that regula falsi creeps
# along, plateaus that give exact zeros, and values of +-inf off the root
_ROOT_SHAPES = {
    "line": lambda c: lambda x: c - x,
    "kink": lambda c: lambda x: (c - x) * (1e10 if x < c else 1e-10),
    "step": lambda c: lambda x: 1e-12 if x < c else -1.0,
    "cube": lambda c: lambda x: ((c - x) / c) ** 3,
    "plateau": lambda c: lambda x: round((c - x) / c, 3),
    "atan": lambda c: lambda x: math.atan((c - x) / (c * 1e-6)),
    "infinite": lambda c: lambda x: math.inf if x < 0.5 * c else (-math.inf if x > 1.5 * c else c - x),
}
# (a, b) about the root c, with spread s > 1 and relative half-width h; a
# narrow bracket about a root below 1e-297 is subnormal in width, and one
# across 0 has |a| > |b|
_ROOT_BRACKETS = {
    "from_zero": lambda c, s, h: (0.0, c * s),
    "about": lambda c, s, h: (c / s, c * s),
    "narrow": lambda c, s, h: (c - c * h, c + c * h),
    "across_zero": lambda c, s, h: (-2 * c * s, c * s),
}


@pytest.mark.parametrize("shape", sorted(_ROOT_SHAPES))
@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    exponent=st.floats(-300.0, 300.0) | st.floats(-300.0, -297.0),
    bracket=st.sampled_from(sorted(_ROOT_BRACKETS)),
    spread=st.floats(1.0, 100.0, exclude_min=True),
    half_width=st.sampled_from([1e-12, 1e-9, 1e-6]),
    infinite_ends=st.booleans(),
)
@example(exponent=-300.0, bracket="narrow", spread=2.0, half_width=1e-9, infinite_ends=False)
@example(exponent=-300.0, bracket="from_zero", spread=2.0, half_width=1e-9, infinite_ends=True)
@example(exponent=300.0, bracket="about", spread=50.0, half_width=1e-9, infinite_ends=False)
def test_root_matches_the_builtin_itp(shape, exponent, bracket, spread, half_width, infinite_ends):
    # the same answer from the same sequence of points, bit for bit, with
    # the end values as given or as +-inf
    c = 10.0**exponent
    a, b = _ROOT_BRACKETS[bracket](c, spread, half_width)
    f = _ROOT_SHAPES[shape](c)
    fa, fb = (math.inf, -math.inf) if infinite_ends else (f(a), f(b))
    assume(fa > 0.0 > fb)
    assert _itp_trace(analytic._root, f, a, b, fa, fb) == _itp_trace(_builtin_itp, f, a, b, fa, fb)


@pytest.mark.parametrize(
    "law",
    [poisson(1e300), poisson(1e-300), geometric(1e-8), binary0k(0.05), B02_CRIT, nongeneric_example(1e-9)],
    ids=repr,
)
def test_searches_match_the_builtin_itp(monkeypatch, law):
    # t_c of poisson(1e300) is about 5.9e-301 and that of poisson(1e-300)
    # about 5.9e299: every search's answer keeps its bits
    def searches():
        find_critical_time.cache_clear()
        got = [_outcome(lambda: find_critical_time(law).t), _outcome(lambda: solve_empty_prob(law)[0])]
        return [v if isinstance(v, str) else v.hex() for v in got]

    new = searches()
    monkeypatch.setattr(analytic, "_root", _builtin_itp)
    assert searches() == new
    find_critical_time.cache_clear()


def _unevaluable_at(radius):
    def derivs(t):
        if t >= radius:
            from parkcrit.errors import EvaluationBeyondRadius

            raise EvaluationBeyondRadius("synthetic boundary")
        return (1.0, 0.0, 0.0)

    return CustomAnalyticLaw(
        derivs=derivs, radius=radius, mu_zero=0.5, mean=0.4, name=f"wall at {radius}"
    )


def test_unevaluable_small_radius_is_supercritical():
    r = classify(_unevaluable_at(1.5))
    assert r.regime == "supercritical"
    info = find_critical_time(_unevaluable_at(1.5))
    assert info.at_radius and not info.evaluable


def test_unevaluable_large_radius_is_undecided():
    assert classify(_unevaluable_at(2.5)).regime == "undecided"
    with pytest.raises(NoSolution):
        flux_distribution(_unevaluable_at(2.5))


_B = analytic._FLUX_BLOCK
# below, at and just past B and 2 B, or anywhere up to 220
_FLUX_ORDERS = st.one_of(
    st.sampled_from([_B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1]), st.integers(2, 220)
)
# each family up to about its alpha_c, so most draws are subcritical
_SUBCRITICAL_LAWS = {
    "poisson": _decades(-9, -0.8).map(poisson),
    "geometric": _decades(-9, -0.95).map(geometric),
    "binary0k": st.tuples(_decades(-9, -1.2), st.integers(2, 30)).map(lambda ak: binary0k(*ak)),
    "nongeneric_example": _decades(-9, 0).map(nongeneric_example),
    "finite": st.tuples(st.integers(5000, 10**5), st.lists(st.integers(0, 100), min_size=2, max_size=6))
    .filter(lambda w: sum(w[1][1:]) > 0)
    .map(lambda w: make_finite_law([Fraction(x, w[0] + sum(w[1])) for x in [w[0], *w[1]]])),
}
_CRITICAL_LAWS = [B02_CRIT, GEO_CRIT, POI_CRIT, nongeneric_example(1)]


def _assert_blocks_match_reference(law, order):
    got = flux_distribution(law, order).probs
    ref = reference_flux(law, order)
    assert [v.hex() for v in got[:_B]] == [v.hex() for v in ref[:_B]], (law, order)
    assert max((abs(a - b) for a, b in zip(got[_B:], ref[_B:])), default=0.0) <= 1e-16, (law, order)


def test_flux_imports_numpy_only_for_the_blocks(monkeypatch):
    # below B the recurrence is all there is; the blocks import numpy
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert flux_distribution(B02_SUB, _B - 1).probs == tuple(reference_flux(B02_SUB, _B - 1))
    with pytest.raises(ImportError):
        flux_distribution(B02_SUB, _B)


@pytest.mark.parametrize("family", list(_SUBCRITICAL_LAWS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_flux_blocks_match_the_recurrence(family, data):
    # bit for bit below B, where the recurrence is all there is
    law = data.draw(_SUBCRITICAL_LAWS[family])
    assume(classify(law).regime == "subcritical")
    _assert_blocks_match_reference(law, data.draw(_FLUX_ORDERS))


@pytest.mark.parametrize("law", _CRITICAL_LAWS, ids=str)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(order=_FLUX_ORDERS)
def test_flux_blocks_match_the_recurrence_at_criticality(law, order):
    assert classify(law).regime == "critical"
    _assert_blocks_match_reference(law, order)


# first 16 hex digits of the sha256 of the float.hex strings of
# flux_distribution(law, 200).probs: the block solves sum in a fixed order,
# so these hold on every CPU and numpy version
PINNED_FLUX_200 = {
    "poisson": (poisson(Fraction(1, 20)), "18cfb612afb6aafc"),
    "nongeneric_example": (nongeneric_example(1), "537f06b1f9bda271"),
}


@pytest.mark.parametrize("name", list(PINNED_FLUX_200))
def test_flux_at_order_200_pinned(name):
    law, digest = PINNED_FLUX_200[name]
    probs = flux_distribution(law, 200).probs
    assert hashlib.sha256(" ".join(p.hex() for p in probs).encode()).hexdigest()[:16] == digest
