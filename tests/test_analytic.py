"""Regime classification, critical quantities, and the flux law.

The numeric targets here were computed independently with exact algebra
(see the closed forms inline) and frozen, so a regression in any solver
shows up as a drift from these constants.
"""

import math
from fractions import Fraction

import pytest

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
    NoRootWithinBudget,
    NoSolution,
    NotCritical,
)
from parkcrit.laws import CustomAnalyticLaw, binary0k, geometric, nongeneric_example, poisson

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
    with pytest.raises(NoSolution):
        flux_distribution(B02_SUP)
    with pytest.raises(NotCritical):
        critical_quantities(B02_SUP)


def test_regime_monotone_in_mean():
    regimes = [classify(binary0k(a)).regime for a in (0.02, Fraction(1, 14), 0.4)]
    assert regimes == ["subcritical", "critical", "supercritical"]


def test_kernel_margin_sign_change():
    assert kernel_margin(B02_CRIT, 1.0) > 0
    assert kernel_margin(B02_CRIT, 3.5) < 0
    assert abs(kernel_margin(B02_CRIT, 3.0)) < 1e-12


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


def test_alpha_c_known_values():
    assert find_alpha_c("binary0k", k=2) == pytest.approx(1 / 14, abs=1e-9)
    assert find_alpha_c("poisson") == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-9)
    assert find_alpha_c("geometric") == pytest.approx(1 / 8, abs=1e-9)


def test_alpha_c_bracket_failure():
    with pytest.raises(BracketFailure):
        find_alpha_c("binary0k", k=2, lo=0.2, hi=0.5)


# (float.hex of alpha_c, gap evaluations in the trace) per (family, k, tol),
# recorded while find_alpha_c still ran its own bisection loop
PINNED_ALPHA_C = {
    ("binary0k", 2, 1e-9): ("0x1.249249345598fp-4", 33),
    ("binary0k", 2, 1e-11): ("0x1.2492492495998p-4", 40),
    ("binary0k", 3, 1e-9): ("0x1.8c69c06e71d7ep-6", 34),
    ("binary0k", 3, 1e-11): ("0x1.8c69c03931d92p-6", 41),
    ("poisson", None, 1e-9): ("0x1.5f61997ec9776p-3", 38),
    ("poisson", None, 1e-11): ("0x1.5f619980d6772p-3", 45),
    ("geometric", None, 1e-9): ("0x1.ffffffecadee1p-4", 38),
    ("geometric", None, 1e-11): ("0x1.0000000001f70p-3", 45),
}


@pytest.mark.parametrize("family, k, tol", list(PINNED_ALPHA_C))
def test_alpha_c_pinned(family, k, tol):
    alpha_c, trace = find_alpha_c(family, k=k, tol=tol, want_trace=True)
    assert (alpha_c.hex(), len(trace)) == PINNED_ALPHA_C[family, k, tol]


def test_alpha_c_negative_tol_exhausts_the_cap(monkeypatch):
    # the real gaps reach exactly 0 near alpha_c; a sign alone never does
    monkeypatch.setattr(analytic, "_regime_gap", lambda law: 0.1 - law.mean() or 1.0)
    assert find_alpha_c("poisson", tol=1e-12) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(IterationCapExceeded):
        find_alpha_c("poisson", tol=-1.0)


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
    # constant pgf: margin is 2 everywhere, no root below any budget
    law = CustomAnalyticLaw(
        derivs=lambda t, order: (1.0,) + (0.0,) * order,
        radius=math.inf,
        mu_zero=1.0,
        mean=0.0,
        name="no arrivals",
    )
    with pytest.raises(NoRootWithinBudget):
        find_critical_time(law)


def _unevaluable_at(radius):
    def derivs(t, order=2):
        if t >= radius:
            from parkcrit.errors import EvaluationBeyondRadius

            raise EvaluationBeyondRadius("synthetic boundary")
        return (1.0,) + (0.0,) * order

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
