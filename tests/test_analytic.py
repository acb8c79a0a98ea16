"""Regime classification, critical quantities, and the flux law.

The numeric targets here were computed independently with exact algebra
(see the closed forms inline) and frozen, so a regression in any solver
shows up as a drift from these constants.
"""

import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    with pytest.raises(NoSolution):
        flux_distribution(B02_SUP)
    with pytest.raises(NotCritical):
        critical_quantities(B02_SUP)


def test_flux_refuses_entries_that_are_not_probabilities():
    # poisson(360) wrongly reads critical (ROADMAP item 1) with an empty_prob
    # far above 1, so P(flux = 0) = sqrt(p / mu0) overflows to inf
    with pytest.raises(NoSolution, match=r"P\(flux = 0\) came out inf"):
        flux_distribution(poisson(360))


def test_critical_quantities_refuses_empty_prob_outside_unit_interval():
    # poisson(40) wrongly reads critical (ROADMAP item 1); its closed-form
    # empty-root probability is negative
    with pytest.raises(NoSolution, match=r"not in \[0, 1\]"):
        critical_quantities(poisson(40))


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


# (float.hex of alpha_c, gap evaluations in the trace) per (family, k, tol),
# recorded when find_alpha_c took a log phase and then _root (ITP)
PINNED_ALPHA_C = {
    ("binary0k", 2, 1e-9): ("0x1.24924925b8b70p-4", 15),
    ("binary0k", 2, 1e-11): ("0x1.249249246777ap-4", 17),
    ("binary0k", 3, 1e-9): ("0x1.8c69c03c8fd00p-6", 15),
    ("binary0k", 3, 1e-11): ("0x1.8c69c039259d9p-6", 17),
    ("poisson", None, 1e-9): ("0x1.5f61998579eeep-3", 16),
    ("poisson", None, 1e-11): ("0x1.5f619980b72b6p-3", 17),
    ("geometric", None, 1e-9): ("0x1.000000005c290p-3", 15),
    ("geometric", None, 1e-11): ("0x1.ffffffffd4084p-4", 17),
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


@pytest.mark.parametrize("family, k, tol", list(PINNED_ALPHA_C))
def test_alpha_c_pinned(family, k, tol):
    alpha_c, trace = find_alpha_c(family, k=k, tol=tol, want_trace=True)
    assert (alpha_c.hex(), len(trace)) == PINNED_ALPHA_C[family, k, tol]


@pytest.mark.parametrize("family, k, tol", list(BISECTION_ALPHA_C))
def test_alpha_c_within_tol_of_the_bisection(family, k, tol):
    # both end on a bracket of width at most tol around the same sign change
    old = float.fromhex(BISECTION_ALPHA_C[family, k, tol][0])
    assert abs(find_alpha_c(family, k=k, tol=tol) - old) <= tol


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
def test_alpha_c_refuses_a_tol_that_is_not_finite(tol):
    # an infinite tol used to return the bracket midpoint, a NaN one ran as 0
    with pytest.raises(OutOfDomain, match="not finite"):
        find_alpha_c("poisson", tol=tol)


def test_alpha_c_negative_tol_exhausts_the_cap(monkeypatch):
    # the real gaps reach exactly 0 near alpha_c; a sign alone never does
    monkeypatch.setattr(analytic, "_regime_gap", lambda law: 0.1 - law.mean() or 1.0)
    assert find_alpha_c("poisson", tol=1e-12) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(IterationCapExceeded):
        find_alpha_c("poisson", tol=-1.0)


# (regime, float.hex of the RegimeReport fields below, first 16 hex digits of
# the sha256 of the float.hex strings of flux_distribution(law, 60).probs) per
# exact law, recorded when _root (ITP) replaced the bisections, the flux
# digests again when one coefficient recurrence replaced the square root,
# reciprocal and product series; each law kept its regime, and binary0k(0.05)
# gives what binary0k(1/20) gives
PINNED_FIELDS = (
    "critical_time", "crit_density", "gf_at_crit", "lhs", "rhs", "gap",
    "empty_prob", "occupied_no_flux_prob",
)
PINNED_EXACT_LAWS = {
    ("binary0k", ("1/20", 2)): (
        "subcritical",
        (
            "0x1.cd82b44615928p+1", "0x1.0a418f6382a0cp+0",
            "0x1.16b28f55d72d4p+0", "0x1.0b29ea5b1c07ap+1",
            "0x1.b19050c18259cp+0", "0x1.930e0fd2d6d60p-2",
            "0x1.d664b560044e8p-1", "0x1.a9d4f6385b5f0p-5",
        ),
        "07936f550c4a0a22",
    ),
    ("binary0k", ("1/14", 2)): (
        "critical",
        (
            "0x1.8000000000000p+1", "0x1.c000000000000p-1",
            "0x1.16b28f55d72d3p+0", "0x1.4924924924924p+0",
            "0x1.4924924924924p+0", "0x0.0p+0",
            "0x1.c000000000000p-1", "0x1.3dc3d6b1c4798p-4",
        ),
        "ed104bb5edba603f",
    ),
    ("binary0k", ("0.013", 3)): (
        "subcritical",
        (
            "0x1.9cb8b2f213d12p+1", "0x1.24a77a44f1692p+0",
            "0x1.0a4b47dcb3f43p+0", "0x1.659e0452473a3p+0",
            "0x1.f052d4732ef47p-1", "0x1.b5d26862beffep-2",
            "0x1.ef4fe34d01f65p-1", "0x1.2bd30a31973a0p-6",
        ),
        "2971e5f650dfa67c",
    ),
    ("binary0k", ("0.3", 30)): (
        "supercritical",
        (
            "0x1.e559402fd386ep-1", "0x1.da605175df163p-2",
            "0x1.0022423d4816fp+0", "-0x1.0b2c964c7f8f9p+0",
            "-0x1.9bb6edbf3c6fep-9", "-0x1.0a5ebad59ff16p+0",
            None, None,
        ),
        None,
    ),
    ("finite", ("0.98", "0.01", "0.006", "0.004")): (
        "subcritical",
        (
            "0x1.892221793b16ap+1", "0x1.073d49cae1a71p+0",
            "0x1.0f732cdd881ecp+0", "0x1.44836a893a58fp+0",
            "0x1.04abd231f28ddp+0", "0x1.febcc2ba3e590p-3",
            "0x1.e0b10a8dfd662p-1", "0x1.471a78028f3f0p-5",
        ),
        "7592f7df1285853c",
    ),
    ("finite", ("0.985", "0.005", "0", "0.006", "0.004")): (
        "supercritical",
        (
            "0x1.f27a3482bbfb8p+0", "0x1.795a1768de329p-1",
            "0x1.0862cf72759e9p+0", "-0x1.da7f3b9ec6cdep-5",
            "0x1.696b6a2007761p-2", "-0x1.a4bb5193e04fdp-2",
            None, None,
        ),
        None,
    ),
    ("geometric", ("1/8",)): (
        "critical",
        (
            "0x1.8000000000000p+1", "0x1.b000000000000p-1",
            "0x1.279a74590331cp+0", "0x1.5555555555555p+0",
            "0x1.5555555555555p+0", "0x0.0p+0",
            "0x1.b000000000000p-1", "0x1.0b529158d5900p-3",
        ),
        "e6aca060909adf63",
    ),
    ("geometric", ("1/10",)): (
        "subcritical",
        (
            "0x1.d555555555624p+1", "0x1.0222222222223p+0",
            "0x1.279a74590331dp+0", "0x1.22e8ba2e8bb87p+1",
            "0x1.d1745d1745fc8p+0", "0x1.d1745d1745d18p-2",
            "0x1.c4e3a050533c5p-1", "0x1.a13882e6cffa0p-4",
        ),
        "cbb3f48c3afa104e",
    ),
    ("nongeneric_example", ("1/10",)): (
        "subcritical",
        (
            "0x1.8000000000000p+1", "0x1.6573ac901e572p+0",
            "0x1.06d3ff06f5062p+0", "0x1.72c234f72c236p+0",
            "0x1.0000000000000p+0", "0x1.cb08d3dcb08d8p-2",
            "0x1.f6e92d352e903p-1", "0x1.13fa3cc6cb500p-6",
        ),
        "56e0ca57d647e002",
    ),
    ("binary0k", (0.05, 2)): (
        "subcritical",
        (
            "0x1.cd82b44615928p+1", "0x1.0a418f6382a0cp+0",
            "0x1.16b28f55d72d4p+0", "0x1.0b29ea5b1c07ap+1",
            "0x1.b19050c18259cp+0", "0x1.930e0fd2d6d60p-2",
            "0x1.d664b560044e8p-1", "0x1.a9d4f6385b5f0p-5",
        ),
        "07936f550c4a0a22",
    ),
    ("binary0k", (0.3, 3)): (
        "supercritical",
        (
            "0x1.1854a6c7ba33cp+0", "0x1.b7d0923618b00p-2",
            "0x1.0a4b47dcb3f43p+0", "-0x1.ddd85033cb2d7p-1",
            "0x1.32b3d3dd60ffbp-5", "-0x1.f1038d71a13d7p-1",
            None, None,
        ),
        None,
    ),
    ("poisson", (0.1,)): (
        "subcritical",
        (
            "0x1.76e73ffc1eb25p+2", "0x1.462e93ccc18dap+0",
            "0x1.384c418a03560p+0", "0x1.9154672398d36p+2",
            "0x1.2808423ab7fc7p+2", "0x1.a53093a3835bcp+0",
            "0x1.c95db352c0cb6p-1", "0x1.9adbc470522c0p-4",
        ),
        "d99071058f9de552",
    ),
    ("poisson", (3 - 2 * math.sqrt(2),)): (
        "critical",
        (
            "0x1.b504f333f9deep+1", "0x1.986fd998db4a9p-1",
            "0x1.384c418a03560p+0", "0x1.11ea35da10ed1p+1",
            "0x1.11ea35da10eccp+1", "0x1.4000000000000p-49",
            "0x1.986fd998db4a9p-1", "0x1.6748857a84dacp-3",
        ),
        "8685dae8abfeac74",
    ),
    ("geometric", (0.05,)): (
        "subcritical",
        (
            "0x1.c000000000000p+2", "0x1.d666666666666p+0",
            "0x1.279a74590331dp+0", "0x1.c924924924925p+2",
            "0x1.124924924924ap+2", "0x1.6db6db6db6db6p+1",
            "0x1.e4e09fe01cebdp-1", "0x1.9ae624ba934b0p-5",
        ),
        "ba8869cefe8c34b6",
    ),
    ("geometric", (0.125,)): (
        "critical",
        (
            "0x1.8000000000000p+1", "0x1.b000000000000p-1",
            "0x1.279a74590331cp+0", "0x1.5555555555555p+0",
            "0x1.5555555555555p+0", "0x0.0p+0",
            "0x1.b000000000000p-1", "0x1.0b529158d5900p-3",
        ),
        "5375b1dfe8c68da9",
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


def _decimal_flux(law, order, digits=60):
    """flux_distribution's recurrence run in decimal at the given digits.

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


def _flat_law(radius, visited):
    """G = 1 everywhere: the margin is 2 at every t the scan visits."""

    def derivs(t, order):
        visited.append(t)
        return (1.0,) + (0.0,) * order

    return CustomAnalyticLaw(derivs, radius, 0.5, 0.4, f"flat to {radius}")


def test_scan_visits_the_geometric_grid_then_the_cap():
    visited = []
    assert find_critical_time(_flat_law(10.0, visited)) == analytic.CriticalTime(
        10.0, False, True, True
    )
    cap = 10.0 * (1 - 1e-12)
    grid = [analytic.GRID_START]
    while grid[-1] * analytic.GRID_RATIO < cap:
        grid.append(grid[-1] * analytic.GRID_RATIO)
    # the grid and the cap, then the probe at the radius
    assert visited == grid + [cap, 10.0]
    assert len(visited) == 333


def test_scan_with_a_nan_cap_visits_only_the_cap():
    visited = []
    ct = find_critical_time(_flat_law(math.nan, visited))
    assert math.isnan(ct.t)
    assert (ct.margin_vanishes, ct.at_radius, ct.evaluable) == (False, True, True)
    # the cap, then the probe at the radius, both NaN
    assert len(visited) == 2 and all(math.isnan(t) for t in visited)


def _scan_outcome(law):
    """find_critical_time's result as float.hex and flags, or the exception's type."""
    try:
        ct = find_critical_time(law)
    except (ParkingModelError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    return ct.t.hex(), ct.margin_vanishes, ct.at_radius, ct.evaluable


def _full_walk(law):
    """The same G behind a custom law, which promises nothing of G's series
    and so walks the grid point by point."""
    return CustomAnalyticLaw(law.derivatives, law.radius, law.mu0, float(law.mean()))


def _decades(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


_UNIT_OPEN = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
GALLOP_LAWS = {
    "poisson": _decades(-9, 9).map(poisson),
    "geometric": _decades(-9, 9).map(geometric),
    # k >= 3 includes supercritical laws whose margin turns positive again
    # past its first zero, where only G - t G' > 0 stops the certificate
    "binary0k": st.tuples(st.integers(2, 30), _UNIT_OPEN)
    .filter(lambda ku: 0.0 < ku[0] * ku[1] < ku[0])
    .map(lambda ku: binary0k(ku[0] * ku[1], ku[0])),
    "nongeneric_example": _decades(-9, 0).map(nongeneric_example),
    "finite": st.lists(st.integers(0, 100), min_size=3, max_size=7)
    .filter(lambda w: w[0] > 0 and sum(w[2:]) > 0)
    .map(lambda w: make_finite_law([Fraction(x, sum(w)) for x in w])),
}


@pytest.mark.parametrize("family", list(GALLOP_LAWS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_gallop_matches_the_full_walk(family, data):
    law = data.draw(GALLOP_LAWS[family])
    assert _scan_outcome(law) == _scan_outcome(_full_walk(law)), law


# (float.hex of t, margin_vanishes, at_radius, evaluable) per law, recorded
# when _root (ITP) replaced the bisection; the laws of ROADMAP item 1, whose
# answers are wrong, are left to test_gallop_matches_the_full_walk
PINNED_CRITICAL_TIMES = {
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


def test_scan_gallops_to_the_first_sign_change(monkeypatch):
    # the margin of poisson(0.1) first vanishes near t = 5.86, about 320 grid
    # points up; a walk from the start evaluates G there 321 times, a binary
    # search over the 567 grid points for the end of the certified prefix 11,
    # and the root search between the last two points 10 (bisection: 39)
    evaluated, at_root = [], []
    derivatives, root = PoissonLaw.derivatives, analytic._root

    def counted(self, t, order=2):
        evaluated.append(t)
        return derivatives(self, t, order)

    def root_once(f, a, b, *args, **kw):
        at_root.append(len(evaluated))
        return root(f, a, b, *args, **kw)

    monkeypatch.setattr(PoissonLaw, "derivatives", counted)
    monkeypatch.setattr(analytic, "_root", root_once)
    ct = find_critical_time.__wrapped__(poisson(0.1))
    assert ct.t.hex() == PINNED_CRITICAL_TIMES["poisson", (0.1,)][0]
    assert len(at_root) == 1 and at_root[0] <= 12
    assert len(evaluated) - at_root[0] <= 16


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
    "family, k", [("binary0k", 2), ("binary0k", 5), ("poisson", None), ("geometric", None)]
)
def test_alpha_c_evaluation_count(family, k):
    # bisection took 33-38 gap evaluations at the default tol of 1e-9
    _, trace = find_alpha_c(family, k=k, want_trace=True)
    assert len(trace) <= 20


def test_root_is_at_most_one_step_behind_bisection():
    # past a step in f, regula falsi creeps in from the flat side; the window
    # about the midpoint keeps ITP within n0 = 1 step of bisection's 30
    calls = []

    def step(x):
        calls.append(x)
        return 1e-12 if x < 0.7 else -1.0

    x = analytic._root(step, 0.0, 1.0, 1e-12, -1.0, rel=0.0, width=1e-9)
    assert abs(x - 0.7) <= 1e-9
    assert len(calls) <= math.ceil(math.log2(1.0 / 1e-9)) + 1


def _bisect(f, a, b, rel=analytic.REL_ROOT_TOL, width=0.0):
    """Plain bisection of f(a) > 0 > f(b) with _root's stopping rule."""
    for _ in range(analytic.ITER_CAP):
        if b - a <= max(width, rel * max(abs(a), abs(b), 1e-300)):
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


@pytest.mark.parametrize("family", list(GALLOP_LAWS))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_root_agrees_with_bisection(family, data):
    # on the scan's bracket and the fixed-point bracket of each law
    law = data.draw(GALLOP_LAWS[family])
    root = analytic._root

    def both(f, a, b, fa=None, fb=None, rel=analytic.REL_ROOT_TOL, width=0.0):
        ref = _outcome(lambda: _bisect(f, a, b, rel, width))
        try:
            x = root(f, a, b, fa, fb, rel, width)
        except (ParkingModelError, ArithmeticError, ValueError) as exc:
            assert ref == type(exc).__name__, (law, a, b)
            raise
        assert not isinstance(ref, str), (law, a, b, ref)
        # each ends on a bracket narrower than the stopping width around the
        # same sign change, so the two midpoints are this close
        gap = abs(x - ref)
        assert gap <= max(width, rel * (max(abs(x), abs(ref)) + gap)), (law, a, b, x, ref)
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "_root", both)
        _outcome(lambda: find_critical_time.__wrapped__(law))
        _outcome(lambda: solve_empty_prob(law))


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
