"""Regime classification and critical quantities for the parking process.

Everything here works through the arrival law's generating function G.
The central device is an internal time parameter t: the candidate
probability that the root of the tree stays empty is a function of t
(``density_from_time``), and that map is increasing exactly while a
monotonicity margin (``kernel_margin``) stays positive.  The first zero
of the margin, or the radius of convergence if the margin never
vanishes, bounds the time domain; the regime is decided by comparing a
boundary functional against its critical value there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BracketFailure,
    IterationCapExceeded,
    NegativeCoefficient,
    NegativeRadicand,
    NoRootWithinBudget,
    NoSolution,
    NotCritical,
    OutOfDomain,
    ParkingModelError,
)
from .laws import FAMILIES
from .series import product
from .series import reciprocal as series_reciprocal
from .series import sqrt_series

GRID_START = 1e-6
GRID_RATIO = 1.05
TIME_BUDGET = 1e6
MARGIN_TOL = 1e-9
REL_ROOT_TOL = 1e-13
ITER_CAP = 200
CACHE_SIZE = 1024  # laws remembered by classify and find_critical_time


def kernel_margin(law, t):
    """2 (G - t G')^2 - t^2 G G''.

    Positive at t = 0 (equals twice the squared mass at zero).  Its first
    zero is the critical time: beyond it the time-to-density change of
    variables stops being monotone.  Exact when the law and t are exact.
    """
    g0, g1, g2 = law.derivatives(t, 2)
    a = g0 - t * g1
    return 2 * a * a - t * t * g0 * g2


def density_from_time(law, t):
    """Candidate empty-root probability t (2G - t G') / (4 G^2)."""
    g0, g1 = law.derivatives(t, 1)
    return t * (2 * g0 - t * g1) / (4 * g0 * g0)


def _fixed_point_value(law, t):
    """t (G - t G') / (2G - t G').

    Equals mu0 * x * Q(x)^2 at x = density_from_time(t), where Q is the
    zero-flux generating factor; the empty-probability fixed point is
    exactly where this hits 1, and it is increasing on the valid time
    range, which makes it the quantity of choice for bisection.
    """
    g0, g1 = law.derivatives(t, 1)
    return t * (g0 - t * g1) / (2 * g0 - t * g1)


def _gf_from_time(law, t):
    """Zero-flux generating factor evaluated through the time parameter.

    2 G sqrt(G - t G') / ((2G - t G') sqrt(mu0)); equals 1 at t = 0.
    This form stays well conditioned at the critical time, where the
    density variable itself is singular.
    """
    g0, g1 = (float(v) for v in law.derivatives(t, 1))
    radicand = g0 - t * g1
    if radicand < 0:
        raise NegativeRadicand(f"G - t G' = {radicand!r} at t = {t!r}")
    return 2.0 * g0 * math.sqrt(radicand) / ((2.0 * g0 - t * g1) * math.sqrt(law.mu0))


def _bisect_decreasing(f, a, b, rel=REL_ROOT_TOL, width=0.0):
    """Root of f on [a, b] given f(a) > 0 > f(b).

    Stops once b - a is at most width, or at most rel times the larger
    end of the bracket.
    """
    for _ in range(ITER_CAP):
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
    raise IterationCapExceeded(f"bracket ({a!r}, {b!r}) open after {ITER_CAP} bisections")


@dataclass(frozen=True)
class CriticalTime:
    """Where the valid time range of the density map ends and why."""

    t: float
    margin_vanishes: bool  # the monotonicity margin has a zero at t
    at_radius: bool  # t is the radius of convergence of G
    evaluable: bool  # the margin could be evaluated at t


@lru_cache(maxsize=CACHE_SIZE)
def find_critical_time(law):
    """Locate the end of the monotone time range.

    Scans a geometric grid for a sign change of the margin and bisects
    it; if the margin stays positive up to a finite radius, the margin
    is probed at the radius itself, where it may vanish (nongeneric
    criticality), stay positive, or be impossible to evaluate.
    """
    mu0 = law.mu0
    band = MARGIN_TOL * max(1.0, 2.0 * mu0 * mu0)
    radius = law.radius
    if radius * (1 - 1e-12) > TIME_BUDGET:
        cap = TIME_BUDGET
        radius_within_budget = False
    else:
        cap = radius * (1 - 1e-12)
        radius_within_budget = True

    prev_t = 0.0
    t = GRID_START
    grid = []
    while t < cap:
        grid.append(t)
        t *= GRID_RATIO
    grid.append(cap)

    for t in grid:
        m = kernel_margin(law, t)
        if m == 0.0:
            return CriticalTime(t, True, False, True)
        if m < 0.0:
            root = _bisect_decreasing(
                lambda s: kernel_margin(law, s), prev_t, t
            )
            return CriticalTime(root, True, False, True)
        prev_t = t

    if not radius_within_budget:
        raise NoRootWithinBudget(
            f"margin stays positive on (0, {TIME_BUDGET:g}) and the radius "
            f"{radius:g} is beyond the search budget"
        )

    try:
        m_r = kernel_margin(law, radius)
    except (ParkingModelError, ArithmeticError, ValueError):
        return CriticalTime(radius, False, True, False)
    if m_r < -band:
        root = _bisect_decreasing(lambda s: kernel_margin(law, s), prev_t, radius)
        return CriticalTime(root, True, False, True)
    if abs(m_r) <= band:
        return CriticalTime(radius, True, True, True)
    return CriticalTime(radius, False, True, True)


def time_from_density(law, x):
    """Invert the density map on its monotone range by bisection.

    The inverse is square-root singular at the top of the range, so the
    returned time is accurate to about the square root of the bisection
    tolerance there; downstream evaluations go through forms that are
    flat in that direction, which restores full accuracy.
    """
    x = float(x)
    if x < 0:
        raise OutOfDomain(f"density {x!r} is negative")
    ct = find_critical_time(law)
    x_top = density_from_time(law, ct.t)
    if x > x_top * (1 + 1e-12):
        raise OutOfDomain(f"density {x!r} exceeds the maximum {x_top!r}")
    if x >= x_top:
        return ct.t
    if x == 0.0:
        return 0.0
    f = lambda s: x - density_from_time(law, s)  # noqa: E731
    return _bisect_decreasing(f, 0.0, ct.t)


def flux_zero_gf(law, x):
    """Zero-flux generating factor at density x in [0, max density]."""
    return _gf_from_time(law, time_from_density(law, x))


def solve_empty_prob(law, t_hi=None):
    """Empty-root probability as the root of the fixed-point functional.

    Bisects the increasing functional toward 1 on (0, t_hi].  Raises
    NoSolution when even the top of the range stays below 1, which is
    the supercritical situation.
    """
    if t_hi is None:
        t_hi = find_critical_time(law).t
    top = _fixed_point_value(law, t_hi)
    if top < 1.0 - 1e-9:
        raise NoSolution(
            f"fixed-point functional reaches only {top!r} < 1 on (0, {t_hi!r}]"
        )
    if top <= 1.0:
        return t_hi, density_from_time(law, t_hi)
    f = lambda s: 1.0 - _fixed_point_value(law, s)  # noqa: E731
    t_star = _bisect_decreasing(f, 0.0, t_hi)
    return t_star, density_from_time(law, t_star)


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the regime decision for one arrival law."""

    regime: str  # subcritical | critical | supercritical | undecided
    test: str  # kernel | radius | none
    margin_vanishes: bool
    critical_time: float
    crit_density: float | None
    gf_at_crit: float | None
    lhs: float | None
    rhs: float | None
    gap: float | None
    empty_prob: float | None
    occupied_no_flux_prob: float | None


def _occupied_no_flux(law, p_empty):
    """P(root occupied, no flux) from P(root empty): sqrt(p / mu0) - p."""
    return math.sqrt(p_empty / law.mu0) - p_empty


def _boundary(law, ct):
    """(test, lhs, rhs) at an evaluable critical time; lhs > rhs is subcritical."""
    t = ct.t
    if ct.margin_vanishes:
        g0, g1 = (float(v) for v in law.derivatives(t, 1))
        return "kernel", (t - 2.0) * g0, t * (t - 1.0) * g1
    return "radius", float(_fixed_point_value(law, t)), 1.0


@lru_cache(maxsize=CACHE_SIZE)
def classify(law, tol=MARGIN_TOL):
    """Decide the regime of the parking process under the given law.

    When the margin vanishes at a genuine critical time the boundary
    comparison is (t-2) G(t) versus t (t-1) G'(t): larger left side
    means subcritical, equality within the tolerance band means
    critical.  When the margin stays positive up to the radius the
    fixed-point functional at the radius is compared against 1, which
    is the same comparison in a form that needs no second derivative.
    """
    ct = find_critical_time(law)
    t = ct.t
    if not ct.evaluable:
        regime = "supercritical" if law.radius < 2 else "undecided"
        return RegimeReport(
            regime, "none", False, t, None, None, None, None, None, None, None
        )

    x = float(density_from_time(law, t))
    gf = _gf_from_time(law, t)
    test, lhs, rhs = _boundary(law, ct)
    gap = lhs - rhs
    band = tol * max(1.0, abs(lhs), abs(rhs))

    if abs(gap) <= band:
        regime, p_empty = "critical", x
    elif gap > 0.0:
        regime, p_empty = "subcritical", solve_empty_prob(law, t)[1]
    else:
        return RegimeReport(
            "supercritical", test, ct.margin_vanishes, t, x, gf, lhs, rhs, gap,
            None, None,
        )
    return RegimeReport(
        regime, test, ct.margin_vanishes, t, x, gf, lhs, rhs, gap,
        p_empty, _occupied_no_flux(law, p_empty),
    )


@dataclass(frozen=True)
class OffspringLaw:
    """Offspring distribution of the tree of empty vertices."""

    p0: float
    p1: float
    p2: float
    mean: float


def empty_vertex_offspring(empty_prob, occupied_no_flux_prob):
    """Offspring law of an empty vertex: each child is empty or occupied
    without overflow, conditioned on the parent staying empty."""
    s = empty_prob + occupied_no_flux_prob
    if s <= 0:
        raise OutOfDomain("probabilities must be positive")
    q = empty_prob / s
    return OffspringLaw((1 - q) ** 2, 2 * q * (1 - q), q * q, 2 * q)


@dataclass(frozen=True)
class CriticalQuantities:
    critical_time: float
    crit_density: float
    empty_prob: float
    occupied_no_flux_prob: float
    gf_at_crit: float
    offspring: OffspringLaw


def critical_quantities(law, tol=MARGIN_TOL):
    """Closed-form quantities that hold exactly at criticality."""
    report = classify(law, tol)
    if report.regime != "critical":
        raise NotCritical(f"{law.describe()} is {report.regime}")
    t = report.critical_time
    g0 = float(law.derivatives(t, 0)[0])
    p_empty = t * t / (4.0 * (t - 1.0) * g0)
    p_occ = _occupied_no_flux(law, p_empty)
    return CriticalQuantities(
        critical_time=t,
        crit_density=report.crit_density,
        empty_prob=p_empty,
        occupied_no_flux_prob=p_occ,
        gf_at_crit=report.gf_at_crit,
        offspring=empty_vertex_offspring(p_empty, p_occ),
    )


@dataclass(frozen=True)
class FluxDistribution:
    """Distribution of the surplus flowing out of the root."""

    probs: tuple
    empty_prob: float
    occupied_no_flux_prob: float
    mean_flux: float
    mean_occupancy: float
    tail_mass: float

    def occupancy_probs(self, n_max):
        """P(root holds n cars) for n = 0..n_max, derived from the flux law."""
        if n_max > len(self.probs):
            raise OutOfDomain(f"need flux probabilities up to {n_max - 1}")
        out = [self.empty_prob, self.probs[0] - self.empty_prob]
        out.extend(self.probs[1:n_max])
        return tuple(out[: n_max + 1])


def flux_distribution(law, order=40, tol=MARGIN_TOL):
    """Flux law at the root, P(flux = k) for k = 0..order.

    Solves the quadratic for the flux generating function: with p the
    empty-root probability, p G(y) f(y)^2 = y f(y) + 1 - y, taking the
    branch with f(0) > 0, by the coefficient recurrences of a square
    root and a reciprocal; then P(flux = k) = p [y^k] f.  Requires a
    subcritical or critical law.
    """
    if order < 2:
        raise OutOfDomain("flux order must be at least 2")
    report = classify(law, tol)
    if report.empty_prob is None:
        raise NoSolution(f"{law.describe()} is {report.regime}: no flux law")
    p = report.empty_prob
    g = [float(law.coefficient(k)) for k in range(order + 1)]
    # f = (y + sqrt(y^2 + 4p (1 - y) G)) / (2p G)
    radicand = [(gk - gj) * (4.0 * p) for gj, gk in zip([0.0] + g, g)]
    radicand[2] += 1.0
    numerator = sqrt_series(radicand)
    numerator[1] += 1.0
    f = product(numerator, series_reciprocal([c * (2.0 * p) for c in g]))
    probs = []
    for k in range(order + 1):
        v = p * f[k]
        if v < 0.0:
            if v < -1e-10:
                raise NegativeCoefficient(f"P(flux = {k}) came out {v!r}")
            v = 0.0
        probs.append(v)
    moments = _moments(law, p)
    return FluxDistribution(
        probs=tuple(probs),
        empty_prob=p,
        occupied_no_flux_prob=probs[0] - p,
        mean_flux=moments["mean_flux"],
        mean_occupancy=moments["mean_occupancy"],
        tail_mass=1.0 - math.fsum(probs),
    )


def occupancy_self_consistency(law, flux, upto):
    """Residuals of the one-vertex load recursion, term by term.

    The load at a vertex is the arrivals plus the flux pushed up by the
    two independent subtrees, so P(load = n) must equal the convolution
    sum over mu_a * (flux law * flux law)[n - a].  Both sides involve
    only finitely many terms for each n, so the residuals are pure
    floating-point noise when the flux law is right.
    """
    q = flux.probs
    if upto + 1 > len(q):
        raise OutOfDomain(f"need flux probabilities up to order {upto}")
    conv = [
        math.fsum(q[i] * q[n - i] for i in range(n + 1)) for n in range(upto + 1)
    ]
    mu = [float(law.coefficient(a)) for a in range(upto + 1)]
    direct = flux.occupancy_probs(upto)
    out = []
    for n in range(upto + 1):
        rhs = math.fsum(mu[a] * conv[n - a] for a in range(n + 1))
        out.append(direct[n] - rhs)
    return tuple(out)


def _moments(law, p_empty):
    """First moments of arrivals, root occupancy and root flux given P(root empty)."""
    mean_a = float(law.mean())
    return {
        "empty_prob": p_empty,
        "mean_arrivals": mean_a,
        "mean_occupancy": 2.0 * (1.0 - p_empty) - mean_a,
        "mean_flux": (1.0 - p_empty) - mean_a,
    }


def mean_identities(law, tol=MARGIN_TOL):
    """Exact first moments implied by the empty-root probability."""
    report = classify(law, tol)
    if report.empty_prob is None:
        raise NoSolution(f"{law.describe()} is {report.regime}: no stationary root law")
    return _moments(law, report.empty_prob)


def _regime_gap(law):
    """Signed distance to criticality; positive subcritical, negative super."""
    ct = find_critical_time(law)
    if not ct.evaluable:
        raise NoSolution(f"{law.describe()}: boundary not evaluable")
    _, lhs, rhs = _boundary(law, ct)
    return lhs - rhs


_DEFAULT_BRACKETS = {
    "poisson": (1e-4, 50.0),
    "geometric": (1e-6, 50.0),
}


def find_alpha_c(family, k=None, lo=None, hi=None, tol=1e-9, want_trace=False):
    """Critical mean arrival count of a one-parameter family, by bisection.

    The family must be subcritical at lo and supercritical at hi; the
    signed criticality gap is bisected until the bracket is narrower
    than tol.  Returns the midpoint, or (midpoint, trace) with the list
    of (alpha, gap) pairs evaluated when want_trace is set.
    nongeneric_example is refused: no mix in (0, 1] is supercritical.
    """
    if family == "binary0k":
        if k is None:
            k = 2
        make = lambda a: FAMILIES[family](a, k)  # noqa: E731
        default = (1e-6, k * (1 - 1e-9))
    elif family in _DEFAULT_BRACKETS:
        make, default = FAMILIES[family], _DEFAULT_BRACKETS[family]
    elif family in FAMILIES:
        raise BracketFailure(f"{family} has no supercritical member to bracket")
    else:
        raise BracketFailure(f"unknown family {family!r}")
    a = default[0] if lo is None else float(lo)
    b = default[1] if hi is None else float(hi)
    if not a < b:
        raise BracketFailure(f"empty bracket ({a!r}, {b!r})")

    trace = []

    def gap_at(alpha):
        g = _regime_gap(make(alpha))
        trace.append((alpha, g))
        return g

    ga, gb = gap_at(a), gap_at(b)
    if ga <= 0.0:
        raise BracketFailure(f"{family} at alpha = {a!r} is not subcritical")
    if gb >= 0.0:
        raise BracketFailure(f"{family} at alpha = {b!r} is not supercritical")
    # rel = 0: the ends keep gaps of opposite signs and never meet, so only
    # tol, an exact zero of the gap or ITER_CAP ends the bisection
    alpha_c = _bisect_decreasing(gap_at, a, b, rel=0.0, width=tol)
    if want_trace:
        return alpha_c, trace
    return alpha_c
