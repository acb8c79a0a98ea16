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
import operator
from bisect import bisect_left
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
# sqrt_series and series_reciprocal are unused here, but perfbench/tracing.py
# patches both names on parkcrit.analytic: removing them breaks every traced run
from .series import reciprocal as series_reciprocal
from .series import sqrt_series

GRID_START = 1e-6
GRID_RATIO = 1.05
TIME_BUDGET = 1e6
MARGIN_TOL = 1e-9
CERTIFY_TOL = 1e-9  # margin over scale that certifies a grid point, see find_critical_time
REL_ROOT_TOL = 1e-13
ITER_CAP = 200
CACHE_SIZE = 1024  # laws remembered by classify and find_critical_time


def _geometric_grid(start, ratio, stop):
    """start * ratio^i below stop, each point the previous one times ratio."""
    out = []
    t = start
    while t < stop:
        out.append(t)
        t *= ratio
    return tuple(out)


# the scan's grid below any cap it can have, since the cap is at most TIME_BUDGET
_GRID = _geometric_grid(GRID_START, GRID_RATIO, TIME_BUDGET)


def _margin_terms(law, t):
    """(G - t G', the margin, its scale 2 (G + t G')^2 + t^2 G G'') at t.

    The scale bounds the terms the margin is computed from, so it sizes
    the margin's rounding error.
    """
    g0, g1, g2 = law.derivatives(t, 2)
    a = g0 - t * g1
    s = g0 + t * g1
    q = t * t * g0 * g2
    return a, 2 * a * a - q, 2 * s * s + q


def kernel_margin(law, t):
    """2 (G - t G')^2 - t^2 G G''.

    Positive at t = 0 (equals twice the squared mass at zero).  Its first
    zero is the critical time: beyond it the time-to-density change of
    variables stops being monotone.  Exact when the law and t are exact.
    """
    return _margin_terms(law, t)[1]


def _certified_margin(law, t):
    """The margin at t if t is certified, as find_critical_time describes
    (the float margin is then positive at every t' <= t), else None.  A
    probe that raises is not certified.
    """
    try:
        a, m, scale = _margin_terms(law, t)
    except (ParkingModelError, ArithmeticError, ValueError):
        return None
    # inf and NaN fail one of these comparisons
    return m if a > 0.0 and CERTIFY_TOL * scale < m < math.inf else None


def density_from_time(law, t):
    """Candidate empty-root probability t (2G - t G') / (4 G^2)."""
    g0, g1 = law.derivatives(t, 1)
    return t * (2 * g0 - t * g1) / (4 * g0 * g0)


def _fixed_point_value(law, t):
    """t (G - t G') / (2G - t G').

    Equals mu0 * x * Q(x)^2 at x = density_from_time(t), where Q is the
    zero-flux generating factor; the empty-probability fixed point is
    exactly where this hits 1, and it is increasing on the valid time
    range, which makes it the quantity of choice for the root search.
    """
    g0, g1 = law.derivatives(t, 1)
    return t * (g0 - t * g1) / (2 * g0 - t * g1)


def _gf_from_time(law, t):
    """Zero-flux generating factor evaluated through the time parameter.

    2 G sqrt(G - t G') / ((2G - t G') sqrt(mu0)); equals 1 at t = 0.
    This form stays well conditioned at the critical time, where the
    density variable itself is singular.
    """
    g0, g1 = law.derivatives(t, 1)
    radicand = g0 - t * g1
    if radicand < 0:
        raise NegativeRadicand(f"G - t G' = {radicand!r} at t = {t!r}")
    return 2.0 * g0 * math.sqrt(radicand) / ((2.0 * g0 - t * g1) * math.sqrt(law.mu0))


def _root(f, a, b, fa=None, fb=None, rel=REL_ROOT_TOL, width=0.0):
    """Root of f on [a, b] given f(a) > 0 > f(b), by ITP.

    fa and fb are f(a) and f(b) when the caller holds them.  Stops once
    b - a is at most width, or at most rel times the larger end of the
    bracket, and returns the midpoint, or at once a point where f is
    exactly 0.

    Each step interpolates (regula falsi), moves the estimate toward the
    midpoint by 0.2 (b - a)^2 / (b0 - a0), and clips it to the window
    about the midpoint that keeps the bracket within 2^(1 - j) (b0 - a0)
    after j steps, [a0, b0] being the starting bracket: never more than
    one step behind bisection, and superlinear on smooth f (ITP with
    k1 = 0.2 / (b0 - a0), k2 = 2, n0 = 1; Oliveira and Takahashi, ACM
    TOMS 47(1), 2020).  The move is at least half the stopping width, so
    an estimate that rounds onto an end still closes the bracket.  A step
    whose end values are not both finite, or not both given, takes the
    midpoint.
    """
    fa = math.nan if fa is None else fa
    fb = math.nan if fb is None else fb
    w0 = b - a
    for j in range(ITER_CAP):
        w = b - a
        tol = max(width, rel * max(abs(a), abs(b), 1e-300))
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
    raise IterationCapExceeded(f"bracket ({a!r}, {b!r}) open after {ITER_CAP} steps")


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

    Scans the grid GRID_START * GRID_RATIO^i below the cap, then the cap,
    for the first point where the margin is not positive, and finds the
    root between it and the point before with _root, which starts from
    the margins already evaluated at both points; if the margin stays
    positive up to a finite radius, the margin is probed at the radius
    itself, where it may vanish (nongeneric criticality), stay positive,
    or be impossible to evaluate.

    When G has non-negative coefficients the scan first bisects the grid
    for the end of its certified prefix.  A grid point T is certified
    when G - T G' > 0 and the margin is above CERTIFY_TOL times
    2 (G + T G')^2 + T^2 G G''.  There G - t G' falls while G and G''
    rise, so the margin at every t <= T is at least the margin at T, and
    the band outweighs the rounding of every earlier float margin.  The
    bisection steps past a point only once it has found it certified, so
    the walk resumes just after a certified point (or at the start) and
    meets the same first non-positive point, with the same point before
    it, as a walk from the start: the bracket and the result are the
    same bits.  The bisection costs about log2 of the number of grid
    points below the cap: poisson(0.1) evaluates G 11 times before its
    final root search, against 321 for a walk from the start.  That
    search takes 7-10 margin evaluations on the packaged laws, where
    bisection took 39.
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

    # grid points below cap; none when cap is NaN, so then only cap is visited
    n = bisect_left(_GRID, cap)
    start = 0
    certified = {}  # probed grid index -> its margin if certified, else None
    if law.nonnegative_coefficients:

        def uncertified(i):
            m = certified[i] = _certified_margin(law, _GRID[i])
            return m is None

        # bisect steps past a point only once it is certified, so the point
        # before start, if any, is certified
        start = bisect_left(range(n), True, key=uncertified)
    # the margin at t = 0 is not evaluated: the root finder then bisects once
    prev_t, prev_m = (_GRID[start - 1], certified[start - 1]) if start else (0.0, None)
    margin = lambda s: kernel_margin(law, s)  # noqa: E731
    for t in (*_GRID[start:n], cap):
        m = margin(t)
        if m == 0.0:
            return CriticalTime(t, True, False, True)
        if m < 0.0:
            return CriticalTime(_root(margin, prev_t, t, prev_m, m), True, False, True)
        prev_t, prev_m = t, m

    if not radius_within_budget:
        raise NoRootWithinBudget(
            f"margin stays positive on (0, {TIME_BUDGET:g}) and the radius "
            f"{radius:g} is beyond the search budget"
        )

    try:
        m_r = margin(radius)
    except (ParkingModelError, ArithmeticError, ValueError):
        return CriticalTime(radius, False, True, False)
    if m_r < -band:
        return CriticalTime(_root(margin, prev_t, radius, prev_m, m_r), True, False, True)
    if abs(m_r) <= band:
        return CriticalTime(radius, True, True, True)
    return CriticalTime(radius, False, True, True)


def time_from_density(law, x):
    """Invert the density map on its monotone range by a root search.

    The inverse is square-root singular at the top of the range, so the
    returned time is accurate to about the square root of the search
    tolerance there; downstream evaluations go through forms that are
    flat in that direction, which restores full accuracy.
    """
    x = float(x)
    if math.isnan(x):
        raise OutOfDomain("density is NaN")
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
    return _root(f, 0.0, ct.t, x, x - x_top)


def flux_zero_gf(law, x):
    """Zero-flux generating factor at density x in [0, max density]."""
    return _gf_from_time(law, time_from_density(law, x))


def solve_empty_prob(law):
    """Empty-root probability as the root of the fixed-point functional.

    Finds where the increasing functional reaches 1 on (0, critical
    time], with _root: 7-10 evaluations on the packaged laws.
    Raises NoSolution when even the top of the range stays below 1,
    which is the supercritical situation.
    """
    t_hi = find_critical_time(law).t
    top = _fixed_point_value(law, t_hi)
    if top < 1.0 - MARGIN_TOL:
        raise NoSolution(
            f"fixed-point functional reaches only {top!r} < 1 on (0, {t_hi!r}]"
        )
    if top <= 1.0:
        return t_hi, density_from_time(law, t_hi)
    f = lambda s: 1.0 - _fixed_point_value(law, s)  # noqa: E731
    t_star = _root(f, 0.0, t_hi, 1.0, 1.0 - top)
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


def _no_flux_prob(law, p_empty):
    """P(flux = 0) from P(root empty): sqrt(p / mu0)."""
    return math.sqrt(p_empty / law.mu0)


def _occupied_no_flux(law, p_empty):
    """P(root occupied, no flux) from P(root empty): sqrt(p / mu0) - p."""
    return _no_flux_prob(law, p_empty) - p_empty


def _boundary(law, ct):
    """(test, lhs, rhs) at an evaluable critical time; lhs > rhs is subcritical."""
    t = ct.t
    if ct.margin_vanishes:
        g0, g1 = law.derivatives(t, 1)
        return "kernel", (t - 2.0) * g0, t * (t - 1.0) * g1
    return "radius", _fixed_point_value(law, t), 1.0


@lru_cache(maxsize=CACHE_SIZE)
def classify(law):
    """Decide the regime of the parking process under the given law.

    When the margin vanishes at a genuine critical time the boundary
    comparison is (t-2) G(t) versus t (t-1) G'(t): larger left side
    means subcritical.  When the margin stays positive up to the radius
    the fixed-point functional at the radius is compared against 1,
    which is the same comparison in a form that needs no second
    derivative.  Either way the sides are equal, and the law critical,
    when they differ by at most MARGIN_TOL times the larger side (or
    times 1, if both sides are smaller).  This band is float slack
    around the paper's exact equality, not a parameter of the model.
    """
    ct = find_critical_time(law)
    t = ct.t
    if not ct.evaluable:
        regime = "supercritical" if law.radius < 2 else "undecided"
        return RegimeReport(
            regime, "none", False, t, None, None, None, None, None, None, None
        )

    x = density_from_time(law, t)
    gf = _gf_from_time(law, t)
    test, lhs, rhs = _boundary(law, ct)
    gap = lhs - rhs
    band = MARGIN_TOL * max(1.0, abs(lhs), abs(rhs))

    if abs(gap) <= band:
        regime, p_empty = "critical", x
    elif gap > 0.0:
        regime, p_empty = "subcritical", solve_empty_prob(law)[1]
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


def critical_quantities(law):
    """Closed-form quantities that hold exactly at criticality.

    Raises NoSolution when the closed-form empty-root probability is not
    in [0, 1].
    """
    report = classify(law)
    if report.regime != "critical":
        raise NotCritical(f"{law.describe()} is {report.regime}")
    t = report.critical_time
    g0 = law.derivatives(t, 0)[0]
    p_empty = t * t / (4.0 * (t - 1.0) * g0)
    if not 0.0 <= p_empty <= 1.0:
        raise NoSolution(f"closed-form empty-root probability {p_empty!r} is not in [0, 1]")
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


def flux_distribution(law, order=40):
    """Flux law at the root, P(flux = k) for k = 0..order.

    With p the empty-root probability, the flux generating function f
    solves p G(y) f(y)^2 = y f(y) + 1 - y on the branch with f(0) > 0.
    So q = p f, whose coefficients are the P(flux = k), solves
    G q^2 - y q - p (1 - y) = 0 with q_0 = sqrt(p / mu0), and one
    recurrence gives q_n from q_0..q_{n-1}: with s = q^2 and
    r_n = sum_{j=1..n-1} q_j q_{n-j},

        q_n = (q_{n-1} - p [n = 1] - g_0 r_n - sum_{i=1..n} g_i s_{n-i}) / (2 g_0 q_0)
        s_n = 2 q_0 q_n + r_n.

    r_n is symmetric, so half of it is summed and doubled.  The sum over
    g stops at the last nonzero coefficient, so the cost is O(order^2)
    for the half sums plus O(order * support): binary0k and finite laws
    pay little beyond the half sums.  Against the same recurrence run at
    60 digits from the same float p, coefficients and q_0, every entry is
    within 5e-17 on the laws the tests pin, at order 200.  Requires a
    subcritical or critical law; an entry below -1e-10 raises
    NegativeCoefficient, and then one that is not finite or exceeds 1
    raises NoSolution.
    """
    try:
        order = operator.index(order)
    except TypeError:
        raise OutOfDomain(f"flux order {order!r} is not an integer") from None
    if order < 2:
        raise OutOfDomain("flux order must be at least 2")
    report = classify(law)
    if report.empty_prob is None:
        raise NoSolution(f"{law.describe()} is {report.regime}: no flux law")
    p = report.empty_prob
    support = law.finite_support()
    top = order if support is None else min(order, support)
    g = [float(law.coefficient(k)) for k in range(top + 1)]
    while g[-1] == 0.0:
        g.pop()
    g0, g_rest = g[0], g[1:]
    q0 = _no_flux_prob(law, p)
    den = 2.0 * g0 * q0
    q, s = [q0], [q0 * q0]
    for n in range(1, order + 1):
        # reversed(q) runs q_{n-1}, q_{n-2}, ..., so this pairs q_j with
        # q_{n-j} for j = 1..(n-1)//2; likewise the g sum stops at G's support
        r = 2.0 * sum(map(operator.mul, q[1 : (n + 1) // 2], reversed(q)), 0.0)
        if n % 2 == 0:
            r += q[n // 2] * q[n // 2]
        c = q[n - 1] - g0 * r - sum(map(operator.mul, g_rest, reversed(s)), 0.0)
        if n == 1:
            c -= p
        qn = c / den
        q.append(qn)
        s.append(2.0 * q0 * qn + r)
    for k, v in enumerate(q):
        if v < 0.0:
            if v < -1e-10:
                raise NegativeCoefficient(f"P(flux = {k}) came out {v!r}")
            q[k] = 0.0
    for k, v in enumerate(q):
        if not v <= 1.0:  # NaN fails this too
            raise NoSolution(f"P(flux = {k}) came out {v!r}")
    moments = _moments(law, p)
    return FluxDistribution(
        probs=tuple(q),
        empty_prob=p,
        occupied_no_flux_prob=q0 - p,
        mean_flux=moments["mean_flux"],
        mean_occupancy=moments["mean_occupancy"],
        tail_mass=1.0 - math.fsum(q),
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


def mean_identities(law):
    """Exact first moments implied by the empty-root probability."""
    report = classify(law)
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
    """Critical mean arrival count of a one-parameter family.

    The family must be subcritical at lo and supercritical at hi.  The
    signed criticality gap is bisected in log alpha while hi/lo > 1.5,
    then _root (ITP) narrows the bracket to at most tol.  Returns the
    midpoint, or (midpoint, trace) with the list of (alpha, gap) pairs
    evaluated when want_trace is set.  The default brackets take 15-17
    gap evaluations at tol 1e-9 to 1e-11, where bisection took 33-45.
    nongeneric_example is refused: no mix in (0, 1] is supercritical,
    and so is a tol that is not finite.
    """
    if not math.isfinite(tol):
        raise OutOfDomain(f"bracket width {tol!r} is not finite")
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
    # the gap is badly scaled across decades, so interpolating there gains
    # nothing: halve the bracket in log alpha until it spans a factor 1.5
    while 0.0 < 1.5 * a < b and b - a > tol:
        alpha_c = math.sqrt(a * b)
        g = gap_at(alpha_c)
        if g == 0.0:
            break
        if g > 0.0:
            a, ga = alpha_c, g
        else:
            b, gb = alpha_c, g
    else:
        # rel = 0: the ends keep gaps of opposite signs and never meet, so
        # only tol, an exact zero of the gap or ITER_CAP ends the search
        alpha_c = _root(gap_at, a, b, ga, gb, rel=0.0, width=tol)
    if want_trace:
        return alpha_c, trace
    return alpha_c
