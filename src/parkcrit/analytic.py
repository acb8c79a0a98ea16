"""Regime classification and critical quantities for the parking process.

Everything here works through the arrival law's generating function G;
the regime is decided on t G'/G and t^2 G''/G alone (``tilted_moments``),
as both of the paper's criteria are homogeneous in G.  The central device
is an internal time parameter t: the candidate probability that the root
of the tree stays empty is a function of t (``density_from_time``), and
that map is increasing exactly while a monotonicity margin
(``kernel_margin``) stays positive.  The first zero of the margin, or the
radius of convergence if the margin never vanishes, bounds the time
domain; the regime is decided by comparing a boundary functional against
its critical value there.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
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

MARGIN_TOL = 1e-9
REL_ROOT_TOL = 1e-13
ITER_CAP = 200
CACHE_SIZE = 1024  # laws remembered by classify and find_critical_time
SQRT2 = math.sqrt(2.0)
LOG2 = math.log(2.0)


def kernel_margin(law, t):
    """2 (1 - u)^2 - v with (u, v) = (t G'/G, t^2 G''/G): the margin
    2 (G - t G')^2 - t^2 G G'' over G^2, so 2 at t = 0.

    Its first zero is the critical time: beyond it the time-to-density
    change of variables stops being monotone.  Exact when the law and t
    are exact.
    """
    u, v = law.tilted_moments(t)
    a = 1 - u
    return 2 * a * a - v


def _time_terms(law, t):
    """(G(t), u = t G'(t)/G(t)), what the density, the generating factor and
    the boundary read; G is inf where evaluating it overflows, as binary0k's
    t^k does past the largest float."""
    try:
        g = law.pgf(t)
    except OverflowError:
        g = math.inf
    return g, law.tilted_moments(t)[0]


def _density(t, g, u):
    """t (2 - u) / (4 G), or None where G is 0 or inf in floats."""
    return t * (2 - u) / (4 * g) if 0 < g < math.inf else None


def density_from_time(law, t):
    """Candidate empty-root probability t (2 - t G'/G) / (4 G), or None
    where G is 0 or inf in floats."""
    return _density(t, *_time_terms(law, t))


def _fixed_point_value(law, t):
    """t (1 - t G'/G) / (2 - t G'/G).

    Equals mu0 * x * Q(x)^2 at x = density_from_time(t), where Q is the
    zero-flux generating factor; the empty-probability fixed point is
    exactly where this hits 1, and it is increasing on the valid time
    range, which makes it the quantity of choice for the root search.
    """
    u = law.tilted_moments(t)[0]
    return t * (1 - u) / (2 - u)


def _gf(law, t, g, u):
    """Zero-flux generating factor 2 G sqrt(G - t G') / ((2G - t G') sqrt(mu0))
    as 2 sqrt(a G / mu0) / (1 + a), a = 1 - u; 1 at t = 0, None where G is
    0 or inf in floats or mu0 is 0.  Well conditioned at the critical time,
    where the density variable itself is singular."""
    mu0 = law.mu0
    if not (0 < g < math.inf and mu0):
        return None
    a = 1 - u
    if a < 0:
        raise NegativeRadicand(f"1 - t G'/G = {a!r} at t = {t!r}")
    return 2.0 * math.sqrt(a * g / mu0) / (1 + a)


def _root(f, a, b, fa, fb):
    """Root of f on [a, b] given fa = f(a) > 0 > fb = f(b), by ITP.

    Stops once b - a is at most REL_ROOT_TOL times the larger end of the
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
    whose end values are not both finite takes the midpoint.

    max, abs and copysign(v, d) are written out as conditionals that give
    the same floats: d = mid - xf is never -0.0, as mid is not, and the
    window r can be an ulp below 0.
    """
    w0, scale = b - a, 4.0
    for _ in range(ITER_CAP):
        w, scale = b - a, 0.5 * scale  # 2^(1 - j) at step j, a normal float
        m = -a if -a > b else b  # max(|a|, |b|) as a <= b
        tol = REL_ROOT_TOL * (1e-300 if 1e-300 > m else m)
        if w <= tol:
            return 0.5 * (a + b)
        x = mid = 0.5 * (a + b)
        xf = (b * fa - a * fb) / (fa - fb)
        if a <= xf <= b:  # false when an end value is not finite
            d, delta = mid - xf, 0.2 * w * w / w0
            if 0.5 * tol > delta:
                delta = 0.5 * tol
            r = 0.5 * (w0 * scale - w)
            step, clip = delta, (r if r >= 0.0 else -r)  # copysign(., d) where d >= 0
            if d < 0.0:
                d, step, clip = -d, -delta, -clip
            xt = xf + step if delta <= d else mid
            x = xt if -r <= xt - mid <= r else mid - clip
        fx = f(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
    raise IterationCapExceeded(f"bracket ({a!r}, {b!r}) open after {ITER_CAP} steps")


def _log_phase(f, a, b, fa, fb, ratio):
    """(a, b, fa, fb) after halving the bracket f(a) > 0 >= f(b) in log
    scale while b / a > ratio, for an f badly scaled across decades; b is
    an exact zero if one is met.  sqrt(a) sqrt(b) cannot overflow."""
    while fb != 0.0 and 0.0 < ratio * a < b:
        x = math.sqrt(a) * math.sqrt(b)
        fx = f(x)
        if fx > 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
    return a, b, fa, fb


@dataclass(frozen=True)
class CriticalTime:
    """Where the valid time range of the density map ends and why."""

    t: float
    margin_vanishes: bool  # the monotonicity margin has a zero at t
    at_radius: bool  # t is the radius of convergence of G
    evaluable: bool  # the margin could be evaluated at t
    evaluations: int = field(default=0, compare=False)  # of h, radius probe included


@lru_cache(maxsize=CACHE_SIZE)
def find_critical_time(law):
    """Locate the end of the monotone time range.

    Searches h = sqrt(2) (1 - u) - sqrt(v), (u, v) = tilted_moments(t).
    Where a = 1 - u > 0 the margin over G^2 is h (sqrt(2) a + sqrt(v)), of
    h's sign; where a <= 0, h < 0.  For a pgf u and v do not decrease in
    t, so h falls from sqrt(2) and changes sign once, at the margin's
    first zero, with no jump where a does.  From G's scale t = 1, where
    G(1) = 1, t doubles while h > 0, up to the cap radius * (1 - 1e-12),
    or halves while not; the bracket is halved in log t to a factor 1.3,
    and _root ends it.  If h > 0 up to a finite radius, h is probed at
    the radius, where the margin may vanish (nongeneric criticality), stay
    positive or not be evaluable; up to an infinite one, the search raises
    NoRootWithinBudget.  An h that is NaN wherever the search evaluates
    it, in the doubling, the probe, the halving or the root search, raises
    NoSolution.  The packaged laws take 12-18
    evaluations, 4 at the radius, plus one per doubling or halving for a
    t_c far from 1.
    """
    radius = law.radius
    cap = radius * (1 - 1e-12)
    if not cap > 0.0:  # NaN too
        raise OutOfDomain(f"radius {radius!r} is not positive")
    evaluations, tilted, sqrt = 0, law.tilted_moments, math.sqrt

    def h(s):
        nonlocal evaluations
        evaluations += 1
        u, v = tilted(s)
        f = SQRT2 * (1.0 - u) - sqrt(v)
        if f != f:
            raise NoSolution(f"{law.describe()}: the margin is NaN at t = {s!r}")
        return f

    lo, f_lo = 0.0, SQRT2  # h(0), never evaluated
    t = min(1.0, cap)
    f = h(t)
    while f > 0.0 and t < cap:
        lo, f_lo, t = t, f, min(2.0 * t, cap)
        if t == math.inf:
            raise NoRootWithinBudget(f"margin stays positive on (0, {lo:g}] and G has no radius")
        f = h(t)
    if f > 0.0:  # h > 0 up to the cap: probe the radius
        lo, f_lo, t = t, f, radius
        try:
            f = h(radius)
        except NoSolution:  # a NaN margin is no answer
            raise
        except (ParkingModelError, ArithmeticError, ValueError):
            return CriticalTime(radius, False, True, False, evaluations)
        if f >= -MARGIN_TOL:
            return CriticalTime(radius, abs(f) <= MARGIN_TOL, True, True, evaluations)
    hi, f_hi = t, f
    while lo == 0.0 < 0.5 * hi and f_hi < 0.0:  # not positive anywhere yet: halve
        t = 0.5 * hi
        f = h(t)
        if f > 0.0:
            lo, f_lo = t, f
        else:
            hi, f_hi = t, f
    lo, hi, f_lo, f_hi = _log_phase(h, lo, hi, f_lo, f_hi, 1.3)
    t = hi if f_hi == 0.0 else _root(h, lo, hi, f_lo, f_hi)
    return CriticalTime(t, True, False, True, evaluations)


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
    if x_top is None:
        raise NoSolution(f"{law.describe()}: G is 0 or inf in floats at the critical time")
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
    t = time_from_density(law, x)
    return _gf(law, t, *_time_terms(law, t))


def solve_empty_prob(law):
    """Empty-root probability as the root of the fixed-point functional.

    Finds where the increasing functional reaches 1 on (0, critical
    time] with _root, 7-10 evaluations on the packaged laws, and reads
    the probability off _empty_prob_at.  The functional is below t / 2,
    so above t_c = 32 the bracket [2, t_c] is first halved in log t to a
    factor 16: from 0, ITP could need log2(t_c / 1e-13) steps.  Raises
    NoSolution when even the top of the range stays below 1, which is
    the supercritical situation.
    """
    t_hi = find_critical_time(law).t
    top = _fixed_point_value(law, t_hi)
    if top < 1.0 - MARGIN_TOL:
        raise NoSolution(
            f"fixed-point functional reaches only {top!r} < 1 on (0, {t_hi!r}]"
        )
    if top <= 1.0:
        return t_hi, _empty_prob_at(law, t_hi)
    f = lambda s: 1.0 - _fixed_point_value(law, s)  # noqa: E731
    lo, f_lo, f_hi = 0.0, 1.0, 1.0 - top
    if t_hi > 32.0:
        lo, t_hi, f_lo, f_hi = _log_phase(f, 2.0, t_hi, f(2.0), f_hi, 16.0)
    t_star = t_hi if f_hi == 0.0 else _root(f, lo, t_hi, f_lo, f_hi)
    return t_star, _empty_prob_at(law, t_star)


def _empty_prob_at(law, t):
    """t^2 / (4 (t - 1) G(t)) as (1 + (t - 2)^2 / (4 (t - 1))) / G(t): the
    density where the fixed-point functional is 1, and stationary in t
    there, so a root's width w moves it by about w^2, not w.  It is
    1 / G(t) <= 1 where (t - 2)^2 is lost against 1, for a mean far below
    1e-8, where density_from_time can round above 1."""
    d = t - 2.0
    return (1.0 + d * d / (4.0 * (t - 1.0))) / law.pgf(t)


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the regime decision for one arrival law."""

    regime: str  # subcritical | critical | supercritical | undecided
    test: str  # kernel | radius | none
    margin_vanishes: bool
    critical_time: float
    crit_density: float | None  # None unless subcritical or critical
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


def _boundary(law, ct, u):
    """(test, lhs, rhs) at an evaluable critical time, u = t G'/G there;
    lhs > rhs is subcritical."""
    t = ct.t
    if ct.margin_vanishes:
        return "kernel", t - 2.0, (t - 1.0) * u
    return "radius", _fixed_point_value(law, t), 1.0


@lru_cache(maxsize=CACHE_SIZE)
def classify(law):
    """Decide the regime of the parking process under the given law.

    When the margin vanishes at a genuine critical time the boundary
    comparison is t - 2 versus t (t-1) G'(t)/G(t), the paper's
    (t-2) G(t) versus t (t-1) G'(t) over G(t): larger left side means
    subcritical.  When the margin stays positive up to the radius
    the fixed-point functional at the radius is compared against 1,
    which is the same comparison in a form that needs no second
    derivative.  Either way the sides are equal, and the law critical,
    when they differ by at most MARGIN_TOL times the larger side (or
    times 1, if both sides are smaller).  This band is float slack
    around the paper's exact equality, not a parameter of the model.

    Raises NoSolution if the empty-root probability of a subcritical or
    critical law is not in [0, 1], or the probability of an occupied
    root without flux is negative; no packaged law does this.
    """
    ct = find_critical_time(law)
    t = ct.t
    if not ct.evaluable:
        regime = "supercritical" if law.radius < 2 else "undecided"
        return RegimeReport(
            regime, "none", False, t, None, None, None, None, None, None, None
        )

    g, u = _time_terms(law, t)
    x = _density(t, g, u)
    gf = _gf(law, t, g, u)
    test, lhs, rhs = _boundary(law, ct, u)
    gap = lhs - rhs
    band = MARGIN_TOL * max(1.0, abs(lhs), abs(rhs))

    if abs(gap) <= band:
        regime, p_empty = "critical", x
    elif gap > 0.0:
        regime, p_empty = "subcritical", solve_empty_prob(law)[1]
    else:
        return RegimeReport(
            "supercritical", test, ct.margin_vanishes, t, None, gf, lhs, rhs, gap,
            None, None,
        )
    if p_empty is None or not 0.0 <= p_empty <= 1.0:
        raise NoSolution(f"{law.describe()}: empty-root probability {p_empty!r} is not in [0, 1]")
    occupied = _occupied_no_flux(law, p_empty)
    if not occupied >= 0.0:
        raise NoSolution(f"{law.describe()}: P(occupied, no flux) = {occupied!r} is negative")
    return RegimeReport(
        regime, test, ct.margin_vanishes, t, x, gf, lhs, rhs, gap, p_empty, occupied
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
    p_empty = _empty_prob_at(law, t)
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


def _order(value, what):
    """value as an int (operator.index), or OutOfDomain if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise OutOfDomain(f"{what} {value!r} is not an integer") from None


_FLUX_BLOCK = 24  # B: flux_distribution's head length and block size


def _flux_blocks(g, p, q, s, order):
    """q_0..q_order from the head q_0..q_{B-1} and its squares s_0..s_{B-1}.

    Each later block d = q_{n0..n0+B-1} is one exact solve.  With q' the
    known terms (zero from n0 on), a product of two block terms lands at
    2 n0 >= n0 + B, past the block, so there the quadratic is linear in d:
    J d = -F (mod y^B), with J = 2 G q - y (mod y^B), fixed by the head,
    and F_n = (G q'^2)_n - q'_{n-1}.  Every product is an elementwise
    multiply over a strided Toeplitz window, then add.reduce along the last
    axis, which sums in numpy's own fixed pairwise order.  No dot,
    convolve or matmul: BLAS may order its sums by the CPU it runs on.
    """
    import numpy as np  # the blocks' products run in numpy; orders below B never import it

    B, N, L = _FLUX_BLOCK, order + 1, len(g) - 1
    m = min(B, N - B)  # the longest block
    # G q^2 = y q + p (1 - y) gives J q = y q + 2 p (1 - y), so -1/J is
    # -q / D with D = 2 p + y (q - 2 p): one series division, no J
    # (map stops with reversed(neg_inv), after n terms of d_rest)
    two_p, d_rest, mul = 2.0 * p, [q[0] - 2.0 * p] + q[1 : m - 1], operator.mul
    neg_inv = [-q[0] / two_p]
    for n in range(1, m):
        neg_inv.append(-(q[n] + sum(map(mul, d_rest, reversed(neg_inv)), 0.0)) / two_p)
    qa = np.zeros(N + m)  # q, zero past what is known and on to the end of q_win
    qa[:B] = q
    sa = np.zeros(L + N)  # s behind L zeros: sa[L + n] = s_n
    sa[L : L + B] = s
    fa = np.zeros(2 * m - 1)  # m - 1 zeros, then F, then d, on the block
    # windows whose row step and column step both advance one entry
    q_win = np.ndarray((m + 1, N), float, qa, 0, (8, 8))  # row r: q_r, q_{r+1}, ...
    s_win = np.ndarray((N, L + 1), float, sa, 0, (8, 8))  # row n: s_{n-L}, ..., s_n
    f_win = np.ndarray((m, m), float, fa, 0, (8, 8))  # row i: F_{i-m+1}, ..., F_i
    g_rev, neg_inv_rev = np.array(g[::-1]), np.array(neg_inv[::-1])
    mul, red = np.multiply, np.add.reduce
    with np.errstate(all="ignore"):  # flux_distribution refuses what is not a probability
        q2_rev = 2.0 * qa[m - 1 :: -1]
        for n0 in range(B, N, B):
            n1 = min(n0 + B, N)
            b, w = n1 - n0, min(L, n1 - 1) + 1
            # s on the block without d: the sum of q_j q_{n-j} over j = 1..n0-1
            s_blk = sa[L + n0 : L + n1]
            red(mul(q_win[1 : b + 1, : n0 - 1], qa[n0 - 1 : 0 : -1]), 1, out=s_blk)
            f_blk = fa[m - 1 : m - 1 + b]
            red(mul(s_win[n0:n1, L + 1 - w :], g_rev[L + 1 - w :]), 1, out=f_blk)
            f_blk[0] -= qa[n0 - 1]
            red(mul(f_win[:b], neg_inv_rev), 1, out=f_blk)  # d = -F / J
            qa[n0:n1] = f_blk
            s_blk += red(mul(f_win[:b], q2_rev), 1)  # the 2 q_j d_{n-j}
    return qa[:N].tolist()


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

    r_n is symmetric, so half of it is summed and doubled, and the sum
    over g stops at the last nonzero coefficient.  The recurrence gives
    the head q_0..q_{B-1}, B = 24; orders below B use it alone and never
    import numpy.  Past the head, each block of B terms is one exact
    linear solve (``_flux_blocks``): a product of two unknowns of a block
    lands past it, so on the block the quadratic is J d = -F (mod y^B)
    for the block d, with J = 2 G q - y = sqrt(y^2 + 4 p G (1 - y)) mod
    y^B fixed by the head and F the residual of the known terms.  The
    blocks' O(order^2) products run in numpy, as elementwise multiplies
    and add.reduce along the last axis, never BLAS, so the bits do not
    depend on the CPU.  A call at order 200 takes a quarter to a half of
    the recurrence's time; at order 40, where the solve's set-up is not
    yet paid back, it takes up to a third more.  Against the recurrence
    run at 60 digits from the same float p, coefficients and q_0, every
    entry is within 5e-17 on the laws the tests pin, at order 200.
    Requires a subcritical or critical law; an entry below -1e-10 raises
    NegativeCoefficient, and then one that is not finite or exceeds 1,
    or a total mass above 1 + 1e-12, raises NoSolution.
    """
    order = _order(order, "flux order")
    if order < 2:
        raise OutOfDomain("flux order must be at least 2")
    report = classify(law)
    if report.empty_prob is None:
        raise NoSolution(f"{law.describe()} is {report.regime}: no flux law")
    p = report.empty_prob
    support = law.finite_support()
    top = order if support is None else min(order, support)
    g = law.float_coefficients(top)
    while g[-1] == 0.0:
        g.pop()
    g0, g_rest = g[0], g[1:]
    q0 = _no_flux_prob(law, p)
    den, two_q0, mul = 2.0 * g0 * q0, 2.0 * q0, operator.mul
    q, s, qn = [q0], [q0 * q0], q0
    for n in range(1, min(order, _FLUX_BLOCK - 1) + 1):
        # reversed(q) runs q_{n-1}, q_{n-2}, ..., so this pairs q_j with
        # q_{n-j} for j = 1..(n-1)//2; likewise the g sum stops at G's support
        half = n >> 1
        if n & 1:
            r = 2.0 * sum(map(mul, q[1 : half + 1], reversed(q)), 0.0)
        else:
            r = 2.0 * sum(map(mul, q[1:half], reversed(q)), 0.0) + q[half] * q[half]
        c = qn - g0 * r - sum(map(mul, g_rest, reversed(s)), 0.0)
        if n == 1:
            c -= p
        qn = c / den
        q.append(qn)
        s.append(two_q0 * qn + r)
    if order >= _FLUX_BLOCK:
        q = _flux_blocks(g, p, q, s, order)
    # min and max skip a NaN past q_0, and fsum then reads NaN: only then,
    # or for an entry outside [0, 1], do the loops run, to name the first
    total = math.fsum(q) if min(q) >= 0.0 and max(q) <= 1.0 else math.nan
    if total != total:
        for k, v in enumerate(q):
            if v < 0.0:
                if v < -1e-10:
                    raise NegativeCoefficient(f"P(flux = {k}) came out {v!r}")
                q[k] = 0.0
        for k, v in enumerate(q):
            if not v <= 1.0:  # NaN fails this too
                raise NoSolution(f"P(flux = {k}) came out {v!r}")
        total = math.fsum(q)
    tail_mass = 1.0 - total
    if tail_mass < -1e-12:  # the slack of verify's flux-total-mass check
        raise NoSolution(f"flux mass {1.0 - tail_mass!r} exceeds 1")
    moments = _moments(law, p)
    return FluxDistribution(
        probs=tuple(q),
        empty_prob=p,
        occupied_no_flux_prob=q0 - p,
        mean_flux=moments["mean_flux"],
        mean_occupancy=moments["mean_occupancy"],
        tail_mass=tail_mass,
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
    mu = law.float_coefficients(upto)
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
    _, lhs, rhs = _boundary(law, ct, law.tilted_moments(ct.t)[0])
    return lhs - rhs


_DEFAULT_BRACKETS = {
    "poisson": (1e-4, 50.0),
    "geometric": (1e-6, 50.0),
}

_NEWTON_H = 1e-7  # forward-difference step in log(t - 2) and log alpha
_NEWTON_CAP = 10  # Newton steps before _newton_alpha_c gives up; 4-6 converge


def _newton_alpha_c(make, lo, hi):
    """alpha in [lo, hi] where the paper's critical system holds, by
    Newton's method, or None if the iteration fails.

    With (u, v) = make(alpha).tilted_moments(t), the law is critical when
    sqrt(2) (1 - u) = sqrt(v) and t - 2 = (t - 1) u.  A solution has
    0 < u <= 1, so t > 2, where the second equation is
    u = (t - 2) / (t - 1), 1 - u = 1 / (t - 1), and the pair reads, in logs,

        log v = log 2 - 2 log(t - 1),   log u = log(t - 2) - log(t - 1).

    Newton solves this form in (log(t - 2), log alpha), so t > 2 > 1 and
    alpha > 0 hold by construction.  u and v grow like alpha t^k until the
    tilted law sits on its top atom, where they saturate: the plain
    equations go flat there and a Newton step overshoots, while their logs
    stay close to linear, and exactly so for poisson.  The Jacobian is a
    forward difference with step _NEWTON_H in both logs.  The start is
    alpha = lo, below the saturation, and t = 2.25, or halfway from 2 to
    G's radius if that is nearer.  Each step's alpha is clipped to
    [lo, hi]; its t is kept.  Newton stops once both steps are at most
    1e-10 and returns alpha with the last step applied.  It gives up on a
    step that is not finite or after _NEWTON_CAP steps; evaluation errors,
    such as a t at or past the radius, propagate.
    """
    log_lo, log_hi = math.log(lo), math.log(hi)

    def system(d, law):  # the log form at t = 2 + d
        t = 2.0 + d
        u, v = law.tilted_moments(t)
        log_t1 = math.log(t - 1.0)
        return math.log(v) - LOG2 + 2.0 * log_t1, math.log(u) - math.log(d) + log_t1

    alpha, law = lo, make(lo)
    d = min(0.25, 0.5 * (law.radius - 2.0))
    if not d > 0.0:
        return None
    f1, f2 = system(d, law)
    for _ in range(_NEWTON_CAP):
        g1, g2 = system(d + d * _NEWTON_H, law)
        h1, h2 = system(d, make(alpha + alpha * _NEWTON_H))
        j11, j21, j12, j22 = g1 - f1, g2 - f2, h1 - f1, h2 - f2  # H times the Jacobian
        det = (j11 * j22 - j12 * j21) / _NEWTON_H
        dy, ds = (f2 * j12 - f1 * j22) / det, (f1 * j21 - f2 * j11) / det
        if not (math.isfinite(dy) and math.isfinite(ds)):
            return None
        if abs(dy) <= 1e-10 and abs(ds) <= 1e-10:
            return alpha + alpha * math.expm1(ds)
        s = math.log(alpha)
        d, alpha = d * math.exp(dy), alpha * math.exp(min(max(ds, log_lo - s), log_hi - s))
        law = make(alpha)
        f1, f2 = system(d, law)
    return None


def find_alpha_c(family, k=None, lo=None, hi=None, tol=1e-9):
    """Critical mean arrival count of a one-parameter family.

    The family must be subcritical at lo and supercritical at hi.  Returns
    alpha_c, within alpha_c tol/2 of a sign change of the signed criticality
    gap (_regime_gap): tol is relative, as alpha_c spans many decades along
    binary0k.

    _newton_alpha_c solves the paper's critical system in (t, alpha); its
    alpha, clipped to [lo, hi], is accepted when the gap is positive at
    max(lo, alpha (1 - tol/2)) and negative at min(hi, alpha (1 + tol/2)):
    two critical-time searches, the same as classify runs.  The regime is
    monotone along each family, so the flanks bracket alpha_c.  The default
    brackets take 40-50 tilted_moments calls in all.  A flank at lo or hi
    with the wrong sign raises BracketFailure; so does an end with the
    wrong sign when Newton gives up or meets an error, and NoSolution
    otherwise.  nongeneric_example is refused: no mix in (0, 1] is
    supercritical, and so is a tol that is not finite and positive.
    """
    if not math.isfinite(tol):
        raise OutOfDomain(f"bracket width {tol!r} is not finite")
    if not tol > 0.0:
        raise OutOfDomain(f"bracket width {tol!r} is not positive")
    if family == "binary0k":
        if k is None:
            k = 2
        make = lambda a: FAMILIES[family](a, k)  # noqa: E731
        # alpha_c(k) is near 2 / (e k 2^k), below 1e-6 from k = 16 on;
        # k 8^-k stays below it
        default = (min(1e-6, k * 8.0**-k), k * (1 - 1e-9))
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

    try:
        alpha_c = _newton_alpha_c(make, a, b)
    except (ParkingModelError, ArithmeticError, ValueError):
        alpha_c = None
    if alpha_c is None:
        x, y = a, b
    else:
        alpha_c = max(a, min(b, alpha_c))
        x, y = max(a, alpha_c * (1.0 - 0.5 * tol)), min(b, alpha_c * (1.0 + 0.5 * tol))
    gap_x, gap_y = _regime_gap(make(x)), _regime_gap(make(y))
    if x == a and not gap_x > 0.0:
        raise BracketFailure(f"{family} at alpha = {a!r} is not subcritical")
    if y == b and not gap_y < 0.0:
        raise BracketFailure(f"{family} at alpha = {b!r} is not supercritical")
    if alpha_c is None or not gap_x > 0.0 > gap_y:
        raise NoSolution(f"{family}: no critical alpha found in ({a!r}, {b!r})")
    return alpha_c
