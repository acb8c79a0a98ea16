"""Car-arrival laws for the parking process on the infinite binary tree.

A law is the distribution of the number of cars arriving at a single
vertex.  Every law exposes its generating function G (``pgf``), the
tilted moments t G'/G and t^2 G''/G (``tilted_moments``), its convergence
radius, its mean, and its coefficients.  Families are parametrized by the
mean arrival count alpha, so sweeps across different families compare
like for like.

A finite law, binary0k among them, keeps only its nonzero masses
(``atoms``) and sums G and the tilted moments over them; geometric
evaluates a closed form whose constants ``_consts`` states.  A law keeps
only the floats of its constants, and a float t is evaluated from those.
Each is the float that the mixed Fraction-float expression rounds to, so
a float t gets the same bits either way, and an exact t still gets
Fractions.  nongeneric_example and custom laws divide their G' and G''
by G (``_tilted``).  Exact laws also give the exact coefficients that
the enumeration code requires, and ``integer_masses``, the form its
weight tables run on: P(A = s j) = a b^j h[j] with integer h, zero off
the multiples of the stride s.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import (
    BadFamilyParameter,
    EvaluationBeyondRadius,
    Mu01IsOne,
    MuZeroIsZero,
    NegativeProbability,
    NonExactLaw,
    OutOfDomain,
    ProbabilitySumNotOne,
)


def _as_exact(value, what):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadFamilyParameter(f"cannot parse {what} {value!r}") from exc
    raise BadFamilyParameter(
        f"{what} must be an exact rational (int, Fraction, or string), got "
        f"{type(value).__name__}"
    )


def _as_param(value, what):
    """Families accept exact rationals or finite floats; floats forfeit exactness.

    G, the scan and the samplers run on the parameter's float, so an exact
    value whose float overflows, or rounds a nonzero value to 0.0, is refused.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise BadFamilyParameter(f"{what} must be finite, got {value!r}")
        return value
    exact = _as_exact(value, what)
    try:
        rounded = float(exact)
    except OverflowError:
        raise BadFamilyParameter(f"{what} is too large for a float") from None
    if exact and not rounded:
        raise BadFamilyParameter(f"{what} is nonzero but its float is 0.0")
    return exact


_ZERO = Fraction(0)


def _tilted(t, g0, g1, g2):
    """(t G'/G, t^2 G''/G) from G, G' and G'' at t."""
    # t * t first would overflow where t * G''/G need not, and inf * 0 is NaN
    return t * g1 / g0, t * (t * g2 / g0)


class ArrivalLaw:
    """Interface shared by all arrival laws."""

    # each law lists its fields: caches keep thousands of laws alive; _hash
    # holds hash(_key()) from the first lookup on, as every cache hashes the law
    __slots__ = ("_hash",)
    kind = "abstract"

    @property
    def radius(self):
        """Radius of convergence of G as a float (may be inf)."""
        raise NotImplementedError

    @property
    def is_exact(self):
        return False

    @property
    def mu0(self):
        """Probability of zero arrivals, as a float: the float of the exact mass if there is one."""
        return self.float_coefficients(0)[0]

    def pgf(self, t):
        """G(t), exact when t and the law are."""
        raise NotImplementedError

    def tilted_moments(self, t):
        """(t G'(t) / G(t), t^2 G''(t) / G(t)), what the regime decision reads.

        These are the means of A and A (A - 1) under the law tilted by
        t^A, P_t(A = k) = P(A = k) t^k / G(t), so neither decreases in t,
        and both are of order 1 where the regime is decided, whatever the
        scale of G.  A law whose G or G'' can leave the floats gives them
        in a form that does not.  Exact when t and the law are.
        """
        raise NotImplementedError

    def coefficient(self, k):
        """P(A = k); a float law states its masses once, in float_coefficients."""
        return self.float_coefficients(k)[k]

    def exact_coefficients(self, K):
        """Coefficients 0..K as Fractions; only exact laws can comply."""
        if not self.is_exact:
            raise NonExactLaw(f"{self.describe()} has no exact coefficients")
        return [Fraction(self.coefficient(k)) for k in range(K + 1)]

    def integer_masses(self, K):
        """(h, a, b, s) with P(A = s j) = a * b**j * h[j] for s j = 0..K, every
        h[j] an int, and P(A = k) = 0 for k off the multiples of the stride s.
        Only exact laws can comply."""
        raise NonExactLaw(f"{self.describe()} has no exact coefficients")

    def float_coefficients(self, K):
        """Coefficients 0..K as floats, each the float of the exact mass if there is one."""
        if not self.is_exact:
            return [float(self.coefficient(k)) for k in range(K + 1)]
        h, a, b, s = self.integer_masses(K)
        # a * b**j * h[j] as one ratio of ints, divided once: the same rounding
        # as float(Fraction), without a Fraction's gcd at every j
        num, den, out = a.numerator, a.denominator, [0.0] * (K + 1)
        for j, hj in enumerate(h):
            out[s * j] = hj * num / den
            num *= b.numerator
            den *= b.denominator
        return out

    def mean(self):
        """Mean arrival count, exact when the law is."""
        raise NotImplementedError

    def finite_support(self):
        """Largest arrival count with positive mass, or None if unbounded."""
        return None

    def params(self):
        return {}

    def describe(self):
        args = ", ".join(f"{name}={value}" for name, value in self.params().items())
        return f"{self.kind}({args})"

    def _key(self):
        return (self.kind, tuple(sorted(self.params().items())))

    def __eq__(self, other):
        return isinstance(other, ArrivalLaw) and self._key() == other._key()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(self._key())
            return h

    def __getstate__(self):
        """The fields without _hash: string hashes are salted per process."""
        slots = (n for c in type(self).__mro__ for n in c.__dict__.get("__slots__", ()))
        return None, {n: getattr(self, n) for n in slots if n != "_hash"}

    def __repr__(self):
        return self.describe()

    def _check(self, t):
        if t < 0:
            raise OutOfDomain(f"generating function argument {t!r} is negative")


class FiniteSupportLaw(ArrivalLaw):
    """Arrival law with finitely many atoms, kept as its nonzero masses
    ``atoms`` = ((0, p_0), (k, p_k), ...) in increasing k.  The masses are
    exact rationals, or floats where a family like binary0k has a float
    parameter."""

    __slots__ = ("atoms", "_float_atoms")
    kind = "finite"

    def __init__(self, probs):
        probs = [_as_exact(p, "probability") for p in probs]
        for k, p in enumerate(probs):
            if p < 0:
                raise NegativeProbability(f"mass at {k} is {p}")
        total = sum(probs)
        if total != 1:
            raise ProbabilitySumNotOne(f"masses sum to {total}")
        if probs[0] == 0:
            raise MuZeroIsZero("a law with no mass at zero parks every vertex")
        if sum(probs[:2]) == 1:
            raise Mu01IsOne(
                "all mass on {0, 1}: no vertex ever overflows and the "
                "process is trivially subcritical"
            )
        self._set_atoms(tuple((k, p) for k, p in enumerate(probs) if p))

    def _set_atoms(self, atoms):
        self.atoms = atoms
        self._float_atoms = p0, _, terms = self._sums(float)
        # G, the search and the samplers run on these floats
        if not (p0 and all(p for _, _, p in terms)):
            k = next(k for k, p in atoms if not float(p))
            raise BadFamilyParameter(f"the mass at {k} rounds to a float of 0.0")

    def _sums(self, num=lambda c: c):
        """(p_0, 0, terms), num applied to each mass: the terms (k, k (k - 1),
        p_k), one per atom k >= 1, are what G and the tilted moments sum."""
        (_, p0), *atoms = self.atoms
        return num(p0), num(0), tuple((k, k * (k - 1), num(p)) for k, p in atoms)

    @property
    def probs(self):
        """The masses at 0..finite_support() as a tuple, built on each call."""
        out = [_ZERO if self.is_exact else 0.0] * (self.finite_support() + 1)
        for k, p in self.atoms:
            out[k] = p
        return tuple(out)

    @property
    def radius(self):
        return math.inf

    @property
    def is_exact(self):
        return isinstance(self.atoms[0][1], Fraction)

    @property
    def mu0(self):
        return self._float_atoms[0]

    def pgf(self, t):
        self._check(t)
        g, _, atoms = self._float_atoms if type(t) is float else self._sums()
        # term by term in k, as the mixed Fraction-float expression adds them
        for k, _, p in atoms:
            g += p * t**k
        return g

    def tilted_moments(self, t):
        """The sums of k p_k t^k and k (k - 1) p_k t^k over G, the sum of
        p_k t^k, from one power per atom.  Where t^k or a sum leaves the
        floats, each p_k t^k is taken over the largest, in logs."""
        if t < 0:
            self._check(t)
        g, s1, atoms = self._float_atoms if type(t) is float else self._sums()
        s2 = s1
        try:
            for k, kk, p in atoms:
                z = p * t**k
                g += z
                s1 += k * z
                s2 += kk * z
        except OverflowError:
            g = math.inf
        if g + s1 + s2 < math.inf:
            return s1 / g, s2 / g
        p0, s1, atoms = self._float_atoms
        logs = [(k, kk, math.log(p) + k * math.log(t)) for k, kk, p in atoms]
        top = max(x for _, _, x in logs)
        g, s2 = p0 * math.exp(-top), s1
        for k, kk, x in logs:
            z = math.exp(x - top)
            g += z
            s1 += k * z
            s2 += kk * z
        return s1 / g, s2 / g

    def coefficient(self, k):
        for j, p in self.atoms:
            if j == k:
                return p
        return _ZERO if self.is_exact else 0.0

    def integer_masses(self, K):
        """The stride s is the gcd of the atoms.  On two atoms {0, s},
        a = p_0 and b = p_s / p_0, so h = [1, 1] and a table's rows count
        decorated trees; on more, a = 1/d over the common denominator d of
        the masses and b = 1, so h[j] = d p_{sj}."""
        if not self.is_exact:
            raise NonExactLaw(f"{self.describe()} has no exact coefficients")
        s = math.gcd(*(k for k, _ in self.atoms))
        if len(self.atoms) == 2:
            (_, p0), (_, ps) = self.atoms
            a, b, weights = p0, ps / p0, ((0, 1), (s, 1))
        else:
            d = math.lcm(*(p.denominator for _, p in self.atoms))
            a, b = Fraction(1, d), Fraction(1)
            weights = [(k, p.numerator * (d // p.denominator)) for k, p in self.atoms]
        h = [0] * (K // s + 1)
        for k, w in weights:
            if k <= K:
                h[k // s] = w
        return h, a, b, s

    def mean(self):
        return sum(k * p for k, p in self.atoms)

    def finite_support(self):
        return self.atoms[-1][0]

    def params(self):
        return {"probs": tuple(str(p) for p in self.probs)}

    def describe(self):
        masses = ", ".join(f"{k}:{p}" for k, p in self.atoms)
        return f"finite({masses})"


class Binary0kLaw(FiniteSupportLaw):
    """Mass 1 - alpha/k at 0 and alpha/k at k, parametrized by the mean alpha."""

    __slots__ = ("alpha", "k")
    kind = "binary0k"

    def __init__(self, alpha, k=2):
        if not isinstance(k, int) or k < 2:
            raise BadFamilyParameter(f"support point k must be an int >= 2, got {k!r}")
        alpha = _as_param(alpha, "alpha")
        if not 0 < alpha < k:
            raise BadFamilyParameter(f"binary0k mean must lie in (0, {k}), got {alpha!r}")
        pk = alpha / k
        self.alpha = alpha
        self.k = k
        self._set_atoms(((0, 1 - pk), (k, pk)))

    def mean(self):
        return self.alpha

    def params(self):
        return {"alpha": str(self.alpha), "k": self.k}

    describe = ArrivalLaw.describe


class PoissonLaw(ArrivalLaw):
    """Poisson arrivals with mean alpha; G(t) = exp(alpha (t - 1))."""

    __slots__ = ("alpha", "_alpha_repr")
    kind = "poisson"

    def __init__(self, alpha):
        alpha = _as_param(alpha, "alpha")
        if alpha <= 0:
            raise BadFamilyParameter(f"poisson mean must be positive, got {alpha!r}")
        self.alpha = float(alpha)
        self._alpha_repr = alpha

    @property
    def radius(self):
        return math.inf

    def pgf(self, t):
        self._check(t)
        return math.exp(self.alpha * (float(t) - 1.0))

    def tilted_moments(self, t):
        if t < 0:
            self._check(t)
        u = self.alpha * t
        return u, u * u

    def float_coefficients(self, K):
        """exp(-a) a^k / k! for k = 0..K, in logs, with log(a) taken once.

        Past the mode the exponent falls strictly, so once a term at k > a
        is 0.0 every later one is too: the list stops computing there and
        is padded with zeros."""
        a = self.alpha
        log_a, exp, lgamma = math.log(a), math.exp, math.lgamma
        out = [exp(-a)]
        for k in range(1, K + 1):
            term = exp(-a + k * log_a - lgamma(k + 1))
            if not term and k > a:
                break
            out.append(term)
        return out + [0.0] * (K + 1 - len(out))

    def mean(self):
        return self.alpha

    def params(self):
        return {"alpha": str(self._alpha_repr)}


class GeometricLaw(ArrivalLaw):
    """Geometric arrivals with mean alpha: P(A=k) = r^k / (1+alpha) where
    r = alpha/(1+alpha).  G(t) = 1 / (1 + alpha - alpha t), radius (1+alpha)/alpha."""

    __slots__ = ("alpha", "_float_consts")
    kind = "geometric"

    def __init__(self, alpha):
        alpha = _as_param(alpha, "alpha")
        if alpha <= 0:
            raise BadFamilyParameter(f"geometric mean must be positive, got {alpha!r}")
        self.alpha = alpha
        self._float_consts = tuple(float(c) for c in self._consts())

    def _consts(self):
        """1 + a and a: G = 1/(1 + a - a t), and t G'/G = a t G."""
        a = self.alpha
        return (1 + a, a)

    @property
    def radius(self):
        return float((1 + self.alpha) / self.alpha)

    @property
    def is_exact(self):
        return isinstance(self.alpha, Fraction)

    def _terms(self, t):
        """(1 + a - a t, a) at t, refusing t at or beyond the radius."""
        self._check(t)
        one_plus_a, a = self._float_consts if type(t) is float else self._consts()
        denom = one_plus_a - a * t
        if denom <= 0:
            raise EvaluationBeyondRadius(
                f"argument {t!r} is at or beyond the radius "
                f"{(1 + self.alpha) / self.alpha}"
            )
        return denom, a

    def pgf(self, t):
        return 1 / self._terms(t)[0]

    def tilted_moments(self, t):
        """(a t G, 2 (a t G)^2), from one division."""
        denom, a = self._terms(t)
        r = a * t / denom
        return r, 2 * r * r

    def coefficient(self, k):
        if not self.is_exact:
            return super().coefficient(k)
        a = self.alpha
        return 1 / (1 + a) * (a / (1 + a)) ** k

    def float_coefficients(self, K):
        if self.is_exact:
            return super().float_coefficients(K)
        # r^k / (1 + a) for a float alpha, with the base and the ratio taken once
        a = self.alpha
        base, ratio = 1.0 / (1 + a), a / (1 + a)
        return [base * ratio**k for k in range(K + 1)]

    def integer_masses(self, K):
        """With alpha = n/d in lowest terms, P(A = k) = d/(n+d) * (n/(n+d))**k: h is all ones."""
        if not self.is_exact:
            raise NonExactLaw(f"{self.describe()} has no exact coefficients")
        n, d = self.alpha.numerator, self.alpha.denominator
        return [1] * (K + 1), Fraction(d, n + d), Fraction(n, n + d), 1

    def mean(self):
        return self.alpha

    def params(self):
        return {"alpha": str(self.alpha)}


# base-law constant (3/2)^(7/3) / 13 for the nongeneric example below
_NONGEN_C = (1.5 ** (7.0 / 3.0)) / 13.0


@functools.cache
def _nongen_binomials():
    """t^k coefficients of (1 - t/3)^(7/3) by the binomial recurrence, from
    k = 0 to the first that underflows, at k = 659; every one after is 0."""
    out = [1.0]
    while out[-1]:
        j = len(out)
        out.append(out[-1] * ((7.0 / 3.0 - (j - 1)) / j * (-1.0 / 3.0)))
    return tuple(out)


class NongenericExampleLaw(ArrivalLaw):
    """Mixture law whose generating function has a branch point at its radius.

    The base component is
        B(t) = 1 + (1 + t^2)/26 - ((3 - t)/2)^(7/3) / 13,
    a probability generating function with radius 3, mean 1/6, and second
    derivative still finite at t = 3 while the third blows up.  The law is
    the mixture (1 - mix) * delta_0 + mix * base, so its mean is mix/6.
    """

    __slots__ = ("mix", "_mix_f")
    kind = "nongeneric_example"

    def __init__(self, mix=1):
        mix = _as_param(mix, "mix")
        if not 0 < mix <= 1:
            raise BadFamilyParameter(f"mix must lie in (0, 1], got {mix!r}")
        self.mix = mix
        self._mix_f = float(mix)

    @property
    def radius(self):
        return 3.0

    def _at(self, t):
        """(G, G', G'') at t, all three finite at the radius."""
        self._check(t)
        t = float(t)
        if t > 3.0:
            raise EvaluationBeyondRadius(f"argument {t!r} exceeds the radius 3")
        u = (3.0 - t) / 2.0
        m = self._mix_f
        return (
            1.0 - m + m * (1.0 + (1.0 + t * t) / 26.0 - (u ** (7.0 / 3.0)) / 13.0),
            m * (t / 13.0 + (7.0 / 78.0) * u ** (4.0 / 3.0)),
            m * (1.0 / 13.0 - (7.0 / 117.0) * u ** (1.0 / 3.0)),
        )

    def pgf(self, t):
        return self._at(t)[0]

    def tilted_moments(self, t):
        return _tilted(t, *self._at(t))

    def float_coefficients(self, K):
        """P(A = k) for k = 0..K.  B's t^k coefficient is -(3/2)^(7/3)/13
        times that of (1 - t/3)^(7/3), plus 27/26 at k = 0 and 1/26 at
        k = 2; the law takes mix times it, and 1 - mix more at k = 0."""
        m, c, binom = self._mix_f, -_NONGEN_C, _nongen_binomials()
        out = [m * (c * b) for b in binom[: K + 1]]
        out += [0.0] * (K + 1 - len(out))
        out[0] = 1.0 - m + m * (c + 27.0 / 26.0)
        if K >= 2:
            out[2] = m * (c * binom[2] + 1.0 / 26.0)
        return out

    def mean(self):
        return self._mix_f / 6.0

    def params(self):
        return {"mix": str(self.mix)}


class CustomAnalyticLaw(ArrivalLaw):
    """Escape hatch: a law given only through derivs(t) -> (G, G', G'') at a float t.

    Useful for exercising classifier branches that no packaged family
    reaches.  Not exact, not samplable, no coefficient access beyond mu0.
    """

    __slots__ = ("_derivs", "_radius", "_mu0", "_mean", "_name")
    kind = "custom"

    def __init__(self, derivs, radius, mu_zero, mean, name="custom"):
        self._derivs = derivs
        self._radius = float(radius)
        self._mu0 = float(mu_zero)
        self._mean = float(mean)
        self._name = name

    @property
    def radius(self):
        return self._radius

    @property
    def mu0(self):
        return self._mu0

    def _at(self, t):
        self._check(t)
        return tuple(float(v) for v in self._derivs(float(t)))

    def pgf(self, t):
        return self._at(t)[0]

    def tilted_moments(self, t):
        return _tilted(t, *self._at(t))

    def coefficient(self, k):
        if k == 0:
            return self._mu0
        raise NonExactLaw(f"{self._name} exposes no coefficients beyond index 0")

    def mean(self):
        return self._mean

    def params(self):
        return {"name": self._name}

    def describe(self):
        return f"custom({self._name})"

    def _key(self):
        return (self.kind, id(self))


# each family's name is its class
make_finite_law = FiniteSupportLaw
binary0k = Binary0kLaw
poisson = PoissonLaw
geometric = GeometricLaw
nongeneric_example = NongenericExampleLaw

# the one-parameter families, by their kind, which is also their name
FAMILIES = {law.kind: law for law in (binary0k, poisson, geometric, nongeneric_example)}
