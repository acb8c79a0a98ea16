"""Car-arrival laws for the parking process on the infinite binary tree.

A law is the distribution of the number of cars arriving at a single
vertex.  Every law exposes its generating function G together with
derivatives, its convergence radius, its mean, and its coefficients.
Families are parametrized by the mean arrival count alpha, so sweeps
across different families compare like for like.

Laws whose coefficients are exact rationals additionally support exact
coefficient extraction, which the enumeration code requires.
"""
from __future__ import annotations

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


def _falling(k, j):
    out = 1
    for i in range(j):
        out *= k - i
    return out


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
    """Families accept exact rationals or floats; floats forfeit exactness."""
    if isinstance(value, float):
        return value
    return _as_exact(value, what)


class ArrivalLaw:
    """Interface shared by all arrival laws."""

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
        """Probability of zero arrivals, as a float."""
        return float(self.coefficient(0))

    def derivatives(self, t, order=2):
        """(G(t), G'(t), ..., G^(order)(t)); exact when t and the law are."""
        raise NotImplementedError

    def coefficient(self, k):
        """Probability of exactly k arrivals."""
        raise NotImplementedError

    def exact_coefficients(self, K):
        """Coefficients 0..K as Fractions; only exact laws can comply."""
        if not self.is_exact:
            raise NonExactLaw(f"{self.describe()} has no exact coefficients")
        return [Fraction(self.coefficient(k)) for k in range(K + 1)]

    def mean(self):
        ds = self.derivatives(1, order=1)
        return ds[1]

    def finite_support(self):
        """Largest arrival count with positive mass, or None if unbounded."""
        return None

    def params(self):
        return {}

    def describe(self):
        raise NotImplementedError

    def _key(self):
        return (self.kind, tuple(sorted(self.params().items())))

    def __eq__(self, other):
        return isinstance(other, ArrivalLaw) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return self.describe()

    def _check_t(self, t):
        if t < 0:
            raise OutOfDomain(f"generating function argument {t!r} is negative")


class FiniteSupportLaw(ArrivalLaw):
    """Arrival law with finitely many atoms and exact rational masses."""

    kind = "finite"

    def __init__(self, probs):
        probs = [_as_exact(p, "probability") for p in probs]
        while len(probs) > 1 and probs[-1] == 0:
            probs.pop()
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
        self.probs = tuple(probs)

    @property
    def radius(self):
        return math.inf

    @property
    def is_exact(self):
        return True

    def derivatives(self, t, order=2):
        self._check_t(t)
        out = []
        for j in range(order + 1):
            acc = 0
            for k in range(j, len(self.probs)):
                p = self.probs[k]
                if p:
                    acc += _falling(k, j) * p * t ** (k - j)
            out.append(acc)
        return tuple(out)

    def coefficient(self, k):
        if 0 <= k < len(self.probs):
            return self.probs[k]
        return Fraction(0)

    def mean(self):
        return sum(k * p for k, p in enumerate(self.probs))

    def finite_support(self):
        return len(self.probs) - 1

    def params(self):
        return {"probs": tuple(str(p) for p in self.probs)}

    def describe(self):
        masses = ", ".join(f"{k}:{p}" for k, p in enumerate(self.probs) if p)
        return f"finite({masses})"


class Binary0kLaw(ArrivalLaw):
    """Mass at 0 and at k only, parametrized by the mean alpha = k * P(A=k)."""

    kind = "binary0k"

    def __init__(self, alpha, k):
        if not isinstance(k, int) or k < 2:
            raise BadFamilyParameter(f"support point k must be an int >= 2, got {k!r}")
        alpha = _as_param(alpha, "alpha")
        if not 0 < alpha < k:
            raise BadFamilyParameter(
                f"binary0k mean must lie in (0, {k}), got {alpha!r}"
            )
        self.alpha = alpha
        self.k = k
        self._pk = alpha / k

    @property
    def radius(self):
        return math.inf

    @property
    def is_exact(self):
        return isinstance(self.alpha, Fraction)

    def derivatives(self, t, order=2):
        self._check_t(t)
        pk = self._pk
        out = []
        for j in range(order + 1):
            if j == 0:
                out.append(1 - pk + pk * t**self.k)
            elif j <= self.k:
                out.append(_falling(self.k, j) * pk * t ** (self.k - j))
            else:
                out.append(0 * pk)
        return tuple(out)

    def coefficient(self, k):
        if k == 0:
            return 1 - self._pk
        if k == self.k:
            return self._pk
        return Fraction(0) if self.is_exact else 0.0

    def mean(self):
        return self.alpha

    def finite_support(self):
        return self.k

    def params(self):
        return {"alpha": str(self.alpha), "k": self.k}

    def describe(self):
        return f"binary0k(alpha={self.alpha}, k={self.k})"


class PoissonLaw(ArrivalLaw):
    """Poisson arrivals with mean alpha; G(t) = exp(alpha (t - 1))."""

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

    def derivatives(self, t, order=2):
        self._check_t(t)
        g = math.exp(self.alpha * (float(t) - 1.0))
        return tuple(g * self.alpha**j for j in range(order + 1))

    def coefficient(self, k):
        a = self.alpha
        return math.exp(-a + k * math.log(a) - math.lgamma(k + 1)) if k else math.exp(-a)

    def mean(self):
        return self.alpha

    def params(self):
        return {"alpha": str(self._alpha_repr)}

    def describe(self):
        return f"poisson(alpha={self._alpha_repr})"


class GeometricLaw(ArrivalLaw):
    """Geometric arrivals with mean alpha: P(A=k) = r^k / (1+alpha) where
    r = alpha/(1+alpha).  G(t) = 1 / (1 + alpha - alpha t), radius (1+alpha)/alpha."""

    kind = "geometric"

    def __init__(self, alpha):
        alpha = _as_param(alpha, "alpha")
        if alpha <= 0:
            raise BadFamilyParameter(f"geometric mean must be positive, got {alpha!r}")
        self.alpha = alpha

    @property
    def radius(self):
        return float((1 + self.alpha) / self.alpha)

    @property
    def is_exact(self):
        return isinstance(self.alpha, Fraction)

    def derivatives(self, t, order=2):
        self._check_t(t)
        a = self.alpha
        denom = 1 + a - a * t
        if denom <= 0:
            raise EvaluationBeyondRadius(
                f"argument {t!r} is at or beyond the radius {(1 + a) / a}"
            )
        g = 1 / denom if isinstance(denom, Fraction) else 1.0 / denom
        out = [g]
        for j in range(1, order + 1):
            out.append(out[-1] * (j * a) * g)
        return tuple(out)

    def coefficient(self, k):
        a = self.alpha
        base = 1 / (1 + a) if isinstance(a, Fraction) else 1.0 / (1 + a)
        return base * (a / (1 + a)) ** k

    def mean(self):
        return self.alpha

    def params(self):
        return {"alpha": str(self.alpha)}

    def describe(self):
        return f"geometric(alpha={self.alpha})"


# base-law constant (3/2)^(7/3) / 13 for the nongeneric example below
_NONGEN_C = (1.5 ** (7.0 / 3.0)) / 13.0


class NongenericExampleLaw(ArrivalLaw):
    """Mixture law whose generating function has a branch point at its radius.

    The base component is
        B(t) = 1 + (1 + t^2)/26 - ((3 - t)/2)^(7/3) / 13,
    a probability generating function with radius 3, mean 1/6, and second
    derivative still finite at t = 3 while the third blows up.  The law is
    the mixture (1 - mix) * delta_0 + mix * base, so its mean is mix/6.
    """

    kind = "nongeneric_example"

    def __init__(self, mix=1):
        mix = _as_param(mix, "mix")
        if not 0 < mix <= 1:
            raise BadFamilyParameter(f"mix must lie in (0, 1], got {mix!r}")
        self.mix = mix

    @property
    def radius(self):
        return 3.0

    def derivatives(self, t, order=2):
        self._check_t(t)
        t = float(t)
        if t > 3.0:
            raise EvaluationBeyondRadius(f"argument {t!r} exceeds the radius 3")
        u = (3.0 - t) / 2.0
        m = float(self.mix)
        out = [1.0 - m + m * (1.0 + (1.0 + t * t) / 26.0 - (u ** (7.0 / 3.0)) / 13.0)]
        if order >= 1:
            out.append(m * (t / 13.0 + (7.0 / 78.0) * u ** (4.0 / 3.0)))
        if order >= 2:
            out.append(m * (1.0 / 13.0 - (7.0 / 117.0) * u ** (1.0 / 3.0)))
        if order >= 3:
            if u == 0.0:
                raise EvaluationBeyondRadius(
                    "third derivative diverges at the radius"
                )
            out.append(m * (7.0 / 702.0) * u ** (-2.0 / 3.0))
        if order >= 4:
            raise OutOfDomain("derivatives beyond order 3 are not implemented")
        return tuple(out)

    def coefficient(self, k):
        m = float(self.mix)
        base = self._base_coefficient(k)
        if k == 0:
            return 1.0 - m + m * base
        return m * base

    @staticmethod
    def _base_coefficient(k):
        # t^k coefficient of (1 - t/3)^(7/3) via the binomial recurrence
        d = 1.0
        for j in range(1, k + 1):
            d *= (7.0 / 3.0 - (j - 1)) / j * (-1.0 / 3.0)
        out = -_NONGEN_C * d
        if k == 0:
            out += 27.0 / 26.0
        elif k == 2:
            out += 1.0 / 26.0
        return out

    def mean(self):
        return float(self.mix) / 6.0

    def params(self):
        return {"mix": str(self.mix)}

    def describe(self):
        return f"nongeneric_example(mix={self.mix})"


class CustomAnalyticLaw(ArrivalLaw):
    """Escape hatch: a law given only through an evaluator for G.

    Useful for exercising classifier branches that no packaged family
    reaches.  Not exact, not samplable, no coefficient access beyond mu0.
    """

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

    def derivatives(self, t, order=2):
        self._check_t(t)
        out = self._derivs(float(t), order)
        return tuple(float(v) for v in out)

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


# --- factories ----------------------------------------------------------------

def make_finite_law(probs):
    return FiniteSupportLaw(probs)


def binary0k(alpha, k=2):
    return Binary0kLaw(alpha, k)


def poisson(alpha):
    return PoissonLaw(alpha)


def geometric(alpha):
    return GeometricLaw(alpha)


def nongeneric_example(mix=1):
    return NongenericExampleLaw(mix)


FAMILIES = {
    "binary0k": binary0k,
    "poisson": poisson,
    "geometric": geometric,
    "nongeneric_example": nongeneric_example,
}
