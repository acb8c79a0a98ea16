"""Arrival law constructors, validation, and generating function values."""

import copy
import math
import os
import pickle
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkcrit import analytic, laws
from parkcrit.analytic import classify
from parkcrit.enumeration import tutte_series
from parkcrit.errors import (
    BadFamilyParameter,
    EvaluationBeyondRadius,
    Mu01IsOne,
    MuZeroIsZero,
    NegativeProbability,
    NonExactLaw,
    OutOfDomain,
    ProbabilitySumNotOne,
)
from parkcrit.laws import (
    FAMILIES,
    Binary0kLaw,
    CustomAnalyticLaw,
    FiniteSupportLaw,
    GeometricLaw,
    NongenericExampleLaw,
    PoissonLaw,
    binary0k,
    geometric,
    make_finite_law,
    nongeneric_example,
    poisson,
)


def test_finite_law_basics():
    law = make_finite_law([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
    assert law.mu0 == Fraction(1, 2)
    assert law.mean() == Fraction(1, 4) + Fraction(2, 8) + Fraction(3, 8)
    assert law.radius == math.inf
    assert law.is_exact
    # direct polynomial evaluation at t = 2: G = 5/2, G' = 9/4, G'' = 7/4
    assert law.pgf(Fraction(2)) == Fraction(5, 2)
    assert law.tilted_moments(Fraction(2)) == (Fraction(9, 5), Fraction(14, 5))


def test_finite_law_trims_trailing_zeros():
    law = make_finite_law([Fraction(1, 2), 0, Fraction(1, 2), 0, 0])
    assert law.finite_support() == 2
    assert law.coefficient(2) == Fraction(1, 2) and law.coefficient(4) == 0


def test_finite_law_validation():
    with pytest.raises(NegativeProbability):
        make_finite_law([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ProbabilitySumNotOne):
        make_finite_law([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(MuZeroIsZero):
        make_finite_law([0, Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(Mu01IsOne):
        make_finite_law([Fraction(1, 2), Fraction(1, 2)])


def test_negative_time_rejected():
    law = binary0k(Fraction(1, 14))
    with pytest.raises(OutOfDomain):
        law.pgf(-1)
    with pytest.raises(OutOfDomain):
        law.tilted_moments(-1)


def test_binary0k_mass_placement():
    # the parameter is the mean, so the mass at k is alpha/k
    law = binary0k(Fraction(1, 14), k=2)
    assert law.coefficient(0) == Fraction(27, 28)
    assert law.coefficient(1) == 0
    assert law.coefficient(2) == Fraction(1, 28)
    assert law.mean() == Fraction(1, 14)
    assert law.is_exact
    assert law.pgf(Fraction(3)) == Fraction(9, 7)


def test_binary0k_parameter_checks():
    with pytest.raises(BadFamilyParameter):
        binary0k(Fraction(1, 2), k=1)
    with pytest.raises(BadFamilyParameter):
        binary0k(2, k=2)  # mean alpha must stay below k
    with pytest.raises(BadFamilyParameter):
        binary0k(0)
    assert not binary0k(0.05).is_exact


def test_binary0k_series_matches_coefficients():
    law = binary0k(Fraction(1, 20), k=3)
    g = law.exact_coefficients(5)
    for j in range(6):
        assert g[j] == law.coefficient(j)
    assert g == [Fraction(59, 60), 0, 0, Fraction(1, 60), 0, 0]


def test_poisson_values():
    alpha = 0.7
    law = poisson(alpha)
    assert law.pgf(1.3) == pytest.approx(math.exp(alpha * 0.3), rel=1e-15)
    assert law.tilted_moments(1.3) == pytest.approx((alpha * 1.3, (alpha * 1.3) ** 2), rel=1e-15)
    assert law.mean() == alpha
    assert law.radius == math.inf
    assert law.coefficient(3) == pytest.approx(math.exp(-alpha) * alpha**3 / 6, rel=1e-12)
    with pytest.raises(NonExactLaw):
        law.exact_coefficients(4)


def test_geometric_values():
    alpha = 0.25
    law = geometric(alpha)
    assert law.radius == pytest.approx((1 + alpha) / alpha)
    d = 1 + alpha - alpha * 2.0
    assert law.pgf(2.0) == pytest.approx(1 / d)
    # t G'/G = t a / d and t^2 G''/G = 2 t^2 a^2 / d^2
    assert law.tilted_moments(2.0) == pytest.approx((2 * alpha / d, 8 * alpha**2 / d**2))
    assert law.mean() == pytest.approx(alpha)
    with pytest.raises(EvaluationBeyondRadius):
        law.pgf(5.0)
    with pytest.raises(EvaluationBeyondRadius):
        law.tilted_moments(5.0)


def test_geometric_exact_coefficients():
    law = geometric(Fraction(1, 8))
    coeffs = law.exact_coefficients(6)
    assert coeffs[0] == Fraction(8, 9)
    ratio = Fraction(1, 9)
    for k in range(1, 7):
        assert coeffs[k] == coeffs[k - 1] * ratio


EXACT_GEOMETRIC_ALPHAS = ["1/8", "123/10000", "7/3", "1/23", "999/1000"]


EXACT_FINITE_LAWS = [
    binary0k(Fraction(1, 23), 3),
    binary0k(Fraction(3, 7), 2),
    make_finite_law([Fraction(93, 100), Fraction(3, 100), Fraction(2, 100), Fraction(2, 100)]),
    make_finite_law([Fraction(5, 6), 0, Fraction(1, 10), 0, Fraction(1, 15)]),
    make_finite_law([Fraction(7, 9)] + [0] * 2 + [Fraction(1, 6)] + [0] * 2 + [Fraction(1, 18)]),
    make_finite_law([Fraction(2, 3), 0, 0, Fraction(1, 3)]),
]
EXACT_LAWS = [geometric(Fraction(a)) for a in EXACT_GEOMETRIC_ALPHAS] + EXACT_FINITE_LAWS


@pytest.mark.parametrize("law", EXACT_LAWS, ids=str)
def test_integer_masses_reproduce_exact_coefficients(law):
    h, a, b, s = law.integer_masses(85)
    assert len(h) == 85 // s + 1 and all(type(v) is int for v in h)
    mu = law.exact_coefficients(85)
    assert all(mu[k] == (a * b ** (k // s) * h[k // s] if k % s == 0 else 0) for k in range(86))


def test_geometric_integer_masses_are_counts():
    h, a, b, s = geometric(Fraction(2, 5)).integer_masses(10)
    assert (h, s) == ([1] * 11, 1)
    assert (a, b) == (Fraction(5, 7), Fraction(2, 7))
    with pytest.raises(NonExactLaw):
        geometric(0.4).integer_masses(10)


@pytest.mark.parametrize(
    "law", [binary0k(Fraction(1, 14), 5), make_finite_law(["4/5", 0, 0, 0, 0, "1/5"])], ids=str
)
def test_two_atom_integer_masses_are_counts(law):
    h, a, b, s = law.integer_masses(17)
    assert (h, a, b, s) == ([1, 1, 0, 0], law.coefficient(0), law.coefficient(5) / law.coefficient(0), 5)
    assert law.integer_masses(4) == ([1], a, b, 5)
    with pytest.raises(NonExactLaw):
        binary0k(0.3, 5).integer_masses(10)


def test_finite_stride_is_the_gcd_of_the_support():
    law = make_finite_law([Fraction(1, 2), 0, 0, 0, Fraction(1, 4), 0, Fraction(1, 4)])
    h, a, b, s = law.integer_masses(12)
    assert (h, a, b, s) == ([2, 0, 1, 1, 0, 0, 0], Fraction(1, 4), 1, 2)


@pytest.mark.parametrize("law", EXACT_FINITE_LAWS, ids=str)
def test_finite_float_coefficients_are_the_fractions_floats(law):
    exact = law.exact_coefficients(200)
    assert repr(law.float_coefficients(200)) == repr([float(m) for m in exact])


@pytest.mark.parametrize("alpha", EXACT_GEOMETRIC_ALPHAS)
def test_exact_geometric_float_coefficients_are_the_fractions_floats(alpha):
    law = geometric(Fraction(alpha))
    floats = law.float_coefficients(400)
    exact = [float(m) for m in law.exact_coefficients(400)]
    assert [v.hex() for v in floats] == [v.hex() for v in exact]


def test_float_coefficients_of_a_float_law():
    law = geometric(0.125)
    assert law.float_coefficients(30) == [law.coefficient(k) for k in range(31)]


def poisson_coefficients_in_full(law, K):
    """PoissonLaw.float_coefficients as it was, computing every term."""
    a = law.alpha
    log_a, exp, lgamma = math.log(a), math.exp, math.lgamma
    return [exp(-a)] + [exp(-a + k * log_a - lgamma(k + 1)) for k in range(1, K + 1)]


# 1e-9 to 1e3 in quarter decades, and 745.2: at 745.2 and 1e3 exp(-alpha) is
# already 0.0 at k = 0, and the terms before the mode rise out of 0.0 again
POISSON_MEANS = [10.0 ** (e / 4) for e in range(-36, 13)] + [745.2]


@pytest.mark.parametrize("K", [0, 1, 40, 200, 2000])
def test_poisson_coefficients_stop_at_the_first_zero_past_the_mode(K):
    for alpha in POISSON_MEANS:
        law = poisson(alpha)
        got = law.float_coefficients(K)
        assert [v.hex() for v in got] == [v.hex() for v in poisson_coefficients_in_full(law, K)]


_UNIT = st.fractions(min_value=0, max_value=1).filter(lambda x: 0 < x < 1)
_ALL_FAMILIES = st.one_of(
    st.floats(min_value=-9, max_value=9).map(lambda e: poisson(10.0**e)),
    st.floats(min_value=-9, max_value=9).map(lambda e: geometric(10.0**e)),
    st.fractions(min_value=0, max_value=100).filter(lambda x: x > 0).map(geometric),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(nongeneric_example),
    st.tuples(_UNIT, st.integers(2, 40)).map(lambda uk: binary0k(uk[0] * uk[1], uk[1])),
    st.tuples(st.floats(0.01, 0.99), st.integers(2, 40)).map(lambda uk: binary0k(uk[0] * uk[1], uk[1])),
    st.lists(st.integers(0, 50), min_size=3, max_size=9)
    .filter(lambda w: w[0] > 0 and sum(w[2:]) > 0)
    .map(lambda w: make_finite_law([Fraction(x, sum(w)) for x in w])),
)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(law=_ALL_FAMILIES, K=st.integers(0, 250))
def test_float_coefficients_are_the_coefficients(law, K):
    # a float law's coefficient(k) reads float_coefficients, and an exact law
    # states its masses twice, in coefficient and integer_masses: every family
    # gives the same bits both ways, at every k up to K and at K itself
    got = law.float_coefficients(K)
    assert [v.hex() for v in got] == [float(law.coefficient(k)).hex() for k in range(K + 1)]
    assert float(law.coefficient(K)).hex() == law.float_coefficients(K)[K].hex()


def test_each_family_name_is_its_class():
    assert FAMILIES == {
        "binary0k": Binary0kLaw,
        "poisson": PoissonLaw,
        "geometric": GeometricLaw,
        "nongeneric_example": NongenericExampleLaw,
    }
    assert (binary0k, poisson, geometric, nongeneric_example, make_finite_law) == (
        Binary0kLaw, PoissonLaw, GeometricLaw, NongenericExampleLaw, FiniteSupportLaw)
    assert binary0k(Fraction(1, 14)) == Binary0kLaw(Fraction(1, 14), 2)


def test_nongeneric_example_normalization():
    law = nongeneric_example(1)
    # probabilities sum to 1 and the pgf is 1 at t = 1
    total = sum(law.coefficient(k) for k in range(200))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert law.pgf(1.0) == pytest.approx(1.0, abs=1e-14)
    assert law.mean() == pytest.approx(1 / 6)
    assert law.radius == 3.0


def test_nongeneric_example_mixture():
    m = 0.1
    law = nongeneric_example(m)
    base = nongeneric_example(1)
    assert law.coefficient(0) == pytest.approx(1 - m + m * base.coefficient(0))
    assert law.coefficient(2) == pytest.approx(m * base.coefficient(2))
    assert law.mean() == pytest.approx(m / 6)
    with pytest.raises(BadFamilyParameter):
        nongeneric_example(0)
    with pytest.raises(BadFamilyParameter):
        nongeneric_example(1.5)


def _nongeneric_base_coefficient(k):
    # t^k coefficient of the base law, by the O(k) product of the recurrence
    d = 1.0
    for j in range(1, k + 1):
        d *= (7.0 / 3.0 - (j - 1)) / j * (-1.0 / 3.0)
    return -(1.5 ** (7.0 / 3.0)) / 13.0 * d + {0: 27.0 / 26.0, 2: 1.0 / 26.0}.get(k, 0.0)


def test_nongeneric_coefficients_keep_the_bits_of_the_recurrence():
    # the recurrence is tabled once; indices asked for out of order, past the
    # table's end and again read the same bits
    base = nongeneric_example(1)
    law = nongeneric_example(0.3)
    for k in (7, 0, 1, 2, 3, 410, 250, 411, 7):
        want = _nongeneric_base_coefficient(k)
        assert base.coefficient(k).hex() == want.hex(), k
        assert law.coefficient(k) == (1.0 - 0.3 if k == 0 else 0.0) + 0.3 * want, k


def test_nongeneric_coefficients_agree_across_threads():
    # the binomial table is built on first use; threads that race to build
    # it read the same masses, the recurrence's, past its underflow at 659 too
    laws._nongen_binomials.cache_clear()
    law, start = nongeneric_example(0.3), threading.Barrier(6, timeout=30)

    def masses(_):
        start.wait()
        return [v.hex() for v in law.float_coefficients(700)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            got = list(pool.map(masses, range(6), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    want = [((1.0 - 0.3 if k == 0 else 0.0) + 0.3 * _nongeneric_base_coefficient(k)).hex()
            for k in range(701)]
    assert all(g == want for g in got)


def test_nongeneric_example_third_derivative_blows_up_at_radius():
    law = nongeneric_example(1)
    # G and the tilted moments stay finite at the radius itself, and beyond
    # it the law is not evaluated
    assert math.isfinite(law.pgf(3.0))
    assert all(math.isfinite(m) for m in law.tilted_moments(3.0))
    for beyond in (3.0 + 1e-12, 4):
        with pytest.raises(EvaluationBeyondRadius):
            law.pgf(beyond)
        with pytest.raises(EvaluationBeyondRadius):
            law.tilted_moments(beyond)

    # G'' = v G / t^2 is finite at 3, but its slope over [3 - h, 3] grows
    # like h^(-2/3): the third derivative diverges at the radius
    def g2(t):
        return law.tilted_moments(t)[1] * law.pgf(t) / (t * t)

    slopes = [(g2(3.0) - g2(3.0 - h)) / h for h in (1e-3, 1e-6, 1e-9)]
    assert slopes[0] > 0
    assert slopes[1] / slopes[0] == pytest.approx(100.0, rel=1e-3)
    assert slopes[2] / slopes[1] == pytest.approx(100.0, rel=1e-2)


def test_custom_analytic_law():
    law = CustomAnalyticLaw(
        derivs=lambda t: (math.exp(t - 1),) * 3,
        radius=math.inf,
        mu_zero=math.exp(-1),
        mean=1.0,
        name="unit poisson",
    )
    assert law.pgf(1.0) == 1.0
    assert law.tilted_moments(1.0) == (1.0, 1.0)
    assert law.tilted_moments(Fraction(3)) == pytest.approx((3.0, 9.0), rel=1e-15)
    assert not law.is_exact
    with pytest.raises(NonExactLaw):
        law.exact_coefficients(3)


def test_equality_and_hashing():
    a = binary0k(Fraction(1, 14))
    b = binary0k(Fraction(1, 14), k=2)
    assert a == b and hash(a) == hash(b)
    assert binary0k(Fraction(1, 14), k=3) != a
    d = {a: "x"}
    assert d[b] == "x"
    assert make_finite_law([Fraction(1, 2), 0, Fraction(1, 2)]) != a


# each pair is one law built two ways
_SAME_LAWS = [
    (binary0k(Fraction(1, 14)), Binary0kLaw("2/28", k=2)),
    (poisson(0.3), PoissonLaw(0.3)),
    (geometric(Fraction(1, 8)), GeometricLaw("1/8")),
    (nongeneric_example(1), NongenericExampleLaw("1")),
    (make_finite_law([Fraction(1, 2), 0, Fraction(1, 2)]), FiniteSupportLaw(["1/2", 0, "2/4"])),
]


@pytest.mark.parametrize("a, b", _SAME_LAWS, ids=lambda law: law.describe())
def test_equal_laws_hash_equal_and_as_their_keys(a, b):
    hash(a)  # cached on a, still unset on b
    assert a == b and hash(a) == hash(b) == hash(a._key()) == hash(b._key())


@pytest.mark.parametrize("law", [binary0k(Fraction(3, 191), 3), poisson(0.0123)], ids=lambda law: law.kind)
def test_a_law_builds_its_key_once_for_many_lookups(monkeypatch, law):
    # with no equal law cached, no lookup compares keys
    analytic.classify.cache_clear()
    analytic.find_critical_time.cache_clear()
    calls, key = [], type(law)._key
    monkeypatch.setattr(type(law), "_key", lambda self: calls.append(self) or key(self))
    seen = {law}
    for _ in range(50):
        assert law in seen
        classify(law)
    assert len(calls) == 1


@pytest.mark.parametrize("law", [a for a, _ in _SAME_LAWS], ids=lambda law: law.describe())
def test_copies_stay_equal(law):
    hash(law)
    for copy_of in (copy.copy, copy.deepcopy):
        twin = copy_of(law)
        assert twin == law and hash(twin) == hash(law)


# built the same way here and in a child process
_PICKLED = (
    "[binary0k(Fraction(1, 14)), poisson(0.3), geometric(Fraction(1, 8)), "
    "nongeneric_example(1), make_finite_law(['1/2', 0, '1/2'])]"
)


def test_a_law_pickled_under_another_hash_seed_hashes_as_here():
    # string hashes are salted per process: laws hashed in a child with
    # another PYTHONHASHSEED must not bring those hashes along
    child = (
        "import pickle\n"
        "from fractions import Fraction\n"
        "from parkcrit.laws import binary0k, geometric, make_finite_law, nongeneric_example, poisson\n"
        f"laws = {_PICKLED}\n"
        "print([hash(law) for law in laws])\n"
        "print(pickle.dumps(laws).hex())\n"
    )
    src = os.path.dirname(os.path.dirname(laws.__file__))
    env = {
        **os.environ,
        "PYTHONHASHSEED": "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1",
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
    child_hashes, data = out.stdout.splitlines()
    fresh = eval(_PICKLED)
    assert child_hashes != repr([hash(law) for law in fresh])  # the salt differs
    got = pickle.loads(bytes.fromhex(data))
    assert got == fresh and [hash(law) for law in got] == [hash(law) for law in fresh]


def test_describe_mentions_parameters():
    assert "1/14" in binary0k(Fraction(1, 14)).describe()
    assert "poisson" in poisson(0.3).describe()


def _reference_derivatives(law, t, order):
    """G, G', ... at t by the mixed Fraction-float expressions of the exact path.

    A float t used to go through these for every law; the float constants a
    law now computes once must reproduce G bit for bit, and nongeneric's
    tilted moments must be the quotients of its G, G' and G'' bit for bit.
    """
    if law.kind == "finite":
        out = []
        for j in range(order + 1):
            acc = 0
            for k, p in enumerate(law.probs):
                if p and k >= j:
                    acc += math.perm(k, j) * p * t ** (k - j)
            out.append(acc)
        return tuple(out)
    if law.kind == "binary0k":
        k = law.k
        pk = law.alpha / k
        return (1 - pk + pk * t**k,) + tuple(
            math.perm(k, j) * pk * t ** (k - j) for j in range(1, order + 1)
        )
    if law.kind == "geometric":
        a = law.alpha
        g = 1 / (1 + a - a * t)
        out = [g]
        for j in range(1, order + 1):
            out.append(out[-1] * (j * a) * g)
        return tuple(out)
    if law.kind == "poisson":
        g = math.exp(law.alpha * (t - 1.0))
        return tuple(g * law.alpha**j for j in range(order + 1))
    m = float(law.mix)
    u = (3.0 - t) / 2.0
    return (
        1.0 - m + m * (1.0 + (1.0 + t * t) / 26.0 - (u ** (7.0 / 3.0)) / 13.0),
        m * (t / 13.0 + (7.0 / 78.0) * u ** (4.0 / 3.0)),
        m * (1.0 / 13.0 - (7.0 / 117.0) * u ** (1.0 / 3.0)),
    )[: order + 1]


FLOAT_PATH_LAWS = [
    # at 0.3, k = 3 and 1/14, k = 30, float(falling(k, j) * p_k) is not
    # falling(k, j) * float(p_k)
    binary0k(Fraction("0.013"), k=2),
    binary0k(Fraction("0.3"), k=3),
    binary0k(Fraction(1, 14), k=30),
    binary0k(0.013, k=2),
    binary0k(0.3, k=3),
    binary0k(2.718, k=30),
    make_finite_law([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]),
    make_finite_law(["0.985", "0.005", "0", "0.006", "0.004"]),
    # float(12 * p_4) is not 12 * float(p_4) here
    make_finite_law(["0.9", "0.03", "0.01", "0.007", "0.003", "0.05"]),
    geometric(Fraction(1, 8)),
    geometric(Fraction("0.0371")),
    poisson(0.37),
    nongeneric_example(Fraction(1, 10)),
    nongeneric_example(Fraction(2, 3)),
]


@pytest.mark.parametrize("law", FLOAT_PATH_LAWS, ids=repr)
def test_float_path_matches_mixed_expressions_bit_for_bit(law):
    # a log range of t from 1e-6 up to 1e6 or just below the radius
    cap = min(1e6, law.radius * (1 - 1e-12))
    ts = [1e-6 * 1.1**i for i in range(int(math.log(cap / 1e-6, 1.1)) + 1)]
    for t in ts + [cap]:
        try:
            want = _reference_derivatives(law, t, 2)
        except OverflowError:  # exp overflows far out for poisson
            with pytest.raises(OverflowError):
                law.pgf(t)
            continue
        _assert_same_bits(law, t, want)


def _assert_same_bits(law, t, want):
    got = law.pgf(t)
    assert type(got) is float
    # float.hex tells 0.0 from -0.0, which == does not
    assert got.hex() == want[0].hex(), t
    if law.kind == "nongeneric_example":
        g0, g1, g2 = want
        quotients = (t * g1 / g0, t * (t * g2 / g0))
        assert [v.hex() for v in law.tilted_moments(t)] == [v.hex() for v in quotients], t


@pytest.mark.parametrize("law", [law for law in FLOAT_PATH_LAWS if law.is_exact], ids=repr)
def test_exact_laws_stay_exact_at_exact_t(law):
    for t in (Fraction(1, 3), 2, Fraction(7, 2)):
        got = law.pgf(t)
        assert type(got) is Fraction
        assert got == _reference_derivatives(law, t, 0)[0]


@pytest.mark.parametrize("law", FLOAT_PATH_LAWS, ids=repr)
def test_tilted_moments_are_the_scaled_derivatives(law):
    # t G'/G and t^2 G''/G; the packaged laws write them without forming G,
    # so they agree with the quotients to rounding, not bit for bit
    for t in (1e-3, 0.5, 1.0, 2.0, min(7.5, law.radius * (1 - 1e-9))):
        g0, g1, g2 = _reference_derivatives(law, t, 2)
        u, v = law.tilted_moments(t)
        assert u == pytest.approx(t * g1 / g0, rel=1e-13, abs=1e-300)
        assert v == pytest.approx(t * t * g2 / g0, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("law", [law for law in FLOAT_PATH_LAWS if law.is_exact], ids=repr)
def test_tilted_moments_exact_at_exact_t(law):
    for t in (Fraction(1, 3), 2):
        g0, g1, g2 = _reference_derivatives(law, t, 2)
        assert all(type(m) is Fraction for m in law.tilted_moments(t))
        assert law.tilted_moments(t) == (t * g1 / g0, t * t * g2 / g0)


def test_tilted_moments_where_g_leaves_the_floats():
    # poisson's G = exp(-1000) underflows and geometric's mass at zero is
    # 1e-300; the ratios stay exact to rounding
    assert poisson(1000.0).tilted_moments(1e-3) == (1.0, 1.0)
    assert geometric(1e300).tilted_moments(1 / 3) == pytest.approx((0.5, 0.5), rel=1e-15)
    # t^30 overflows at t = 1e11 while p_k t^30 = 3.3e28 does not
    law = binary0k(Fraction(1, 10**300), k=30)
    pk, t = Fraction(1, 30 * 10**300), Fraction(10**11)
    w = pk * t**30 / (1 - pk + pk * t**30)
    assert law.tilted_moments(1e11) == pytest.approx((30 * w, 870 * w), rel=1e-15)
    # p_k t^30 = 4.5e305 and G stay in the floats, 870 p_k t^30 does not
    assert binary0k(Fraction(3, 10), k=30).tilted_moments(1.8e10) == (30.0, 870.0)
    # the same for a finite law with three atoms, tilted almost all to 30
    tiny = Fraction(1, 10**300)
    probs = [Fraction(1, 2), 0, Fraction(1, 2) - tiny] + [0] * 27 + [tiny]
    z = [p * t**k for k, p in enumerate(probs)]
    u = sum(k * zk for k, zk in enumerate(z)) / sum(z)
    v = sum(k * (k - 1) * zk for k, zk in enumerate(z)) / sum(z)
    assert make_finite_law(probs).tilted_moments(1e11) == pytest.approx((u, v), rel=1e-15)


def _outcome(f, *args):
    """repr of f(*args), which tells the bits of floats apart, or the exception's type."""
    try:
        return repr(f(*args))
    except ArithmeticError as exc:
        return type(exc).__name__


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(2, 12), share=st.fractions(0, 1).filter(lambda x: 0 < x < 1))
def test_binary0k_is_the_finite_law_of_its_masses(k, share):
    law = binary0k(k * share, k)
    twin = make_finite_law([1 - share] + [0] * (k - 1) + [share])
    for t in (0.0, 1e-3, 0.7, 1.0, 2.5, 1e3, 1e11, 1e200, Fraction(2, 3), 3):
        assert _outcome(law.pgf, t) == _outcome(twin.pgf, t)
        assert _outcome(law.tilted_moments, t) == _outcome(twin.tilted_moments, t)
    assert law.integer_masses(k + 3) == twin.integer_masses(k + 3)
    assert repr(law.float_coefficients(k + 3)) == repr(twin.float_coefficients(k + 3))
    assert tutte_series(law, 30, 5).rows == tutte_series(twin, 30, 5).rows


def test_binary0k_with_a_far_atom_builds_at_once():
    # the law kept a dense tuple of k + 1 masses: 0.15 s and 10^6 entries
    def build():
        start = time.perf_counter()
        return binary0k(0.5, 10**6), time.perf_counter() - start

    law, seconds = min((build() for _ in range(3)), key=lambda built: built[1])
    assert seconds < 1e-3
    assert (law.atoms, law.finite_support()) == (((0, 1 - 0.5e-6), (10**6, 0.5e-6)), 10**6)
    assert law.coefficient(10**6) == 0.5e-6 and law.coefficient(17) == 0.0
    assert classify(law).regime in ("subcritical", "critical", "supercritical")


def test_binary0k_mass_must_have_a_nonzero_float():
    # 5e-324 / 2 rounds to 0.0: the law would have no mass at k in floats
    with pytest.raises(BadFamilyParameter, match="rounds to a float of 0.0"):
        binary0k(5e-324)
    assert binary0k(1e-323).tilted_moments(1.0)[0] > 0.0


def test_huge_poisson_mean_is_a_law():
    # alpha ** 2 raised OverflowError in the constructor
    assert poisson(1e300).tilted_moments(1e-300) == pytest.approx((1.0, 1.0))


FLOAT_PARAMETER_LAWS = [law for law in FLOAT_PATH_LAWS if not law.is_exact] + [
    geometric(0.05),
    geometric(0.125),
]


@pytest.mark.parametrize("law", FLOAT_PARAMETER_LAWS, ids=repr)
def test_float_laws_at_int_t_match_mixed_expressions_bit_for_bit(law):
    # an int t goes through the exact constants, which are floats here
    for t in (t for t in (0, 1, 2, 3, 7) if t < law.radius):
        _assert_same_bits(law, t, _reference_derivatives(law, t, 2))


def test_finite_mass_whose_float_is_zero_is_refused():
    # the mass at 2 had no float: the log path of tilted_moments raised a raw
    # ValueError from max() over no atoms
    tiny = Fraction(1, 10**400)
    with pytest.raises(BadFamilyParameter, match="mass at 2 rounds to a float of 0.0"):
        make_finite_law([1 - tiny, 0, tiny])
    # binary0k's mass at 0, 1 - alpha/k, is tiny when alpha is all but k
    with pytest.raises(BadFamilyParameter, match="mass at 0 rounds to a float of 0.0"):
        binary0k(2 - tiny, 2)
    # a mass whose float is subnormal is a law
    law = make_finite_law([1 - Fraction(1, 10**320), 0, Fraction(1, 10**320)])
    assert law.tilted_moments(1e200)[0] > 0.0


# exact values whose float is inf or 0.0 are refused too: G, the scan and the
# samplers all run on the parameter's float
@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf,
     pytest.param("1e400", id="exact-1e400"), pytest.param("1e-400", id="exact-1e-400")],
)
@pytest.mark.parametrize(
    "make",
    [binary0k, lambda a: binary0k(a, k=3), poisson, geometric, nongeneric_example],
    ids=["binary0k", "binary0k-k3", "poisson", "geometric", "nongeneric_example"],
)
def test_non_finite_float_parameters_are_refused(make, bad):
    with pytest.raises(BadFamilyParameter):
        make(bad)
