"""Truncated power series: the float coefficient recurrences."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkcrit.errors import NonpositiveConstantTerm, ZeroConstantTerm
from parkcrit.series import product, reciprocal, sqrt_series


def assert_close(got, want, a, b):
    """got == want coefficientwise, up to the rounding of the product a * b."""
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got, want)):
        scale = math.fsum(abs(a[j] * b[n - j]) for j in range(n + 1))
        assert abs(g - w) <= 1e-13 * scale, (n, g, w)


def test_ring_operations():
    # (1 + 2y + 3y^3)(y + y^2) truncated at order 3
    assert product([1.0, 2.0, 0.0, 3.0], [0.0, 1.0, 1.0, 0.0]) == [0.0, 1.0, 3.0, 2.0]


def test_truncate():
    # the product keeps the orders both factors know
    assert product([1.0, 2.0, 3.0, 4.0], [1.0, 1.0]) == [1.0, 3.0]
    assert product([1.0], [5.0, 1.0, 1.0]) == [5.0]


def test_reciprocal_geometric():
    # 1/(1-y) = sum of y^k
    assert reciprocal([1.0, -1.0, 0.0, 0.0, 0.0]) == [1.0] * 5
    with pytest.raises(ZeroConstantTerm):
        reciprocal([0.0, 1.0, 0.0])


def test_reciprocal_inverts():
    a = [4.0, 1.0, -2.0, 5.0]
    assert product(a, reciprocal(a)) == [1.0, 0.0, 0.0, 0.0]


def test_sqrt_exact():
    assert sqrt_series([1.0, 2.0, 1.0, 0.0, 0.0]) == [1.0, 1.0, 0.0, 0.0, 0.0]  # (1+y)^2
    assert sqrt_series([4.0, 4.0, 1.0]) == [2.0, 1.0, 0.0]  # (2+y)^2


def test_sqrt_catalan():
    # sqrt(1 - 4y) = 1 - sum over n >= 1 of 2 Catalan(n-1) y^n; every
    # intermediate is an integer below 2^53 through n = 30
    b = sqrt_series([1.0, -4.0] + [0.0] * 29)
    catalan = [math.comb(2 * m, m) // (m + 1) for m in range(30)]
    assert b == [1.0] + [-2.0 * c for c in catalan]


def test_sqrt_rejects_bad_constants():
    with pytest.raises(NonpositiveConstantTerm):
        sqrt_series([0.0, 1.0])
    with pytest.raises(NonpositiveConstantTerm):
        sqrt_series([-1.0, 1.0])


def test_sqrt_float_backend():
    a = [2.0, 1.0, -0.5, 0.25]
    s = sqrt_series(a)
    back = product(s, s)
    for k in range(4):
        assert back[k] == pytest.approx(a[k], abs=1e-14)


coefficient_lists = st.lists(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False), min_size=3, max_size=8
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(min_value=0.25, max_value=4.0), coefficient_lists)
def test_reciprocal_round_trip(a0, rest):
    a = [a0] + rest
    b = reciprocal(a)
    assert_close(product(a, b), [1.0] + [0.0] * len(rest), a, b)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(min_value=0.25, max_value=4.0), coefficient_lists)
def test_sqrt_of_square_round_trip(a0, rest):
    a = [a0] + rest
    s = sqrt_series(a)
    assert_close(product(s, s), a, s, s)
