"""Truncated power series in y, as lists of float coefficients.

Coefficient n of a product, reciprocal or square root depends only on
the input coefficients up to n, so each result is as long as its
shortest input.
"""
from __future__ import annotations

import math
from operator import mul

from .errors import NonpositiveConstantTerm, ZeroConstantTerm


def _dot(a, b):
    return sum(map(mul, a, b), 0.0)


def product(a, b):
    """Truncated product: c_n = sum_{j=0..n} a_j b_{n-j}."""
    return [_dot(a[: n + 1], b[n::-1]) for n in range(min(len(a), len(b)))]


def reciprocal(a):
    """1/a by b_n = -(sum_{j=1..n} a_j b_{n-j}) / a_0; needs a_0 != 0."""
    a0 = a[0]
    if a0 == 0:
        raise ZeroConstantTerm("constant term is zero")
    b = [1.0 / a0]
    for n in range(1, len(a)):
        b.append(-_dot(a[1 : n + 1], b[::-1]) / a0)
    return b


def sqrt_series(a):
    """sqrt(a) by b_n = (a_n - sum_{j=1..n-1} b_j b_{n-j}) / (2 b_0); needs a_0 > 0."""
    a0 = a[0]
    if a0 <= 0:
        raise NonpositiveConstantTerm(f"constant term {a0!r} <= 0")
    b = [math.sqrt(a0)]
    for n in range(1, len(a)):
        b.append((a[n] - _dot(b[1:n], b[n - 1 : 0 : -1])) / (2.0 * b[0]))
    return b
