"""Exact enumeration of fully parked trees.

A fully parked tree is a finite plane binary subtree together with an
arrival count at each vertex such that, after the parking dynamics run,
every vertex of the subtree holds a car; the surplus leaving through the
root is its flux.  The weight of a configuration is the product of the
arrival probabilities over its vertices, so the weighted count c[n][p]
over trees with n vertices and flux p is a polynomial in the arrival
probabilities and is computed here exactly, two independent ways:

* a row recursion on the generating function (fast, the reference), and
* direct enumeration of all decorated trees (slow, the oracle).

Both require a law with exact rational coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .analytic import classify, flux_distribution
from .errors import (
    BudgetExceeded,
    EnumerationError,
    NonExactLaw,
    NoSolution,
    OracleMismatch,
    OutOfDomain,
)

BRUTE_FORCE_MAX_VERTICES = 8


# --- parking dynamics on a finite decorated tree -------------------------------

@lru_cache(maxsize=None)
def _shapes(n):
    """All plane binary subtree shapes with n vertices, as nested pairs.

    A shape is None (absent) or a pair (left, right) of shapes.  The
    count is the n-th Catalan number.
    """
    if n == 0:
        return (None,)
    out = []
    for a in range(n):
        for left in _shapes(a):
            for right in _shapes(n - 1 - a):
                out.append((left, right))
    return tuple(out)


@lru_cache(maxsize=None)
def _postorder(shape):
    """Child index table in postorder; -1 marks an absent child.

    Returns a tuple of (left_index, right_index) pairs; the root is the
    last entry, children always precede their parent.
    """
    table = []

    def walk(node):
        if node is None:
            return -1
        li = walk(node[0])
        ri = walk(node[1])
        table.append((li, ri))
        return len(table) - 1

    walk(shape)
    return tuple(table)


def _parent_table(children):
    parent = [-1] * len(children)
    for i, (li, ri) in enumerate(children):
        if li >= 0:
            parent[li] = i
        if ri >= 0:
            parent[ri] = i
    return parent


@dataclass(frozen=True)
class ParkOutcome:
    loads: tuple  # cars held at each vertex before pushing surplus up, postorder
    flux: int  # surplus leaving through the root
    fully_parked: bool
    parked_count: int


@dataclass(frozen=True)
class DecoratedTree:
    """A finite plane binary subtree with an arrival count per vertex.

    Vertices are indexed in postorder of the shape.
    """

    shape: tuple
    arrivals: tuple

    def __post_init__(self):
        n = len(_postorder(self.shape))
        if len(self.arrivals) != n:
            raise EnumerationError(
                f"shape has {n} vertices but {len(self.arrivals)} arrival counts given"
            )
        if any(a < 0 for a in self.arrivals):
            raise EnumerationError("arrival counts must be nonnegative")

    def park(self):
        """Settle all cars at once, bottom up.

        The recursion is load(v) = arrivals(v) + surplus(left) +
        surplus(right) with surplus(u) = max(load(u) - 1, 0); a vertex is
        occupied exactly when its load is positive.
        """
        children = _postorder(self.shape)
        loads = [0] * len(children)
        for i, (li, ri) in enumerate(children):
            x = self.arrivals[i]
            if li >= 0 and loads[li] > 1:
                x += loads[li] - 1
            if ri >= 0 and loads[ri] > 1:
                x += loads[ri] - 1
            loads[i] = x
        root = loads[-1]
        parked = sum(1 for v in loads if v > 0)
        return ParkOutcome(
            loads=tuple(loads),
            flux=max(root - 1, 0),
            fully_parked=all(v > 0 for v in loads),
            parked_count=parked,
        )

    def park_car_by_car(self, order=None):
        """Drive the cars one at a time toward the root.

        Each car starts at its arrival vertex and parks at the first
        unoccupied vertex on the path to the root, leaving through the
        root if every vertex on the way is taken.  The final occupancy
        and flux do not depend on the order, which is what makes the
        one-shot recursion in park() valid; tests exercise this.
        """
        children = _postorder(self.shape)
        parent = _parent_table(children)
        cars = [v for v, a in enumerate(self.arrivals) for _ in range(a)]
        if order is None:
            order = range(len(cars))
        order = list(order)
        if sorted(order) != list(range(len(cars))):
            raise EnumerationError("order must be a permutation of the cars")
        occupied = [False] * len(children)
        flux = 0
        for idx in order:
            v = cars[idx]
            while v >= 0 and occupied[v]:
                v = parent[v]
            if v < 0:
                flux += 1
            else:
                occupied[v] = True
        return tuple(occupied), flux


# --- the exact weight table ----------------------------------------------------

@dataclass(frozen=True)
class FptTable:
    """Weights of fully parked trees: rows[n][p] for n vertices, flux p.

    Row 0 is identically zero and kept only so that rows[n] lines up
    with vertex count n.  Entries are exact Fractions.
    """

    law_desc: str
    vertex_order: int  # largest n
    flux_order: int  # largest p
    rows: tuple
    source: str

    def coefficient(self, n, p):
        return self.rows[n][p]

    def csv_text(self):
        """The table as CSV: '#' metadata lines, a header, one row per cell."""
        lines = [
            "# fully parked tree weight table",
            f"# law: {self.law_desc}",
            f"# vertex_order: {self.vertex_order}",
            f"# flux_order: {self.flux_order}",
            f"# source: {self.source}",
            "n,p,numerator,denominator",
        ]
        for n in range(1, self.vertex_order + 1):
            for p in range(self.flux_order + 1):
                c = self.rows[n][p]
                lines.append(f"{n},{p},{c.numerator},{c.denominator}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())

    @classmethod
    def read_csv(cls, path):
        meta = {"law": "unknown", "source": "file"}
        cells = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if ":" in body:
                        key, _, value = body.partition(":")
                        meta[key.strip()] = value.strip()
                    continue
                if line.startswith("n,"):
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    raise EnumerationError(f"bad table row: {line!r}")
                try:
                    n, p, num, den = (int(v) for v in parts)
                    cells[(n, p)] = Fraction(num, den)
                except (ValueError, ZeroDivisionError) as exc:
                    raise EnumerationError(f"bad table row: {line!r}") from exc
        try:
            big_n = int(meta["vertex_order"])
            big_p = int(meta["flux_order"])
        except (KeyError, ValueError) as exc:
            raise EnumerationError("table file is missing its order metadata") from exc
        rows = [tuple([Fraction(0)] * (big_p + 1))]
        for n in range(1, big_n + 1):
            row = []
            for p in range(big_p + 1):
                if (n, p) not in cells:
                    raise EnumerationError(f"table file lacks the ({n}, {p}) entry")
                row.append(cells[(n, p)])
            rows.append(tuple(row))
        return cls(
            law_desc=meta["law"],
            vertex_order=big_n,
            flux_order=big_p,
            rows=tuple(rows),
            source=meta.get("source", "file"),
        )


def _reduce_row(nums, den):
    g = 0
    for v in nums:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                break
    if g == 0:
        return nums, 1
    g = math.gcd(g, den)
    if g > 1:
        return [v // g for v in nums], den // g
    return nums, den


def _conv(a, b, out_len):
    out = [0] * out_len
    for i, ai in enumerate(a):
        if i >= out_len:
            break
        if not ai:
            continue
        jmax = min(len(b), out_len - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _add_rows(a_nums, a_den, b_nums, b_den, out_len):
    den = a_den * b_den // math.gcd(a_den, b_den)
    fa = den // a_den
    fb = den // b_den
    out = [0] * out_len
    for i in range(min(len(a_nums), out_len)):
        out[i] += a_nums[i] * fa
    for i in range(min(len(b_nums), out_len)):
        out[i] += b_nums[i] * fb
    return out, den


def tutte_series(law, vertex_order, flux_order):
    """Weight table via the generating-function row recursion.

    With u_n the flux polynomial of n-vertex fully parked trees, the
    root decomposition gives u_n = [shift one flux order down of]
    G * (2 u_{n-1} + sum over a+b = n-1 of u_a u_b), seeded by u_1 = the
    arrival law shifted down once.  Because each step consumes one flux
    order, row n is computed out to flux order flux_order + vertex_order
    - n; a table truncated tighter than that would corrupt its top rows.

    Rows are (integer numerators, common denominator) pairs reduced by
    their gcd at every step, which keeps the integers near their minimal
    size for laws whose masses share a small denominator.
    """
    if vertex_order < 1 or flux_order < 0:
        raise OutOfDomain("need vertex_order >= 1 and flux_order >= 0")
    if not law.is_exact:
        raise NonExactLaw(f"{law.describe()} has no exact coefficients")
    top = vertex_order + flux_order
    mu = law.exact_coefficients(top)
    den_g = 1
    for m in mu:
        den_g = den_g * m.denominator // math.gcd(den_g, m.denominator)
    g_nums = [int(m * den_g) for m in mu]

    def row_width(n):
        return flux_order + vertex_order - n + 1

    nums = [None] * (vertex_order + 1)
    dens = [None] * (vertex_order + 1)
    nums[1], dens[1] = _reduce_row(g_nums[1 : row_width(1) + 1], den_g)
    for n in range(2, vertex_order + 1):
        need = row_width(n) + 1
        w_nums = [2 * v for v in nums[n - 1][:need]]
        w_den = dens[n - 1]
        for a in range(1, (n - 1) // 2 + 1):
            b = n - 1 - a
            pair = _conv(nums[a], nums[b], need)
            if a != b:
                pair = [2 * v for v in pair]
            w_nums, w_den = _add_rows(w_nums, w_den, pair, dens[a] * dens[b], need)
        shifted = _conv(g_nums, w_nums, need)[1:]
        nums[n], dens[n] = _reduce_row(shifted, den_g * w_den)

    rows = [tuple([Fraction(0)] * (flux_order + 1))]
    for n in range(1, vertex_order + 1):
        d = dens[n]
        rows.append(tuple(Fraction(nums[n][p], d) for p in range(flux_order + 1)))
    return FptTable(
        law_desc=law.describe(),
        vertex_order=vertex_order,
        flux_order=flux_order,
        rows=tuple(rows),
        source="recursion",
    )


def brute_force_table(law, vertex_order, flux_order):
    """Weight table by enumerating every decorated tree directly.

    Walks all shapes with up to vertex_order vertices and all arrival
    assignments from the law's support, parks each, and accumulates the
    exact weights of the fully parked outcomes.  Deliberately naive:
    this is the oracle the recursion is checked against.
    """
    if vertex_order < 1 or flux_order < 0:
        raise OutOfDomain("need vertex_order >= 1 and flux_order >= 0")
    if vertex_order > BRUTE_FORCE_MAX_VERTICES:
        raise BudgetExceeded(
            f"brute force is capped at {BRUTE_FORCE_MAX_VERTICES} vertices"
        )
    if not law.is_exact:
        raise NonExactLaw(f"{law.describe()} has no exact coefficients")
    # a fully parked tree with n vertices and flux p holds exactly n + p
    # cars, so no vertex ever receives more than vertex_order + flux_order
    support_top = law.finite_support()
    if support_top is None:
        support_top = vertex_order + flux_order
    coeffs = law.exact_coefficients(support_top)
    support = [(k, c) for k, c in enumerate(coeffs) if c > 0]

    rows = [[Fraction(0)] * (flux_order + 1) for _ in range(vertex_order + 1)]
    for n in range(1, vertex_order + 1):
        tables = [_postorder(shape) for shape in _shapes(n)]
        for assignment in product(support, repeat=n):
            total = sum(k for k, _ in assignment)
            if total < n or total > n + flux_order:
                continue
            weight = Fraction(1)
            for _, w in assignment:
                weight *= w
            for children in tables:
                loads = [0] * n
                parked = True
                for i, (li, ri) in enumerate(children):
                    x = assignment[i][0]
                    if li >= 0 and loads[li] > 1:
                        x += loads[li] - 1
                    if ri >= 0 and loads[ri] > 1:
                        x += loads[ri] - 1
                    if x == 0:
                        parked = False
                        break
                    loads[i] = x
                if parked:
                    rows[n][loads[-1] - 1] += weight
    return FptTable(
        law_desc=law.describe(),
        vertex_order=vertex_order,
        flux_order=flux_order,
        rows=tuple(tuple(r) for r in rows),
        source="brute-force",
    )


def first_mismatch(table, other):
    """First (n, p, table cell, other cell) where other differs from table, or None."""
    for n in range(1, table.vertex_order + 1):
        for p in range(table.flux_order + 1):
            a, b = table.rows[n][p], other.rows[n][p]
            if a != b:
                return n, p, a, b
    return None


def check_against_oracle(law, vertex_order, flux_order):
    """Run both constructions and insist on exact agreement."""
    fast = tutte_series(law, vertex_order, flux_order)
    bad = first_mismatch(fast, brute_force_table(law, vertex_order, flux_order))
    if bad:
        n, p, a, b = bad
        raise OracleMismatch(f"({n}, {p}): recursion gives {a}, enumeration gives {b}")
    return fast


# --- connecting the table to the infinite-tree flux law ------------------------

@dataclass(frozen=True)
class TableFluxComparison:
    probs: tuple  # flux probabilities rebuilt from the table
    analytic_probs: tuple  # same quantities from the generating function
    residuals: tuple

    @property
    def max_residual(self):
        return max(abs(r) for r in self.residuals)


def flux_via_table(law, table, tol=1e-9):
    """Flux probabilities assembled from the weight table.

    On the infinite tree the cluster of occupied vertices through the
    root is a fully parked tree whose n + 1 boundary subtrees all have
    empty roots, so P(flux = p) = [p = 0] P(empty) + sum over n of
    rows[n][p] * P(empty)^(n + 1).  The sum is truncated at the table's
    vertex order; subcritically the terms decay geometrically.
    """
    report = classify(law, tol)
    if report.empty_prob is None:
        raise NoSolution(f"{law.describe()} is {report.regime}: no flux law")
    p_empty = report.empty_prob
    probs = []
    for p in range(table.flux_order + 1):
        terms = [
            float(table.rows[n][p]) * p_empty ** (n + 1)
            for n in range(1, table.vertex_order + 1)
        ]
        s = math.fsum(terms)
        if p == 0:
            s += p_empty
        probs.append(s)
    fd = flux_distribution(law, order=max(2, table.flux_order), tol=tol)
    analytic = fd.probs[: table.flux_order + 1]
    residuals = tuple(a - b for a, b in zip(probs, analytic))
    return TableFluxComparison(tuple(probs), tuple(analytic), residuals)
