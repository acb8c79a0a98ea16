"""Exact enumeration of fully parked trees.

A fully parked tree is a finite plane binary subtree together with an
arrival count at each vertex such that, after the parking dynamics run,
every vertex of the subtree holds a car; the surplus leaving through the
root is its flux.  The weight of a configuration is the product of the
arrival probabilities over its vertices, so the weighted count c[n][p]
over trees with n vertices and flux p is a polynomial in the arrival
probabilities and is computed here exactly, two independent ways:

* a row recursion on the generating function (fast, the reference), and
* direct enumeration of all decorated trees (the oracle).

Both require a law with exact rational coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .analytic import _order, classify, flux_distribution
from .errors import (
    BudgetExceeded,
    EnumerationError,
    NoSolution,
    OracleMismatch,
    OutOfDomain,
)

BRUTE_FORCE_MAX_VERTICES = 8
# the oracle's work, assignments x vertices x (shapes + words per mass) summed
# over n (_check_oracle_work): 10**7 parks in about 0.05 s on one x86-64 core;
# (6, 3) on a geometric law is 3.9e6
BRUTE_FORCE_WORK = 10**7
# integer tables that _integer_cells keeps: a fixed size, no option
INTEGER_TABLE_CACHE_SIZE = 8


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
    with vertex count n.  Entries are exact Fractions.  row_bits[n] is the
    bit length of the largest int in row n of the recursion that built
    the table; it is empty for other tables and is not part of the CSV.
    """

    law_desc: str
    vertex_order: int  # largest n
    flux_order: int  # largest p
    rows: tuple
    source: str
    row_bits: tuple = field(default=(), compare=False)

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
                    cell = Fraction(num, den)
                except (ValueError, ZeroDivisionError) as exc:
                    raise EnumerationError(f"bad table row: {line!r}") from exc
                if cell < 0:
                    raise EnumerationError(f"table file has a negative weight: {line!r}")
                if (n, p) in cells:
                    raise EnumerationError(f"table file repeats the ({n}, {p}) entry")
                cells[(n, p)] = cell
        try:
            big_n = int(meta["vertex_order"])
            big_p = int(meta["flux_order"])
        except (KeyError, ValueError) as exc:
            raise EnumerationError("table file is missing its order metadata") from exc
        if big_n < 1 or big_p < 0:
            raise EnumerationError(
                f"table file has orders ({big_n}, {big_p}); a table needs at least (1, 0)"
            )
        rows = [tuple([Fraction(0)] * (big_p + 1))]
        for n in range(1, big_n + 1):
            row = []
            for p in range(big_p + 1):
                if (n, p) not in cells:
                    raise EnumerationError(f"table file lacks the ({n}, {p}) entry")
                row.append(cells.pop((n, p)))
            rows.append(tuple(row))
        if cells:
            n, p = min(cells)
            raise EnumerationError(
                f"table file has the ({n}, {p}) entry, beyond its orders ({big_n}, {big_p})"
            )
        return cls(
            law_desc=meta["law"],
            vertex_order=big_n,
            flux_order=big_p,
            rows=tuple(rows),
            source=meta.get("source", "file"),
        )


def _packed_rows(h, first):
    """Rows u_0 .. u_N of the recursion, row n starting at M = first[n], and
    the bit length of each row's largest int.

    Each row is kept both as a list and packed into one int, entry k of
    u_n (at M = first[n] + k) in slot k; every slot has the same width, so
    a product of two packed rows is the packed product of the rows.  Every
    entry and every h[j] is >= 0, so no slot borrows and carries only move
    upward: once each slot below need (the slots a row can reach) is wide
    enough for the entry it ends holding, masking off the slots above it
    leaves every entry exact.  A pair product u_i u_j is cut to the reach
    slots it can add to, and its slot k reads only entries 0..k of either
    row: each of its at most reach products is below 2**(bits of
    the largest of u_i[:reach] + bits of the largest of u_j[:reach]),
    taken from a running maximum of each row's bit lengths.  An entry of
    w is then a sum of at most (n + 1) * need such products, and an entry
    of h * w a sum of at most len(h) of those times an h[j], which bounds
    the slot width.  When that bound outgrows the width, the slots widen
    by about an eighth and every row is packed again.
    """
    top, vertex_order = len(h) - 1, len(first) - 1
    rows = [[]] * (vertex_order + 1)
    reach_bits = [[0]] * (vertex_order + 1)  # reach_bits[i][r]: bits of the largest of rows[i][:r]
    packed = [0] * (vertex_order + 1)  # packed[0] is h, packed[n] is u_n
    rows[1] = h[1:]
    reach_bits[1] = list(accumulate(map(int.bit_length, rows[1]), max, initial=0))
    h_bits = (max(h) * len(h)).bit_length()
    size = width = 0  # the slot width in bytes and in bits

    for n in range(2, vertex_order + 1):
        count = top + 1 - first[n]
        if count <= 0:
            break  # first[n] only grows, so this row and all later ones are empty
        lo = first[n - 1]
        need = top + 1 - lo
        # the pairs i + j = n - 1 with i <= j, each cut to the reach slots that
        # a product entering w at start = need - reach can add to
        pairs = [(i, need - first[i] - first[n - 1 - i] + lo) for i in range(1, (n + 1) // 2)]
        pairs = [(i, reach) for i, reach in pairs if reach > 0]
        widest = max(
            [reach_bits[n - 1][need]]  # the term 2 u_{n-1}, all need slots of it
            + [reach_bits[i][reach] + reach_bits[n - 1 - i][reach] for i, reach in pairs]
        )
        slot_bits = widest + ((n + 1) * need).bit_length() + h_bits + 1
        if slot_bits > width:
            size = (slot_bits + slot_bits // 8) // 8 + 1
            width = 8 * size
            packed[:n] = [
                int.from_bytes(b"".join(v.to_bytes(size, "little") for v in row), "little")
                for row in (h, *rows[1:n])
            ]
        # u_{n-1} plus the pair products with i < j, doubled, plus the middle square
        w = packed[n - 1]
        square = 0
        for i, reach in pairs:
            cut = (1 << reach * width) - 1
            x = packed[i] & cut
            if 2 * i + 1 < n:
                w += (x * (packed[n - 1 - i] & cut) & cut) << (need - reach) * width
            else:
                square = (x * x & cut) << (need - reach) * width
        w = (w << 1) + square
        row = w * (packed[0] & (1 << need * width) - 1) >> (first[n] - lo) * width
        row &= (1 << count * width) - 1
        data = row.to_bytes(count * size, "little")
        rows[n] = [int.from_bytes(data[k : k + size], "little") for k in range(0, len(data), size)]
        reach_bits[n] = list(accumulate(map(int.bit_length, rows[n]), max, initial=0))
        packed[n] = row
    return rows, [bits[-1] for bits in reach_bits]


def _orders(vertex_order, flux_order):
    """The two orders of a table as ints, or OutOfDomain."""
    vertex_order = _order(vertex_order, "vertex order")
    flux_order = _order(flux_order, "flux order")
    if vertex_order < 1 or flux_order < 0:
        raise OutOfDomain("need vertex_order >= 1 and flux_order >= 0")
    return vertex_order, flux_order


@lru_cache(maxsize=INTEGER_TABLE_CACHE_SIZE)
def _integer_cells(h, s, vertex_order, flux_order):
    """The ints a table reads, cached by its integer masses h (a tuple), its
    stride s and its two orders: (cells, row_bits), where cells[n] holds
    u_n[M] for the M = (n + p) / s with p = 0..flux_order and s | n + p, in
    increasing p, and row_bits[n] is the bit length of the largest int of
    u_n (_packed_rows).  Both are tuples of tuples or of ints, so no caller
    can change a cached value, and the cache holds at most
    INTEGER_TABLE_CACHE_SIZE tables' cells, not their rows."""
    first = [-(-n // s) for n in range(vertex_order + 1)]  # row n starts at M = first[n]
    u, row_bits = _packed_rows(h, first)
    cells = tuple(
        tuple(u[n][: len(range(s * first[n] - n, flux_order + 1, s))])
        for n in range(vertex_order + 1)
    )
    return cells, tuple(row_bits)


def tutte_series(law, vertex_order, flux_order):
    """Weight table via the generating-function row recursion.

    The law writes its masses as P(A = s j) = a * b**j * h[j] with integer
    h and stride s (law.integer_masses): no mass lies off the multiples of
    s.  A fully parked tree with n vertices and flux p holds n + p = s M
    cars, M units of s, so its weight is a**n * b**M times the product of
    h over its vertices.  Row n is u_n, indexed by M: the sum of those
    products over n-vertex trees holding M units.  Cars add up over the
    root and its two subtrees, so the root decomposition gives
    u_n = h * (2 u_{n-1} + sum over a+b = n-1 of u_a u_b), products in M,
    less the M at which the root holds no car; u_1 = h without h[0].  The
    root holds a car once s M >= n, so row n starts at M = ceil(n / s).
    Trees of the table hold at most N + P cars, N and P its orders, and a
    subtree's surplus can feed every vertex above it, so every row runs
    to the same M = (N + P) // s; a tighter cut would corrupt the top
    rows.

    The recursion runs on plain ints, each row packed into one int so that
    a product of two rows is one big-int multiplication (_packed_rows);
    cell (n, p) is the int u_n[(n + p) / s] * a**n * b**((n + p) / s), made
    a Fraction only then, and zero where s does not divide n + p.  The
    table's row_bits[n] is the bit length of the largest int of u_n.

    The ints depend on (h, s) and the two orders alone, not on a and b, so
    every law with equal integer masses at equal orders shares them: every
    geometric law has h all ones and s = 1, and every two-atom law on
    {0, k} has h = [1, 1] and s = k.  _integer_cells keeps the ints of
    the INTEGER_TABLE_CACHE_SIZE tables used last, a fixed number, and
    only the rescale by a**n * b**M runs per law.  That pays only where
    one process makes several tables with equal integer masses and
    orders, such as a sweep over alpha within one of those families; a
    single table, or a law with fresh masses, runs the recursion as before.
    """
    vertex_order, flux_order = _orders(vertex_order, flux_order)
    h, a, b, s = law.integer_masses(vertex_order + flux_order)
    cells, row_bits = _integer_cells(tuple(h), s, vertex_order, flux_order)

    zero = Fraction(0)
    rows = [tuple([zero] * (flux_order + 1))]
    num, den = 1, 1  # a**n
    for n in range(1, vertex_order + 1):
        num *= a.numerator
        den *= a.denominator
        row = [zero] * (flux_order + 1)
        first = -(-n // s)  # row n starts at M = ceil(n / s)
        pn, pd = num * b.numerator ** first, den * b.denominator ** first
        for p, u in zip(range(s * first - n, flux_order + 1, s), cells[n]):
            row[p] = Fraction(u * pn, pd)
            pn *= b.numerator
            pd *= b.denominator
        rows.append(tuple(row))
    return FptTable(
        law_desc=law.describe(),
        vertex_order=vertex_order,
        flux_order=flux_order,
        rows=tuple(rows),
        source="recursion",
        row_bits=row_bits,
    )


def _check_oracle_work(coeffs, support, vertex_order, flux_order):
    """Raise BudgetExceeded if the oracle's work would pass BRUTE_FORCE_WORK.

    Summed over n, each fitting assignment of arrivals to n vertices costs
    its parked vertices, shapes x n, and at most one weight, a product of n
    masses of up to `words` 64-bit words each.  Entry t of P^n, P the sum
    of z^k over the support, counts the assignments to n vertices whose
    arrivals total t.  Each power is one big-int product, its entries packed
    into slots (_packed_rows) sized for len(support)^vertex_order."""
    bits = max((max(coeffs[k].numerator.bit_length(), coeffs[k].denominator.bit_length())
                for k in support), default=0)
    words = -(-bits // 64)
    top = vertex_order + flux_order
    size = (len(support) ** vertex_order).bit_length() // 8 + 1  # bytes a slot
    row = bytearray((top + 1) * size)
    for k in support:
        row[k * size] = 1
    packed, cut = int.from_bytes(row, "little"), (1 << 8 * size * (top + 1)) - 1
    ways, work = 1, 0
    for n in range(1, vertex_order + 1):
        ways = ways * packed & cut
        data = ways.to_bytes((top + 1) * size, "little")
        fitting = sum(int.from_bytes(data[k : k + size], "little")
                      for k in range(n * size, (n + flux_order + 1) * size, size))
        work += fitting * n * (math.comb(2 * n, n) // (n + 1) + words)
        if work > BRUTE_FORCE_WORK:
            raise BudgetExceeded(
                f"brute force at orders ({vertex_order}, {flux_order}) passes its budget of "
                f"{BRUTE_FORCE_WORK:.0e} (assignments x vertices x (shapes + words per mass))"
            )


def brute_force_table(law, vertex_order, flux_order):
    """Weight table by enumerating every decorated tree directly.

    A fully parked tree with n vertices and flux p holds n + p cars.  So
    for each n the oracle takes every assignment of arrival counts from the
    law's support to n vertices whose total lies in [n, n + P], P the flux
    order, and parks every shape with n vertices under each.  The
    assignments are built one vertex at a time, a prefix dropped once its
    total passes N + P, N the vertex order.  Each shape parks all of them
    at once, in its own postorder loop over int64 columns: load = arrivals
    + the surplus of both children, surplus = max(load - 1, 0), and the
    tree is fully parked iff every load is positive.  A weight is the
    product of the masses of the arrivals, so it depends only on their
    multiset: the parked shapes are counted per multiset, and each exact
    weight is made once.  This is still a direct enumeration, sharing no
    code with the recursion: the oracle tutte_series is checked against.
    Past BRUTE_FORCE_MAX_VERTICES vertices, or when its work, counted
    before any array is built, would pass BRUTE_FORCE_WORK, it raises
    BudgetExceeded.
    """
    vertex_order, flux_order = _orders(vertex_order, flux_order)
    if vertex_order > BRUTE_FORCE_MAX_VERTICES:
        raise BudgetExceeded(
            f"brute force is capped at {BRUTE_FORCE_MAX_VERTICES} vertices"
        )
    # no vertex of a tree in the table receives more than vertex_order + flux_order cars
    top = vertex_order + flux_order
    coeffs = law.exact_coefficients(top)
    support = [k for k, c in enumerate(coeffs) if c > 0]
    _check_oracle_work(coeffs, support, vertex_order, flux_order)
    import numpy as np  # the shapes park in numpy; only the oracle imports it here

    atoms = np.array(support, dtype=np.int64)
    cols, total = [], np.zeros(1, dtype=np.int64)  # one column per vertex so far
    rows = [[Fraction(0)] * (flux_order + 1) for _ in range(vertex_order + 1)]
    for n in range(1, vertex_order + 1):
        prefix, atom = np.nonzero(atoms <= top - total[:, None])
        cols = [c[prefix] for c in cols] + [atoms[atom]]
        total = total[prefix] + atoms[atom]
        fits = (total >= n) & (total <= n + flux_order)
        arrivals = [c[fits] for c in cols]
        parked = np.zeros(len(arrivals[0]), dtype=np.int64)  # parked shapes per assignment
        for shape in _shapes(n):
            surplus = [None] * n
            for i, (li, ri) in enumerate(_postorder(shape)):
                load = arrivals[i]
                if li >= 0:
                    load = load + surplus[li]
                if ri >= 0:
                    load = load + surplus[ri]
                positive = load > 0
                every = positive if i == 0 else every & positive
                surplus[i] = load - positive
            parked += every
        hit = parked > 0
        multisets, group = np.unique(
            np.sort(np.stack([a[hit] for a in arrivals], axis=1), axis=1),
            axis=0,
            return_inverse=True,
        )
        counts = np.zeros(len(multisets), dtype=np.int64)
        np.add.at(counts, group.reshape(-1), parked[hit])
        for multiset, count in zip(multisets.tolist(), counts.tolist()):
            weight = Fraction(count)
            for k in multiset:
                weight *= coeffs[k]
            rows[n][sum(multiset) - n] += weight
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


def flux_via_table(law, table):
    """Flux probabilities assembled from the weight table.

    On the infinite tree the cluster of occupied vertices through the
    root is a fully parked tree whose n + 1 boundary subtrees all have
    empty roots, so P(flux = p) = [p = 0] P(empty) + sum over n of
    rows[n][p] * P(empty)^(n + 1).  The sum is truncated at the table's
    vertex order; subcritically the terms decay geometrically.
    """
    report = classify(law)
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
    fd = flux_distribution(law, order=max(2, table.flux_order))
    analytic = fd.probs[: table.flux_order + 1]
    residuals = tuple(a - b for a, b in zip(probs, analytic))
    return TableFluxComparison(tuple(probs), tuple(analytic), residuals)
