"""Exact enumeration of fully parked trees and the parking dynamics."""

import hashlib
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkcrit.analytic import classify
from parkcrit import enumeration
from parkcrit.enumeration import (
    BRUTE_FORCE_WORK,
    INTEGER_TABLE_CACHE_SIZE,
    DecoratedTree,
    FptTable,
    _check_oracle_work,
    _integer_cells,
    _postorder,
    _shapes,
    brute_force_table,
    check_against_oracle,
    first_mismatch,
    flux_via_table,
    tutte_series,
)
from parkcrit.errors import BudgetExceeded, EnumerationError, NonExactLaw, OutOfDomain
from parkcrit.laws import (
    CustomAnalyticLaw,
    binary0k,
    geometric,
    make_finite_law,
    nongeneric_example,
    poisson,
)

B02 = binary0k(Fraction(1, 14))


def test_shape_counts_are_catalan():
    for n, catalan in enumerate((1, 1, 2, 5, 14, 42)):
        assert len(_shapes(n)) == catalan


def test_single_vertex_parking():
    leaf = (None, None)
    assert DecoratedTree(leaf, (0,)).park().fully_parked is False
    out = DecoratedTree(leaf, (1,)).park()
    assert out.fully_parked and out.flux == 0
    out = DecoratedTree(leaf, (3,)).park()
    assert out.flux == 2 and out.parked_count == 1


def test_two_vertex_chain():
    # left child holds two cars, one overflows onto the empty root
    tree = DecoratedTree(((None, None), None), (2, 0))
    out = tree.park()
    assert out.loads == (2, 1)
    assert out.fully_parked and out.flux == 0
    occupied, flux = tree.park_car_by_car()
    assert occupied == (True, True) and flux == 0


def test_car_by_car_matches_batch():
    shape = ((None, None), ((None, None), (None, None)))
    arrivals = (2, 1, 0, 3, 0)
    tree = DecoratedTree(shape, arrivals)
    out = tree.park()
    occupied, flux = tree.park_car_by_car()
    assert flux == out.flux
    assert occupied == tuple(v > 0 for v in out.loads)


def test_bad_inputs_rejected():
    with pytest.raises(EnumerationError):
        DecoratedTree((None, None), (1, 2))
    with pytest.raises(EnumerationError):
        DecoratedTree((None, None), (-1,))
    with pytest.raises(EnumerationError):
        DecoratedTree((None, None), (2,)).park_car_by_car(order=[0, 0])


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_parking_is_order_independent(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    shape = data.draw(st.sampled_from(_shapes(n)))
    arrivals = tuple(data.draw(st.lists(
        st.integers(min_value=0, max_value=3), min_size=n, max_size=n)))
    tree = DecoratedTree(shape, arrivals)
    total = sum(arrivals)
    order = data.draw(st.permutations(range(total)))
    base = tree.park()
    occupied, flux = tree.park_car_by_car(order)
    assert flux == base.flux
    assert occupied == tuple(v > 0 for v in base.loads)


def test_tutte_series_known_entries():
    table = tutte_series(B02, vertex_order=3, flux_order=3)
    # one vertex: weight of arrival count p + 1
    assert table.coefficient(1, 0) == 0
    assert table.coefficient(1, 1) == Fraction(1, 28)
    # two vertices, no flux: 2 (mu1^2 + mu0 mu2)
    assert table.coefficient(2, 0) == Fraction(27, 392)
    assert table.coefficient(2, 2) == Fraction(1, 392)
    assert table.coefficient(3, 0) == 0
    assert table.coefficient(3, 1) == Fraction(243, 21952)


def test_brute_force_agrees_with_series():
    table = tutte_series(B02, 4, 2)
    brute = brute_force_table(B02, 4, 2)
    assert table.rows == brute.rows
    check_against_oracle(B02, 4, 2)


@st.composite
def strided_laws(draw):
    """A two-atom law on {0, k}, or a law on 0, s and more multiples of s = 2 or 3."""
    if draw(st.booleans()):
        support = [0, draw(st.integers(2, 7))]
    else:
        s = draw(st.sampled_from((2, 3)))
        support = [0, s] + draw(st.lists(st.sampled_from((2 * s, 3 * s)), min_size=1, unique=True))
    weights = [draw(st.integers(1, 9)) for _ in support]
    probs = [0] * (max(support) + 1)
    for k, w in zip(support, weights):
        probs[k] = Fraction(w, sum(weights))
    return make_finite_law(probs)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(law=strided_laws())
def test_strided_recursion_matches_the_oracle(law):
    # rows indexed by the units of the stride that a tree holds
    assert first_mismatch(tutte_series(law, 6, 3), brute_force_table(law, 6, 3)) is None


def test_oracle_reads_no_mass_beyond_the_table():
    # no cell can hold the atom at 10^6: the oracle read all 10^6 + 1 masses, 8 s
    table = check_against_oracle(binary0k(Fraction(1, 2), 10**6), 4, 2)
    assert all(c == 0 for row in table.rows for c in row)


def test_first_mismatch_reports_the_first_differing_cell():
    table = tutte_series(B02, vertex_order=3, flux_order=2)
    assert first_mismatch(table, brute_force_table(B02, 3, 2)) is None
    rows = [list(r) for r in table.rows]
    rows[2][1] += 1
    rows[3][0] += 1
    bad = FptTable(table.law_desc, 3, 2, tuple(tuple(r) for r in rows), "edited")
    assert first_mismatch(table, bad) == (2, 1, table.rows[2][1], table.rows[2][1] + 1)


def test_brute_force_with_dense_support():
    law = make_finite_law([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])
    check_against_oracle(law, 4, 2)


NON_EXACT_LAWS = [
    poisson(0.3),
    geometric(0.1),
    binary0k(0.05),
    nongeneric_example(0.5),
    CustomAnalyticLaw(lambda t: (1.0, 0.0, 0.0), math.inf, 1.0, 0.0, "constant"),
]


def test_brute_force_caps():
    with pytest.raises(BudgetExceeded):
        brute_force_table(B02, 9, 1)
    # exactness is the law's to refuse (integer_masses, exact_coefficients),
    # before any work
    for build, law in itertools.product((tutte_series, brute_force_table, check_against_oracle),
                                        NON_EXACT_LAWS):
        message = re.escape(f"{law.describe()} has no exact coefficients")
        with pytest.raises(NonExactLaw, match=message):
            build(law, 3, 1)


@pytest.mark.parametrize("orders", [(0, 1), (3, -1), (2.5, 1), (3, 0.5)])
def test_both_constructions_refuse_bad_orders_alike(orders):
    # the orders are checked before the law's exactness
    errors = []
    for build, law in itertools.product((tutte_series, brute_force_table), (B02, poisson(0.3))):
        with pytest.raises(OutOfDomain) as exc:
            build(law, *orders)
        errors.append(str(exc.value))
    assert len(set(errors)) == 1, errors


def test_brute_force_budget_counts_the_exact_weights():
    # 2 vertices and flux up to 2000 park only 8.0e6 vertices, but each
    # weight is a product of masses of about 4,000 bits: admitted, this call
    # took 14 s and 458 MB in Fraction products
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"orders \(2, 2000\)"):
        brute_force_table(geometric(Fraction(1, 3)), 2, 2000)
    assert time.perf_counter() - start < 5.0


def test_brute_force_refuses_work_past_its_budget():
    # 19**8 tuples, about 3 hours for a loop over every tuple of atoms: the
    # assignments are counted first, and the call is refused before any is built
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"orders \(8, 10\)"):
        brute_force_table(geometric(Fraction(1, 3)), 8, 10)
    assert time.perf_counter() - start < 1.0


def reference_oracle_work(coeffs, support, vertex_order, flux_order):
    """The oracle's work, summed over n, by the pure-Python DP over totals
    that _check_oracle_work ran before its big-int products."""
    bits = max((max(coeffs[k].numerator.bit_length(), coeffs[k].denominator.bit_length())
                for k in support), default=0)
    words = -(-bits // 64)
    top = vertex_order + flux_order
    ways, work = [1] + [0] * top, 0
    for n in range(1, vertex_order + 1):
        ways = [sum(ways[t - k] for k in support if k <= t) for t in range(top + 1)]
        work += sum(ways[n : n + flux_order + 1]) * n * (math.comb(2 * n, n) // (n + 1) + words)
    return work


def test_oracle_work_matches_the_dp_over_totals():
    # a derandomized grid of exact laws and orders: every admit or refuse
    # decision is the DP's
    rng, decided = random.Random(31), []
    for _ in range(120):
        kind = rng.randrange(3)
        if kind == 0:
            law = binary0k(Fraction(rng.randint(1, 40), 100), k=rng.randint(2, 5))
        elif kind == 1:
            law = geometric(Fraction(rng.randint(1, 30), rng.randint(31, 90)))
        else:
            w = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(rng.randint(1, 5))] + [1]
            law = make_finite_law([Fraction(x, sum(w)) for x in w])
        orders = rng.randint(1, 8), rng.choice([0, 1, 2, 3, 5, 8, 13, 30, 60])
        coeffs = law.exact_coefficients(sum(orders))
        support = [k for k, c in enumerate(coeffs) if c > 0]
        refused = reference_oracle_work(coeffs, support, *orders) > BRUTE_FORCE_WORK
        try:
            _check_oracle_work(coeffs, support, *orders)
            assert not refused, (law, orders)
        except BudgetExceeded:
            assert refused, (law, orders)
        decided.append(refused)
    assert 20 < sum(decided) < 100
    # an admitted call with 8,001 atoms in its support: the DP took 1.8 s
    law = geometric(Fraction(1, 3))
    coeffs = law.exact_coefficients(8001)
    start = time.perf_counter()
    _check_oracle_work(coeffs, list(range(8002)), 1, 8000)
    assert time.perf_counter() - start < 0.5


def reference_brute_force(law, vertex_order, flux_order):
    """brute_force_table's rows one assignment at a time: every tuple of
    support atoms, each shape parked with an early exit at its first empty
    vertex, each fully parked tree's weight added on its own."""
    coeffs = law.exact_coefficients(vertex_order + flux_order)
    support = [(k, c) for k, c in enumerate(coeffs) if c > 0]
    rows = [[Fraction(0)] * (flux_order + 1) for _ in range(vertex_order + 1)]
    for n in range(1, vertex_order + 1):
        tables = [_postorder(shape) for shape in _shapes(n)]
        for assignment in itertools.product(support, repeat=n):
            total = sum(k for k, _ in assignment)
            if total < n or total > n + flux_order:
                continue
            counts = [0] * (flux_order + 1)  # parked shapes by flux
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
                    counts[loads[-1] - 1] += 1
            if any(counts):
                weight = Fraction(1)
                for _, w in assignment:
                    weight *= w
                for p, count in enumerate(counts):
                    rows[n][p] += weight * count
    return tuple(tuple(r) for r in rows)


@st.composite
def oracle_laws(draw):
    """binary0k with k 2..5, a geometric law, or a finite law with 2-6 atoms
    on 0..6, all exact."""
    kind = draw(st.sampled_from(("binary0k", "geometric", "finite")))
    if kind == "binary0k":
        alpha = Fraction(draw(st.integers(1, 9)), draw(st.integers(10, 40)))
        return binary0k(alpha, draw(st.integers(2, 5)))
    if kind == "geometric":
        return geometric(Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 30))))
    support = [0] + draw(st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True))
    if max(support) < 2:
        support.append(2)  # all mass on {0, 1} is refused
    weights = [draw(st.integers(1, 9)) for _ in support]
    probs = [Fraction(0)] * (max(support) + 1)
    for k, w in zip(support, weights):
        probs[k] = Fraction(w, sum(weights))
    return make_finite_law(probs)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(law=oracle_laws(), vertex_order=st.integers(4, 5), flux_order=st.integers(0, 3))
def test_oracle_matches_the_reference_enumeration(law, vertex_order, flux_order):
    table = brute_force_table(law, vertex_order, flux_order)
    assert table.rows == reference_brute_force(law, vertex_order, flux_order)
    assert first_mismatch(tutte_series(law, 6, 3), brute_force_table(law, 6, 3)) is None


def test_table_weights_sum_to_flux_probability():
    # sum over n of c(n, p) q^(n+1) with q the empty prob reproduces the
    # analytic flux law; a one-vertex cluster has two boundary edges
    law = binary0k(Fraction(1, 20), k=2)
    table = tutte_series(law, 64, 4)
    cmp = flux_via_table(law, table)
    assert cmp.max_residual < 1e-6
    assert len(cmp.probs) == len(cmp.analytic_probs)


def test_flux_via_table_shares_the_classification():
    law = binary0k(Fraction(1, 20), k=2)
    table = tutte_series(law, 8, 2)
    classify.cache_clear()
    classify(law)
    flux_via_table(law, table)
    assert classify.cache_info().misses == 1


def test_brute_force_total_weight_check():
    # every decorated tree with all loads positive is counted exactly once:
    # cross-check one cell against a direct sum over shapes and arrivals
    law = make_finite_law([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    n, p = 3, 1
    total = Fraction(0)
    for shape in _shapes(n):
        for arrivals in itertools.product(range(n + p + 1), repeat=n):
            tree = DecoratedTree(shape, arrivals)
            out = tree.park()
            if out.fully_parked and out.flux == p:
                w = Fraction(1)
                for a in arrivals:
                    w *= law.coefficient(a)
                total += w
    assert brute_force_table(law, n, p).coefficient(n, p) == total


def test_csv_round_trip(tmp_path):
    table = tutte_series(B02, 3, 2)
    path = tmp_path / "table.csv"
    table.write_csv(path)
    back = FptTable.read_csv(path)
    assert back.rows == table.rows
    assert back.vertex_order == table.vertex_order
    assert back.flux_order == table.flux_order
    assert back.law_desc == table.law_desc
    # row_bits describe how the table was computed and stay out of the CSV
    assert back.row_bits == () and table.row_bits and back == table


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,p,numerator,denominator\n1,0,not,numbers\n")
    with pytest.raises(EnumerationError):
        FptTable.read_csv(path)
    path.write_text("# fully parked tree weight table\n")
    with pytest.raises(EnumerationError):
        FptTable.read_csv(path)


def test_csv_refuses_orders_below_one_vertex(tmp_path):
    # this used to read as FptTable(vertex_order=-2, ...) with no rows
    path = tmp_path / "bad.csv"
    path.write_text("# vertex_order: -2\n# flux_order: 1\nn,p,numerator,denominator\n")
    with pytest.raises(EnumerationError, match="orders"):
        FptTable.read_csv(path)


@pytest.mark.parametrize("cell", ["1,0,-1,2", "1,0,1,-2"])
def test_csv_refuses_negative_weights(tmp_path, cell):
    # each of these used to read as the weight -1/2
    path = tmp_path / "bad.csv"
    path.write_text(f"# vertex_order: 1\n# flux_order: 0\nn,p,numerator,denominator\n{cell}\n")
    with pytest.raises(EnumerationError, match="negative"):
        FptTable.read_csv(path)


def test_exact_geometric_coefficients_feed_the_recursion():
    law = geometric(Fraction(1, 8))
    table = tutte_series(law, 6, 2)
    brute = brute_force_table(law, 5, 2)
    for n in range(1, 6):
        for p in range(3):
            assert table.coefficient(n, p) == brute.coefficient(n, p)


# first 16 hex digits of sha256(tutte_series(law, N, 5).csv_text()): tables
# far beyond the oracle's reach, with dense, sparse and finite supports
LARGE_TABLE_DIGESTS = [
    (geometric(Fraction(1, 23)), 80, "f567bf42808d6286"),
    (binary0k(Fraction(1, 23), 3), 120, "cd2f9b4d9f030c34"),
    (binary0k(Fraction(1, 27), 5), 120, "2c5c96a0a2fc5197"),
    (
        make_finite_law([Fraction(93, 100), Fraction(3, 100), Fraction(2, 100), Fraction(2, 100)]),
        55,
        "360102bc59e9ec6f",
    ),
]


@pytest.mark.parametrize("law, n, digest", LARGE_TABLE_DIGESTS, ids=lambda v: str(v))
def test_large_tables_pinned(law, n, digest):
    csv = tutte_series(law, n, 5).csv_text()
    assert hashlib.sha256(csv.encode()).hexdigest()[:16] == digest


def count_packed_rows(monkeypatch):
    """Empty the integer-table cache and count _packed_rows's calls from now on."""
    _integer_cells.cache_clear()
    calls = []
    packed_rows = enumeration._packed_rows

    def counted(h, first):
        calls.append(h)
        return packed_rows(h, first)

    monkeypatch.setattr(enumeration, "_packed_rows", counted)
    return calls


def cold_table(law, vertex_order, flux_order):
    """The table built with the integer-table cache empty."""
    _integer_cells.cache_clear()
    return tutte_series(law, vertex_order, flux_order)


@pytest.mark.parametrize(
    "before, pinned",
    [
        (geometric(Fraction(1, 8)), LARGE_TABLE_DIGESTS[0]),
        (binary0k(Fraction(1, 14), 3), LARGE_TABLE_DIGESTS[1]),
    ],
    ids=["geometric", "binary0k-3"],
)
def test_large_tables_pinned_after_another_law_of_their_masses(before, pinned):
    # the second table reads the integer cells the first one cached, and
    # must hash and read as it does when built cold
    law, n, digest = pinned
    cold = cold_table(law, n, 5)
    _integer_cells.cache_clear()
    tutte_series(before, n, 5)
    warm = tutte_series(law, n, 5)
    assert _integer_cells.cache_info().hits == 1
    assert hashlib.sha256(warm.csv_text().encode()).hexdigest()[:16] == digest
    assert warm.rows == cold.rows and warm.row_bits == cold.row_bits


def test_geometric_laws_share_one_recursion(monkeypatch):
    calls = count_packed_rows(monkeypatch)
    laws = [geometric(Fraction(1, 14 + j)) for j in range(9)] + [geometric(Fraction(2, 5))]
    for law in laws:
        tutte_series(law, 12, 3)
    assert len(calls) == 1
    for law in laws:
        assert_matches_reference(law, 12, 3)  # each warm table against the reference rows
    assert len(calls) == 1


@pytest.mark.parametrize(
    "first, second",
    [
        ((geometric(Fraction(1, 8)), 40, 5), (geometric(Fraction(1, 8)), 40, 6)),
        # stride 3 at N + P = 45 and 46 has the same h, so only the flux
        # order tells (40, 5) and (40, 6) apart, and only the vertex order
        # (40, 5) and (41, 5); at N + P = 5 strides 3 and 4 have the same h
        ((binary0k(Fraction(1, 14), 3), 40, 5), (binary0k(Fraction(1, 14), 3), 40, 6)),
        ((binary0k(Fraction(1, 14), 3), 40, 5), (binary0k(Fraction(1, 14), 3), 41, 5)),
        ((binary0k(Fraction(1, 14), 3), 40, 5), (binary0k(Fraction(1, 14), 4), 40, 5)),
        ((binary0k(Fraction(1, 14), 3), 3, 2), (binary0k(Fraction(1, 14), 4), 3, 2)),
    ],
    ids=["geometric-flux-order", "flux-order", "vertex-order", "stride", "stride-same-h"],
)
def test_tables_of_other_orders_or_strides_share_nothing(monkeypatch, first, second):
    calls = count_packed_rows(monkeypatch)
    warm = [tutte_series(*first), tutte_series(*second)]
    assert len(calls) == 2 and _integer_cells.cache_info().hits == 0
    for table, args in zip(warm, (first, second)):
        cold = cold_table(*args)
        assert table.rows == cold.rows and table.row_bits == cold.row_bits


def test_integer_table_cache_stays_bounded():
    _integer_cells.cache_clear()
    for j in range(3 * INTEGER_TABLE_CACHE_SIZE):
        masses = [Fraction(3 + j, 100), Fraction(2, 100), Fraction(2, 100)]
        tutte_series(make_finite_law([1 - sum(masses)] + masses), 6, 3)
    info = _integer_cells.cache_info()
    assert info.maxsize == INTEGER_TABLE_CACHE_SIZE
    assert info.misses == 3 * INTEGER_TABLE_CACHE_SIZE
    assert info.currsize <= info.maxsize


def test_cached_integer_cells_are_tuples():
    law = binary0k(Fraction(1, 14), 3)
    h, _, _, s = law.integer_masses(12 + 3)
    table = tutte_series(law, 12, 3)
    cells, row_bits = value = _integer_cells(tuple(h), s, 12, 3)
    assert type(value) is tuple and type(cells) is tuple and type(row_bits) is tuple
    assert all(type(row) is tuple for row in cells) and len(cells) == 12 + 1
    assert all(type(u) is int for row in cells for u in row)
    assert row_bits == table.row_bits


def conv(a, b, out_len, out=None, start=0):
    """Add the product a * b, entered at index start, into out[:out_len]
    (new zeros if None): out[start + k] gains the sum of a[i] b[j] over
    i + j = k.  Only nonzero pairs are multiplied."""
    if out is None:
        out = [0] * out_len
    width = max(out_len - start, 0)
    b_nonzero = [(j, bj) for j, bj in enumerate(b[:width]) if bj]
    for i, ai in enumerate(a[:width], start):
        if ai:
            room = out_len - i
            for j, bj in b_nonzero:
                if j >= room:
                    break
                out[i + j] += ai * bj
    return out


def reference_rows(h, s, vertex_order):
    """The rows u_n of tutte_series's recursion on lists of ints, one
    product of two entries at a time: the reference for tables beyond the
    oracle's reach."""
    top = len(h) - 1
    first = [-(-n // s) for n in range(vertex_order + 1)]
    u = [[]] * (vertex_order + 1)
    u[1] = h[1:]
    for n in range(2, vertex_order + 1):
        lo = first[n - 1]
        need = top + 1 - lo
        w = list(u[n - 1])
        for i in range(1, n // 2):
            conv(u[i], u[n - 1 - i], need, w, first[i] + first[n - 1 - i] - lo)
        w = [2 * v for v in w]
        if n % 2:
            conv(u[n // 2], u[n // 2], need, w, 2 * first[n // 2] - lo)
        u[n] = conv(h, w, need)[first[n] - lo :]
    return u


def assert_matches_reference(law, vertex_order, flux_order):
    """tutte_series's cells against u_n[M] a**n b**M from the reference rows,
    and its row_bits against the reference rows' largest ints."""
    table = tutte_series(law, vertex_order, flux_order)
    h, a, b, s = law.integer_masses(vertex_order + flux_order)
    u = reference_rows(h, s, vertex_order)
    rows = [[Fraction(0)] * (flux_order + 1) for _ in range(vertex_order + 1)]
    for n in range(1, vertex_order + 1):
        first = -(-n // s)  # row n starts at M = ceil(n / s)
        for p in range(flux_order + 1):
            if (n + p) % s == 0:
                m = (n + p) // s
                rows[n][p] = u[n][m - first] * a**n * b**m
    assert table.rows == tuple(map(tuple, rows))
    assert table.row_bits == tuple(max(row, default=0).bit_length() for row in u)
    return table


@st.composite
def exact_laws(draw):
    """A finite law with denominators up to 2**31 - 1 on the multiples of a
    stride 1-4, a geometric law whose b has a numerator above 1, or binary0k
    with k <= 7."""
    kind = draw(st.sampled_from(("finite", "geometric", "binary0k")))
    if kind == "finite":
        s = draw(st.integers(1, 4))
        support = [0] + draw(st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True))
        if s * max(support) < 2:
            support.append(2)  # all mass on {0, 1} is refused
        weights = [draw(st.integers(1, (2**31 - 1) // 5)) for _ in support]
        probs = [Fraction(0)] * (s * max(support) + 1)
        for k, w in zip(support, weights):
            probs[s * k] = Fraction(w, sum(weights))
        return make_finite_law(probs)
    if kind == "geometric":
        alpha = st.builds(Fraction, st.integers(2, 9), st.integers(1, 30))
        return geometric(draw(alpha.filter(lambda f: f.numerator > 1)))
    k = draw(st.integers(2, 7))
    return binary0k(Fraction(draw(st.integers(1, 9)), draw(st.integers(10, 40))), k)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(law=exact_laws(), vertex_order=st.integers(1, 45), flux_order=st.integers(0, 8))
def test_packed_rows_match_the_reference_recursion(law, vertex_order, flux_order):
    assert_matches_reference(law, vertex_order, flux_order)


def test_slots_widen_as_rows_grow():
    # every row multiplies by h[0] = 2**31 - 8, so each gains about 31 bits
    # and the slots, at most an eighth wider than the bound that set them,
    # widen seven times by n = 12
    d = 2**31 - 1
    law = make_finite_law([Fraction(d - 7, d), Fraction(3, d), Fraction(2, d), Fraction(2, d)])
    table = assert_matches_reference(law, 12, 3)
    assert table.row_bits[2] < 40 and table.row_bits[12] > 250


@pytest.mark.parametrize("d", [10**20, 7**30], ids=["10^20", "7^30"])
@pytest.mark.parametrize("heavy", [0, 2])
@pytest.mark.parametrize("vertex_order, flux_order", [(4, 1), (16, 2), (24, 4)])
def test_packed_rows_with_large_integer_masses(d, heavy, vertex_order, flux_order):
    # nearly all the mass sits at heavy, so h has one entry of about bits(d)
    # bits and two tiny ones.  At heavy = 0 an entry of a row has about
    # bits(d) bits more than the next one up, so each row's largest int is
    # its first.  At heavy = 2 the entries grow with M, by about bits(d) / 2
    # bits a step up to M = 2 n, so a row that ends below that has its
    # largest int last, where a pair product's mask cuts it off
    probs = [Fraction(1, d), Fraction(2, d), Fraction(2, d)]
    probs[heavy] = 0
    probs[heavy] = 1 - sum(probs)
    law = make_finite_law(probs)
    table = assert_matches_reference(law, vertex_order, flux_order)
    assert table.row_bits[vertex_order] > vertex_order * d.bit_length() // 3


@pytest.mark.parametrize("vertex_order, flux_order", [(9, 0), (12, 3)])
def test_packed_rows_whose_pair_products_reach_one_slot(vertex_order, flux_order):
    # stride 9: rows of one or two slots of ones, so a pair product's slot
    # bound rests on the first entry of each row alone
    assert_matches_reference(binary0k(Fraction(1, 20), 9), vertex_order, flux_order)


@pytest.mark.parametrize(
    "law, vertex_order, flux_order, last_nonempty",
    [
        (binary0k(Fraction(1, 14), 4), 6, 1, 4),  # rows 5 and 6 would start past M = 7 // 4
        (binary0k(Fraction(1, 14), 9), 5, 2, 0),  # stride past N + P: every row is empty
        (geometric(Fraction(2, 5)), 1, 0, 1),
    ],
)
def test_tables_with_empty_rows_or_one_cell(law, vertex_order, flux_order, last_nonempty):
    table = assert_matches_reference(law, vertex_order, flux_order)
    assert all(bits == 0 for bits in table.row_bits[last_nonempty + 1 :])
    assert all(c == 0 for row in table.rows[last_nonempty + 1 :] for c in row)
    assert len(table.rows) == vertex_order + 1


@pytest.mark.parametrize("orders", [(2.5, 3), (3, 2.5), ("3", 1), (3.0, 1)])
def test_tutte_series_refuses_non_integer_orders(orders):
    # these used to raise a raw TypeError
    with pytest.raises(OutOfDomain, match="not an integer"):
        tutte_series(binary0k(Fraction(1, 20), 2), *orders)


@pytest.mark.parametrize("orders", [(2.5, 1), (3, 0.5), ("3", 1), (3.0, 1)])
def test_brute_force_refuses_non_integer_orders(orders):
    # these used to raise a raw TypeError
    with pytest.raises(OutOfDomain, match="not an integer"):
        brute_force_table(binary0k(Fraction(1, 20), 2), *orders)


@pytest.mark.parametrize("alpha", [Fraction(2, 5), Fraction(7, 3)])
def test_geometric_recursion_with_numerator_above_one(alpha):
    # b = n/(n + d) has numerator n; alpha = 1/m alone would hide a lost factor of it
    law = geometric(alpha)
    assert first_mismatch(tutte_series(law, 5, 3), brute_force_table(law, 5, 3)) is None
