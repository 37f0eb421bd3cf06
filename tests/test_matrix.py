import gc
import json
import re
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from mvvand.errors import (
    BadIndexError,
    BadRingError,
    InexactDivisionError,
    ParseError,
    ShapeError,
)
from mvvand import matrix
from mvvand.matrix import (
    ExactMatrix,
    _det_bareiss,
    _det_berkowitz,
    _det_cofactor,
    _det_field,
    _expansion_plan,
    _minor_table,
    _symmetric_plan,
    dumps_doc,
    random_matrix,
    seeded_rng,
)
from mvvand.rings import Polynomial, PolynomialRing, PrimeField, ZZ
from mvvand.selftest import NUMERIC_GRID
from mvvand.vandermonde import (
    eta_matrix,
    monomial_basis,
    mu_matrix,
    mu_prime,
    symbolic_matrix,
    veronese_matrix,
)
from oracles import det_by, det_mod_p, exponent_vectors, identity, lemma_matrices, submatrix

XYZ = PolynomialRing(["x", "y", "z"])
XY = PolynomialRing(["x", "y"])


def M(rows, ring=ZZ):
    return ExactMatrix.from_rows(ring, rows)


class TestDeterminant:
    def test_identity(self):
        assert identity(ZZ, 3).det() == 1

    def test_two_by_two(self):
        assert M([[0, 1], [1, 1]]).det() == -1

    def test_non_square(self):
        with pytest.raises(ShapeError):
            M([[1, 0], [0, 1], [1, 1]]).det()

    def test_empty_matrix(self):
        assert ExactMatrix(ZZ, []).det() == 1

    @pytest.mark.parametrize(
        "kernel",
        [_det_cofactor, _det_berkowitz, _det_bareiss],
        ids=["cofactor", "berkowitz", "bareiss"],
    )
    def test_known_4x4(self, kernel):
        # det computed by cofactor expansion by hand-checkable oracle
        A = M([[2, 0, 1, 3], [1, 1, 0, 2], [0, 4, 1, 1], [3, 2, 1, 0]])
        assert det_by(kernel, A) == det_by(_det_cofactor, A)

    def test_agreement_int_5x5(self):
        # 200 seeded trials; cofactor expansion is the oracle
        for t in range(200):
            A = random_matrix(ZZ, 5, 5, seeded_rng("agree5", t))
            expected = det_by(_det_cofactor, A)
            assert det_by(_det_berkowitz, A) == expected
            assert det_by(_det_bareiss, A) == expected
            assert A.det() == expected

    @pytest.mark.parametrize("ring", [ZZ, PrimeField(1_000_003), XYZ])
    def test_agreement_small_orders(self, ring):
        for order in range(1, 7):
            for t in range(10):
                A = random_matrix(ring, order, order, seeded_rng("agree", order, t))
                expected = det_by(_det_cofactor, A)
                assert det_by(_det_berkowitz, A) == expected
                assert det_by(_det_bareiss, A) == expected

    def test_row_swap_negates(self):
        for t in range(25):
            A = random_matrix(ZZ, 4, 4, seeded_rng("swap", t))
            rows = [list(r) for r in A.rows_raw()]
            rows[0], rows[2] = rows[2], rows[0]
            assert M(rows).det() == -A.det()

    def test_repeated_row_is_zero(self):
        for t in range(25):
            A = random_matrix(ZZ, 4, 4, seeded_rng("repeat", t))
            rows = [list(r) for r in A.rows_raw()]
            rows[3] = rows[1]
            assert M(rows).det() == 0

    def test_zero_pivot_column_short_circuit(self):
        A = M([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
        assert det_by(_det_bareiss, A) == 0


X1 = PolynomialRing(["x"])
TWO_STEP_RINGS = [ZZ, PrimeField(1_000_003), X1]


def _block_triangular(ring, n, k, rng, shape_c):
    """Order-n rows [[A, B], [0, C]] with A a nonsingular k x k block, so the
    block left after k columns (k even) is +-det(A) * C, pivots never come
    from C's rows before then, and ``shape_c``, which rewrites C's rows in
    place, sets the case the stage after k meets."""
    def row(width):
        return [ring.random_entry(rng) for _ in range(width)]

    while True:
        A = [row(k) for _ in range(k)]
        if not k or _det_cofactor(ring, A):
            break
    C = [row(n - k) for _ in range(n - k)]
    if not C[0][0]:
        C[0][0] = ring.one
    shape_c(ring, C, rng)
    return [a + row(n - k) for a in A] + [[ring.zero] * k + c for c in C]


def _second_pivot_swap(ring, C, rng):
    # rows 0 and 1 proportional in the block's first two columns, and row 2
    # with a nonzero 2 x 2 determinant against row 0
    lam = ring.random_entry(rng) or ring.one
    C[1][0], C[1][1] = ring.reduce(lam * C[0][0]), ring.reduce(lam * C[0][1])
    C[2][0], C[2][1] = C[0][0], ring.reduce(C[0][1] + ring.one)


def _rank_one_columns(ring, C, rng):
    lam = ring.random_entry(rng) or ring.one
    for r in C:
        r[1] = ring.reduce(lam * r[0])


def _zero_second_column(ring, C, rng):
    for r in C:
        r[1] = ring.zero


class _OffByOneDivisor:
    """A ring whose exact_div divides by p + 1 for every divisor p other
    than one: the divisors from the second stage on are corrupted."""

    def __init__(self, ring):
        self.ring = ring

    def __getattr__(self, name):
        return getattr(self.ring, name)

    def exact_div(self, a, b):
        one = self.ring.one
        return self.ring.exact_div(a, b if b == one else b + one)


class TestTwoStepBareiss:
    # each branch of the two-step kernel, at stage 0 and at its last stage,
    # against Berkowitz and cofactor expansion; C of 2 or 3 rows at the last
    # stage reaches the 2 x 2 and the 1 x 1 end
    @pytest.mark.parametrize("ring", TWO_STEP_RINGS, ids=["int", "mod_p", "poly"])
    @pytest.mark.parametrize(
        "shape_c,min_rows,zero",
        [
            (_second_pivot_swap, 3, False),
            (_rank_one_columns, 2, True),
            (_zero_second_column, 2, True),
        ],
        ids=["second-pivot-swap", "rank-one-columns", "zero-second-column"],
    )
    def test_branch_matches_oracles(self, ring, shape_c, min_rows, zero):
        for n in range(min_rows, 13):
            last = (n - min_rows) // 2 * 2
            for k in sorted({0, last}):
                rng = seeded_rng("two-step", shape_c.__name__, ring.describe(), n, k)
                A = ExactMatrix(ring, _block_triangular(ring, n, k, rng, shape_c))
                expected = det_by(_det_cofactor, A)
                assert det_by(_det_berkowitz, A) == expected
                assert det_by(_det_bareiss, A) == expected
                assert (expected == ring.zero) == zero

    @pytest.mark.parametrize("ring", TWO_STEP_RINGS, ids=["int", "mod_p", "poly"])
    def test_random_orders_match_oracles(self, ring):
        for n in range(1, 13):
            for t in range(3):
                A = random_matrix(ring, n, n, seeded_rng("two-step-random", n, t))
                expected = det_by(_det_cofactor, A)
                assert det_by(_det_berkowitz, A) == expected
                assert det_by(_det_bareiss, A) == expected

    @pytest.mark.parametrize("ring", [ZZ, X1], ids=["int", "poly"])
    def test_corrupted_divisor_is_inexact(self, ring):
        # orders 4 and up divide by the first stage's q; p + 1 leaves a
        # remainder, which exact_div reports instead of truncating
        for n in range(4, 13):
            rows = random_matrix(ring, n, n, seeded_rng("corrupt", n)).rows_raw()
            assert _det_bareiss(ring, rows) == _det_berkowitz(ring, rows)
            with pytest.raises(InexactDivisionError):
                _det_bareiss(_OffByOneDivisor(ring), rows)

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n, d in NUMERIC_GRID if comb(n + d, n) in (10, 20, 35)]
    )
    def test_grid_orders_match_field_elimination_mod_primes(self, n, d):
        # the Veronese and eta determinants over Z of the numeric grid, at
        # orders 10, 20 and 35, against packed elimination on the reduced rows
        for t in range(2):
            X = random_matrix(ZZ, n + d, n + 1, seeded_rng("hdv", "int", n, d, t))
            for A in (veronese_matrix(mu_matrix(X), d), eta_matrix(X)):
                value = A.det()
                for p in (1_000_003, 998_244_353, 2**61 - 1):
                    F = PrimeField(p)
                    rows = [[v % p for v in r] for r in A.rows_raw()]
                    assert value % p == _det_field(F, rows)


F7 = PrimeField(7)
FP = PrimeField(1_000_003)
KERNELS = ("_det_field", "_det_bareiss", "_det_cofactor", "_det_berkowitz")


class TestDeterminantRule:
    @pytest.mark.parametrize(
        "ring,kernel",
        [(FP, "_det_field"), (ZZ, "_det_bareiss"), (XYZ, "_det_cofactor")],
        ids=["mod_p", "int", "poly"],
    )
    def test_ring_kind_picks_the_kernel(self, ring, kernel, monkeypatch):
        # det() looks its kernel up by module name at each call, so these
        # wrappers see every call; Berkowitz is an oracle only
        calls = []
        for name in KERNELS:
            def counting(r, rows, name=name, fn=getattr(matrix, name)):
                calls.append(name)
                return fn(r, rows)

            monkeypatch.setattr(matrix, name, counting)
        for order in range(1, 7):
            A = random_matrix(ring, order, order, seeded_rng("rule", order))
            assert A.det() == det_by(_det_berkowitz, A)
        assert ExactMatrix(ring, []).det() == ring.one
        assert calls == [kernel] * 6

    @pytest.mark.parametrize(
        "kernel",
        [_det_field, _det_bareiss, _det_cofactor, _det_berkowitz],
        ids=["field", "bareiss", "cofactor", "berkowitz"],
    )
    def test_kernels_leave_their_rows_unchanged(self, kernel):
        # a zero (0, 0) entry makes the eliminations swap rows
        rows = [[0, 2, 3], [4, 5, 6], [7, 8, 10]]
        before = [list(r) for r in rows]
        assert kernel(FP, rows) == FP.reduce(-5)
        assert rows == before


@st.composite
def square_mod_p(draw):
    ring = draw(st.sampled_from([PrimeField(2), F7, FP, PrimeField(2**61 - 1)]))
    n = draw(st.integers(0, 8))
    # small values besides uniform ones make zero pivots and singular
    # matrices common in the large field too; from_rows reduces 2 in Z/2
    entry = st.integers(0, 2) | st.integers(0, ring.modulus - 1)
    row = st.lists(entry, min_size=n, max_size=n)
    return ExactMatrix.from_rows(ring, draw(st.lists(row, min_size=n, max_size=n)))


class TestFieldDeterminant:
    @settings(max_examples=200, deadline=None)
    @given(square_mod_p())
    def test_auto_matches_oracles(self, A):
        expected = det_by(_det_cofactor, A)
        assert A.det() == expected
        assert det_by(_det_berkowitz, A) == expected
        assert det_by(_det_bareiss, A) == expected

    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([[1, 2, 3], [4, 5, 6], [1, 2, 3]], 0),  # duplicated row
            ([[1, 0, 3], [4, 0, 6], [7, 0, 9]], 0),  # zero column
            ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),  # zero first column
            ([[0, 2, 3], [4, 5, 6], [7, 8, 10]], -5),  # zero (0,0): row swap
            ([[0, 1], [1, 0]], -1),
        ],
    )
    @pytest.mark.parametrize("ring", [F7, FP])
    def test_explicit_cases(self, ring, rows, expected):
        A = M(rows, ring)
        assert A.det() == ring.coerce(expected)
        assert det_by(_det_cofactor, A) == ring.coerce(expected)

    @pytest.mark.parametrize("p", [2, 3, 1_000_003, 2**61 - 1])
    @pytest.mark.parametrize("n", [10, 20, 35])
    def test_packed_orders_match_integer_bareiss(self, n, p):
        # slots fill towards n*p^2 at these orders: a slot narrower than
        # bitlen(n*p^2) carries into its neighbour and gives wrong values
        F, rng = PrimeField(p), seeded_rng("packed", n, p)

        def rows(values):
            return [[values() for _ in range(n)] for _ in range(n)]

        cases = [rows(lambda: rng.choice([0, 1, p - 1])) for _ in range(3)]
        cases += [rows(lambda: rng.randrange(p)) for _ in range(3)]
        repeated = rows(lambda: rng.randrange(p))
        repeated[n - 1] = repeated[n // 2]
        # column k zero in rows 0..k: a zero pivot at step k (30 at order
        # 35) that a row from below replaces; zero everywhere, an early exit
        k = n - 5
        swap = rows(lambda: rng.randrange(p))
        for r in swap[: k + 1]:
            r[k] = 0
        zero_column = rows(lambda: rng.randrange(p))
        for r in zero_column:
            r[k] = 0
        cases += [repeated, swap, zero_column]
        for c in cases:
            A = ExactMatrix(F, c)
            assert A.det() == det_mod_p(A)
        assert det_mod_p(ExactMatrix(F, repeated)) == 0
        assert det_mod_p(ExactMatrix(F, zero_column)) == 0
        if p > 3:
            assert det_mod_p(ExactMatrix(F, swap)) != 0

    def test_raw_constructor_rejects_unreduced_entries(self):
        # an entry outside [0, p) once gave the cofactor kernel 2 and det() 0
        for rows in ([[2]], [[1, 0], [0, -1]]):
            with pytest.raises(BadRingError):
                ExactMatrix(PrimeField(2), rows)
        assert ExactMatrix.from_rows(PrimeField(2), [[2]]).det() == 0
        assert ExactMatrix(ZZ, [[2, -1]]).ncols == 2
        assert ExactMatrix(PrimeField(2), [[]]).nrows == 1

    def test_raw_constructor_rejects_foreign_arity(self):
        # y of Z[x, y] was written as "x" under Z[x], and an int entry ended
        # in AttributeError when the matrix was written
        x_ring = PolynomialRing(["x"])
        for entry in (Polynomial.variable(2, 1), 1, x_ring.one.terms):
            with pytest.raises(BadRingError):
                ExactMatrix(x_ring, [[x_ring.one], [entry]])
        assert ExactMatrix(x_ring, [[Polynomial.variable(1, 0)]]).to_doc()["rows"] == [["x"]]
        assert ExactMatrix(x_ring, [[]]).nrows == 1


@st.composite
def any_ring_matrix(draw):
    """Up to 7x5 over Z, Z/7, Z/1000003 or Z[x, y], sometimes with a
    duplicated row."""
    ring = draw(st.sampled_from([ZZ, F7, FP, XY]))
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 5))
    if ring is XY:
        linear = ((1, 0), (0, 1), (0, 0))
        coeffs = st.lists(st.integers(-2, 2), min_size=3, max_size=3)
        entry = coeffs.map(lambda cs: Polynomial.from_terms(2, zip(linear, cs)))
    elif ring is ZZ:
        entry = st.integers(-3, 3)
    else:
        entry = st.integers(0, 2) | st.integers(0, ring.modulus - 1)
    row = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        rows[j] = rows[i]
    return ExactMatrix(ring, rows)


class TestMinors:
    @settings(max_examples=150, deadline=None)
    @given(any_ring_matrix())
    @example(ExactMatrix(ZZ, []))
    @example(M([[5]], F7))
    def test_table_matches_berkowitz(self, A):
        minors = _minor_table(A.ring, A.rows_raw())
        # the table's row tuples are nonempty; the order-0 minor is the public one's
        assert A.minor((), ()) == A.ring.one
        for k in range(1, min(A.nrows, A.ncols) + 1):
            for rows in combinations(range(A.nrows), k):
                expected = [
                    det_by(_det_berkowitz, submatrix(A, rows, cols))
                    for cols in combinations(range(A.ncols), k)
                ]
                assert list(minors(rows)) == expected
        if A.is_square:
            # the cofactor kernel is the table's expansion on the full matrix
            assert det_by(_det_cofactor, A) == det_by(_det_berkowitz, A)

    def test_table_is_freed_without_the_cycle_collector(self):
        # a memo caught in a reference cycle lingers until a full collection
        A = random_matrix(FP, 6, 3, seeded_rng("cycle"))
        gc.collect()
        gc.disable()
        try:
            minors = _minor_table(A.ring, A.rows_raw())
            for rows in combinations(range(6), 3):
                minors(rows)
            del minors
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("k", range(2, 7))
    def test_plan_signs_and_sub_indices_match_permutation_parity(self, k):
        for j in range(1, k):
            below = list(combinations(range(k), j))
            plan = _expansion_plan(k, j)
            assert len(plan) == comb(k, j + 1)
            for T, (first, plus, minus) in zip(combinations(range(k), j + 1), plan):
                signed = [(t, i, 1) for t, i in (first, *plus)] + [(t, i, -1) for t, i in minus]
                assert sorted(t for t, _, _ in signed) == list(T)
                for t, i, sign in signed:
                    assert below[i] == tuple(c for c in T if c != t)
                    # rows 0..j-1 take the other columns in order, the last row t
                    perm = [T.index(c) for c in below[i]] + [T.index(t)]
                    inversions = sum(a > b for a, b in combinations(perm, 2))
                    assert sign == (-1) ** inversions

    @pytest.mark.parametrize("k", range(1, 6))
    def test_symmetric_plan_terms_are_the_monomials_divided_by_each_variable(self, k):
        for j in range(6):
            below, above = exponent_vectors(k, j), exponent_vectors(k, j + 1)
            # the outputs come in monomial_basis order, which has k >= 2 variables
            if k >= 2:
                assert above == monomial_basis(k - 1, j + 1)
            plan = _symmetric_plan(k, j)
            assert len(plan) == len(above)
            for T, (first, plus, minus) in zip(above, plan):
                # one term per positive exponent, whatever its size, and all add
                assert minus == ()
                assert [t for t, _ in (first, *plus)] == [t for t in range(k) if T[t]]
                for t, i in (first, *plus):
                    assert below[i] == tuple(e - (c == t) for c, e in enumerate(T))

    def test_each_prefix_vector_is_built_once(self, monkeypatch):
        # on 3 columns an order-2 vector takes 3 x 2 products and an order-3
        # one 3; the order-1 vector is the row itself, with no product
        calls = 0
        mul = Polynomial.__mul__

        def counted(a, b):
            nonlocal calls
            calls += 1
            return mul(a, b)

        # the formal mu' of a 6 x 3 matrix has too many terms to expand, so
        # mu_prime runs on one over Z[t]
        X = symbolic_matrix(6, 3)
        Y = random_matrix(PolynomialRing(["t"]), 6, 3, seeded_rng("prefix-vectors"))
        monkeypatch.setattr(Polynomial, "__mul__", counted)
        mu_matrix(X)
        assert calls == comb(6, 2) * 6
        calls = 0
        mu_prime(Y)
        # the 10 row pairs (a, b) with b < 5 are prefixes of the 20 triples;
        # 20 more products multiply the triples' minors together
        assert calls == 10 * 6 + 20 * 3 + 20

    def test_full_minor_is_det(self):
        A = random_matrix(ZZ, 4, 4, seeded_rng("full"))
        assert A.minor(range(4), range(4)) == A.det()

    def test_identity_minor(self):
        assert identity(ZZ, 3).minor([0, 1], [0, 1]) == 1

    def test_hand_minor(self):
        assert M([[1, 0], [0, 1], [1, 1]]).minor([1, 2], [0, 1]) == -1

    def test_bad_selections(self):
        A = identity(ZZ, 3)
        for rows, cols in (
            ([1, 0], [0, 1]),  # not increasing
            ([0, 1], [0, 3]),  # column out of range
            ([0, 3], [0, 1]),  # row out of range
            ([-1, 0], [0, 1]),  # negative: indexing would read the last row
            ([0, 1], [0]),  # length mismatch
        ):
            with pytest.raises(BadIndexError):
                A.minor(rows, cols)


class TestColumnOps:
    """The column operations of the column lemma, read from the two matrices
    it builds: dst += alpha * src, and src *= alpha."""

    def test_add_scaled_column(self):
        _, added, _ = lemma_matrices(identity(ZZ, 2), 1, 0, 1)
        assert added == M([[1, 1], [0, 1]])

    def test_scale_column(self):
        _, _, scaled = lemma_matrices(M([[1, 0], [0, 1], [1, 1]]), 2, 0, 1)
        assert scaled == M([[2, 0], [0, 1], [2, 1]])

    def test_original_unchanged(self):
        A = identity(ZZ, 2)
        lemma_matrices(A, 5, 0, 1)
        assert A == identity(ZZ, 2)

    def test_det_invariance_under_add_scaled(self):
        # a square matrix is the lemma's shape at d = 1
        for t in range(25):
            A = random_matrix(ZZ, 4, 4, seeded_rng("addcol", t))
            _, added, _ = lemma_matrices(A, 7, 1, 3)
            assert added.det() == A.det()


class TestFileFormat:
    @pytest.mark.parametrize(
        "ring,rows",
        [
            (ZZ, [[1, -2], [0, 7]]),
            (PrimeField(17), [[3, 5], [16, 0]]),
            (XYZ, [["x + 2*y", "z^2 - 1"], ["0", "x*y*z"]]),
        ],
    )
    def test_roundtrip(self, tmp_path, ring, rows):
        A = ExactMatrix.from_rows(ring, rows)
        path = tmp_path / "m.json"
        path.write_text(dumps_doc(A.to_doc()))
        B = ExactMatrix.load(path)
        assert A == B
        # canonical serialization is bit-exact under a reload cycle
        assert dumps_doc(B.to_doc()) == path.read_text()

    def test_doc_fields(self):
        doc = ExactMatrix.from_rows(PrimeField(17), [[5]]).to_doc()
        assert doc == {"ring": "mod_p", "modulus": "17", "rows": [["5"]]}

    @pytest.mark.parametrize(
        "entry,shown",
        [(None, "None"), (True, "True"), (False, "False"), (1.0, "1.0"), ([1], "[1]"), ({}, "{}")],
    )
    def test_entry_neither_text_nor_integer_refused(self, entry, shown):
        # str() once read null as the text "None", a variable of this ring
        doc = {"ring": "poly", "variables": ["None", "True", "False"], "rows": [[entry, 1]]}
        message = f"neither a string nor an integer: {re.escape(shown)}$"
        with pytest.raises(ParseError, match=message):
            ExactMatrix.from_doc(doc)

    def test_dumps_doc_deterministic(self):
        doc = {"b": 1, "a": [2, 3]}
        assert dumps_doc(doc) == dumps_doc(json.loads(dumps_doc(doc)))
