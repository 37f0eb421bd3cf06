import dataclasses
import inspect
from itertools import combinations, permutations, product
from math import comb, prod

import pytest

from mvvand import vandermonde
from mvvand.errors import BadIndexError, ExponentOverflowError, ShapeError
from mvvand.matrix import ExactMatrix, _det_berkowitz, _det_cofactor, random_matrix, seeded_rng
from mvvand.rings import Polynomial, PolynomialRing, PrimeField, ZZ
from mvvand.selftest import dual_identity
from mvvand.vandermonde import (
    _pairing_sign,
    _report,
    demo_naive_failure,
    eta_matrix,
    monomial_basis,
    mu_matrix,
    mu_prime,
    pairing_matrix,
    sym_power_matrix,
    symbolic_matrix,
    verify_column_lemma,
    verify_dual,
    verify_hdv,
    verify_pairing,
    verify_sym_power,
    veronese_matrix,
)

from oracles import (
    det_by,
    elementary,
    eta_matrix_by_tuples,
    exponent_vectors,
    identity,
    lemma_matrices,
    matmul,
    minor_product_lex,
    submatrix,
    sym_power_by_tuples,
)

WORKED = ExactMatrix.from_rows(ZZ, [[1, 0], [0, 1], [1, 1]])
XY = PolynomialRing(["x", "y"])


class TestMonomialBasis:
    def test_projective_line_degree_two(self):
        assert monomial_basis(1, 2) == ((2, 0), (1, 1), (0, 2))

    def test_linear(self):
        assert monomial_basis(2, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 5) for d in range(5)])
    def test_matches_sort_oracle(self, n, d):
        brute = exponent_vectors(n + 1, d)
        assert monomial_basis(n, d) == brute
        # S^d of diag(primes) is diagonal with entry prod p_k^e_k at basis
        # monomial e, which names e uniquely
        primes = (2, 3, 5, 7, 11)[: n + 1]
        u = ExactMatrix.from_rows(
            ZZ, [[p if i == j else 0 for j, p in enumerate(primes)] for i in range(n + 1)]
        )
        S = sym_power_matrix(u, d)
        expect = [prod(p**k for p, k in zip(primes, e)) for e in brute]
        assert [S.rows_raw()[i][i] for i in range(S.nrows)] == expect

    def test_count(self):
        for n in range(1, 5):
            for d in range(0, 5):
                assert len(monomial_basis(n, d)) == comb(n + d, n)

    def test_rejects_dimension_zero(self):
        with pytest.raises(ShapeError):
            monomial_basis(0, 2)


class TestVeronese:
    def test_symbolic_row(self):
        ring = PolynomialRing(["x", "y"])
        X = ExactMatrix.from_rows(ring, [["x", "y"]])
        out = veronese_matrix(X, 2)
        assert [ring.format(v) for v in out.rows_raw()[0]] == ["x^2", "x*y", "y^2"]

    def test_basis_row_maps_to_unit(self):
        X = ExactMatrix.from_rows(ZZ, [[1, 0, 0]])
        assert veronese_matrix(X, 3).rows_raw()[0] == identity(ZZ, 10).rows_raw()[0]

    def test_worked_rows(self):
        out = veronese_matrix(ExactMatrix.from_rows(ZZ, [[1, 1], [1, 0], [0, 1]]), 2)
        assert out == ExactMatrix.from_rows(ZZ, [[1, 1, 1], [1, 0, 0], [0, 0, 1]])

    def test_rejects_single_column(self):
        with pytest.raises(ShapeError):
            veronese_matrix(ExactMatrix.from_rows(ZZ, [[1], [2]]), 2)

    def test_rejects_negative_degree(self):
        # the product rule would read d = -1 as the empty product of degree 0
        with pytest.raises(ShapeError):
            veronese_matrix(WORKED, -1)

    @pytest.mark.parametrize(
        "ring", [ZZ, PrimeField(2), PrimeField(1_000_003), PrimeField(2**61 - 1), XY], ids=str
    )
    @pytest.mark.parametrize("d", range(5))
    def test_entries_are_basis_monomials(self, ring, d):
        # each entry against prod(x**e) over its exponent vector, reduced once
        X = random_matrix(ring, 4, 3, seeded_rng("veronese-brute", d))
        basis = monomial_basis(2, d)
        assert basis == exponent_vectors(3, d)
        expect = [
            [ring.reduce(prod((x**e for x, e in zip(row, exps)), start=ring.one)) for exps in basis]
            for row in X.rows_raw()
        ]
        assert veronese_matrix(X, d) == ExactMatrix(ring, expect)


def _inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


def _lex_on_omitted(m, k):
    """k-subsets of range(m), sorted by the increasing tuple of rows omitted."""
    return sorted(
        combinations(range(m), k),
        key=lambda taken: tuple(i for i in range(m) if i not in taken),
    )


ORDER_CASES = [
    (ring, m, ncols) for ring in (ZZ, PrimeField(7)) for m, ncols in ((5, 3), (6, 4))
]


class TestMinorMatrix:
    def test_identity(self):
        assert mu_matrix(identity(ZZ, 3)) == identity(ZZ, 3)

    def test_worked_example(self):
        assert mu_matrix(WORKED) == ExactMatrix.from_rows(ZZ, [[1, 1], [1, 0], [0, 1]])

    def test_dimension_one_reverses_and_swaps(self):
        # rows (X_i, Y_i) produce rows (Y_i, X_i) in reverse row order
        d = 2
        names = [v for i in range(d + 1) for v in (f"X{i}", f"Y{i}")]
        ring = PolynomialRing(names)
        X = ExactMatrix.from_rows(
            ring, [[f"X{i}", f"Y{i}"] for i in range(d + 1)]
        )
        expect = ExactMatrix.from_rows(
            ring, [[f"Y{i}", f"X{i}"] for i in reversed(range(d + 1))]
        )
        assert mu_matrix(X) == expect

    def test_shape(self):
        X = random_matrix(ZZ, 5, 3, seeded_rng("mushape"))
        out = mu_matrix(X)
        assert (out.nrows, out.ncols) == (comb(5, 2), 3)

    @pytest.mark.parametrize("ring,m,ncols", ORDER_CASES)
    def test_entries_match_brute_force_in_lex_on_omitted_order(self, ring, m, ncols):
        X = random_matrix(ring, m, ncols, seeded_rng("muorder", m))
        cols = range(ncols)
        expect = [
            [det_by(_det_berkowitz, submatrix(X, taken, [c for c in cols if c != j]))
             for j in cols]
            for taken in _lex_on_omitted(m, ncols - 1)
        ]
        assert mu_matrix(X) == ExactMatrix(ring, expect)

    def test_row_permutation_acts_on_omitted_sets(self):
        X = random_matrix(ZZ, 4, 3, seeded_rng("muperm"))
        mu = mu_matrix(X)
        subsets = _lex_on_omitted(4, 2)
        for perm in permutations(range(4)):
            Xp = ExactMatrix(ZZ, [X.rows_raw()[perm[i]] for i in range(4)])
            mup = mu_matrix(Xp)
            for r, taken in enumerate(subsets):
                image = [perm[i] for i in taken]
                sign = -1 if _inversions(image) % 2 else 1
                target = subsets.index(tuple(sorted(image)))
                assert list(mup.rows_raw()[r]) == [
                    sign * v for v in mu.rows_raw()[target]
                ]


class TestMinorProduct:
    def test_worked_example(self):
        assert mu_prime(WORKED) == -1

    def test_repeated_row_vanishes(self):
        X = ExactMatrix.from_rows(ZZ, [[1, 2], [3, 4], [1, 2]])
        assert mu_prime(X) == 0

    def test_symbolic_product_formula(self):
        names = [v for i in range(3) for v in (f"X{i}", f"Y{i}")]
        ring = PolynomialRing(names)
        X = ExactMatrix.from_rows(ring, [[f"X{i}", f"Y{i}"] for i in range(3)])
        expect = ring.one
        for i, j in combinations(range(3), 2):
            expect = expect * ring.parse(f"X{i}*Y{j} - X{j}*Y{i}")
        assert mu_prime(X) == expect

    def test_empty_product_is_one(self):
        X = random_matrix(ZZ, 2, 3, seeded_rng("muprime0"))
        assert mu_prime(X) == 1

    def test_one_column_is_refused(self):
        # n = 0: the product of the 1x1 minors would pass for mu'
        with pytest.raises(ShapeError):
            mu_prime(ExactMatrix.from_rows(ZZ, [[2], [3]]))

    def test_fewer_rows_than_n_is_empty_product(self):
        # m < n used to be a shape error
        X = random_matrix(ZZ, 1, 3, seeded_rng("muprime1"))
        assert mu_prime(X) == 1

    @pytest.mark.parametrize(
        "ring", [ZZ, PrimeField(7), PolynomialRing(["x", "y", "z"])], ids=["ZZ", "F7", "ZZ[x,y,z]"]
    )
    @pytest.mark.parametrize("m,ncols", [(2, 2), (6, 2), (5, 3), (5, 4)])
    def test_matches_lex_order_product(self, ring, m, ncols):
        X = random_matrix(ring, m, ncols, seeded_rng("muprime-lex", ring.describe(), m, ncols))
        assert mu_prime(X) == minor_product_lex(X)

    def test_colex_order_term_products(self, monkeypatch):
        # every partial product is mu' of the leading rows; multiplying the
        # 21 minors of formal (1,6) in lex order makes 74,452 term products
        products = 0
        mul = Polynomial.__mul__

        def counted(a, b):
            nonlocal products
            products += len(a.terms) * len(b.terms)
            return mul(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        mu_prime(symbolic_matrix(7, 2))
        assert products == 49068


class TestEta:
    def test_worked_example(self):
        assert eta_matrix(WORKED) == ExactMatrix.from_rows(
            ZZ, [[0, 1, 0], [1, 1, 0], [0, 1, 1]]
        )

    def test_degree_one_is_identity_map(self):
        X = random_matrix(ZZ, 3, 3, seeded_rng("eta1"))
        assert eta_matrix(X) == X

    def test_worked_determinant(self):
        assert eta_matrix(WORKED).det() == -1

    @pytest.mark.parametrize("ring,m,ncols", ORDER_CASES)
    def test_entries_match_brute_force_in_lex_on_taken_order(self, ring, m, ncols):
        X = random_matrix(ring, m, ncols, seeded_rng("etaorder", m))
        d = m - ncols + 1
        expect = []
        for taken in sorted(combinations(range(m), d)):
            # expand the product of the d linear forms one term at a time
            coeffs = {}
            for choice in product(range(ncols), repeat=d):
                term = ring.one
                for i, k in zip(taken, choice):
                    term = ring.reduce(term * X.rows_raw()[i][k])
                exps = tuple(choice.count(k) for k in range(ncols))
                coeffs[exps] = ring.reduce(coeffs.get(exps, ring.zero) + term)
            expect.append([coeffs[e] for e in monomial_basis(ncols - 1, d)])
        assert eta_matrix(X) == ExactMatrix(ring, expect)

    def test_shape_check(self):
        # a 1x3 matrix has n = 2 and so d = 1 - 2 < 0
        thin = ExactMatrix.from_rows(ZZ, [[1, 2, 3]])
        with pytest.raises(ShapeError):
            eta_matrix(thin)
        with pytest.raises(ShapeError):
            pairing_matrix(thin)


class TestSymPower:
    def test_diagonal(self):
        u = ExactMatrix.from_rows(ZZ, [[2, 0], [0, 3]])
        S = sym_power_matrix(u, 2)
        assert S == ExactMatrix.from_rows(ZZ, [[4, 0, 0], [0, 6, 0], [0, 0, 9]])
        assert S.det() == 216

    def test_identity(self):
        for m, d in ((2, 3), (3, 2), (4, 1)):
            assert sym_power_matrix(identity(ZZ, m), d) == identity(ZZ, comb(m + d - 1, d))

    def test_symbolic_two_by_two(self):
        ring = PolynomialRing(["a", "b", "c", "d"])
        u = ExactMatrix.from_rows(ring, [["a", "b"], ["c", "d"]])
        det = det_by(_det_cofactor, sym_power_matrix(u, 2))
        assert det == ring.pow(ring.parse("a*d - b*c"), 3)

    def test_functorial(self):
        for t in range(10):
            u = random_matrix(ZZ, 3, 3, seeded_rng("symfun-u", t))
            v = random_matrix(ZZ, 3, 3, seeded_rng("symfun-v", t))
            assert sym_power_matrix(matmul(u, v), 2) == matmul(
                sym_power_matrix(u, 2), sym_power_matrix(v, 2)
            )

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            sym_power_matrix(ExactMatrix.from_rows(ZZ, [[1, 2, 3], [4, 5, 6]]), 2)

    def test_packed_degree_limit_is_checked_first(self):
        # the entry a^k of u has the entry a^(d*k) in S^d(u); 65535 is the
        # largest total degree a packed monomial holds
        ring = PolynomialRing(["a", "b"])
        top = ExactMatrix.from_rows(ring, [["a^21845"]])
        assert sym_power_matrix(top, 3) == ExactMatrix.from_rows(ring, [["a^65535"]])
        past = ExactMatrix.from_rows(ring, [["1", "b"], ["0", "a^32768"]])
        with pytest.raises(ExponentOverflowError, match="d=2 of entries of degree 32768"):
            sym_power_matrix(past, 2)



def _linear_forms(ring, rows):
    """A matrix whose entries are ints, or over Z[x, y] coefficient lists of
    a + b*x + c*y."""
    if ring is XY:
        linear = ((0, 0), (1, 0), (0, 1))
        rows = [[Polynomial.from_terms(2, zip(linear, cs)) for cs in r] for r in rows]
        return ExactMatrix(ring, rows)
    return ExactMatrix.from_rows(ring, rows)


class TestLinearFormExpansion:
    """eta_matrix and sym_power_matrix against the tuple-keyed expansion,
    one ring operation at a time."""

    RINGS = [ZZ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(1_000_003),
             PrimeField(2**61 - 1), XY]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize(
        "n,d", [(1, 0), (2, 0), (1, 1), (1, 3), (2, 2), (3, 1), (2, 3), (1, 4), (2, 4)]
    )
    def test_eta_matches_oracle(self, ring, n, d):
        X = random_matrix(ring, n + d, n + 1, seeded_rng("etaoracle", n, d))
        assert eta_matrix(X) == eta_matrix_by_tuples(X, monomial_basis(n, d))

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize(
        "m,d", [(1, 0), (1, 3), (2, 0), (2, 3), (3, 2), (4, 1), (2, 4), (3, 4)]
    )
    def test_sym_power_matches_oracle(self, ring, m, d):
        u = random_matrix(ring, m, m, seeded_rng("symoracle", m, d))
        assert sym_power_matrix(u, d) == sym_power_by_tuples(u, exponent_vectors(m, d))

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_zero_row_and_one_variable_forms(self, ring):
        # row 1 is zero; rows 0 and 3 are forms in one variable
        if ring is XY:
            rows = [[[0, 0, 0], [2, 1, 0], [0, 0, 0]], [[0, 0, 0]] * 3,
                    [[1, 0, 1], [3, 0, 0], [0, 1, 1]], [[0, 0, 0], [0, 0, 0], [-1, 0, 2]]]
        else:
            rows = [[0, 5, 0], [0, 0, 0], [4, 6, 1], [0, 0, -1]]
        for d in range(5):
            # rows 1 and 5 are zero
            X = _linear_forms(ring, (rows * 2)[:2 + d])
            expect = eta_matrix_by_tuples(X, monomial_basis(2, d))
            assert eta_matrix(X) == expect
            # the row choices that take a zero row give zero rows
            zero_rows = [
                r for r, taken in enumerate(combinations(range(2 + d), d)) if {1, 5} & set(taken)
            ]
            assert all(v == ring.zero for r in zero_rows for v in expect.rows_raw()[r])
        u = _linear_forms(ring, rows[:3])
        for d in range(5):
            assert sym_power_matrix(u, d) == sym_power_by_tuples(u, exponent_vectors(3, d))

    def test_each_prefix_product_is_built_once(self, monkeypatch):
        calls = 0
        mul = Polynomial.__mul__

        def counted(a, b):
            nonlocal calls
            calls += 1
            return mul(a, b)

        def step(k, L):
            # a product of L forms in k variables is one step on its prefix's
            # product of L - 1; it takes one product per pair (T, t) with
            # T[t] > 0, as many as the monomials of degree L - 1 times k
            return k * comb(k + L - 2, L - 1)

        n, d = 2, 3
        X, u = symbolic_matrix(n + d, n + 1), symbolic_matrix(3, 3)
        monkeypatch.setattr(Polynomial, "__mul__", counted)
        eta_matrix(X)
        # the L-prefixes of the d-subsets of range(n + d) are the L-subsets of
        # range(n + L); a product of one form is the form, with no product
        assert calls == sum(comb(n + L, L) * step(n + 1, L) for L in range(2, d + 1))
        calls = 0
        sym_power_matrix(u, 3)
        # with repetition every L-multiset of the 3 columns is a prefix
        assert calls == sum(comb(3 + L - 1, L) * step(3, L) for L in range(2, 4))


PAIRING_CASES = [(ring, n, d) for ring in (ZZ, PrimeField(7)) for n, d in ((1, 2), (2, 2), (2, 3))]


class TestPairing:
    def test_hand_diagonal(self):
        P = pairing_matrix(WORKED)
        assert P == ExactMatrix.from_rows(ZZ, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("ring,n,d", PAIRING_CASES)
    def test_entries_match_definition(self, ring, n, d):
        X = random_matrix(ring, n + d, n + 1, seeded_rng("pairdef", n, d))
        raw = X.rows_raw()
        subsets = list(combinations(range(n + d), d))
        expect = []
        for s in subsets:
            outside = [raw[i] for i in range(n + d) if i not in s]
            row = []
            for s_prime in subsets:
                entry = ring.one
                for j in s_prime:
                    block = ExactMatrix(ring, [raw[j]] + outside)
                    entry = ring.reduce(entry * det_by(_det_berkowitz, block))
                row.append(entry)
            expect.append(row)
        assert pairing_matrix(X) == ExactMatrix(ring, expect)

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (2, 3)])
    def test_one_det_per_block(self, n, d, monkeypatch):
        # one determinant per (row choice s, row j of X), off the diagonal too
        calls = []
        det = ExactMatrix.det

        def counting_det(M, *args):
            calls.append(M.nrows)
            return det(M, *args)

        monkeypatch.setattr(ExactMatrix, "det", counting_det)
        pairing_matrix(random_matrix(ZZ, n + d, n + 1, seeded_rng("pairdets", n, d)))
        assert calls == [n + 1] * ((n + d) * comb(n + d, d))

    def test_off_diagonal_vanishes(self):
        for n, d in ((1, 2), (2, 2)):
            for t in range(10):
                X = random_matrix(ZZ, n + d, n + 1, seeded_rng("pairz", n, d, t))
                P = pairing_matrix(X)
                for i in range(P.nrows):
                    for j in range(P.ncols):
                        if i != j:
                            assert P.rows_raw()[i][j] == 0

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 4), (2, 3), (3, 2), (2, 4)])
    def test_sign_formula_counts_transpositions(self, n, d):
        parity = sum(
            sum(1 for i in range(j) if i not in s)
            for s in combinations(range(n + d), d)
            for j in s
        )
        assert _pairing_sign(n, d) == (-1) ** parity

    @pytest.mark.parametrize(
        "n,d",
        [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1)],
    )
    def test_predicted_sign_is_the_observed_sign(self, n, d):
        X = random_matrix(PrimeField(1_000_003), n + d, n + 1, seeded_rng("pairsign", n, d))
        report = verify_pairing(X)
        assert report.ok
        assert report.sign == _pairing_sign(n, d)

    def test_det_matches_minor_product_power(self):
        for n, d in ((1, 2), (2, 2)):
            signs = set()
            for t in range(10):
                X = random_matrix(ZZ, n + d, n + 1, seeded_rng("pairdet", n, d, t))
                report = verify_pairing(X)
                assert report.verdict == "equal-up-to-sign"
                if report.sign is not None:
                    signs.add(report.sign)
            assert len(signs) <= 1


class TestVerifyHdv:
    def test_worked_example(self):
        report = verify_hdv(WORKED)
        assert report.verdict == "equal"
        assert report.lhs.value == -1 and report.rhs.value == -1

    def test_identity_degree_one(self):
        for n in range(1, 4):
            report = verify_hdv(identity(ZZ, n + 1))
            assert report.verdict == "equal" and report.lhs.value == 1

    def test_symbolic_projective_line_matches_product_formula(self):
        names = [v for i in range(3) for v in (f"X{i}", f"Y{i}")]
        ring = PolynomialRing(names)
        X = ExactMatrix.from_rows(ring, [[f"X{i}", f"Y{i}"] for i in range(3)])
        report = verify_hdv(X)
        assert report.verdict == "equal"
        assert report.lhs.value == mu_prime(X)

    def test_degree_zero_trivial(self):
        X = random_matrix(ZZ, 2, 3, seeded_rng("hdv0"))
        report = verify_hdv(X)
        assert report.verdict == "equal" and report.lhs.value == 1

    def test_mod_p(self):
        fp = PrimeField(1_000_003)
        for t in range(10):
            X = random_matrix(fp, 5, 3, seeded_rng("hdvp", t))
            assert verify_hdv(X).verdict == "equal"

    def test_report_doc(self):
        doc = verify_hdv(WORKED).to_doc()
        assert doc["identity"] == "hdv"
        assert doc["lhs"] == doc["rhs"] == "-1"
        assert (doc["n"], doc["d"], doc["ring"]) == (1, 2, "int")

    def test_report_formats_equal_sides_once(self, monkeypatch):
        ring = PolynomialRing(["x"])
        x = ring.parse("x")
        equal = _report("hdv", 1, 1, ring, x, ring.parse("x"), "equal")
        unequal = _report("hdv", 1, 1, ring, x, ring.parse("x + 1"), "equal")
        calls = 0
        fmt = PolynomialRing.format

        def counted(self, v):
            nonlocal calls
            calls += 1
            return fmt(self, v)

        monkeypatch.setattr(PolynomialRing, "format", counted)
        doc = equal.to_doc()
        assert calls == 1 and doc["lhs"] == doc["rhs"] == "x"
        calls = 0
        doc = unequal.to_doc()
        assert calls == 2 and (doc["lhs"], doc["rhs"]) == ("x", "x + 1")

    def test_report_doc_is_its_fields(self):
        # every field but detail, under its own name, unless it is None;
        # detail's keys are merged on top
        report = verify_column_lemma(WORKED, 3, 0, 1)
        names = {f.name for f in dataclasses.fields(report)} - {"detail", "sign"}
        assert report.sign is None
        assert set(report.to_doc()) == names | set(report.detail)
        signed = dataclasses.replace(report, sign=-1, detail={"rhs": "7"})
        assert signed.to_doc()["sign"] == -1 and signed.to_doc()["rhs"] == "7"

    def test_a_new_field_reaches_the_document(self):
        @dataclasses.dataclass
        class Noted(vandermonde.VerificationReport):
            note: str | None = None

        base = vars(verify_hdv(WORKED))
        assert Noted(**base, note="seen").to_doc()["note"] == "seen"
        assert Noted(**base).to_doc() == verify_hdv(WORKED).to_doc()


def _swap_first_rows(eta):
    """eta_matrix as defined, except with its first two rows swapped, which
    flips the sign of its determinant at every (n, d)."""

    def build(X):
        rows = list(eta(X).rows_raw())
        rows[0], rows[1] = rows[1], rows[0]
        return ExactMatrix(X.ring, rows)

    return build


class TestVerifyDual:
    @pytest.mark.parametrize(
        "X",
        [
            pytest.param(WORKED, id="worked"),
            pytest.param(random_matrix(ZZ, 5, 3, seeded_rng("dualswap", "int")), id="ZZ"),
            pytest.param(
                random_matrix(PrimeField(1_000_003), 5, 3, seeded_rng("dualswap", "modp")),
                id="F1000003",
            ),
            pytest.param(symbolic_matrix(3, 2), id="formal-1-2"),
        ],
    )
    def test_row_swap_in_eta_is_unequal(self, X, monkeypatch):
        # with the sign searched for, this fault passed as sign -1
        monkeypatch.setattr(vandermonde, "eta_matrix", _swap_first_rows(vandermonde.eta_matrix))
        report = verify_dual(X)
        assert report.lhs.value == X.ring.reduce(-report.rhs.value) and report.lhs.value
        assert report.verdict == "unequal" and report.sign is None
        assert not report.ok

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 6) for d in range(6)])
    def test_stars_and_bars_orders_rows_as_columns(self, n, d):
        # {i_1 < ... < i_d} -> {i_k - (k-1)} takes lex d-subsets of range(n+d)
        # onto monomial_basis order, and "takes row n+d-1" onto "divisible by
        # Y_n": the dual sign's derivation reorders rows and columns alike
        subsets = list(combinations(range(n + d), d))
        images = []
        for s in subsets:
            exps = [0] * (n + 1)
            for k, i in enumerate(s):
                exps[i - k] += 1
            images.append(tuple(exps))
        assert tuple(images) == monomial_basis(n, d)
        assert [n + d - 1 in s for s in subsets] == [e[n] > 0 for e in images]

    @pytest.mark.parametrize("ring", [ZZ, PrimeField(1_000_003)], ids=["ZZ", "F1000003"])
    @pytest.mark.parametrize("n,d", [(n, d) for n in range(2, 5) for d in range(1, 4)])
    def test_block_factorisation_with_last_row_e_n(self, ring, n, d):
        # with last row e_n, eta X reordered is [[eta X'', *], [0, eta X']]
        # and mu'(X) = mu'(X') mu'(X''), so c(n, d) = c(n-1, d) c(n, d-1)
        top = random_matrix(ring, n + d - 1, n + 1, seeded_rng("dualblock", n, d))
        low = ExactMatrix(ring, [r[:n] for r in top.rows_raw()])
        X = ExactMatrix(ring, list(top.rows_raw()) + [(0,) * n + (1,)])
        subsets = list(combinations(range(n + d), d))
        basis = monomial_basis(n, d)
        order = sorted(range(len(subsets)), key=lambda i: n + d - 1 in subsets[i])
        assert order == sorted(range(len(basis)), key=lambda j: basis[j][n] > 0)
        k = comb(n + d - 1, d)
        eta = eta_matrix(X).rows_raw()
        P = [[eta[i][j] for j in order] for i in order]
        assert not any(v for row in P[k:] for v in row[:k])
        assert [tuple(r[:k]) for r in P[:k]] == list(eta_matrix(low).rows_raw())
        assert [tuple(r[k:]) for r in P[k:]] == list(eta_matrix(top).rows_raw())
        assert mu_prime(X) == ring.reduce(mu_prime(top) * mu_prime(low))
        assert eta_matrix(X).det() == ring.reduce(eta_matrix(top).det() * eta_matrix(low).det())

    def test_worked_sign(self):
        report = verify_dual(WORKED)
        assert report.verdict == "equal-up-to-sign"
        assert report.sign == 1
        assert report.lhs.value == -1 and report.rhs.value == -1

    def test_repeated_row_degenerate(self):
        X = ExactMatrix.from_rows(ZZ, [[1, 2], [1, 2], [3, 4]])
        report = verify_dual(X)
        assert report.verdict == "equal-up-to-sign"
        assert report.lhs.value == 0 and report.rhs.value == 0
        assert report.sign is None

    def test_sign_constant_per_shape(self):
        for n, d in ((2, 2), (1, 3)):
            signs = set()
            for t in range(20):
                X = random_matrix(ZZ, n + d, n + 1, seeded_rng("dualsign", n, d, t))
                report = verify_dual(X)
                assert report.verdict == "equal-up-to-sign"
                if report.sign is not None:
                    signs.add(report.sign)
            assert len(signs) == 1


def _count_dets(monkeypatch) -> list:
    """Orders of the matrices whose ``det()`` runs from now on."""
    calls = []
    det = ExactMatrix.det

    def counting_det(M):
        calls.append(M.nrows)
        return det(M)

    monkeypatch.setattr(ExactMatrix, "det", counting_det)
    return calls


class TestColumnLemma:
    def test_hand_scaling(self):
        # scaling column 0 by 2 multiplies the minor product by 2^3
        report, added, scaled = lemma_matrices(WORKED, 2, 0, 1)
        assert added == ExactMatrix.from_rows(ZZ, [[1, 2], [0, 1], [1, 3]])
        assert scaled == ExactMatrix.from_rows(ZZ, [[2, 0], [0, 1], [2, 1]])
        assert mu_prime(scaled) == -8
        assert report.verdict == "equal"

    def test_alpha_one_is_noop(self):
        report = verify_column_lemma(WORKED, 1, 0, 1)
        assert report.verdict == "equal"
        assert report.lhs == verify_hdv(WORKED).lhs

    def test_random_add_invariance(self):
        for t in range(10):
            X = random_matrix(ZZ, 4, 3, seeded_rng("lemma-add", t))
            base = verify_hdv(X)
            _, added_X, _ = lemma_matrices(X, 5, 1, 0)
            added = verify_hdv(added_X)
            assert added.lhs == base.lhs and added.rhs == base.rhs

    @pytest.mark.parametrize(
        "X,alpha,src,dst",
        [
            pytest.param(random_matrix(ZZ, 4, 3, seeded_rng("lemma-ops", 0)), -3, 2, 0, id="int"),
            pytest.param(
                random_matrix(PrimeField(1_000_003), 4, 3, seeded_rng("lemma-ops", 1)), -1, 0, 2,
                id="mod_p",
            ),
            # alpha past p, and products past p before reduction
            pytest.param(
                random_matrix(PrimeField(7), 5, 3, seeded_rng("lemma-ops", 2)), 12, 1, 2, id="mod_7"
            ),
            pytest.param(symbolic_matrix(3, 2), -2, 1, 0, id="poly"),
            pytest.param(symbolic_matrix(3, 2), "x0_0 - 1", 0, 1, id="poly-text-alpha"),
        ],
    )
    def test_elementary_products(self, X, alpha, src, dst):
        # the added and scaled matrices are X times an elementary matrix, and
        # the sides are those of the scaled product and of the scaled base
        ring = X.ring
        a = ring.coerce(alpha)
        report, added, scaled = lemma_matrices(X, alpha, src, dst)
        expected_scaled = matmul(X, elementary(ring, X.ncols, src, src, a))
        assert added == matmul(X, elementary(ring, X.ncols, src, dst, a))
        assert scaled == expected_scaled
        n, d = X.ncols - 1, X.nrows - X.ncols + 1
        assert report.verdict == "equal"
        assert report.lhs == verify_hdv(expected_scaled).lhs
        assert report.rhs.value == ring.reduce(
            verify_hdv(X).lhs.value * ring.pow(a, n * comb(n + d, n + 1))
        )

    def test_report_detail(self):
        doc = verify_column_lemma(WORKED, 3, 0, 1).to_doc()
        assert doc["alpha"] == "3" and (doc["src"], doc["dst"]) == (0, 1)

    @pytest.mark.parametrize("src,dst", [(5, 0), (0, 5), (-1, 0), (0, -1)])
    def test_bad_column_runs_no_determinant(self, src, dst, monkeypatch):
        # an out-of-range column used to cost a full base check first; no
        # matrix is built either, so -1 is never read as the last column
        X = random_matrix(ZZ, 7, 5, seeded_rng("lemma-bad"))
        calls = _count_dets(monkeypatch)
        built = []
        monkeypatch.setattr(vandermonde, "ExactMatrix", lambda *args: built.append(args))
        with pytest.raises(BadIndexError):
            verify_column_lemma(X, 2, src, dst)
        assert calls == [] and built == []

    @pytest.mark.parametrize(
        "src,dst,message",
        [
            (9, 9, "column lemma needs two distinct columns, got 9 twice"),
            (-1, -1, "column lemma needs two distinct columns, got -1 twice"),
            (5, 7, "column 5 out of range"),
            (-1, 9, "column -1 out of range"),
            (1, 5, "column 5 out of range"),
            (1, -2, "column -2 out of range"),
        ],
    )
    def test_bad_column_messages(self, src, dst, message):
        # distinct columns first, then src, then dst
        with pytest.raises(BadIndexError) as excinfo:
            verify_column_lemma(random_matrix(ZZ, 7, 5, seeded_rng("lemma-bad")), 2, src, dst)
        assert str(excinfo.value) == message

    def test_base_runs_once_per_matrix(self, monkeypatch):
        # verify_hdv runs one det(), of the Veronese matrix: order C(4, 2) = 6
        monkeypatch.setattr(vandermonde, "_lemma_base", None)
        calls = _count_dets(monkeypatch)
        X = random_matrix(ZZ, 4, 3, seeded_rng("lemma-memo", 0))
        for alpha in (2, 3, -1):
            assert verify_column_lemma(X, alpha, 0, 1).verdict == "equal"
        assert calls == [6] * 7
        # a different matrix of the same shape runs its own base, which then
        # replaces X's in the slot
        Y = random_matrix(ZZ, 4, 3, seeded_rng("lemma-memo", 1))
        assert Y != X
        assert verify_column_lemma(Y, 2, 0, 1).verdict == "equal"
        assert calls == [6] * 10
        assert verify_column_lemma(Y, 3, 0, 1).verdict == "equal"
        assert calls == [6] * 12

    def test_equal_copy_hits_the_slot(self, monkeypatch):
        monkeypatch.setattr(vandermonde, "_lemma_base", None)
        X = random_matrix(ZZ, 4, 3, seeded_rng("lemma-memo", 2))
        verify_column_lemma(X, 2, 0, 1)
        copy = ExactMatrix.from_rows(ZZ, [list(r) for r in X.rows_raw()])
        assert copy is not X
        calls = _count_dets(monkeypatch)
        assert verify_column_lemma(copy, 3, 1, 2).verdict == "equal"
        assert len(calls) == 2

    def test_same_rows_over_another_ring_miss_the_slot(self, monkeypatch):
        # the same raw rows: nonnegative and below p, so valid in both rings
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10], [2, 9, 5]]
        fp = PrimeField(1_000_003)
        monkeypatch.setattr(vandermonde, "_lemma_base", None)
        over_z = verify_column_lemma(ExactMatrix(ZZ, rows), 2, 0, 1)
        calls = _count_dets(monkeypatch)
        over_p = verify_column_lemma(ExactMatrix(fp, rows), 2, 0, 1)
        assert len(calls) == 3
        assert over_z.verdict == over_p.verdict == "equal"
        assert over_p.rhs.value == over_z.rhs.value % fp.modulus


    @pytest.mark.parametrize("alpha", [2, -1, 1_000_002])
    def test_mod_p(self, alpha):
        p = 1_000_003
        X = random_matrix(PrimeField(p), 4, 3, seeded_rng("lemma-modp"))
        base = verify_hdv(X).lhs
        report = verify_column_lemma(X, alpha, 0, 2)
        assert report.verdict == "equal" and base.value != 0
        # n = 2, d = 2: the sides scale by alpha^(2 * C(4, 3))
        assert report.rhs.value == base.value * pow(alpha, 8, p) % p

    @pytest.mark.parametrize("alpha", [2, -1])
    def test_symbolic(self, alpha):
        X = symbolic_matrix(3, 2)
        report = verify_column_lemma(X, alpha, 1, 0)
        assert report.verdict == "equal"
        # n = 1, d = 2: the sides scale by alpha^(1 * C(3, 2))
        assert report.rhs.value == verify_hdv(X).lhs.value * X.ring.coerce(alpha ** 3)


class TestVerifySymPower:
    def test_diagonal_example(self):
        u = ExactMatrix.from_rows(ZZ, [[2, 0], [0, 3]])
        report = verify_sym_power(u, 2)
        assert report.verdict == "equal" and report.lhs.value == 216

    def test_identity(self):
        report = verify_sym_power(identity(ZZ, 3), 2)
        assert report.verdict == "equal" and report.lhs.value == 1

    def test_symbolic(self):
        assert verify_sym_power(symbolic_matrix(2, 2), 2).verdict == "equal"


class TestNaiveComparison:
    def test_fails_in_dimension_two(self):
        report = demo_naive_failure(2, 2, seed=0)
        assert report.verdict == report.expected == "unequal"
        assert report.ok

    def test_degenerates_to_projective_line(self):
        for d in (1, 2, 3):
            report = demo_naive_failure(1, d, seed=0)
            assert report.verdict == report.expected == "equal"
            assert report.ok

    def test_repeated_row_not_a_counterexample(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 2, 3], [0, 1, 0], [0, 0, 1]]
        X = ExactMatrix.from_rows(ZZ, rows)
        assert veronese_matrix(X, 2).det() == 0
        assert mu_prime(X) == 0

    def test_degree_mismatch_documented(self):
        # symbolic degrees: det(nu^2 X) has degree 12, the minor product 60
        X = symbolic_matrix(6, 3)
        lhs = det_by(_det_cofactor, veronese_matrix(X, 2))
        assert lhs.total_degree() == 12
        # degree of the minor product is the sum of the factor degrees;
        # expanding the product itself is far too large to be worthwhile
        minor_degrees = [
            X.minor(rows, (0, 1, 2)).total_degree()
            for rows in combinations(range(6), 3)
        ]
        assert sum(minor_degrees) == 60


# per ring: a nonzero value, its negative, a third value, and zero
REPORT_VALUES = {
    "ZZ": (ZZ, 3, -3, 5, 0),
    "F7": (PrimeField(7), 3, 4, 5, 0),
    "ZZ[x,y]": (XY, *map(XY.parse, ("x - 2*y", "2*y - x", "x + y", "0"))),
}
UP_TO_SIGN = "equal-up-to-sign"
PLUS, MINUS, FAILS = {"predicted_sign": 1}, {"predicted_sign": -1}, {"holds": False}


class TestComparisonRule:
    @pytest.mark.parametrize("ring_id", list(REPORT_VALUES))
    @pytest.mark.parametrize(
        "lhs,rhs,expected,options,verdict,sign",
        [
            pytest.param("v", "v", "equal", {}, "equal", None, id="equal"),
            # an expected "equal-up-to-sign" with no sign pinned is never met:
            # the sides are compared exactly, with no search for the sign
            pytest.param("v", "v", UP_TO_SIGN, {}, "equal", None, id="same"),
            pytest.param("neg", "v", UP_TO_SIGN, {}, "unequal", None, id="opposite"),
            pytest.param("neg", "v", "equal", {}, "unequal", None, id="opposite-not-equal"),
            pytest.param("w", "v", UP_TO_SIGN, PLUS, "unequal", None, id="other"),
            pytest.param("v", "v", UP_TO_SIGN, PLUS, UP_TO_SIGN, 1, id="plus-matched"),
            pytest.param("neg", "v", UP_TO_SIGN, PLUS, "unequal", None, id="plus-mismatched"),
            pytest.param("neg", "v", UP_TO_SIGN, MINUS, UP_TO_SIGN, -1, id="minus-matched"),
            pytest.param("v", "v", UP_TO_SIGN, MINUS, "unequal", None, id="minus-mismatched"),
            pytest.param("zero", "zero", UP_TO_SIGN, {}, "equal", None, id="zero"),
            pytest.param("zero", "zero", UP_TO_SIGN, PLUS, UP_TO_SIGN, None, id="zero-plus"),
            pytest.param("zero", "zero", UP_TO_SIGN, MINUS, UP_TO_SIGN, None, id="zero-minus"),
            pytest.param("v", "v", "equal", FAILS, "unequal", None, id="fails-equal"),
            pytest.param("neg", "v", UP_TO_SIGN, FAILS, "unequal", None, id="fails-opposite"),
        ],
    )
    def test_report_on_every_ring_kind(self, ring_id, lhs, rhs, expected, options, verdict, sign):
        ring, *values = REPORT_VALUES[ring_id]
        value = dict(zip(("v", "neg", "w", "zero"), values))
        report = _report(
            "t", 1, 1, ring, value[lhs], value[rhs], expected,
            **options,
        )
        assert (report.verdict, report.sign) == (verdict, sign)
        assert report.ok == (verdict == expected)
        assert report.ring == ring.describe()

    def test_every_up_to_sign_identity_pins_its_sign(self, monkeypatch):
        # verify_dual used to pass no sign, so _report searched for one
        calls = []
        report_true = vandermonde._report
        signature = inspect.signature(report_true)

        def recording(*args, **kwargs):
            call = signature.bind(*args, **kwargs).arguments
            calls.append((call["identity"], call["expected"], call.get("predicted_sign")))
            return report_true(*args, **kwargs)

        monkeypatch.setattr(vandermonde, "_report", recording)
        monkeypatch.setattr(vandermonde, "_lemma_base", None)
        for verify in (verify_hdv, verify_dual, verify_pairing):
            verify(WORKED)
        verify_column_lemma(WORKED, 2, 0, 1)
        verify_sym_power(ExactMatrix.from_rows(ZZ, [[2, 1], [1, 3]]), 2)
        demo_naive_failure(2, 2)
        assert {c[0] for c in calls} == {"hdv", "dual", "lemma", "abstract", "sym", "naive"}
        assert all(sign in (1, -1) for _, expected, sign in calls if expected == UP_TO_SIGN)
        assert ("dual", UP_TO_SIGN, 1) in calls and ("abstract", UP_TO_SIGN, -1) in calls

    @pytest.mark.parametrize(
        "verify",
        [
            pytest.param(verify_hdv, id="hdv"),
            pytest.param(verify_dual, id="dual"),
            pytest.param(lambda X: verify_column_lemma(X, 2, 0, 1), id="lemma"),
            pytest.param(verify_pairing, id="abstract"),
        ],
    )
    def test_wrong_minor_product_is_unequal(self, verify, monkeypatch):
        # the lemma's base check runs under the fault too, not from the slot;
        # the earlier slot comes back after the test, so the faulty base
        # report made here reaches no later caller
        monkeypatch.setattr(vandermonde, "_lemma_base", None)
        mu_prime_true = vandermonde.mu_prime

        def off_by_one(X):
            return X.ring.reduce(mu_prime_true(X) + X.ring.one)

        monkeypatch.setattr(vandermonde, "mu_prime", off_by_one)
        report = verify(WORKED)
        assert report.verdict == "unequal"
        assert not report.ok

    def test_nonzero_off_diagonal_is_unequal(self, monkeypatch):
        pairing_true = vandermonde.pairing_matrix

        def skewed(X):
            rows = [list(r) for r in pairing_true(X).rows_raw()]
            rows[0][1] = X.ring.one
            return ExactMatrix(X.ring, rows)

        monkeypatch.setattr(vandermonde, "pairing_matrix", skewed)
        report = verify_pairing(WORKED)
        # the triangular change keeps det, so only the side condition fails
        assert report.lhs.value == -report.rhs.value
        assert report.verdict == "unequal" and report.sign is None
        assert report.detail == {"diagonal": False}
        assert not report.ok

    # over Z/2 every value equals its negative, so no sign is visible: the
    # worked rows reported "sign": 1 there, though _pairing_sign(1, 2) = -1
    # and the same rows over Z give -1.  With no sign pinned the comparison
    # is exact, so the verdict is "equal"
    @pytest.mark.parametrize(
        "options,verdict",
        [({}, "equal"), (PLUS, UP_TO_SIGN), (MINUS, UP_TO_SIGN)],
        ids=["free", "plus", "minus"],
    )
    def test_no_sign_over_z2(self, options, verdict):
        report = _report("t", 1, 1, PrimeField(2), 1, 1, UP_TO_SIGN, **options)
        assert report.verdict == verdict and "sign" not in report.to_doc()

    @pytest.mark.parametrize("verify", [verify_dual, verify_pairing], ids=["dual", "abstract"])
    def test_verifiers_report_no_sign_over_z2(self, verify):
        doc = verify(ExactMatrix.from_rows(PrimeField(2), WORKED.rows_raw())).to_doc()
        assert (doc["verdict"], doc["expected"]) == (UP_TO_SIGN, UP_TO_SIGN)
        assert doc["lhs"] == doc["rhs"] == "1" and "sign" not in doc


@pytest.mark.parametrize(
    "ring", [ZZ, PrimeField(7), PolynomialRing(["x", "y"])], ids=["ZZ", "F7", "ZZ[x,y]"]
)
def test_det_minor_and_mu_prime_return_raw_values(ring):
    # int over Z, int in [0, p) over Z/p, Polynomial over Z[x]; order 0 and
    # the empty product (2 rows, 3 columns) are the ring's one
    rng = seeded_rng("raw-values", ring.describe())
    X = random_matrix(ring, 4, 2, rng)
    square = ExactMatrix(ring, X.rows_raw()[1:3])
    ones = [ExactMatrix(ring, []).det(), X.minor((), ()), mu_prime(random_matrix(ring, 2, 3, rng))]
    values = [square.det(), X.minor((0, 3), (0, 1)), mu_prime(X)]
    for v in values + ones:
        if ring.name == "poly":
            assert type(v) is Polynomial and v.nvars == ring.nvars
        else:
            assert type(v) is int and (not ring.modulus or 0 <= v < ring.modulus)
    assert ones == [ring.one] * 3
    assert values[0] == X.minor((1, 2), (0, 1)) == det_by(_det_berkowitz, square)


def _pairing_with_block(mutate):
    """pairing_matrix as defined, except that the block of the first row
    choice s and its first row j passes through ``mutate`` before its det."""

    def build(X):
        n, d = X.ncols - 1, X.nrows - X.ncols + 1
        ring, raw = X.ring, X.rows_raw()
        subsets = list(combinations(range(n + d), d))
        rows = []
        for s in subsets:
            outside = [raw[i] for i in range(n + d) if i not in s]
            block = []
            for j in range(n + d):
                rows_j = [raw[j]] + outside
                if s == subsets[0] and j == s[0]:
                    rows_j = mutate(rows_j)
                block.append(ExactMatrix(ring, rows_j).det())
            rows.append([prod((block[j] for j in t), start=ring.one) for t in subsets])
        return ExactMatrix(ring, rows)

    return build


class TestPairingSignMutations:
    """A fault that flips the sign of one pairing block flips det P; the
    pinned sign turns it into "unequal" where up-to-sign would pass it."""

    X = random_matrix(ZZ, 5, 3, seeded_rng("pairmut"))  # n = 2, d = 3

    def test_unmutated_definition_passes(self, monkeypatch):
        monkeypatch.setattr(vandermonde, "pairing_matrix", _pairing_with_block(list))
        assert verify_pairing(self.X).ok

    @pytest.mark.parametrize(
        "mutate",
        [
            # rows outside s in decreasing order: one transposition at n = 2
            pytest.param(lambda rows: rows[:1] + rows[:0:-1], id="unsorted-block"),
            pytest.param(lambda rows: [rows[1], rows[0]] + rows[2:], id="row-swap"),
        ],
    )
    def test_sign_fault_is_unequal(self, mutate, monkeypatch):
        monkeypatch.setattr(vandermonde, "pairing_matrix", _pairing_with_block(mutate))
        report = verify_pairing(self.X)
        assert report.lhs.value == -report.rhs.value and report.lhs.value != 0
        assert report.verdict == "unequal" and report.sign is None
        assert not report.ok


def test_eta_row_swap_fails_dual_identity(monkeypatch):
    """A row swap in the dual matrix at n = 2 flips every sign there; the
    pinned sign makes each trial at n = 2 fail, and the symbolic proofs too."""
    eta_true = vandermonde.eta_matrix

    def swapped(X):
        rows = list(eta_true(X).rows_raw())
        if X.ncols == 3:
            rows[0], rows[1] = rows[1], rows[0]
        return ExactMatrix(X.ring, rows)

    monkeypatch.setattr(vandermonde, "eta_matrix", swapped)
    assert not dual_identity(quick=True).passed


class TestSymbolicCompleteness:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1)])
    def test_small_cases(self, shape):
        n, d = shape
        assert verify_hdv(symbolic_matrix(n + d, n + 1)).verdict == "equal"
