"""Over Z/p every computation runs Python's operators on integer
representatives and reduces by the modulus: the constructors once per stored
value, the kernels and the column lemma's column operations as they go.
Every result must equal the same computation over Z on the representatives,
reduced mod p afterwards."""
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from mvvand.genpos import PointConfiguration, in_general_position
from mvvand.matrix import ExactMatrix, _det_bareiss, _det_berkowitz
from mvvand.rings import PrimeField, ZZ
from mvvand.vandermonde import (
    eta_matrix,
    mu_matrix,
    mu_prime,
    pairing_matrix,
    sym_power_matrix,
    veronese_matrix,
)

from oracles import det_by, lemma_matrices

PRIMES = [2, 3, 1_000_003, 2**61 - 1]


def _reduced(M: ExactMatrix, p: int) -> tuple:
    return tuple(tuple(v % p for v in row) for row in M.rows_raw())


@st.composite
def representatives(draw, p):
    """(n, d, rows of an (n+d)x(n+1) matrix, rows of an (n+1)x(n+1) matrix),
    entries in [0, p) with 0, 1 and p - 1 drawn often."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 4 - n))
    entry = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)

    def rows(m):
        return draw(st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1), min_size=m, max_size=m))

    return n, d, rows(n + d), rows(n + 1)


def _all(value, n, d):
    return n, d, [[value] * (n + 1)] * (n + d), [[value] * (n + 1)] * (n + 1)


@pytest.mark.parametrize("p", PRIMES)
def test_constructions_reduce_the_integer_ones(p):
    F = PrimeField(p)

    @settings(max_examples=40, deadline=None)
    # alpha is the column-operation scalar, a plain int that may be negative
    @given(representatives(p), st.sampled_from([p - 1, -1]) | st.integers(-p, p))
    # all entries p - 1 give the largest intermediates before reduction
    @example(_all(p - 1, 1, 3), p - 1)
    @example(_all(p - 1, 2, 2), p - 1)
    @example(_all(p - 1, 3, 1), p - 1)
    @example((2, 2, [[p - 1, p - 1, 1], [1, p - 1, p - 1], [p - 1, 1, p - 1], [p - 1, p - 1, p - 1]],
              [[p - 1, 1, p - 1], [p - 1, p - 1, 1], [1, p - 1, p - 1]]), p - 1)
    def check(case, alpha):
        n, d, rows, square = case
        Xp, Xz = ExactMatrix(F, rows), ExactMatrix(ZZ, rows)
        assert mu_matrix(Xp).rows_raw() == _reduced(mu_matrix(Xz), p)
        assert mu_prime(Xp) == mu_prime(Xz) % p
        assert eta_matrix(Xp).rows_raw() == _reduced(eta_matrix(Xz), p)
        assert pairing_matrix(Xp).rows_raw() == _reduced(pairing_matrix(Xz), p)
        up, uz = ExactMatrix(F, square), ExactMatrix(ZZ, square)
        for e in range(4):
            assert veronese_matrix(Xp, e).rows_raw() == _reduced(veronese_matrix(Xz, e), p)
            assert sym_power_matrix(up, e).rows_raw() == _reduced(sym_power_matrix(uz, e), p)
        # the column lemma's added and scaled matrices and its sides; a
        # square matrix is its shape at d = 1
        for Mp, Mz in ((Xp, Xz), (up, uz)):
            over_p, *built_p = lemma_matrices(Mp, alpha, 0, n)
            over_z, *built_z = lemma_matrices(Mz, alpha, 0, n)
            assert [B.rows_raw() for B in built_p] == [_reduced(B, p) for B in built_z]
            assert over_p.lhs.value == over_z.lhs.value % p
            assert over_p.rhs.value == over_z.rhs.value % p
            assert over_p.verdict == over_z.verdict == "equal"
        for kernel in (_det_bareiss, _det_berkowitz):
            assert det_by(kernel, up) == det_by(kernel, uz) % p
        if d >= 1 and all(any(v % p for v in row) for row in rows):
            verdict = in_general_position(PointConfiguration(Xp))
            # the lex-least row subset whose integer minor vanishes mod p
            witness = next(
                (
                    taken
                    for taken in combinations(range(n + d), n + 1)
                    if Xz.minor(taken, range(n + 1)) % p == 0
                ),
                None,
            )
            assert verdict.in_general_position == (witness is None)
            assert verdict.witness == witness

    check()

