import dataclasses
from itertools import combinations, permutations

import pytest

from mvvand.errors import BadRingError, NotEnoughPointsError, ZeroPointError
from mvvand.genpos import (
    GenPosVerdict,
    PointConfiguration,
    _random_configuration,
    in_general_position,
    in_general_position_via_eta,
)
from mvvand.matrix import ExactMatrix, seeded_rng
from mvvand.rings import PolynomialRing, PrimeField, ZZ

from oracles import matmul

SIMPLEX_ONES = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
COLLINEAR = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]

F101 = PrimeField(101)


def cfg_of(rows, ring=ZZ):
    return PointConfiguration.from_rows(ring, rows)


class TestConfiguration:
    def test_rejects_zero_row(self):
        with pytest.raises(ZeroPointError):
            cfg_of([[1, 0], [0, 0]])

    def test_rejects_polynomial_coordinates(self):
        ring = PolynomialRing(["x"])
        with pytest.raises(BadRingError):
            PointConfiguration(ExactMatrix.from_rows(ring, [["x", "1"]]))

    def test_dimensions(self):
        cfg = cfg_of(SIMPLEX_ONES)
        assert (cfg.n, cfg.m) == (2, 4)

    def test_not_enough_points(self):
        with pytest.raises(NotEnoughPointsError):
            in_general_position(cfg_of([[1, 0, 0], [0, 1, 0]]))


class TestVerdicts:
    def test_simplex_plus_ones(self):
        cfg = cfg_of(SIMPLEX_ONES)
        assert in_general_position(cfg).in_general_position
        assert in_general_position_via_eta(cfg).in_general_position

    def test_collinear_triple(self):
        cfg = cfg_of(COLLINEAR)
        verdict = in_general_position(cfg)
        assert not verdict.in_general_position
        assert verdict.witness == (0, 1, 2)
        assert not in_general_position_via_eta(cfg).in_general_position

    def test_verdict_doc(self):
        doc = in_general_position(cfg_of(COLLINEAR)).to_doc()
        assert doc["verdict"] is False
        assert doc["witness"] == [0, 1, 2]
        assert doc["method"] == "minors"
        assert (doc["n"], doc["m"]) == (2, 4)

    def test_verdict_doc_is_its_fields(self):
        # no witness key when there is none; in_general_position is "verdict"
        verdict = in_general_position(cfg_of(SIMPLEX_ONES))
        assert verdict.to_doc() == {
            "verdict": True, "method": "minors", "n": 2, "m": 4, "ring": "int"
        }

        @dataclasses.dataclass(frozen=True)
        class Noted(GenPosVerdict):
            note: str = "seen"

        assert Noted(**vars(verdict)).to_doc() == {**verdict.to_doc(), "note": "seen"}

    def test_matches_brute_force(self):
        for t in range(100):
            cfg = _random_configuration(F101, 5, 2, seeded_rng("brute", t))
            brute = all(
                cfg.matrix.minor(rows, (0, 1, 2)) != 0
                for rows in combinations(range(5), 3)
            )
            assert in_general_position(cfg).in_general_position == brute
            assert in_general_position_via_eta(cfg).in_general_position == brute

    def test_witness_is_lex_least(self):
        for t in range(100):
            cfg = _random_configuration(F101, 6, 2, seeded_rng("witness", t))
            verdict = in_general_position(cfg)
            vanishing = [
                rows
                for rows in combinations(range(6), 3)
                if cfg.matrix.minor(rows, (0, 1, 2)) == 0
            ]
            if vanishing:
                assert not verdict.in_general_position
                assert verdict.witness == min(vanishing)
            else:
                assert verdict.in_general_position and verdict.witness is None

    def test_dependent_leading_points_build_only_their_prefix_chain(self):
        # the table multiplies a row entry by a minor: entries that count
        # their products show the work behind the verdict
        calls = 0

        class Counted(int):
            def __mul__(self, other):
                nonlocal calls
                calls += 1
                return int(self) * other

        rng = seeded_rng("prefix-chain")
        rows = [[rng.randint(1, 50) for _ in range(3)] for _ in range(6)]
        rows[2] = [a + b for a, b in zip(rows[0], rows[1])]
        cfg = PointConfiguration(ExactMatrix(ZZ, [[Counted(v) for v in r] for r in rows]))
        verdict = in_general_position(cfg)
        assert verdict.witness == (0, 1, 2)
        # the order-2 vector of (0, 1), 3 x 2 products, then 3 for (0, 1, 2)
        assert calls == 6 + 3

    def test_witness_is_lex_least_not_least_last_row(self):
        # (0,1,9,10) and (2,3,4,5) both vanish; a scan that stopped at the
        # subset with the smallest last row would answer (2,3,4,5)
        rng = seeded_rng("two-witnesses")
        rows = [[rng.randint(-50, 50) for _ in range(4)] for _ in range(11)]
        rows[10] = [a + 2 * b - c for a, b, c in zip(rows[0], rows[1], rows[9])]
        rows[5] = [a - b + 3 * c for a, b, c in zip(rows[2], rows[3], rows[4])]
        cfg = cfg_of(rows)
        vanishing = [
            taken
            for taken in combinations(range(11), 4)
            if cfg.matrix.minor(taken, range(4)) == 0
        ]
        assert (2, 3, 4, 5) in vanishing
        assert min(vanishing) == (0, 1, 9, 10)
        verdict = in_general_position(cfg)
        assert not verdict.in_general_position
        assert verdict.witness == (0, 1, 9, 10)


class TestInvariance:
    def test_row_permutation(self):
        rows = COLLINEAR
        base = in_general_position(cfg_of(rows)).in_general_position
        for perm in permutations(range(4)):
            permuted = [rows[i] for i in perm]
            assert in_general_position(cfg_of(permuted)).in_general_position == base

    def test_point_scaling(self):
        for t in range(20):
            cfg = _random_configuration(F101, 5, 2, seeded_rng("scalepts", t))
            base = in_general_position(cfg).in_general_position
            rng = seeded_rng("scalepts-f", t)
            rows = [
                [v * f % 101 for v in row]
                for row, f in zip(
                    cfg.matrix.rows_raw(),
                    (rng.randrange(1, 101) for _ in range(5)),
                )
            ]
            assert in_general_position(cfg_of(rows, F101)).in_general_position == base

    def test_unimodular_change_of_coordinates(self):
        # shear with unit determinant acting on all points
        g = ExactMatrix.from_rows(ZZ, [[1, 2, 0], [0, 1, 5], [0, 0, 1]])
        for rows in (SIMPLEX_ONES, COLLINEAR):
            cfg = cfg_of(rows)
            moved = PointConfiguration(matmul(cfg.matrix, g))
            assert (
                in_general_position(moved).in_general_position
                == in_general_position(cfg).in_general_position
            )

