"""General-position testing for finite point configurations in projective
n-space, plus a benchmark comparing the minor-product route against the
single-determinant dual-matrix route.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import BadRingError, NotEnoughPointsError, ZeroPointError
from .matrix import ExactMatrix, _minor_table, seeded_rng
from .rings import IntegerRing, PrimeField, DEFAULT_PRIME
from .vandermonde import eta_matrix

METHOD_MINORS = "minors"
METHOD_ETA = "eta"


@dataclass(frozen=True)
class PointConfiguration:
    """m points of projective n-space, one coordinate row each."""

    matrix: ExactMatrix

    def __post_init__(self):
        M = self.matrix
        if not isinstance(M.ring, (IntegerRing, PrimeField)):
            raise BadRingError(
                "point configurations need integer or prime-field coordinates"
            )
        if M.nrows < 1 or M.ncols < 2:
            raise ZeroPointError(
                f"need at least one point with at least two coordinates, got {M.nrows}x{M.ncols}"
            )
        is_zero = M.ring.is_zero
        for i, row in enumerate(M.rows_raw()):
            if all(is_zero(v) for v in row):
                raise ZeroPointError(f"row {i} is all zero: not a projective point")

    @property
    def n(self) -> int:
        return self.matrix.ncols - 1

    @property
    def m(self) -> int:
        return self.matrix.nrows

    @classmethod
    def from_rows(cls, ring, rows) -> "PointConfiguration":
        return cls(ExactMatrix.from_rows(ring, rows))


@dataclass(frozen=True)
class GenPosVerdict:
    in_general_position: bool
    witness: tuple | None  # lex-least degenerate (n+1)-subset, if any
    method: str
    n: int
    m: int
    ring: str

    def to_doc(self) -> dict:
        doc = {
            "verdict": self.in_general_position,
            "method": self.method,
            "n": self.n,
            "m": self.m,
            "ring": self.ring,
        }
        if self.witness is not None:
            doc["witness"] = list(self.witness)
        return doc


def _require_enough(cfg: PointConfiguration) -> None:
    if cfg.m < cfg.n + 1:
        raise NotEnoughPointsError(
            f"{cfg.m} points cannot span projective {cfg.n}-space"
        )


def in_general_position(cfg: PointConfiguration) -> GenPosVerdict:
    """True iff every n+1 of the points are linearly independent; on
    failure the lex-least vanishing row subset is returned as witness."""
    _require_enough(cfg)
    M = cfg.matrix
    minor, is_zero = _minor_table(M), M.ring.is_zero
    cols = tuple(range(cfg.n + 1))
    for taken in combinations(range(cfg.m), cfg.n + 1):
        if is_zero(minor(taken, cols)):
            return GenPosVerdict(False, taken, METHOD_MINORS, cfg.n, cfg.m, M.ring.describe())
    return GenPosVerdict(True, None, METHOD_MINORS, cfg.n, cfg.m, M.ring.describe())


def in_general_position_via_eta(cfg: PointConfiguration) -> GenPosVerdict:
    """Single-determinant test: the dual matrix of degree m-n has nonzero
    determinant exactly when the minor product does (integral domain)."""
    _require_enough(cfg)
    M = cfg.matrix
    verdict = not eta_matrix(M).det().is_zero()
    return GenPosVerdict(verdict, None, METHOD_ETA, cfg.n, cfg.m, M.ring.describe())


def _random_configuration(ring, m, n, rng) -> PointConfiguration:
    rows = []
    while len(rows) < m:
        row = [ring.random_entry(rng) for _ in range(n + 1)]
        if all(ring.is_zero(v) for v in row):
            continue
        rows.append(row)
    return PointConfiguration(ExactMatrix(ring, rows))


def bench_genpos(n: int, d: int, trials: int, seed: int = 0, ring=None) -> dict:
    """Time the minor-product route against the dual-determinant route on
    identical seeded inputs of m = n+d points, checking they agree."""
    if n < 1 or d < 1 or trials < 0:
        raise NotEnoughPointsError("benchmark needs n >= 1, d >= 1, trials >= 0")
    if ring is None:
        ring = PrimeField(DEFAULT_PRIME)
    m = n + d
    minors_seconds = 0.0
    eta_seconds = 0.0
    agree = 0
    true_count = 0
    for t in range(trials):
        cfg = _random_configuration(ring, m, n, seeded_rng("bench", seed, t))
        t0 = time.perf_counter()
        v1 = in_general_position(cfg)
        t1 = time.perf_counter()
        v2 = in_general_position_via_eta(cfg)
        t2 = time.perf_counter()
        minors_seconds += t1 - t0
        eta_seconds += t2 - t1
        if v1.in_general_position == v2.in_general_position:
            agree += 1
        if v1.in_general_position:
            true_count += 1
    return {
        "n": n,
        "d": d,
        "m": m,
        "ring": ring.describe(),
        "seed": seed,
        "trials": trials,
        "agreement_percent": 100.0 * agree / trials if trials else 100.0,
        "general_position_count": true_count,
        "minors_route_seconds": minors_seconds,
        "eta_route_seconds": eta_seconds,
        "minor_count": comb(m, n + 1),
        "eta_order": comb(m, n),
    }
