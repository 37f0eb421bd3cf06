"""General-position testing for finite point configurations in projective
n-space, by the minor-product route or the single-determinant dual-matrix
route.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BadRingError, NotEnoughPointsError, ZeroPointError
from .matrix import ExactMatrix, _minor_walk
from .rings import IntegerRing, PrimeField
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
        for i, row in enumerate(M.rows_raw()):
            if not any(row):
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
        """The verdict's document is its fields (the instance's attributes):
        each one that is not None, under its own name but
        ``in_general_position``, written as ``verdict``, a tuple as a list."""
        doc = {k: v for k, v in vars(self).items() if v is not None}
        doc["verdict"] = doc.pop("in_general_position")
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}


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
    walk = _minor_walk(M.ring, M.rows_raw(), cfg.n + 1)
    for taken, (minor,) in zip(combinations(range(cfg.m), cfg.n + 1), walk):
        if not minor:
            return GenPosVerdict(False, taken, METHOD_MINORS, cfg.n, cfg.m, M.ring.describe())
    return GenPosVerdict(True, None, METHOD_MINORS, cfg.n, cfg.m, M.ring.describe())


def in_general_position_via_eta(cfg: PointConfiguration) -> GenPosVerdict:
    """Single-determinant test: the dual matrix of degree m-n has nonzero
    determinant exactly when the minor product does (integral domain)."""
    _require_enough(cfg)
    M = cfg.matrix
    verdict = bool(eta_matrix(M).det())
    return GenPosVerdict(verdict, None, METHOD_ETA, cfg.n, cfg.m, M.ring.describe())


def _random_configuration(ring, m, n, rng) -> PointConfiguration:
    rows = []
    while len(rows) < m:
        row = [ring.random_entry(rng) for _ in range(n + 1)]
        if any(row):
            rows.append(row)
    return PointConfiguration(ExactMatrix(ring, rows))

