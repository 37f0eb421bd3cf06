"""Exact verification toolkit for multivariate Vandermonde-type determinant
identities: Veronese images of minor matrices, dual matrices of linear-form
products, symmetric powers, and a general-position tester for projective
point configurations.
"""

from .errors import (
    BadIndexError,
    BadRingError,
    ExponentOverflowError,
    InexactDivisionError,
    MvvandError,
    NotEnoughPointsError,
    ParseError,
    RingMismatchError,
    ShapeError,
    SymbolicCapError,
    ZeroPointError,
)
from .genpos import (
    GenPosVerdict,
    PointConfiguration,
    in_general_position,
    in_general_position_via_eta,
)
from .matrix import ExactMatrix, random_matrix, seeded_rng
from .rings import (
    DEFAULT_PRIME,
    IntegerRing,
    Polynomial,
    PolynomialRing,
    PrimeField,
    Ring,
    RingElement,
    ZZ,
)
from .vandermonde import (
    VerificationReport,
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
