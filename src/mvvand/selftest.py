"""Self-verification suite: every identity the package implements, checked
at full strength (symbolic proof-by-computation at desk scale, seeded
randomized trials elsewhere).  The CLI ``selftest`` subcommand and the
acceptance tests both run these criteria.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod
from typing import Callable

from .genpos import (
    PointConfiguration,
    _random_configuration,
    in_general_position,
    in_general_position_via_eta,
)
from .matrix import ExactMatrix, random_matrix, seeded_rng
from .matrix import _det_bareiss, _det_berkowitz, _det_cofactor
from .rings import DEFAULT_PRIME, Polynomial, PolynomialRing, PrimeField, ZZ
from .vandermonde import (
    demo_naive_failure,
    symbolic_matrix,
    verify_column_lemma,
    verify_dual,
    verify_hdv,
    verify_pairing,
    verify_sym_power,
)

# (n, d) with 1 <= n, d <= 4 and Veronese order at most 35
NUMERIC_GRID = tuple(
    (n, d)
    for n in range(1, 5)
    for d in range(1, 5)
    if comb(n + d, n) <= 35
)

SYMBOLIC_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 1), (3, 1), (4, 1))
# symbolic sign proofs; pairing at (4, 1) did not finish in 5 minutes
DUAL_SIGN_PAIRS = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1))
PAIRING_SIGN_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float | None = None  # wall-clock bound, where one is specified

    @property
    def in_budget(self) -> bool:
        return self.budget is None or self.seconds < self.budget

    def line(self) -> str:
        status = "PASS" if self.passed and self.in_budget else "FAIL"
        extra = "" if self.in_budget else f" (over budget {self.budget:.0f}s)"
        return f"{status} {self.name}: {self.detail} [{self.seconds:.1f}s]{extra}"


CRITERIA: list[tuple[str, Callable]] = []  # in the order they run


def _criterion(name: str, budget: float | None = None):
    """Register a criterion body under ``name``.  The body returns
    (passed, detail); the registered function times it and returns a
    CriterionResult."""

    def register(body):
        @functools.wraps(body)
        def criterion(quick: bool = False) -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body(quick)
            return CriterionResult(name, passed, detail, time.perf_counter() - t0, budget)

        CRITERIA.append((name, criterion))
        return criterion

    return register


@_criterion("classical-vandermonde", budget=10)
def classical_vandermonde(quick: bool = False):
    """Symbolic classical Vandermonde determinant, degrees up to 5."""
    degrees = range(1, 4 if quick else 6)
    checked = []
    ok = True
    for d in degrees:
        ring = PolynomialRing([f"X{i}" for i in range(d + 1)])
        x = [Polynomial.variable(d + 1, i) for i in range(d + 1)]
        det = ExactMatrix(ring, [[xi ** j for j in range(d + 1)] for xi in x]).det()
        rhs = prod((x[j] - x[i] for i, j in combinations(range(d + 1), 2)), start=ring.one)
        ok &= det == rhs
        checked.append(d)
    return ok, f"degrees {list(checked)} exact"


@_criterion("symbolic-identity", budget=120)
def symbolic_identity(quick: bool = False):
    """The main identity as a polynomial identity in all matrix entries."""
    pairs = [p for p in SYMBOLIC_PAIRS if not (quick and p == (4, 1))]
    ok = True
    for n, d in pairs:
        ok &= verify_hdv(symbolic_matrix(n + d, n + 1)).ok
    return ok, f"pairs {pairs} exact"


@_criterion("numeric-identity", budget=120)
def numeric_identity(quick: bool = False):
    """Seeded random trials of the main identity over Z and Z/p."""
    trials = 5 if quick else 100
    fp = PrimeField(DEFAULT_PRIME)
    ok = True
    for n, d in NUMERIC_GRID:
        for ring, tag in ((ZZ, "int"), (fp, "modp")):
            for t in range(trials):
                X = random_matrix(ring, n + d, n + 1, seeded_rng("hdv", tag, n, d, t))
                ok &= verify_hdv(X).ok
    return ok, f"{len(NUMERIC_GRID)} grid points x {trials} trials x 2 rings"


@_criterion("dual-identity")
def dual_identity(quick: bool = False):
    """det of the dual matrix equals the minor product with the sign +1 that
    verify_dual pins, on seeded trials, the worked 3x2 example and
    symbolically at DUAL_SIGN_PAIRS."""
    trials = 5 if quick else 100
    ok = True
    for n, d in NUMERIC_GRID:
        for t in range(trials):
            X = random_matrix(ZZ, n + d, n + 1, seeded_rng("dual", n, d, t))
            ok &= verify_dual(X).ok
    ok &= verify_dual(ExactMatrix.from_rows(ZZ, [[1, 0], [0, 1], [1, 1]])).ok
    for n, d in DUAL_SIGN_PAIRS:
        ok &= verify_dual(symbolic_matrix(n + d, n + 1)).ok
    grid = f"{len(NUMERIC_GRID)} grid points x {trials} trials"
    return ok, f"sign +1 on {grid}, at (1,2) and at {len(DUAL_SIGN_PAIRS)} symbolic pairs"


@_criterion("column-lemma")
def column_lemma(quick: bool = False):
    """Column operations: add-scaled invariance and exact scaling by
    alpha^(n*C(n+d, n+1)) for alpha in {2, 3, -1}."""
    trials = 3 if quick else 50
    ok = True
    for n, d in NUMERIC_GRID:
        for t in range(trials):
            X = random_matrix(ZZ, n + d, n + 1, seeded_rng("lemma", n, d, t))
            src = t % (n + 1)
            dst = (t + 1) % (n + 1)
            for alpha in (2, 3, -1):
                ok &= verify_column_lemma(X, alpha, src, dst).ok
    return ok, f"{len(NUMERIC_GRID)} grid points x {trials} trials x 3 scalars"


@_criterion("sym-power")
def sym_power(quick: bool = False):
    """det S^d(u) = (det u)^C(m+d-1, m), randomized plus one symbolic case."""
    trials = 5 if quick else 50
    ok = True
    for m in range(1, 5):
        for d in range(1, 5):
            for t in range(trials):
                u = random_matrix(ZZ, m, m, seeded_rng("sym", m, d, t))
                ok &= verify_sym_power(u, d).ok
    ok &= verify_sym_power(symbolic_matrix(2, 2), 2).ok
    return ok, f"m,d <= 4 x {trials} trials + symbolic (2,2)"


@_criterion("abstract-pairing")
def abstract_pairing(quick: bool = False):
    """Pairing matrix is exactly diagonal with det = sign * (mu' X)^(n+1),
    the sign that verify_pairing predicts for (n, d); also symbolic."""
    trials = 5 if quick else 50
    ok = True
    for n, d in ((1, 2), (2, 2), (2, 3)):
        for t in range(trials):
            X = random_matrix(ZZ, n + d, n + 1, seeded_rng("pairing", n, d, t))
            # a nonzero off-diagonal entry or another sign makes it unequal
            ok &= verify_pairing(X).ok
    for n, d in PAIRING_SIGN_PAIRS:
        ok &= verify_pairing(symbolic_matrix(n + d, n + 1)).ok
    return ok, f"3 grid points x {trials} trials + symbolic, diagonal + sign"


@_criterion("naive-failure")
def naive_failure(quick: bool = False):
    """The unrestricted Veronese determinant does not equal the minor
    product for n, d >= 2, while for n = 1 it does."""
    ok = demo_naive_failure(2, 2, seed=0).ok and demo_naive_failure(1, 2, seed=0).ok
    return ok, "(2,2) unequal, (1,2) equal"


@_criterion("det-oracles")
def det_oracles(quick: bool = False):
    """det() = cofactor = berkowitz = bareiss over Z, over Z[x,y,z] with
    degree-1 entries and over Z/p, all orders up to 6; over Z/p at orders
    10, 20 and 35, det() = Bareiss over Z on the representatives, mod p."""
    trials, large_trials = (10, 1) if quick else (200, 5)
    pr = PolynomialRing(["x", "y", "z"])
    fp = PrimeField(DEFAULT_PRIME)
    ok = True
    for ring, tag in ((ZZ, "int"), (pr, "poly"), (fp, "modp")):
        for order in range(1, 7):
            for t in range(trials):
                M = random_matrix(ring, order, order, seeded_rng("det", tag, order, t))
                rows, a = M.rows_raw(), M.det()
                ok &= a == _det_cofactor(ring, rows) == _det_berkowitz(ring, rows)
                ok &= a == _det_bareiss(ring, rows)
    for order in (10, 20, 35):
        for t in range(large_trials):
            M = random_matrix(fp, order, order, seeded_rng("det", "modp", order, t))
            ok &= M.det() == _det_bareiss(ZZ, M.rows_raw()) % fp.modulus
    large = f"Z/p orders 10, 20, 35 x {large_trials} against Bareiss over Z mod p"
    return ok, f"orders 1..6 x {trials} trials x 3 rings; {large}"


@_criterion("genpos-agreement")
def genpos_agreement(quick: bool = False):
    """Minor-product route and dual-determinant route agree on random Z/p
    configurations and on the constructed degenerate examples."""
    trials = 25 if quick else 500
    fp = PrimeField(DEFAULT_PRIME)
    ok = True
    for t in range(trials):
        m = 4 + t % 4  # m in 4..7, n = 2
        cfg = _random_configuration(fp, m, 2, seeded_rng("genpos", t))
        ok &= (
            in_general_position(cfg).in_general_position
            == in_general_position_via_eta(cfg).in_general_position
        )
    collinear = PointConfiguration.from_rows(
        ZZ, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
    )
    v = in_general_position(collinear)
    ok &= not v.in_general_position and v.witness == (0, 1, 2)
    ok &= not in_general_position_via_eta(collinear).in_general_position
    simplex = PointConfiguration.from_rows(
        ZZ, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    )
    ok &= in_general_position(simplex).in_general_position
    ok &= in_general_position_via_eta(simplex).in_general_position
    return ok, f"{trials} random Z/p configs + constructed examples"


def run_all(quick: bool = False, report=print) -> bool:
    """Run every criterion, emit one line each; True iff all pass."""
    all_ok = True
    for _, fn in CRITERIA:
        result = fn(quick=quick)
        report(result.line())
        all_ok &= result.passed and result.in_budget
    return all_ok
