"""Seeded inputs, library calls and expected results for each workload.

Every input comes from the benchmark's own RNG, seeded by the workload name
and the ``--seed`` argument.  The library receives only finished matrices,
so a change to the package's own sampling (``random_matrix``,
``Ring.random_entry``) cannot change the work measured here.  Expected
results come from the benchmark's own integer reference, not from the
package.

The package is passed in as ``mv`` and every library function is looked up
through its module at call time, so the tracer in ``spans.py`` can wrap it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

WORKLOADS = ("symbolic", "numeric-zp", "numeric-zz", "genpos")

P = 1_000_003
ENTRY_RANGE = 9  # integer entries are drawn from [-9, 9], as in the package's self-test

# The package self-test's numeric grid, copied so that the work cannot drift
# with it: 1 <= n, d <= 4 with Veronese order C(n+d, n) <= 35.
GRID = tuple((n, d) for n in range(1, 5) for d in range(1, 5) if comb(n + d, n) <= 35)

# Formal-unknown proofs.  (4,1) is left out: 75-100 s and 1 GB on its own.
# (2,3) and (3,2) are left out: each ran for more than 200 s.
FORMAL_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (1, 6), (1, 7))
LINEAR_PAIRS = ((2, 2), (3, 1), (4, 1), (1, 4))  # random linear entries in Z[t0,t1,t2]
PAIRING_PAIRS = ((1, 2), (2, 2), (2, 3))
LEMMA_ALPHAS = (2, 3, -1)
GENPOS_DIMS = (2, 3)
GENPOS_MAX_POINTS = 12
ETA_MAX_POINTS = 7  # configurations this small are also checked through the eta route

# Constant sign s per (n, d) in det(eta^d X) = s * mu'(X) and
# det(pairing X) = s * mu'(X)^(n+1), recorded from the package when this
# benchmark was written.  A change of sign shows as a failed verdict.
DUAL_SIGN = {nd: 1 for nd in GRID}
PAIRING_SIGN = {(1, 2): -1, (2, 2): 1, (2, 3): 1}


@dataclass
class Instance:
    """One closed-loop request: a verifier call or a general-position test."""

    kind: str  # "hdv" | "dual" | "lemma" | "pairing" | "genpos"
    n: int
    d: int
    data: object  # ExactMatrix, or PointConfiguration for "genpos"
    rows: list = None  # the input as Python ints, for the reference; None for polynomials
    modulus: int = 0  # P over Z/p, 0 over Z
    alpha: int = 0
    src: int = 0
    dst: int = 0


# ---------------------------------------------------------------------------
# inputs


def build(mv, workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's fixed instance list for ``seed``.

    ``tiny`` keeps only the cheapest instances; the benchmark's own tests use
    it to exercise every code path in a few seconds.
    """
    rng = random.Random(f"mvvand-bench:{workload}:{seed}")
    if workload == "symbolic":
        return _symbolic(mv, rng, tiny)
    if workload == "numeric-zp":
        return _numeric_zp(mv, rng, tiny)
    if workload == "numeric-zz":
        return _numeric_zz(mv, rng, tiny)
    if workload == "genpos":
        return _genpos(mv, rng, tiny)
    raise ValueError(f"unknown workload: {workload!r}")


def _int_rows(rng, nrows, ncols):
    return [[rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(ncols)] for _ in range(nrows)]


def _modp_row(rng, ncols):
    while True:
        row = [rng.randrange(P) for _ in range(ncols)]
        if any(row):
            return row


def _grid(tiny):
    return [(n, d) for n, d in GRID if not tiny or comb(n + d, n) <= 6]


def _symbolic(mv, rng, tiny):
    small = lambda n, d: not tiny or comb(n + d, n) <= 4  # noqa: E731
    out = [
        Instance("hdv", n, d, mv.vandermonde.symbolic_matrix(n + d, n + 1))
        for n, d in FORMAL_PAIRS
        if small(n, d)
    ]
    ring = mv.rings.PolynomialRing(("t0", "t1", "t2"))
    units = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    for n, d in LINEAR_PAIRS:
        rows = [
            [
                mv.rings.Polynomial.from_terms(
                    3, [(e, rng.randint(-ENTRY_RANGE, ENTRY_RANGE)) for e in units]
                )
                for _ in range(n + 1)
            ]
            for _ in range(n + d)
        ]
        if small(n, d):
            out.append(Instance("hdv", n, d, mv.matrix.ExactMatrix(ring, rows)))
    return out


# Instances per grid point in one sweep of the grid, and sweeps per pass.
# Over Z the mix is the package self-test's trials per grid point: 100 hdv,
# 100 dual and 50 column-lemma matrices.  Over Z/p the self-test runs hdv
# only, and no other source fixes a weight for dual, so the split is even.
ZP_MIX = {"hdv": 1, "dual": 1}
ZZ_MIX = {"hdv": 2, "dual": 2, "lemma": 1}
ZP_SWEEPS = 10
ZZ_SWEEPS = 4
GENPOS_SWEEPS = 12  # sweeps over (n, m) and the pairing shapes


def _numeric_zp(mv, rng, tiny):
    fp = mv.rings.PrimeField(P)
    out = []
    for _ in range(1 if tiny else ZP_SWEEPS):
        for n, d in _grid(tiny):
            for kind, count in ZP_MIX.items():
                for _ in range(1 if tiny else count):
                    rows = [_modp_row(rng, n + 1) for _ in range(n + d)]
                    out.append(Instance(kind, n, d, mv.matrix.ExactMatrix(fp, rows), rows, P))
    return out


def _numeric_zz(mv, rng, tiny):
    ZZ = mv.rings.ZZ
    out = []
    for _ in range(1 if tiny else ZZ_SWEEPS):
        for n, d in _grid(tiny):
            for kind, count in ZZ_MIX.items():
                for _ in range(1 if tiny else count):
                    rows = _int_rows(rng, n + d, n + 1)
                    X = mv.matrix.ExactMatrix(ZZ, rows)
                    if kind != "lemma":
                        out.append(Instance(kind, n, d, X, rows))
                        continue
                    src, dst = rng.sample(range(n + 1), 2)
                    # one matrix, three scalars: as the self-test runs the lemma
                    for alpha in LEMMA_ALPHAS:
                        out.append(Instance(kind, n, d, X, rows, alpha=alpha, src=src, dst=dst))
    return out


def _genpos(mv, rng, tiny):
    fp = mv.rings.PrimeField(P)
    out = []
    max_points = ETA_MAX_POINTS if tiny else GENPOS_MAX_POINTS
    configs = 0
    for _ in range(1 if tiny else GENPOS_SWEEPS):
        for n in GENPOS_DIMS:
            for m in range(n + 1, max_points + 1):
                rows = [_modp_row(rng, n + 1) for _ in range(m)]
                if configs % 4 == 3:  # a quarter of the configurations
                    _plant_dependent(rng, rows, n)
                configs += 1
                cfg = mv.genpos.PointConfiguration(mv.matrix.ExactMatrix(fp, rows))
                out.append(Instance("genpos", n, m - n, cfg, rows, P))
        for n, d in PAIRING_PAIRS:
            rows = _int_rows(rng, n + d, n + 1)
            out.append(Instance("pairing", n, d, mv.matrix.ExactMatrix(mv.rings.ZZ, rows), rows))
    return out


def _plant_dependent(rng, rows, n):
    """Make one random (n+1)-subset of the points linearly dependent."""
    subset = rng.sample(range(len(rows)), n + 1)
    target, basis = subset[0], subset[1:]
    while True:
        coeffs = [rng.randrange(1, P) for _ in basis]
        row = [sum(c * rows[b][k] for c, b in zip(coeffs, basis)) % P for k in range(n + 1)]
        if any(row):
            rows[target] = row
            return


# ---------------------------------------------------------------------------
# reference: exact integer determinants, reduced mod P over Z/p


def det(rows) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    a = [list(r) for r in rows]
    size, sign, prev = len(a), 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def minor_product(rows, modulus=0) -> int:
    """mu'(X): the product of all maximal minors of the rows, as mu_prime defines it."""
    size = len(rows[0])
    acc = 1
    for taken in combinations(range(len(rows)), size):
        acc *= det([rows[i] for i in taken])
        if modulus:
            acc %= modulus
    return acc


def lex_least_dependent(rows, n):
    """Lex-least (n+1)-subset of rows whose determinant vanishes mod P, or None."""
    for taken in combinations(range(len(rows)), n + 1):
        if det([rows[i] for i in taken]) % P == 0:
            return taken
    return None


def expected(inst: Instance):
    """What a correct package returns for ``inst``.

    For a verifier over Z or Z/p: (lhs, rhs, sign) as raw ring values.  For a
    genpos configuration: (in general position, lex-least witness).  For a
    polynomial instance: None, and the gate asks for equal, nonzero sides.
    """
    if inst.rows is None:
        return None
    n, d, mod = inst.n, inst.d, inst.modulus
    if inst.kind == "genpos":
        witness = lex_least_dependent(inst.rows, n)
        return witness is None, witness
    mu = minor_product(inst.rows, mod)
    sign = None
    if inst.kind == "hdv":
        lhs = rhs = mu**n
    elif inst.kind == "lemma":
        lhs = rhs = mu**n * inst.alpha ** (n * comb(n + d, n + 1))
    else:
        rhs = mu if inst.kind == "dual" else mu ** (n + 1)
        if rhs:  # no sign is visible when both sides vanish
            sign = (DUAL_SIGN if inst.kind == "dual" else PAIRING_SIGN)[n, d]
        lhs = (sign or 1) * rhs
    if mod:
        lhs, rhs = lhs % mod, rhs % mod
    return lhs, rhs, sign


# ---------------------------------------------------------------------------
# library calls and the correctness gate


def emit(mv, result, verdict=None) -> str:
    """The document ``mvvand verify`` or ``mvvand genpos`` would print."""
    doc = result.to_doc()
    if verdict is not None:
        doc["expected"] = verdict
    return mv.matrix.dumps_doc(doc)


EXPECTED_VERDICT = {
    "hdv": "equal",
    "lemma": "equal",
    "dual": "equal-up-to-sign",
    "pairing": "equal-up-to-sign",
}


def execute(mv, inst: Instance):
    """Run one instance through the library; returns (results, emitted texts)."""
    if inst.kind == "genpos":
        results = [mv.genpos.in_general_position(inst.data)]
        if inst.data.m <= ETA_MAX_POINTS:
            results.append(mv.genpos.in_general_position_via_eta(inst.data))
        return results, [emit(mv, r) for r in results]
    V = mv.vandermonde
    X = inst.data
    if inst.kind == "hdv":
        report = V.verify_hdv(X)
    elif inst.kind == "dual":
        report = V.verify_dual(X)
    elif inst.kind == "lemma":
        report = V.verify_column_lemma(X, inst.alpha, inst.src, inst.dst)
    else:
        report = V.verify_pairing(X)
    return [report], [emit(mv, report, EXPECTED_VERDICT[inst.kind])]


def check(inst: Instance, expect, results) -> bool:
    """True iff the results are ``expect``, the value ``expected(inst)`` gave.

    Raw values are compared as Python ints, so a fault in the package's own
    equality test cannot hide a wrong value.
    """
    if inst.kind == "genpos":
        minors = results[0]
        ok = (minors.in_general_position, minors.witness) == expect
        return ok and all(r.in_general_position == minors.in_general_position for r in results)
    (report,) = results
    if report.verdict != EXPECTED_VERDICT[inst.kind]:
        return False
    if expect is None:
        # Polynomial sides, compared term by term.  A product of minors of
        # formal unknowns, or of random linear forms, is nonzero.
        lhs, rhs = report.lhs.value.terms, report.rhs.value.terms
        return bool(lhs) and lhs == rhs
    return (report.lhs.value, report.rhs.value, report.sign) == expect
