"""Constructions on matrices over a commutative ring — monomial bases, the
degree-d Veronese image, the minor matrix and minor product, the dual matrix
built from products of linear forms, symmetric powers, and the pairing
matrix — together with verifiers for the identities relating them.

Shape conventions: X has n+d rows and n+1 columns; the minor matrix of X has
order-n minors ordered lexicographically on omitted rows/columns, the dual
matrix orders its row products lexicographically on the rows taken, and
monomials of degree d are listed in descending lexicographic order of their
exponent vectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from math import comb, prod

from .errors import BadIndexError, ExponentOverflowError, ShapeError
from .matrix import ExactMatrix, _minor_table, random_matrix, seeded_rng
from .rings import _EXP_LIMIT, Polynomial, PolynomialRing, RingElement, ZZ, _show


# ---------------------------------------------------------------------------
# monomial basis


def _exponents(nvars: int, d: int) -> tuple:
    """Exponent vectors of total degree d in nvars variables, largest first:
    the multisets of d variables come in lex order, so the vectors counting
    them come out in descending lex order."""
    out = []
    for multiset in combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for k in multiset:
            exps[k] += 1
        out.append(tuple(exps))
    return tuple(out)


def monomial_basis(n: int, d: int) -> tuple:
    """Exponent vectors of total degree d in n+1 variables, largest first."""
    if n < 1:
        raise ShapeError("projective dimension must be at least 1")
    if d < 0:
        raise ShapeError("degree must be nonnegative")
    exps = _exponents(n + 1, d)
    assert len(exps) == comb(n + d, n)
    return exps


# ---------------------------------------------------------------------------
# constructors


def _shape_nd(X: ExactMatrix) -> tuple:
    n = X.ncols - 1
    d = X.nrows - n
    if n < 1 or d < 0:
        raise ShapeError(f"expected an (n+d)x(n+1) matrix, got {X.nrows}x{X.ncols}")
    return n, d


def _monomial_value(ring, row, exps):
    """Value of one monomial at a row, on raw values; over Z/p the product
    (below p^d) is reduced once, by :meth:`Ring.reduce` written inline as
    in ``_laplace_minor``."""
    acc = ring.one
    for x, e in zip(row, exps):
        if e:
            acc = acc * x ** e
    p = ring.modulus
    return acc % p if p else acc


def veronese_matrix(X: ExactMatrix, d: int) -> ExactMatrix:
    """Apply the degree-d Veronese map to each row of X."""
    if X.ncols < 2:
        raise ShapeError("Veronese image needs at least two columns")
    n = X.ncols - 1
    basis = monomial_basis(n, d)
    ring = X.ring
    rows = [
        [_monomial_value(ring, row, exps) for exps in basis]
        for row in X.rows_raw()
    ]
    return ExactMatrix(ring, rows)


def mu_matrix(X: ExactMatrix) -> ExactMatrix:
    """Matrix of order-n minors of an m x (n+1) matrix X.

    Row r corresponds to the r-th choice of n rows under lex order on the
    omitted rows, which is reverse lex order on the rows taken; column j
    holds the minor omitting column j.  Minors are raw (no cofactor signs).
    """
    n = X.ncols - 1
    m = X.nrows
    if n < 1 or m < n:
        raise ShapeError(f"minor matrix undefined for shape {m}x{n + 1}")
    minor = _minor_table(X)
    all_cols = tuple(range(n + 1))
    omit = [all_cols[:j] + all_cols[j + 1:] for j in all_cols]
    rows = [
        [minor(taken, cols) for cols in omit]
        for taken in reversed(list(combinations(range(m), n)))
    ]
    return ExactMatrix(X.ring, rows)


def mu_prime(X: ExactMatrix):
    """Raw product of all order-(n+1) minors of X; empty product is one.

    The minors are multiplied in colex order of the rows taken, so each
    partial product is mu' of the leading rows of X: over Z[x] it never
    outgrows that sub-problem's answer, as lex-order partial products do.
    Over Z/p each partial product is reduced by :meth:`Ring.reduce` written
    inline, as in ``_laplace_minor``.
    """
    n = X.ncols - 1
    m = X.nrows
    if n < 1:
        raise ShapeError(f"minor product undefined for shape {m}x{n + 1}")
    ring = X.ring
    p = ring.modulus
    minor = _minor_table(X)
    acc = ring.one
    cols = tuple(range(n + 1))
    for taken in sorted(combinations(range(m), n + 1), key=lambda t: t[::-1]):
        acc = acc * minor(taken, cols)
        if p:
            acc %= p
    return acc


def _packed_basis(basis):
    """Weights and keys that pack exponent vectors of total degree d into
    ints in base d + 1, the first variable most significant: a monomial
    product's key is the sum of the keys, and ``keys`` are the basis's."""
    base = sum(basis[0]) + 1
    nvars = len(basis[0])
    weights = [base ** (nvars - 1 - k) for k in range(nvars)]
    keys = [sum(e * w for e, w in zip(exps, weights)) for exps in basis]
    return weights, keys


def _expand_linear_forms(ring, forms, weights, keys):
    """Coefficients, on the basis whose packed keys are ``keys``, of the
    product of the linear forms sum_k c_k Y_k, where Y_k has key
    ``weights[k]`` (see :func:`_packed_basis`).

    The expansion multiplies in one form at a time on raw values with
    Python's operators; over Z/p every coefficient is reduced once per form
    (a coefficient below p times one below p, summed over at most
    len(weights) terms), by :meth:`Ring.reduce` written inline as in
    ``_laplace_minor``.  Each form's zero coefficients are skipped once."""
    p = ring.modulus
    acc = {0: ring.one}
    for f in forms:
        nonzero = [(w, c) for w, c in zip(weights, f) if c]
        new = {}
        for key, a in acc.items():
            for w, c in nonzero:
                k = key + w
                if k in new:
                    new[k] = new[k] + a * c
                else:
                    new[k] = a * c
        acc = {k: v % p for k, v in new.items()} if p else new
    zero = ring.zero
    return [acc.get(k, zero) for k in keys]


def eta_matrix(X: ExactMatrix) -> ExactMatrix:
    """Dual matrix: each row is the coefficient vector of the product of d
    rows of X read as linear forms; row choices ordered lex on rows taken."""
    n, d = _shape_nd(X)
    ring = X.ring
    weights, keys = _packed_basis(monomial_basis(n, d))
    raw = X.rows_raw()
    rows = [
        _expand_linear_forms(ring, [raw[i] for i in taken], weights, keys)
        for taken in combinations(range(n + d), d)
    ]
    return ExactMatrix(ring, rows)


def sym_power_matrix(u: ExactMatrix, d: int) -> ExactMatrix:
    """Matrix of the d-th symmetric power of u on the degree-d monomial
    basis (descending lex), with columns giving images of basis monomials."""
    if not u.is_square:
        raise ShapeError("symmetric power needs a square matrix")
    if u.nrows < 1:
        raise ShapeError("symmetric power needs order at least 1")
    if d < 0:
        raise ShapeError("degree must be nonnegative")
    m = u.nrows
    ring = u.ring
    if ring.name == "poly":
        # the image of a variable's d-th power holds each entry of its column
        # to the d-th power, so the largest degree d * top is reached
        top = max(v.total_degree() for row in u.rows_raw() for v in row)
        if d * top >= _EXP_LIMIT:
            raise ExponentOverflowError(
                f"symmetric power d={_show(d)} of entries of degree {top} "
                f"would exceed total degree {_EXP_LIMIT - 1}"
            )
    basis = _exponents(m, d)
    weights, keys = _packed_basis(basis)
    # column k of u is the image of the k-th variable, as a linear form
    cols = list(zip(*u.rows_raw()))
    columns = [
        _expand_linear_forms(
            ring, [cols[k] for k, e in enumerate(exps) for _ in range(e)], weights, keys
        )
        for exps in basis
    ]
    return ExactMatrix(ring, list(zip(*columns)))


def pairing_matrix(X: ExactMatrix) -> ExactMatrix:
    """Square matrix pairing row choices s, s': the (s, s') entry is the
    product over j in s' of the determinant whose first row is row j of X
    and whose remaining rows are the rows outside s, in increasing order.
    Off-diagonal entries vanish identically."""
    n, d = _shape_nd(X)
    ring = X.ring
    raw = X.rows_raw()
    subsets = list(combinations(range(n + d), d))
    rows = []
    for s in subsets:
        outside = [raw[i] for i in range(n + d) if i not in s]
        # one determinant per row j; each entry of this row multiplies d of them
        block = [ExactMatrix(ring, [raw[j]] + outside).det() for j in range(n + d)]
        rows.append(
            [ring.reduce(prod((block[j] for j in t), start=ring.one)) for t in subsets]
        )
    return ExactMatrix(ring, rows)


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class VerificationReport:
    """Outcome of one identity check; ``expected`` is the verdict the
    identity predicts, set by the verifier."""

    identity: str
    n: int
    d: int
    ring: str
    lhs: RingElement
    rhs: RingElement
    verdict: str  # "equal" | "equal-up-to-sign" | "unequal"
    expected: str
    sign: int | None = None
    seed: int | None = None
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == self.expected

    def to_doc(self) -> dict:
        doc = {
            "identity": self.identity,
            "n": self.n,
            "d": self.d,
            "ring": self.ring,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "verdict": self.verdict,
            "expected": self.expected,
        }
        if self.sign is not None:
            doc["sign"] = self.sign
        if self.seed is not None:
            doc["seed"] = self.seed
        doc.update(self.detail)
        return doc


def _report(
    identity, n, d, ring, lhs, rhs, expected, holds=True, predicted_sign=None, **extra
) -> VerificationReport:
    """The one comparison rule, on raw sides of ``ring``, which the report
    pairs with it.  The sides are compared only when the side condition
    ``holds``; otherwise the verdict is "unequal".  When the identity predicts
    "equal-up-to-sign" they are compared up to sign, and the sign is reported
    when visible (lhs != -lhs: not for 0, nor over Z/2); otherwise exactly.
    A ``predicted_sign`` pins the sign: unless lhs equals it times rhs the
    verdict is "unequal", so a sign fault cannot pass as the other sign."""
    reduce = ring.reduce
    up_to_sign = expected == "equal-up-to-sign"
    # -rhs by the one negation rule, only where it can decide the verdict
    opposite = holds and (up_to_sign and lhs != rhs or predicted_sign == -1) and lhs == reduce(-rhs)
    if predicted_sign is not None:
        holds = holds and (opposite if predicted_sign == -1 else lhs == rhs)
    if holds and lhs == rhs:
        verdict = "equal-up-to-sign" if up_to_sign else "equal"
        sign = 1 if up_to_sign and lhs != reduce(-lhs) else None
    elif holds and up_to_sign and opposite:
        verdict, sign = "equal-up-to-sign", -1
    else:
        verdict, sign = "unequal", None
    return VerificationReport(
        identity, n, d, ring.describe(), RingElement(ring, lhs), RingElement(ring, rhs),
        verdict, expected, sign, **extra
    )


def verify_hdv(X: ExactMatrix) -> VerificationReport:
    """Check det(nu^d mu X) = (mu' X)^n on an (n+d) x (n+1) matrix."""
    n, d = _shape_nd(X)
    lhs = veronese_matrix(mu_matrix(X), d).det()
    return _report("hdv", n, d, X.ring, lhs, X.ring.pow(mu_prime(X), n), "equal")


def verify_dual(X: ExactMatrix) -> VerificationReport:
    """Check det(eta^d X) = +/- mu' X; the sign is reported when visible."""
    n, d = _shape_nd(X)
    return _report("dual", n, d, X.ring, eta_matrix(X).det(), mu_prime(X), "equal-up-to-sign")


# (X, verify_hdv(X)) of the last matrix the column lemma checked
_lemma_base = None


def verify_column_lemma(X: ExactMatrix, alpha, src: int, dst: int) -> VerificationReport:
    """Check both column-operation facts: adding alpha times column src to
    column dst changes neither side, and scaling column src by alpha scales
    both sides by alpha^(n*C(n+d, n+1)).

    Before any determinant runs, the columns are checked in this order: two
    distinct columns, then src, then dst in range(ncols), so a negative index
    is refused, not read from the end.  alpha is coerced once, and the added
    and scaled matrices are built from the raw rows of X, each changed entry
    reduced once.

    The base report ``verify_hdv(X)`` of the last matrix checked is kept in
    one slot, keyed on an equal matrix (the same ring and the same rows), so
    checking one matrix for several scalars runs it once.  The memo sits here
    and not in ``verify_hdv``, whose every call computes both sides afresh:
    a fault injected into a constructor reaches each direct check."""
    global _lemma_base
    n, d = _shape_nd(X)
    if src == dst:
        raise BadIndexError(f"column lemma needs two distinct columns, got {_show(src)} twice")
    for j in (src, dst):
        if not 0 <= j < X.ncols:
            raise BadIndexError(f"column {_show(j)} out of range")
    ring, reduce, rows = X.ring, X.ring.reduce, X.rows_raw()
    a = ring.coerce(alpha)
    added_X = ExactMatrix(
        ring, [r[:dst] + (reduce(r[dst] + a * r[src]),) + r[dst + 1:] for r in rows]
    )
    scaled_X = ExactMatrix(ring, [r[:src] + (reduce(a * r[src]),) + r[src + 1:] for r in rows])
    # one read and one write of the slot, so no other caller swaps the report
    # between the key check and its use
    slot = _lemma_base
    if slot is None or slot[0] != X:
        slot = _lemma_base = (X, verify_hdv(X))
    base = slot[1]
    added = verify_hdv(added_X)
    scaled = verify_hdv(scaled_X)
    return _report(
        "lemma",
        n,
        d,
        ring,
        scaled.lhs.value,
        reduce(base.lhs.value * ring.pow(a, n * comb(n + d, n + 1))),
        "equal",
        holds=base.ok and added.ok and scaled.ok and added.lhs.value == base.lhs.value,
        detail={"alpha": ring.format(a), "src": src, "dst": dst},
    )


def verify_sym_power(u: ExactMatrix, d: int) -> VerificationReport:
    """Check det(S^d u) = (det u)^C(m+d-1, m)."""
    lhs = sym_power_matrix(u, d).det()
    m = u.nrows
    return _report("sym", m, d, u.ring, lhs, u.ring.pow(u.det(), comb(m + d - 1, m)), "equal")


def _pairing_sign(n: int, d: int) -> int:
    """Sign of det(pairing_matrix(X)) / (mu' X)^(n+1) for X of shape (n+d)x(n+1).

    The (s, s) entry is the product over j in s of the minor on the rows
    {j} + (rows outside s); sorting row j into place takes #{i not in s :
    i < j} transpositions.  For the t-th smallest j in s that count is
    j - t, so row choice s contributes sum(s) - d(d-1)/2 and all C(n+d, d)
    choices together C(n+d, d) * d * n / 2 transpositions."""
    return -1 if comb(n + d, d) * d * n // 2 % 2 else 1


def verify_pairing(X: ExactMatrix) -> VerificationReport:
    """Check the pairing matrix is diagonal with det = sign * (mu' X)^(n+1),
    ``sign`` from :func:`_pairing_sign`; the verdict stays "equal-up-to-sign"."""
    n, d = _shape_nd(X)
    P = pairing_matrix(X)
    raw = P.rows_raw()
    diagonal = not any(
        raw[i][j] for i in range(P.nrows) for j in range(P.ncols) if i != j
    )
    return _report(
        "abstract",
        n,
        d,
        X.ring,
        P.det(),
        X.ring.pow(mu_prime(X), n + 1),
        "equal-up-to-sign",
        holds=diagonal,
        predicted_sign=_pairing_sign(n, d),
        detail={"diagonal": diagonal},
    )


def demo_naive_failure(n: int, d: int, seed: int = 0) -> VerificationReport:
    """Compare det(nu^d X) with mu' X on a seeded random square-Veronese
    instance.  For n >= 2 and d >= 2 the two sides disagree generically.
    For n = 1 the comparison is the classical projective identity; for
    d = 1, nu^1 X = X and mu' X = det X; for d = 0 both sides are one."""
    if n < 1 or d < 0:
        raise ShapeError("need n >= 1 and d >= 0")
    rng = seeded_rng("naive", seed, n, d)
    X = random_matrix(ZZ, comb(n + d, n), n + 1, rng)
    lhs = veronese_matrix(X, d).det()
    expected = "unequal" if n >= 2 and d >= 2 else "equal"
    return _report("naive", n, d, ZZ, lhs, mu_prime(X), expected, seed=seed)


# ---------------------------------------------------------------------------
# symbolic instances


def symbolic_matrix(nrows: int, ncols: int) -> ExactMatrix:
    """Matrix of distinct formal unknowns x{i}_{j} over Z[...]."""
    names = [f"x{i}_{j}" for i in range(nrows) for j in range(ncols)]
    ring = PolynomialRing(names)
    rows = [
        [Polynomial.variable(ring.nvars, i * ncols + j) for j in range(ncols)]
        for i in range(nrows)
    ]
    return ExactMatrix(ring, rows)
