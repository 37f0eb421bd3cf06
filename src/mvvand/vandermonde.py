"""Constructions on matrices over a commutative ring — monomial bases, the
degree-d Veronese image, the minor matrix and minor product, the dual matrix
built from products of linear forms, symmetric powers, and the pairing
matrix — together with verifiers for the identities relating them.

Shape conventions: X has n+d rows and n+1 columns; the minor matrix of X has
order-n minors ordered lexicographically on omitted rows/columns, the dual
matrix orders its row products lexicographically on the rows taken, and
monomials of degree d are listed in descending lexicographic order of their
exponent vectors.

Every product of d things is its first d - 1 factors' product times its last,
as the symmetric plan indexes them: Veronese and pairing entries with ``*``
(``_products``), products of linear forms by the minor walk's step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import BadIndexError, ExponentOverflowError, ShapeError
from .matrix import ExactMatrix, _minor_walk, random_matrix, seeded_rng
from .matrix import _expand, _exponent_vectors, _symmetric_plan
from .rings import _EXP_LIMIT, Polynomial, PolynomialRing, RingElement, ZZ, _show


# ---------------------------------------------------------------------------
# monomial basis and products


def monomial_basis(n: int, d: int) -> tuple:
    """Exponent vectors of total degree d in n+1 variables, largest first:
    the order of the symmetric plan in ``matrix``, so that a dense product
    of linear forms is a row on this basis."""
    if n < 1:
        raise ShapeError("projective dimension must be at least 1")
    if d < 0:
        raise ShapeError("degree must be nonnegative")
    out = tuple(_exponent_vectors(n + 1, d))
    assert len(out) == comb(n + d, n)
    return out


def _products(ring, factors, d, repeat):
    """Products of d raw values of ``ring``, in the order
    ``combinations_with_replacement`` (with ``repeat``; :func:`monomial_basis`
    order) or ``combinations`` lists the indices; ``[ring.one]`` at d = 0.
    Callers refuse d < 0; without repetition d <= m.  Each is its first t
    factors' product times the last, read from ``matrix._symmetric_plan`` on g
    letters: letter j is factor j, or t + j with g = m - d + 1 without
    repetition (the bijection of :func:`verify_dual`).  Over Z/p each is
    reduced once, at the end: d factors in [0, p) stay below p^d."""
    shift, p = 0 if repeat else 1, ring.modulus
    g = len(factors) - shift * (d - 1)
    if not d:
        return [ring.one]
    level = list(factors[:g])
    for t in range(1, d):
        level = [level[i] * factors[j + shift * t] for (j, i), _, _ in _symmetric_plan(g, t)]
    return [v % p for v in level] if p else level


def _linear_form_products(ring, forms, d, repeat, nvars):
    """Coefficient rows, on the degree-d monomial basis in nvars variables, of
    the products of d of the linear forms sum_k c_k Y_k, as :func:`_products`
    lists and factors them: a product of one form is the form itself, and of
    t + 1 forms one :func:`matrix._expand` step of the symmetric plan, the
    minor walk's step, on its product of the first t."""
    if not d:
        return [[ring.one]]
    shift, p = 0 if repeat else 1, ring.modulus
    g = len(forms) - shift * (d - 1)
    level = forms[:g]
    for t in range(1, d):
        plan, steps = _symmetric_plan(nvars, t), _symmetric_plan(g, t)
        level = [_expand(plan, forms[j + shift * t], level[i], p) for (j, i), _, _ in steps]
    return list(level)


# ---------------------------------------------------------------------------
# constructors


def _shape_nd(X: ExactMatrix) -> tuple:
    n = X.ncols - 1
    d = X.nrows - n
    if n < 1 or d < 0:
        raise ShapeError(f"expected an (n+d)x(n+1) matrix, got {X.nrows}x{X.ncols}")
    return n, d


def veronese_matrix(X: ExactMatrix, d: int) -> ExactMatrix:
    """Apply the degree-d Veronese map to each row of X, in :func:`monomial_basis` order."""
    if X.ncols < 2:
        raise ShapeError("Veronese image needs at least two columns")
    if d < 0:
        raise ShapeError("degree must be nonnegative")
    return ExactMatrix(X.ring, [_products(X.ring, row, d, True) for row in X.rows_raw()])


def mu_matrix(X: ExactMatrix) -> ExactMatrix:
    """Matrix of order-n minors of an m x (n+1) matrix X.

    Row r corresponds to the r-th choice of n rows under lex order on the
    omitted rows, which is reverse lex order on the rows taken; column j
    holds the minor omitting column j.  Minors are raw (no cofactor signs).
    """
    n, m = X.ncols - 1, X.nrows
    if n < 1 or m < n:
        raise ShapeError(f"minor matrix undefined for shape {m}x{n + 1}")
    # omitting column j, j = 0..n, is reverse combinations order on the rest
    rows = [minors[::-1] for minors in _minor_walk(X.ring, X.rows_raw(), n)]
    return ExactMatrix(X.ring, rows[::-1])


def mu_prime(X: ExactMatrix):
    """Raw product of all order-(n+1) minors of X; empty product is one.

    The walk's minors, one raw value per row set, are multiplied from the last
    back (reverse lex order): at each change of the first row taken the partial
    product is mu' of the trailing rows of X, so over Z[x] it never outgrows
    that sub-problem's answer, as lex-order partial products do.  Over Z/p each
    partial product is reduced by :meth:`Ring.reduce` written inline.
    """
    n, m = X.ncols - 1, X.nrows
    if n < 1:
        raise ShapeError(f"minor product undefined for shape {m}x{n + 1}")
    ring, p = X.ring, X.ring.modulus
    minors = [minor for (minor,) in _minor_walk(ring, X.rows_raw(), n + 1)]
    acc = ring.one
    for minor in reversed(minors):
        acc = acc * minor
        if p:
            acc %= p
    return acc


def eta_matrix(X: ExactMatrix) -> ExactMatrix:
    """Dual matrix: each row is the coefficient vector of the product of d
    rows of X read as linear forms; row choices ordered lex on rows taken."""
    n, d = _shape_nd(X)
    ring = X.ring
    return ExactMatrix(ring, _linear_form_products(ring, X.rows_raw(), d, False, n + 1))


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
    # column k of u is the image of the k-th variable, as a linear form, so
    # the image of a basis monomial is the product of the columns it counts
    columns = _linear_form_products(ring, list(zip(*u.rows_raw())), d, True, m)
    return ExactMatrix(ring, list(zip(*columns)))


def pairing_matrix(X: ExactMatrix) -> ExactMatrix:
    """Square matrix pairing row choices s, s': the (s, s') entry is the
    product over j in s' of the determinant whose first row is row j of X
    and whose remaining rows are the rows outside s, in increasing order.
    Off-diagonal entries vanish identically."""
    n, d = _shape_nd(X)
    ring, raw = X.ring, X.rows_raw()
    rows = []
    for s in combinations(range(n + d), d):
        outside = [raw[i] for i in range(n + d) if i not in s]
        # one determinant per row j; each entry of this row multiplies d of them
        block = [ExactMatrix(ring, [raw[j]] + outside).det() for j in range(n + d)]
        rows.append(_products(ring, block, d, False))
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
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == self.expected

    def to_doc(self) -> dict:
        """The report's document is its fields (the instance's attributes):
        each one that is not None, under its own name, ``lhs`` and ``rhs`` as
        their text (equal sides formatted once), and ``detail`` merged on top
        in place of its own key."""
        doc = {k: v for k, v in vars(self).items() if v is not None}
        detail = doc.pop("detail")
        lhs = str(self.lhs)
        rhs = lhs if self.rhs == self.lhs else str(self.rhs)
        return {**doc, "lhs": lhs, "rhs": rhs, **detail}


def _report(
    identity, n, d, ring, lhs, rhs, expected, holds=True, predicted_sign=None, **extra
) -> VerificationReport:
    """The one comparison rule, on raw sides of ``ring``, which the report
    pairs with it: unless the side condition ``holds`` and lhs equals sign
    times rhs, the verdict is "unequal".  An identity stated up to sign passes
    the ``predicted_sign`` its derivation gives, so a sign fault cannot pass
    as the other sign; it is reported when visible (lhs != -lhs: not for 0,
    nor over Z/2).  Unpinned, the sign is +1 and the verdict "equal", so an
    expected "equal-up-to-sign" is never met without a sign."""
    reduce = ring.reduce
    # -rhs by the one negation rule, only where a sign of -1 is pinned
    if holds and lhs == (reduce(-rhs) if predicted_sign == -1 else rhs):
        verdict = "equal" if predicted_sign is None else "equal-up-to-sign"
    else:
        verdict = "unequal"
    sign = predicted_sign if verdict == "equal-up-to-sign" and lhs != reduce(-lhs) else None
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
    """Check det(eta^d X) = mu' X, with the sign +1 pinned at every (n, d).

    The sign c(n, d) = det(eta X) / mu'(X) is constant, so read it at X with
    last row e_n; let X' be the other rows and X'' be X' without its last
    column.  A row of eta X whose choice takes the last row is Y_n times a
    product of rows of X', so it vanishes off the Y_n-divisible monomials:
    with those rows and columns last, eta X is block upper triangular over
    eta X'' (shape (n-1, d)) and eta X' (shape (n, d-1)).  Expanding along
    e_n (cofactor +1), mu'(X) = mu'(X') mu'(X'').  The map {i_1 < ... < i_d}
    -> {i_k - (k-1)} takes lex d-subsets of range(n+d) onto
    :func:`monomial_basis` order and "takes n+d-1" onto "divisible by Y_n",
    so the row and column reorderings are one permutation and their signs
    cancel.  Hence c(n, d) = c(n-1, d) c(n, d-1), down to c(0, d) = 1 (eta
    of a d x 1 matrix is the product of its entries) and c(n, 0) = 1."""
    n, d = _shape_nd(X)
    lhs = eta_matrix(X).det()
    return _report("dual", n, d, X.ring, lhs, mu_prime(X), "equal-up-to-sign", predicted_sign=1)


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
    return _report("naive", n, d, ZZ, lhs, mu_prime(X), expected, detail={"seed": seed})


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
