"""Reference computations that tests compare the package against, and small
builders for the tests; the package itself has no use for them."""
from itertools import combinations, product

from mvvand import vandermonde
from mvvand.errors import RingMismatchError
from mvvand.matrix import ExactMatrix, _det_bareiss, _det_berkowitz
from mvvand.rings import ZZ, Polynomial, PolynomialRing, RingElement, _EXP_BITS


def elem(ring, v) -> RingElement:
    """Element of ``ring``, as a report's side, from an int or, over Z[x],
    polynomial text."""
    return RingElement(ring, ring.coerce(v))


def identity(ring, n: int) -> ExactMatrix:
    """The n x n identity matrix over ``ring``."""
    one, zero = ring.one, ring.zero
    return ExactMatrix(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])


def elementary(ring, m: int, i: int, j: int, a) -> ExactMatrix:
    """The m x m identity over ``ring`` with the raw value ``a`` at (i, j):
    multiplying by it on the right adds a times column i to column j, or
    for i == j scales column i by a."""
    rows = [list(r) for r in identity(ring, m).rows_raw()]
    rows[i][j] = a
    return ExactMatrix(ring, rows)


def lemma_matrices(X: ExactMatrix, alpha, src: int, dst: int) -> tuple:
    """(report, added, scaled) of ``verify_column_lemma(X, alpha, src, dst)``:
    the two matrices it builds, read from its last two calls of
    ``verify_hdv``, the added one first."""
    seen = []
    true_hdv = vandermonde.verify_hdv

    def recording(M):
        seen.append(M)
        return true_hdv(M)

    vandermonde.verify_hdv = recording
    try:
        report = vandermonde.verify_column_lemma(X, alpha, src, dst)
    finally:
        vandermonde.verify_hdv = true_hdv
    return (report, *seen[-2:])


def submatrix(M: ExactMatrix, rows, cols) -> ExactMatrix:
    """The entries of M on the given rows and columns, in the order given."""
    raw = M.rows_raw()
    return ExactMatrix(M.ring, [[raw[i][j] for j in cols] for i in rows])


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Product of two matrices over one ring, by the schoolbook rule."""
    ring = a.ring
    cols = list(zip(*b.rows_raw()))
    rows = []
    for r in a.rows_raw():
        out = []
        for c in cols:
            acc = ring.zero
            for x, y in zip(r, c):
                acc = ring.reduce(acc + x * y)
            out.append(acc)
        rows.append(out)
    return ExactMatrix(ring, rows)


def det_by(kernel, A: ExactMatrix):
    """Raw determinant of the square matrix A by one named kernel of
    mvvand.matrix, such as ``_det_berkowitz``; one at order 0."""
    ring = A.ring
    return kernel(ring, A.rows_raw()) if A.nrows else ring.one


def det_mod_p(A: ExactMatrix) -> int:
    """Raw determinant of a matrix over Z/p: Bareiss over Z on the integer
    representatives, reduced mod p afterwards."""
    return det_by(_det_bareiss, ExactMatrix(ZZ, A.rows_raw())) % A.ring.modulus


def pairing_by_blocks(X: ExactMatrix, mutate=list) -> ExactMatrix:
    """Pairing matrix of an (n+d) x (n+1) matrix X by its definition: entry
    (s, s') is the product over j in s' of block j of s, the determinant by
    Berkowitz of row j of X over the rows outside s in increasing order, one
    ``ExactMatrix`` per block, reduced after every product.  ``mutate`` maps
    the rows of the first row choice's block for its first row before the
    determinant."""
    ring, raw, m = X.ring, X.rows_raw(), X.nrows
    subsets = list(combinations(range(m), m - X.ncols + 1))
    rows = []
    for s in subsets:
        outside = [raw[i] for i in range(m) if i not in s]
        block = []
        for j in range(m):
            rows_j = [raw[j]] + outside
            if s == subsets[0] and s[:1] == (j,):
                rows_j = mutate(rows_j)
            block.append(det_by(_det_berkowitz, ExactMatrix(ring, rows_j)))
        row = []
        for s_prime in subsets:
            entry = ring.one
            for j in s_prime:
                entry = ring.reduce(entry * block[j])
            row.append(entry)
        rows.append(row)
    return ExactMatrix(ring, rows)


def poly_eval(p: Polynomial, point, target):
    """Raw value of a polynomial at a point of raw values of ``target`` (Z or
    Z/p); the result lives in that ring."""
    if len(point) != p.nvars:
        raise RingMismatchError(
            f"point has {len(point)} coordinates, expected {p.nvars}"
        )
    acc = target.zero
    for exps, c in items_exponents(p):
        term = target.coerce(c)
        for x, e in zip(point, exps):
            if e:
                term = target.reduce(term * target.pow(x, e))
        acc = target.reduce(acc + term)
    return acc


def items_exponents(p: Polynomial):
    """Iterate (exponent-tuple, coefficient) in descending lex order, read
    from the packed keys field by field."""
    nvars = p.nvars
    field = (1 << _EXP_BITS) - 1
    lexmask = (1 << (_EXP_BITS * nvars)) - 1
    for k in sorted(p.terms, key=lambda k: k & lexmask, reverse=True):
        exps = tuple((k >> (_EXP_BITS * (nvars - 1 - i))) & field for i in range(nvars))
        yield exps, p.terms[k]


def format_polynomial(ring: PolynomialRing, p: Polynomial) -> str:
    """Canonical text built term by term, every monomial from its whole
    exponent vector."""
    if not p.terms:
        return "0"
    chunks = []
    for exps, c in items_exponents(p):
        mono = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(ring.variables, exps)
            if e
        )
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def minor_product_lex(X: ExactMatrix):
    """Raw product of the order-(n+1) minors of X, each by its own
    determinant, multiplied in lex order of the rows taken."""
    ring, cols = X.ring, range(X.ncols)
    acc = ring.one
    for taken in combinations(range(X.nrows), X.ncols):
        acc = ring.reduce(acc * X.minor(taken, cols))
    return acc


def exponent_vectors(nvars: int, d: int) -> tuple:
    """Exponent vectors of total degree d in nvars variables, largest first,
    by brute force: every vector with entries up to d, kept when its entries
    sum to d, sorted in descending lex order."""
    vectors = (e for e in product(range(d + 1), repeat=nvars) if sum(e) == d)
    return tuple(sorted(vectors, reverse=True))


def expand_linear_forms(ring, forms, nvars):
    """Expand a product of linear forms sum_k c_k Y_k into a map from
    exponent tuples to raw coefficients, reducing after every operation."""
    acc = {(0,) * nvars: ring.one}
    for f in forms:
        new = {}
        for exps, c in acc.items():
            for k, ck in enumerate(f):
                if ck == ring.zero:
                    continue
                e2 = exps[:k] + (exps[k] + 1,) + exps[k + 1:]
                v = ring.reduce(c * ck)
                if e2 in new:
                    new[e2] = ring.reduce(new[e2] + v)
                else:
                    new[e2] = v
        acc = new
    return acc


def eta_matrix_by_tuples(X: ExactMatrix, basis) -> ExactMatrix:
    """Dual matrix of X on ``basis``: one tuple-keyed expansion per choice of
    rows, in lex order of the rows taken."""
    ring, raw = X.ring, X.rows_raw()
    d = sum(basis[0])
    rows = []
    for taken in combinations(range(X.nrows), d):
        coeffs = expand_linear_forms(ring, [raw[i] for i in taken], X.ncols)
        rows.append([coeffs.get(exps, ring.zero) for exps in basis])
    return ExactMatrix(ring, rows)


def sym_power_by_tuples(u: ExactMatrix, basis) -> ExactMatrix:
    """Symmetric power of u on ``basis``: column e holds the tuple-keyed
    expansion of the product of the columns of u that e counts."""
    ring, m = u.ring, u.nrows
    cols = [[u.rows_raw()[i][k] for i in range(m)] for k in range(m)]
    columns = []
    for exps in basis:
        forms = [cols[k] for k, e in enumerate(exps) for _ in range(e)]
        coeffs = expand_linear_forms(ring, forms, m)
        columns.append([coeffs.get(e2, ring.zero) for e2 in basis])
    return ExactMatrix(ring, [list(r) for r in zip(*columns)])
