"""Reference computations that tests compare the package against; the
package itself has no use for them."""
from itertools import combinations

from mvvand.errors import RingMismatchError
from mvvand.matrix import ExactMatrix
from mvvand.rings import Polynomial, PolynomialRing, RingElement, _EXP_BITS


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
                acc = ring.add(acc, ring.mul(x, y))
            out.append(acc)
        rows.append(out)
    return ExactMatrix(ring, rows)


def poly_eval(p: RingElement, point) -> RingElement:
    """Value of a polynomial element at a point whose coordinates share one
    ring (Z or Z/p); the result lives in that ring."""
    if len(point) != p.ring.nvars:
        raise RingMismatchError(
            f"point has {len(point)} coordinates, expected {p.ring.nvars}"
        )
    target = point[0].ring
    acc = target.zero
    for exps, c in items_exponents(p.value):
        term = target.from_int(c)
        for x, e in zip(point, exps):
            if e:
                term = target.mul(term, (x ** e).value)
        acc = target.add(acc, term)
    return RingElement(target, acc)


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
    if p.is_zero():
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


def minor_product_lex(X: ExactMatrix) -> RingElement:
    """Product of the order-(n+1) minors of X, each by its own determinant,
    multiplied in lex order of the rows taken."""
    cols = range(X.ncols)
    acc = RingElement(X.ring, X.ring.one)
    for taken in combinations(range(X.nrows), X.ncols):
        acc = acc * X.minor(taken, cols)
    return acc
