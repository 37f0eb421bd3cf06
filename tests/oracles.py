"""Reference computations that tests compare the package against; the
package itself has no use for them."""
from mvvand.errors import RingMismatchError
from mvvand.matrix import ExactMatrix
from mvvand.rings import RingElement


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
    for exps, c in p.value.items_exponents():
        term = target.from_int(c)
        for x, e in zip(point, exps):
            if e:
                term = target.mul(term, (x ** e).value)
        acc = target.add(acc, term)
    return RingElement(target, acc)
