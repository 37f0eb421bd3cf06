"""Immutable dense matrices over a ring, with one exact determinant kernel per
ring kind (packed Gaussian elimination over Z/p, three-step fraction-free
Bareiss over Z, cofactor expansion over Z[x]) and Berkowitz as an oracle, and
one expansion step by a cached plan: Laplace's walks the row sets in lex
order (their Plücker coordinates, from their prefixes'), the symmetric plan
multiplies a form's coefficient vector by a linear form.
"""
from __future__ import annotations

import json
from functools import cache
from itertools import combinations
from pathlib import Path

from .errors import BadIndexError, BadRingError, ParseError, ShapeError
from .rings import ZZ, Polynomial, Ring, _show, ring_from_doc


class ExactMatrix:
    """Row-major matrix whose entries all live in one ring.

    Operations never mutate; they return new matrices.
    """

    __slots__ = ("ring", "nrows", "ncols", "_rows")

    def __init__(self, ring: Ring, rows):
        # raw ring values: in [0, p) over Z/p, of the ring's arity over Z[x]
        self.ring = ring
        self._rows = rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self._rows)
        self.ncols = len(self._rows[0]) if self._rows else 0
        for r in self._rows:
            if len(r) != self.ncols:
                raise ShapeError("ragged rows")
        p = ring.modulus
        if p and self.ncols and not 0 <= min(map(min, rows)) <= max(map(max, rows)) < p:
            raise BadRingError(f"{ring.describe()} entries must lie in [0, {p})")
        # a polynomial knows only its arity: others would take this ring's names
        if ring.name == "poly" and not all(
            isinstance(v, Polynomial) and v.nvars == ring.nvars for r in rows for v in r
        ):
            raise BadRingError(f"poly ring entries must be polynomials of arity {ring.nvars}")

    @classmethod
    def from_rows(cls, ring: Ring, rows) -> "ExactMatrix":
        return cls(ring, [[ring.coerce(v) for v in row] for row in rows])

    # -- access -------------------------------------------------------------

    def rows_raw(self) -> tuple:
        """Raw entries, row by row, as a tuple of tuples."""
        return self._rows

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.ring == other.ring
            and self._rows == other._rows
        )

    __hash__ = None

    def __repr__(self):
        return f"ExactMatrix({self.ring.describe()}, {self.nrows}x{self.ncols})"

    # -- determinants -------------------------------------------------------

    def det(self):
        """Raw determinant (``ring.one`` at order 0) by the one kernel of the
        ring's kind, at every order.  Over Z/p, field elimination pays a modular
        inverse per pivot, three-step Bareiss one per entry for every three
        columns (10x slower at order 35, up to 3.5 us faster at orders 1 to 4);
        over Z, Bareiss is no slower than cofactor expansion (3.8x faster at
        order 2); over Z[x] it swells intermediate polynomials (6x6 symbolic:
        cofactor 0.07 s, Bareiss 23 s), but constants take it over Z, as the
        cost of cofactor grows with the order alone.  The kernels are looked
        up when called, so a tracer that patches the module's names sees every call."""
        if not self.is_square:
            raise ShapeError(f"determinant of a {self.nrows}x{self.ncols} matrix")
        ring = self.ring
        if not self.nrows:
            return ring.one
        kind, rows = ring.name, self._rows
        if kind == "poly" and not any(v.total_degree() for r in rows for v in r):
            det = _det_bareiss(ZZ, [[v.terms.get(0, 0) for v in r] for r in rows])
            return Polynomial.constant(ring.nvars, det)
        kernel = _det_field if kind == "mod_p" else _det_bareiss if kind == "int" else _det_cofactor
        return kernel(ring, rows)

    def minor(self, rows, cols):
        """Raw minor: determinant of the selected submatrix, no cofactor sign."""
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise BadIndexError("row and column selections differ in length")
        for sel, size in ((rows, self.nrows), (cols, self.ncols)):
            if any(a >= b for a, b in zip(sel, sel[1:])):
                raise BadIndexError("index lists must be strictly increasing")
            # strictly increasing, so its two ends bound every index
            if sel and not 0 <= sel[0] <= sel[-1] < size:
                raise BadIndexError(f"index out of range 0..{size - 1}")
        sub = [[self._rows[i][j] for j in cols] for i in rows]
        return ExactMatrix(self.ring, sub).det()

    # -- shared file format -------------------------------------------------

    def to_doc(self) -> dict:
        doc = self.ring.to_doc()
        fmt = self.ring.format
        doc["rows"] = [[fmt(v) for v in r] for r in self._rows]
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "ExactMatrix":
        if not isinstance(doc, dict):
            raise ParseError("matrix document is not a JSON object")
        ring = ring_from_doc(doc)
        rows = doc.get("rows")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ShapeError("matrix document rows are not a list of lists")
        # str() would turn JSON null, true and false into the text None, True, False
        bad = [v for r in rows for v in r if isinstance(v, bool) or not isinstance(v, (int, str))]
        if bad:
            raise ParseError(f"matrix entry is neither a string nor an integer: {_show(bad[0])}")
        return cls(ring, [[ring.parse(str(v)) for v in r] for r in rows])

    @classmethod
    def load(cls, path) -> "ExactMatrix":
        try:
            doc = json.loads(Path(path).read_text())
        # ValueError: a decode error, or a bare integer past the digit limit
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path} is not a JSON document: {exc}") from None
        return cls.from_doc(doc)


def dumps_doc(doc: dict) -> str:
    """Canonical JSON used for every document this package writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def seeded_rng(*parts):
    """Deterministic RNG derived from any mix of seed components.

    String seeding hashes through SHA-512, so results are stable across
    processes and platforms.
    """
    import random

    return random.Random(":".join(map(str, parts)))


def random_matrix(ring: Ring, nrows: int, ncols: int, rng) -> ExactMatrix:
    """Seeded random matrix using each ring's sampling convention."""
    return ExactMatrix(
        ring, [[ring.random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    )


# ---------------------------------------------------------------------------
# the minor walk and the determinant kernels; kernel(ring, rows) takes the raw
# rows of an order n >= 1 matrix and leaves them unchanged


@cache
def _expansion_plan(k: int, j: int) -> tuple:
    """Laplace's expansion along the last row, from the order-j minors of a
    k-column matrix to its order-(j+1) minors: for each (j+1)-subset T of
    range(k), in ``combinations`` order, the terms (column t, index of T - {t}
    among the j-subsets) that add, the first one apart so that a sum starts
    from a product over every ring, and those that subtract.  The term of
    T's pos-th column has sign (-1)^(j + pos)."""
    index = {c: i for i, c in enumerate(combinations(range(k), j))}
    plan = []
    for T in combinations(range(k), j + 1):
        terms = ([], [])
        for pos, t in enumerate(T):
            terms[(j + pos) % 2].append((t, index[T[:pos] + T[pos + 1:]]))
        plan.append((terms[0][0], tuple(terms[0][1:]), tuple(terms[1])))
    return tuple(plan)


def _exponent_vectors(k: int, d: int) -> list:
    """Exponent vectors of total degree d in k >= 1 variables, in descending
    lex order, each from the one before in O(k) steps."""
    v = [d] + [0] * (k - 1)
    out = [tuple(v)]
    while v[-1] < d:
        i = k - 2
        while not v[i]:
            i -= 1
        # the last positive exponent but the final one passes one to its
        # right neighbour, which also takes the final one
        v[i], v[-1], v[i + 1] = v[i] - 1, 0, v[-1] + 1
        out.append(tuple(v))
    return out


@cache
def _symmetric_plan(k: int, j: int) -> tuple:
    """The product by a linear form in k variables, from degree-j to degree-(j+1)
    coefficients in :func:`_exponent_vectors` order, in :func:`_expansion_plan`'s
    layout: for each degree-(j+1) monomial T, one term (variable t, index of
    T - e_t) per positive exponent, the last variable's first (a multiset's
    last letter and its prefix), and none subtracts."""
    index = {e: i for i, e in enumerate(_exponent_vectors(k, j))}
    plan = []
    for T in _exponent_vectors(k, j + 1):
        terms = [(t, index[T[:t] + (T[t] - 1,) + T[t + 1:]]) for t in reversed(range(k)) if T[t]]
        plan.append((terms[0], tuple(terms[1:]), ()))
    return tuple(plan)


def _expand(plan, row, vec, p):
    """One step of a plan: each output sums row[t] * vec[i] over the terms
    that add, less those that subtract.  Over Z/p, p = the modulus, it is
    reduced once (s products of entries in [0, p) stay below s*p^2), by
    :meth:`Ring.reduce` written inline: the method call cost 2-3% of genpos
    and numeric-zp benchmark wall time."""
    out = []
    for (t, i), plus, minus in plan:
        acc = row[t] * vec[i]
        for t, i in plus:
            acc += row[t] * vec[i]
        for t, i in minus:
            acc -= row[t] * vec[i]
        out.append(acc % p if p else acc)
    return out


def _minor_walk(ring, rows, size):
    """For each size-subset R of the raw rows of a matrix over ``ring``, in
    ``combinations`` order, the vector of its raw size x size minors, column
    sets in ``combinations(range(ncols), size)`` order; neither rows nor
    size >= 1 are checked.  The vector of R is one :func:`_expand` step of
    :func:`_expansion_plan` on that of R[:-1] and row R[-1], of R[:1] the row.
    A stack holds those of R[:1], ..., R[:-1], and a new prefix rebuilds
    only its levels whose row changed: each is built once, dropped when the
    walk leaves it, and never past the set at which a consumer stops."""
    m, p = len(rows), ring.modulus
    if size == 1:
        yield from rows
    if not 1 < size <= m:
        return
    # plans[j] takes order j + 1 to j + 2; stack[j] is the vector of prefix[:j + 1]
    plans = [_expansion_plan(len(rows[0]), j) for j in range(1, size)]
    prefix, stack, low, last = list(range(size - 1)), [None] * (size - 1), 0, plans[-1]
    while True:
        for j in range(low, size - 1):
            row = rows[prefix[j]]
            stack[j] = _expand(plans[j - 1], row, stack[j - 1], p) if j else row
        top = stack[-1]
        for row in rows[prefix[-1] + 1:]:
            yield _expand(last, row, top, p)
        # advance the last level below its top row, m - size + level; the rest follow it
        low = size - 2
        while prefix[low] == m - size + low:
            low -= 1
            if low < 0:
                return
        prefix[low:] = range(prefix[low] + 1, prefix[low] + size - low)


def _det_cofactor(ring, rows):
    """Laplace expansion of an order n >= 1 determinant, the walk's one minor on
    all rows; unpacking ends the walk (closing it suspended cost 0.1 us)."""
    [(det,)] = _minor_walk(ring, rows, len(rows))
    return det


def _det_bareiss(ring, rows):
    """Three-step fraction-free elimination (E. H. Bareiss, Math. Comp. 22,
    1968): per entry, four products and one ``ring.exact_div`` (checked,
    reduced) for every three columns, where two-step takes 4.5 and 1.5.  With
    m columns done, the block's entries are order-(m+1) minors of the
    row-swapped input and the divisor p is its leading order-m minor, so by
    Sylvester's identity its k x k minors divide by p^(k-1): the first two
    pivot rows' 2 x 2 minors m.. over p, the three's 3 x 3 minor q (the next
    p) and cofactors d0, d1, d2 on columns {1,2,j}, {0,2,j}, {0,1,j} over p^2,
    and each entry's w*q - e0*d0 + e1*d1 - e2*d2 over p^3.  Pivots: the first
    row with a nonzero lead, then the first later ones with a nonzero m01 and
    q; a swap flips the sign, and if one is missing the columns have rank <= 2
    and the det is 0.  A block of 1 to 3 rows needs no pivot: its det is its
    lead, m01 or q."""
    div, sign, p = ring.exact_div, 1, ring.one
    while len(rows) > 3:
        # rows holds the block left, its first column at index 0
        rows = list(rows)
        for i, r0 in enumerate(rows):
            if r0[0]:
                break
        else:
            return ring.zero
        if i:
            rows[i], rows[0], sign = rows[0], r0, -sign
        a0, a1, a2 = r0[0], r0[1], r0[2]
        for i, r1 in enumerate(rows[1:], 1):
            m01 = div(a0 * r1[1] - a1 * r1[0], p)
            if m01:
                break
        else:
            return ring.zero
        if i > 1:
            rows[i], rows[1], sign = rows[1], r1, -sign
        b0, b1, b2 = r1[0], r1[1], r1[2]
        m02, m12 = div(a0 * b2 - a2 * b0, p), div(a1 * b2 - a2 * b1, p)
        for i, r2 in enumerate(rows[2:], 2):
            q = div(r2[0] * m12 - r2[1] * m02 + r2[2] * m01, p)
            if q:
                break
        else:
            return ring.zero
        if i > 2:
            rows[i], rows[2], sign = rows[2], r2, -sign
        c0, c1, c2 = r2[0], r2[1], r2[2]
        d0, d1, d2, block = [], [], [], []
        for x, y, z in zip(r0[3:], r1[3:], r2[3:]):
            m0, m1, m2 = div(a0 * y - x * b0, p), div(a1 * y - x * b1, p), div(a2 * y - x * b2, p)
            d0.append(div(c1 * m2 - c2 * m1 + z * m12, p))
            d1.append(div(c0 * m2 - c2 * m0 + z * m02, p))
            d2.append(div(c0 * m1 - c1 * m0 + z * m01, p))
        for r in rows[3:]:
            e0, e1, e2 = r[0], r[1], r[2]
            block.append([div(w * q - e0 * f + e1 * g - e2 * h, p)
                          for f, g, h, w in zip(d0, d1, d2, r[3:])])
        rows, p = block, q
    if len(rows) == 1:
        det = rows[0][0]
    elif len(rows) == 2:
        (a0, a1), (b0, b1) = rows
        det = div(a0 * b1 - a1 * b0, p)
    else:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
        det = div(c0 * div(a1 * b2 - a2 * b1, p) - c1 * div(a0 * b2 - a2 * b0, p)
                  + c2 * div(a0 * b1 - a1 * b0, p), p)
    return det if sign > 0 else ring.reduce(-det)


def _det_field(ring, rows):
    """Gaussian elimination over Z/p, p = ring.modulus, of entries in [0, p),
    one modular inverse per pivot; a zero pivot column gives 0.

    Row i is one int, column j in slot j of w = bitlen(n*p^2) bits (Dumas,
    Fousse, Salvy, JSC 2011), so eliminating pivot row k from it is one
    multiply-add, row i += (p - f) * pivot row, with the pivot row reduced
    slot by slot first.  Each step adds under p^2 to a slot and never
    subtracts, so a slot stays in [0, n*p^2): it neither borrows nor carries.
    """
    n, p = len(rows), ring.modulus
    w = (n * p * p).bit_length()
    mask = (1 << w) - 1
    packs = []
    for r in rows:
        acc = 0
        for v in reversed(r):
            acc = acc << w | v
        packs.append(acc)
    det = 1
    for k in range(n - 1):
        s = w * k
        for i in range(k, n):
            pivot = (packs[i] >> s & mask) % p
            if pivot:
                break
        else:
            return 0
        if i != k:
            packs[k], packs[i] = packs[i], packs[k]
            det = -det
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        # columns k+1.. of the pivot row, reduced, in their own slots
        row, pivot_row = packs[k], 0
        for j in range(n - 1, k, -1):
            pivot_row = pivot_row << w | (row >> w * j & mask) % p
        pivot_row <<= s + w
        for i in range(k + 1, n):
            f = (packs[i] >> s & mask) * inv % p
            if f:
                packs[i] += (p - f) * pivot_row
    # the last slot is the top one, so a shift alone reads it
    return det * (packs[n - 1] >> w * (n - 1)) % p


def _det_berkowitz(ring, rows):
    """Division-free determinant via the Samuelson-Berkowitz recursion;
    valid over any commutative ring.  Each dot product and convolution
    coefficient is reduced once."""
    n = len(rows)
    reduce, zero, one = ring.reduce, ring.zero, ring.one

    def dot(u, v):
        acc = zero
        for a, b in zip(u, v):
            acc = acc + a * b
        return reduce(acc)

    # characteristic polynomial of the trailing 1x1 block, then grow
    poly = [one, reduce(-rows[n - 1][n - 1])]
    for k in range(n - 2, -1, -1):
        size = n - k
        r_block = rows[k][k + 1:]
        c_block = [rows[i][k] for i in range(k + 1, n)]
        m_block = [rows[i][k + 1:] for i in range(k + 1, n)]
        col = [one, reduce(-rows[k][k])]
        v = c_block
        while len(col) <= size:
            col.append(reduce(-dot(r_block, v)))
            if len(col) > size:
                break
            v = [dot(row, v) for row in m_block]
        new = []
        for i in range(size + 1):
            acc = zero
            for j in range(max(0, i - size), min(i, size - 1) + 1):
                acc = acc + col[i - j] * poly[j]
            new.append(reduce(acc))
        poly = new
    d = poly[n]
    return d if n % 2 == 0 else reduce(-d)
