"""Immutable dense matrices over a ring, with one exact determinant kernel per
ring kind (packed Gaussian elimination over Z/p, two-step fraction-free
Bareiss over Z, cofactor expansion over Z[x]) and Berkowitz as an oracle, and
one expansion step by a cached plan: Laplace's builds the minor table (the
Plücker coordinates of a row set, from its prefix's), the symmetric plan
multiplies a form's coefficient vector by a linear form.
"""
from __future__ import annotations

import json
from functools import cache
from itertools import combinations
from pathlib import Path

from .errors import BadIndexError, BadRingError, ParseError, ShapeError
from .rings import Polynomial, Ring, _show, ring_from_doc


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
        inverse per pivot, two-step Bareiss one per entry for every two columns
        (13x slower at order 35, up to 3.5 us faster at orders 1 to 4); over Z,
        Bareiss beats cofactor expansion at every order (2.2x at order 4); over
        Z[x], it swells intermediate polynomials (6x6 symbolic: cofactor 0.07 s,
        Bareiss 55 s).  The kernels are looked up when called, so a tracer that
        patches the module's names sees every call."""
        if not self.is_square:
            raise ShapeError(f"determinant of a {self.nrows}x{self.ncols} matrix")
        ring = self.ring
        if not self.nrows:
            return ring.one
        kind = ring.name
        kernel = _det_field if kind == "mod_p" else _det_bareiss if kind == "int" else _det_cofactor
        return kernel(ring, self._rows)

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
# the minor table and the determinant kernels; kernel(ring, rows) takes the raw
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
    T - e_t) per positive exponent, the first one apart, and none subtracts."""
    index = {e: i for i, e in enumerate(_exponent_vectors(k, j))}
    plan = []
    for T in _exponent_vectors(k, j + 1):
        terms = [(t, index[T[:t] + (T[t] - 1,) + T[t + 1:]]) for t in range(k) if T[t]]
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


def _minor_table(ring, rows):
    """Minor table of the raw rows of a matrix over ``ring``: ``minors(R)``,
    for a strictly increasing nonempty row tuple R, is the vector of all raw
    |R| x |R| minors on R, column sets in ``combinations(range(ncols), |R|)``
    order.  Neither rows nor R are checked; ``ExactMatrix.minor`` is.

    The vector of R is one :func:`_expand` step of :func:`_expansion_plan`
    on the vector of R[:-1] and row R[-1]; the order-1 vector is the row
    itself.  Proper prefixes are memoised on the row tuple and shared by
    every later call; the vector asked for is returned, not stored, as
    consumers read each once."""
    k, p = len(rows[0]) if rows else 0, ring.modulus
    # plans[j] takes order-j minors to order j+1; the order-1 vector needs none
    plans = [None] + [_expansion_plan(k, j) for j in range(1, min(len(rows), k))]
    memo = {}

    def minors(R):
        # start from the longest prefix built so far, or from the first row
        last = top = len(R) - 1
        while top > 1 and (vec := memo.get(R[:top])) is None:
            top -= 1
        if top < 2:
            vec, top = rows[R[0]], 1
        for j in range(top, last + 1):
            vec = _expand(plans[j], rows[R[j]], vec, p)
            if j < last:
                memo[R[:j + 1]] = vec
        return vec

    return minors


def _det_cofactor(ring, rows):
    """Laplace expansion of an order n >= 1 determinant: entry 0 of the minor
    table's vector of all rows, so the package has one Laplace expansion."""
    return _minor_table(ring, rows)(tuple(range(len(rows))))[0]


def _det_bareiss(ring, rows):
    """Two-step fraction-free elimination (E. H. Bareiss, Math. Comp. 22,
    1968): per entry, three products and one ``ring.exact_div`` (checked,
    reduced) for every two columns, where one-step Bareiss takes four and two.
    With m columns done, the block's entries are order-(m+1) minors of the
    row-swapped input and the divisor p is its leading order-m minor.  So by
    Sylvester's identity the pivot rows' 2 x 2 minor q, each column's 2 x 2
    cofactors d1, d2, and e*d1 + f*d2 + q*w (a 3 x 3 minor over p) all divide
    by p exactly.  Pivots: the first row with a nonzero lead, then the first
    later row with a nonzero 2 x 2 minor with it; a swap flips the sign, and
    if either is missing the two columns have rank <= 1 and the det is 0."""
    if len(rows) == 1:
        return rows[0][0]
    div, rows = ring.exact_div, list(rows)
    sign, p = 1, ring.one
    while True:
        # rows holds the block left, its first column at index 0
        for i, top in enumerate(rows):
            if top[0]:
                break
        else:
            return ring.zero
        if i:
            rows[i], rows[0], sign = rows[0], top, -sign
        a, b = top[0], top[1]
        for i in range(1, len(rows)):
            second = rows[i]
            c, d = second[0], second[1]
            q = div(a * d - b * c, p)
            if q:
                break
        else:
            return ring.zero
        if i > 1:
            rows[i], rows[1], sign = rows[1], second, -sign
        if len(rows) < 4:
            break
        d1, d2, block = [], [], []
        for x, y in zip(top[2:], second[2:]):
            d1.append(div(b * y - d * x, p))
            d2.append(div(c * x - a * y, p))
        for r in rows[2:]:
            e, f = r[0], r[1]
            block.append([div(e * u + f * v + q * w, p) for u, v, w in zip(d1, d2, r[2:])])
        rows, p = block, q
    if len(rows) == 3:
        # the last entry, built without one-element lists
        (e, f, w), x, y = rows[2], top[2], second[2]
        q = div(e * div(b * y - d * x, p) + f * div(c * x - a * y, p) + q * w, p)
    return q if sign > 0 else ring.reduce(-q)


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
