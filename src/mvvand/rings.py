"""Exact commutative-ring arithmetic.

Three rings are supported: arbitrary-precision integers, prime fields Z/p,
and sparse multivariate polynomials over Z.  A :class:`Ring` instance is a
descriptor for *raw* values (Python ints, or :class:`Polynomial`), which
compute with Python's operators and are reduced by :meth:`Ring.reduce`, the
one arithmetic rule.  A raw value of any ring is zero exactly when it is
falsy, and :meth:`Ring.pow` is the one power rule.  :meth:`Ring.coerce` is
the one embedding of an int (over Z[x], of polynomial text too); it refuses
any other value, a raw polynomial of any ring included, since a polynomial
knows only its arity, not its variable names.  :class:`RingElement` pairs a
raw value with its ring as a report's side.  All values are immutable.
"""
from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import (
    BadRingError,
    ExponentOverflowError,
    InexactDivisionError,
    ParseError,
    RingMismatchError,
)


def _show(value) -> str:
    """Outside input as a message names it: an int past 128 bits by its size,
    as int-to-text may be refused and has no bound; text, or the repr of any
    other value, cut to 40 characters and then followed by its length."""
    if isinstance(value, int) and value.bit_length() > 128:
        return f"{'negative ' if value < 0 else ''}{value.bit_length()}-bit number"
    text = value if isinstance(value, str) else repr(value)
    shown = repr(text[:40]) if isinstance(value, str) else text[:40]
    return shown if len(text) <= 40 else f"{shown}... ({len(text)} characters)"


# ---------------------------------------------------------------------------
# sparse multivariate polynomials

_EXP_BITS = 16
_EXP_LIMIT = 1 << _EXP_BITS


def _encode(nvars: int, exps: Sequence[int]) -> int:
    """Pack an exponent vector into a single integer key.

    Layout, most significant first: total degree, then one 16-bit field per
    variable in variable order.  Keys of monomial products are sums of keys,
    and masking off the degree field leaves plain lexicographic order.
    """
    if len(exps) != nvars:
        raise ValueError("exponent vector has wrong arity")
    key = 0
    total = 0
    for e in exps:
        if e < 0:
            raise ValueError("negative exponent")
        if e >= _EXP_LIMIT:
            raise ExponentOverflowError(f"exponent {_show(e)} exceeds {_EXP_LIMIT - 1}")
        key = (key << _EXP_BITS) | e
        total += e
    if total >= _EXP_LIMIT:
        raise ExponentOverflowError(f"total degree {total} exceeds {_EXP_LIMIT - 1}")
    return key | (total << (_EXP_BITS * nvars))


def _decode(nvars: int, key: int) -> tuple:
    exps = []
    for i in range(nvars):
        shift = _EXP_BITS * (nvars - 1 - i)
        exps.append((key >> shift) & (_EXP_LIMIT - 1))
    return tuple(exps)


def _monomial_text(names: Sequence[str], key: int) -> str:
    """Text of the monomial whose exponent fields over ``names`` are packed in
    ``key`` without a degree field, e.g. "x^2*y"; "" for the monomial 1."""
    return "*".join(
        v if e == 1 else f"{v}^{e}"
        for v, e in zip(names, _decode(len(names), key))
        if e
    )


def _add_products(out: dict, k1: int, c1: int, items) -> None:
    """Add the term c1 * c2 at key k1 + k2 into ``out`` for each (k2, c2) of
    ``items``, deleting a key whose sum cancels: the one inner loop of a
    product and of a square."""
    get = out.get
    for k2, c2 in items:
        k = k1 + k2
        v = get(k)
        if v is None:
            out[k] = c1 * c2
        else:
            v += c1 * c2
            if v:
                out[k] = v
            else:
                del out[k]


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients.

    Terms are a map from packed exponent key to nonzero coefficient; the
    canonical form stores no zero coefficients, so structural equality is
    polynomial equality.  Variable *names* live on the owning
    :class:`PolynomialRing`; the polynomial itself only knows its arity.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        # terms is trusted: packed keys, no zero coefficients
        self.nvars = nvars
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c: int) -> "Polynomial":
        return cls(nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {_encode(nvars, exps): 1})

    @classmethod
    def from_terms(cls, nvars: int, items: Iterable[tuple]) -> "Polynomial":
        """Build from (exponent-tuple, coefficient) pairs, collecting duplicates."""
        terms: dict = {}
        for exps, c in items:
            if not c:
                continue
            k = _encode(nvars, exps)
            v = terms.get(k, 0) + c
            if v:
                terms[k] = v
            else:
                del terms[k]
        return cls(nvars, terms)

    # -- queries ------------------------------------------------------------

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for the int 0."""
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial.  The degree field sits
        above the exponent fields, so the largest key has the largest degree."""
        return max(self.terms, default=0) >> (_EXP_BITS * self.nvars)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Polynomial(nvars={self.nvars}, nterms={len(self.terms)})"

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise RingMismatchError("polynomials over different variable sets")

    def __add__(self, other: "Polynomial", sign: int = 1) -> "Polynomial":
        """self + sign * other: sums and differences collect terms in one loop."""
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + sign * c
            if v:
                out[k] = v
            else:
                del out[k]
        return Polynomial(self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self.__add__(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if self.total_degree() + other.total_degree() >= _EXP_LIMIT:
            raise ExponentOverflowError("product degree exceeds packed limit")
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out: dict = {}
        for k2, c2 in b.items():
            _add_products(out, k2, c2, a.items())
        return Polynomial(self.nvars, out)

    def _square(self) -> "Polynomial":
        """self * self with each cross term computed once and doubled:
        N(N+1)/2 term products where ``*`` makes N^2."""
        items = list(self.terms.items())
        out: dict = {}
        for i, (k1, c1) in enumerate(items):
            _add_products(out, k1, c1, items[i:i + 1])
            _add_products(out, k1, c1 + c1, items[i + 1:])
        return Polynomial(self.nvars, out)

    def __pow__(self, e: int) -> "Polynomial":
        """A symmetric square, then repeated multiplication by self: on sparse
        inputs it makes fewer term products than repeated squaring (Fateman
        1974).  When :func:`_packing_pays`, the power is that of the packed
        polynomial, its last variable t = 2^B: each coefficient of self^e is
        at most ||self||_1^e, below 2^(B-1).  The packed polynomial has one
        term per integer, so its own power takes the dict loop."""
        if e < 0:
            raise ValueError("negative power")
        # over Z the degree of a power is e times the degree; checked before
        # any product, as a product only checks the one it makes
        degree = e * self.total_degree()
        if degree >= _EXP_LIMIT:
            raise ExponentOverflowError(f"total degree {_show(degree)} exceeds {_EXP_LIMIT - 1}")
        if e == 0:
            return Polynomial.constant(self.nvars, 1)
        # zero has no terms, so the rule would pack it, into itself, forever
        if e == 1 or not self.terms:
            return self
        if _packing_pays([self]):
            w = _digit_bytes(sum(map(abs, self.terms.values())) ** e)
            return _unpack(_pack(self, w) ** e, w)
        result = self._square()
        for _ in range(e - 2):
            result = result * self
        return result

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient self / divisor; raises if a remainder is left.

        Repeated lexicographic leading-term division: over an integral
        domain this terminates with zero remainder exactly when the
        division is exact.
        """
        self._check(divisor)
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        nvars = self.nvars
        lexmask = (1 << (_EXP_BITS * nvars)) - 1
        kq = max(divisor.terms, key=lambda k: k & lexmask)
        cq = divisor.terms[kq]
        eq = _decode(nvars, kq)
        rem = dict(self.terms)
        quot: dict = {}
        while rem:
            kr = max(rem, key=lambda k: k & lexmask)
            cr = rem[kr]
            er = _decode(nvars, kr)
            if cr % cq or any(a < b for a, b in zip(er, eq)):
                raise InexactDivisionError("multivariate division leaves a remainder")
            c = cr // cq
            dk = kr - kq
            quot[dk] = c
            for k2, c2 in divisor.terms.items():
                k = dk + k2
                v = rem.get(k, 0) - c * c2
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        return Polynomial(nvars, quot)


# ---------------------------------------------------------------------------
# the last variable packed into the coefficients (Kronecker substitution)
#
# With t, the last variable, set to 2^B, the terms of a polynomial that
# differ only in t become one integer, whose base-2^B digits are their
# coefficients.  A product or determinant of packed polynomials is the packed
# result, and while every coefficient of the result lies below 2^(B-1) in
# absolute value, they are exactly its integers' balanced base-2^B digits.
# B is 8w for a width of w bytes.


def _digit_bytes(bound: int) -> int:
    """The least width w in bytes with 2^(8w-1) above ``bound``."""
    return bound.bit_length() // 8 + 1


def _t_groups(v: Polynomial) -> dict:
    """The terms of v that differ only in t: a map from their key with t's
    exponent set to 0 (its field and the degree field both lowered) to their
    (exponent of t, coefficient) pairs."""
    mask, unit = _EXP_LIMIT - 1, 1 | 1 << _EXP_BITS * v.nvars
    groups: dict = {}
    for key, c in v.terms.items():
        e = key & mask
        groups.setdefault(key - e * unit, []).append((e, c))
    return groups


def _packing_pays(polys) -> bool:
    """The one packing rule: pack when the polynomials' terms are at least
    twice their packed integers, and those integers' digit slots (one more
    than the top exponent of t in each) at most twice the terms."""
    terms = ints = slots = 0
    for v in polys:
        groups = _t_groups(v)
        terms += len(v.terms)
        ints += len(groups)
        slots += sum(max(e for e, _ in g) + 1 for g in groups.values())
    return 2 * ints <= terms and slots <= 2 * terms


def _pack(v: Polynomial, w: int) -> Polynomial:
    """v with t = 2^(8w), every coefficient below 2^(8w-1) in absolute value.
    Each integer is read from two byte strings, one for its positive digits
    and one for its negative digits, each digit written into its slot: one
    pass, where adding each c << 8w*e into a growing integer is quadratic in
    the degree of t."""
    out = {}
    for key, digits in _t_groups(v).items():
        size = w * (max(e for e, _ in digits) + 1)
        pos, neg = bytearray(size), bytearray(size)
        for e, c in digits:
            if c > 0:
                pos[e * w:e * w + w] = c.to_bytes(w, "little")
            else:
                neg[e * w:e * w + w] = (-c).to_bytes(w, "little")
        out[key] = int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
    return Polynomial(v.nvars, out)


def _unpack(p: Polynomial, w: int) -> Polynomial:
    """The polynomial packed as p at t = 2^(8w), every coefficient below
    2^(8w-1) in absolute value: each integer's balanced base-2^(8w) digits,
    by one ``to_bytes`` and a sign borrow.  A term of total degree past the
    exponent limit raises before any key is written, as a product does."""
    nvars, B = p.nvars, 8 * w
    top = _EXP_BITS * nvars
    unit, half, out = 1 | 1 << top, 1 << B - 1, {}
    for key, x in p.terms.items():
        # every digit below 2^(B-1), so the top B bits hold the top digit
        size = x.bit_length() // B + 1
        degree = (key >> top) + size - 1
        if degree >= _EXP_LIMIT:
            raise ExponentOverflowError(f"total degree {degree} exceeds {_EXP_LIMIT - 1}")
        raw, borrow = x.to_bytes(size * w, "little", signed=True), 0
        for e in range(size):
            # an unsigned digit from half up stands for itself less 2^B,
            # which the next digit takes back as one
            c = int.from_bytes(raw[e * w:e * w + w], "little") + borrow
            borrow = c >= half
            c -= borrow << B
            if c:
                out[key + e * unit] = c
    return Polynomial(nvars, out)


# ---------------------------------------------------------------------------
# primality (for prime-field moduli)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least strong pseudoprime to all the bases above
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin with the fixed witness set {2,...,41}.

    Deterministic for all n < psi_13 ~ 3.317e24; larger n raise
    :class:`BadRingError`, since a composite could pass.
    """
    if n >= _MR_LIMIT:
        raise BadRingError(f"{_show(n)} is past the deterministic primality bound {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# ring descriptors

DEFAULT_PRIME = 1_000_003

_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME + r"\Z")
_FACTOR = rf"(?:[0-9]+|{_NAME}(?:\s*\^\s*[0-9]+)?)"
# a term of polynomial text, its factors in group 2; the sign takes its own
# space, as two \s* around an empty match make a failed match quadratic
_TERM_RE = re.compile(rf"\s*(?:([-+])\s*)?({_FACTOR}(?:\s*\*\s*{_FACTOR})*)\s*")
_FACTOR_RE = re.compile(rf"([0-9]+)|({_NAME})(?:\s*\^\s*([0-9]+))?")
_DIGITS_RE = re.compile(r"\s*[-+]?([0-9]+)\s*\Z")


def _read_int(text: str) -> int:
    """The one reader of integer text: entries over Z and Z/p, numbers in
    polynomial text, and a modulus given as a string.  Its grammar is
    ``_DIGITS_RE``: an optional sign, then ASCII digits, with space around
    them; int() alone also reads "1_0" and other scripts' digits.  A digit
    string past sys.get_int_max_str_digits() is reported by its length."""
    digits = _DIGITS_RE.match(text)
    if not digits:
        raise ParseError(f"not an integer: {_show(text)}")
    try:
        return int(text)
    except ValueError:
        raise ParseError(
            f"{len(digits.group(1))}-digit integer is past the limit on integer text"
        ) from None


class Ring:
    """Base descriptor: raw values compute with Python's operators, which ints
    and :class:`Polynomial` share, and :meth:`reduce` brings a result back
    into the ring.  Rings are equal when their :meth:`describe` strings are."""

    name = "?"
    # p for Z/p, 0 for Z and Z[x]: the number raw results are reduced by
    modulus = 0

    def reduce(self, v):
        """v mod p over Z/p; v itself over Z and Z[x]."""
        p = self.modulus
        return v % p if p else v

    def pow(self, v, e: int):
        """The one power rule: pow(v, e, p) over Z/p, v ** e over Z and Z[x].
        A negative exponent is refused: pow(v, -1, p) would silently invert."""
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        p = self.modulus
        return pow(v, e, p) if p else v ** e

    def format(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        return self.coerce(_read_int(text))

    def coerce(self, v):
        if isinstance(v, int):
            # int(): a bool is written and read back as 0 or 1
            return self.reduce(int(v))
        raise BadRingError(f"cannot coerce {type(v).__name__} into {self.describe()}")

    def __eq__(self, other):
        return isinstance(other, Ring) and self.describe() == other.describe()

    def __hash__(self):
        return hash(self.describe())

    # subclasses: zero, one, exact_div, random_entry, describe, to_doc;
    # PolynomialRing also format, coerce and parse


class IntegerRing(Ring):
    """Arbitrary-precision integers."""

    name = "int"
    zero = 0
    one = 1

    def exact_div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("integer division by zero")
        q, r = divmod(a, b)
        if r:
            raise InexactDivisionError(f"{_show(b)} does not divide {_show(a)}")
        return q

    def random_entry(self, rng):
        # sampling convention for randomized suites
        return rng.randint(-9, 9)

    def describe(self) -> str:
        return "int"

    def to_doc(self) -> dict:
        return {"ring": "int"}

    def __repr__(self):
        return "IntegerRing()"


class PrimeField(Ring):
    """Z/p for a prime p; raw values are ints in [0, p)."""

    name = "mod_p"

    def __init__(self, p: int = DEFAULT_PRIME):
        if p < 2 or not is_prime(p):
            raise BadRingError(f"modulus {_show(p)} is not prime")
        self.modulus = p
        self.zero = 0
        self.one = 1 % p

    def exact_div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Z/p")
        return a * pow(b, -1, self.modulus) % self.modulus

    def random_entry(self, rng):
        return rng.randrange(self.modulus)

    def describe(self) -> str:
        return f"mod_p({self.modulus})"

    def to_doc(self) -> dict:
        return {"ring": "mod_p", "modulus": str(self.modulus)}

    def __repr__(self):
        return f"PrimeField({self.modulus})"


class PolynomialRing(Ring):
    """Z[variables]; raw values are :class:`Polynomial`."""

    name = "poly"

    def __init__(self, variables: Sequence[str]):
        names = tuple(variables)
        if not names:
            raise BadRingError("polynomial ring needs at least one variable")
        seen = set()
        for v in names:
            if not (isinstance(v, str) and _NAME_RE.match(v)):
                raise BadRingError(f"bad variable name: {_show(v)}")
            if v in seen:
                raise BadRingError(f"duplicate variable name: {_show(v)}")
            seen.add(v)
        self.variables = names
        self.nvars = len(names)
        self._index = {v: i for i, v in enumerate(names)}
        self.zero = Polynomial(self.nvars, {})
        self.one = Polynomial.constant(self.nvars, 1)

    def exact_div(self, a, b):
        return a.exact_div(b)

    def coerce(self, v):
        if isinstance(v, str):
            return self.parse(v)
        if isinstance(v, int):
            return Polynomial.constant(self.nvars, int(v))
        return super().coerce(v)

    def random_entry(self, rng):
        # degree <= 1 with small coefficients; matches the randomized suites
        items = [((0,) * self.nvars, rng.randint(-9, 9))]
        for i in range(self.nvars):
            exps = [0] * self.nvars
            exps[i] = 1
            items.append((tuple(exps), rng.randint(-9, 9)))
        return Polynomial.from_terms(self.nvars, items)

    def describe(self) -> str:
        return "poly(" + ",".join(self.variables) + ")"

    def to_doc(self) -> dict:
        return {"ring": "poly", "variables": list(self.variables)}

    def __repr__(self):
        return f"PolynomialRing({list(self.variables)!r})"

    # -- canonical text -----------------------------------------------------

    def format(self, p: Polynomial) -> str:
        """Canonical text: terms in descending lex order, e.g. "x0^2 - 2*x0*x1".

        Each key's exponent fields split into a high and a low half; the text
        of each half is built once per distinct value and shared by every
        term that repeats it.
        """
        if not p:
            return "0"
        terms = p.terms
        nlow = self.nvars // 2
        low_bits = _EXP_BITS * nlow
        lexmask = (1 << (_EXP_BITS * self.nvars)) - 1
        low_mask = (1 << low_bits) - 1
        high_mask = lexmask ^ low_mask
        high_names = self.variables[: self.nvars - nlow]
        low_names = self.variables[self.nvars - nlow:]
        keys = sorted(terms, key=lexmask.__and__, reverse=True)
        high = {h: _monomial_text(high_names, h >> low_bits) for h in {k & high_mask for k in keys}}
        low = {lo: _monomial_text(low_names, lo) for lo in {k & low_mask for k in keys}}
        chunks = []
        for k in keys:
            c = terms[k]
            h, lo = high[k & high_mask], low[k & low_mask]
            mono = f"{h}*{lo}" if h and lo else h or lo
            mag = -c if c < 0 else c
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            chunks.append((" - " if c < 0 else " + ") + body)
        out = "".join(chunks)
        # the leading term carries its sign without spaces, "+" not at all
        return out[3:] if out[1] == "+" else "-" + out[3:]

    def parse(self, text: str) -> Polynomial:
        """Read polynomial text: terms joined by + or -, the first with an
        optional sign; a term is numbers and variables joined by *, each variable
        with an optional ^ power; space may stand around each part."""
        items = []
        pos = 0
        while pos < len(text) or not items:
            m = _TERM_RE.match(text, pos)
            if not m or (items and not m.group(1)):
                raise ParseError(f"bad polynomial text at character {pos}: {_show(text[pos:])}")
            coeff, exps = 1, [0] * self.nvars
            for number, name, power in _FACTOR_RE.findall(m.group(2)):
                if number:
                    coeff *= _read_int(number)
                elif name in self._index:
                    exps[self._index[name]] += _read_int(power) if power else 1
                else:
                    raise ParseError(f"unknown variable: {_show(name)}")
            items.append((tuple(exps), -coeff if m.group(1) == "-" else coeff))
            pos = m.end()
        return Polynomial.from_terms(self.nvars, items)


ZZ = IntegerRing()


def ring_from_doc(doc: dict) -> Ring:
    """Rebuild a ring from the shared file-format fields."""
    kind = doc.get("ring")
    if kind == "int":
        return ZZ
    if kind == "mod_p":
        if "modulus" not in doc:
            raise ParseError("mod_p ring requires a modulus")
        modulus = doc["modulus"]
        if isinstance(modulus, str):
            modulus = _read_int(modulus)
        # int() would truncate a JSON float and read a bool as 0 or 1
        if not isinstance(modulus, int) or isinstance(modulus, bool):
            raise ParseError(f"bad modulus: {_show(modulus)}")
        return PrimeField(modulus)
    if kind == "poly":
        variables = doc.get("variables")
        if not isinstance(variables, list):
            raise ParseError("poly ring requires a variable list")
        return PolynomialRing(variables)
    raise ParseError(f"unknown ring kind: {_show(kind)}")


# ---------------------------------------------------------------------------
# wrapped elements


class RingElement:
    """A raw value paired with its ring: a side of a verification report, which
    compares and formats it.  It equals an element of its ring with the same
    value."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        # over Z/p a raw value is canonical, in [0, p); Ring.coerce reduces
        p = ring.modulus
        if p and not 0 <= value < p:
            raise BadRingError(f"{ring.describe()} values must lie in [0, {p})")
        self.ring = ring
        self.value = value

    def __pow__(self, e: int):
        return RingElement(self.ring, self.ring.pow(self.value, e))

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.ring == other.ring and self.value == other.value
        return NotImplemented

    __hash__ = None

    def __str__(self):
        return self.ring.format(self.value)

    def __repr__(self):
        return f"<{self.ring.describe()}: {self}>"
