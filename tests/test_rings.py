import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from mvvand.errors import (
    BadRingError,
    ExponentOverflowError,
    InexactDivisionError,
    ParseError,
    RingMismatchError,
)
from mvvand.matrix import ExactMatrix, seeded_rng
from mvvand.rings import (
    Polynomial,
    PolynomialRing,
    PrimeField,
    RingElement,
    ZZ,
    _pack,
    _unpack,
    is_prime,
    ring_from_doc,
)
from mvvand.vandermonde import mu_prime, symbolic_matrix

from oracles import (
    elem,
    exponent_vectors,
    format_polynomial,
    items_exponents,
    pack_by_shifts,
    packing_pays,
    poly_eval,
)

XY = PolynomialRing(["x", "y"])
F7 = PrimeField(7)


def P(text):
    return XY.parse(text)


class TestBasics:
    # the one arithmetic rule: Python's operators on raw values, then reduce
    def test_integer_product(self):
        assert ZZ.reduce(ZZ.parse("7") * ZZ.parse("-3")) == -21

    def test_difference_of_squares(self):
        assert XY.parse("x + y") * XY.parse("x - y") == XY.parse("x^2 - y^2")

    def test_mod_add(self):
        assert F7.reduce(F7.parse("5") + F7.parse("4")) == 2

    def test_prime_check(self):
        assert is_prime(1_000_003)
        assert not is_prime(1_000_001)  # 101 * 9901
        with pytest.raises(BadRingError):
            PrimeField(91)

    def test_strong_pseudoprime_to_bases_up_to_37_rejected(self):
        psi12 = 318_665_857_834_031_151_167_461  # 399165290221 * 798330580441
        assert not is_prime(psi12)
        with pytest.raises(BadRingError):
            PrimeField(psi12)

    def test_large_primes_accepted(self):
        for p in (1_000_003, 2**61 - 1):
            assert PrimeField(p).modulus == p

    def test_modulus_past_primality_bound_rejected(self):
        psi13 = 3_317_044_064_679_887_385_961_981
        with pytest.raises(BadRingError):
            PrimeField(psi13)
        with pytest.raises(BadRingError):
            PrimeField(2**89 - 1)  # prime, but too large to certify
        # the message once held every digit; past 4,300 digits int-to-text
        # raised ValueError instead of BadRingError
        with pytest.raises(BadRingError) as err:
            PrimeField(10**5000 + 1)
        assert len(str(err.value)) < 200

    def test_product_degree_limit(self):
        # packed keys hold total degrees up to 65535
        x = Polynomial.from_terms(2, [((32768, 0), 1), ((0, 0), 1)])
        y = Polynomial.from_terms(2, [((0, 32767), 1), ((1, 0), 1)])
        assert (x * y).total_degree() == 65535
        with pytest.raises(ExponentOverflowError):
            x * x
        assert (y ** 2).total_degree() == 65534
        with pytest.raises(ExponentOverflowError):
            XY.pow(y, 3)

    def test_raw_mod_p_value_must_be_canonical(self):
        # RingElement(F7, 9) once printed 2 but was != elem(F7, 2), and
        # RingElement(F7, 7) had a zero test of its own but was != 0
        for v in (7, 9, -1):
            with pytest.raises(BadRingError):
                RingElement(F7, v)
        assert elem(F7, 9) == elem(F7, 2) == RingElement(F7, 2)
        assert elem(F7, 7) == RingElement(F7, 0)
        assert str(elem(F7, -1)) == "6"
        assert RingElement(ZZ, -9).value == -9

    def test_exponent_past_limit_named_by_size(self):
        # one field past the limit is named before the total; a 4,000-digit
        # exponent once filled the message digit by digit
        with pytest.raises(ExponentOverflowError, match="^exponent 65536 exceeds 65535$"):
            P("x^65536")
        with pytest.raises(ExponentOverflowError, match="^exponent 13288-bit number exceeds"):
            P("x^" + "9" * 4000)
        with pytest.raises(ExponentOverflowError, match="^total degree 80000 exceeds 65535$"):
            P("x^40000*y^40000")

    def test_neg_and_pow(self):
        assert F7.reduce(-3) == 4
        assert P("x + 1") ** 2 == P("x^2 + 2*x + 1")
        assert XY.pow(P("x"), 0) == XY.one
        # the loop would run no product and return x itself
        with pytest.raises(ValueError, match="negative power"):
            P("x") ** -1

    @pytest.mark.parametrize(
        "exps,message", [((1,), "wrong arity"), ((1, 0, 0), "wrong arity"), ((1, -1), "negative")]
    )
    def test_from_terms_refuses_a_bad_exponent_vector(self, exps, message):
        with pytest.raises(ValueError, match=message):
            Polynomial.from_terms(2, [(exps, 1)])

    @pytest.mark.parametrize("index", [2, -1])
    def test_variable_index_out_of_range(self, index):
        # -1 would otherwise name the last variable
        with pytest.raises(ValueError, match="out of range"):
            Polynomial.variable(2, index)


class TestRingEquality:
    def test_equal_prime_fields_hash_alike(self):
        assert PrimeField(7) == PrimeField(7)
        assert hash(PrimeField(7)) == hash(PrimeField(7))
        assert len({PrimeField(7), PrimeField(7), ZZ}) == 2

    def test_distinct_rings(self):
        assert PrimeField(7) != PrimeField(11)
        assert ZZ != PrimeField(7)
        assert PrimeField(7) != ZZ
        assert PolynomialRing(["x", "y"]) != PolynomialRing(["y", "x"])
        assert XY == PolynomialRing(["x", "y"])
        assert ZZ != "int"

    def test_mixing_rings_raises(self):
        yx = PolynomialRing(["y", "x"])
        with pytest.raises(RingMismatchError):
            XY.parse("x") + Polynomial.variable(3, 0)
        with pytest.raises(BadRingError):
            XY.coerce(Polynomial.variable(3, 0))
        # coerce embeds ints (and, over Z[x], text); a raw polynomial or an
        # element of any ring, its own included, is refused
        with pytest.raises(BadRingError):
            F7.coerce(elem(PrimeField(11), 1))
        with pytest.raises(BadRingError):
            ZZ.coerce(elem(F7, 3))
        with pytest.raises(BadRingError):
            yx.coerce(elem(XY, "x"))

    @pytest.mark.parametrize("source", [XY, PolynomialRing(["y", "x"])], ids=["x,y", "own"])
    def test_raw_polynomial_is_refused(self, source):
        # a polynomial knows only its arity: read into ["y", "x"], the x of
        # ["x", "y"] would be renamed y
        yx = PolynomialRing(["y", "x"])
        x = source.parse("x")
        with pytest.raises(BadRingError):
            yx.coerce(x)
        with pytest.raises(BadRingError):
            ExactMatrix.from_rows(yx, [[x]])


class TestExactDivision:
    # on raw values, as Bareiss divides
    def test_poly_quotient(self):
        assert XY.exact_div(XY.parse("x^2 - y^2"), XY.parse("x - y")) == XY.parse("x + y")

    def test_constant_divisor(self):
        assert XY.exact_div(XY.parse("6*x^2"), XY.parse("3")) == XY.parse("2*x^2")

    def test_remainder_raises(self):
        with pytest.raises(InexactDivisionError):
            XY.exact_div(XY.parse("x^2 + 1"), XY.parse("x + 1"))

    def test_integer_inexact(self):
        with pytest.raises(InexactDivisionError):
            ZZ.exact_div(7, 2)
        assert ZZ.exact_div(-21, 7) == -3
        # the message once wrote both ints whole, so past 4,300 digits
        # int-to-text raised ValueError in place of this error
        with pytest.raises(InexactDivisionError, match="^13288-bit number does not divide"):
            ZZ.exact_div(10**5000 + 1, 10**4000)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            XY.exact_div(XY.parse("x"), XY.zero)
        # divmod's own error and pow(0, -1, p)'s ValueError say otherwise
        with pytest.raises(ZeroDivisionError, match="^integer division by zero$"):
            ZZ.exact_div(1, 0)
        with pytest.raises(ZeroDivisionError, match="^division by zero in Z/p$"):
            F7.exact_div(1, 0)

    def test_product_division_roundtrip(self):
        rng = seeded_rng("divtrip")
        for _ in range(50):
            p = XY.random_entry(rng)
            q = XY.random_entry(rng)
            if q == XY.zero:
                continue
            assert XY.exact_div(p * q, q) == p


class TestEvaluation:
    def test_point_eval(self):
        p = P("x^2 + y")
        assert poly_eval(p, [3, 4], ZZ) == 13

    def test_zero_point_gives_constant_term(self):
        p = P("5*x^2*y - 3*x + 11")
        assert poly_eval(p, [0, 0], ZZ) == 11

    def test_mod_eval(self):
        F5 = PrimeField(5)
        p = P("x*y - 1")
        assert poly_eval(p, [2, 3], F5) == 0

    def test_arity_mismatch(self):
        with pytest.raises(RingMismatchError):
            poly_eval(P("x"), [1], ZZ)

    def test_eval_is_homomorphism(self):
        rng = seeded_rng("hom")
        for _ in range(50):
            p, q = XY.random_entry(rng), XY.random_entry(rng)
            v = [rng.randint(-9, 9) for _ in range(2)]
            at = [poly_eval(f, v, ZZ) for f in (p, q)]
            assert poly_eval(p * q, v, ZZ) == at[0] * at[1]


class TestCanonicalText:
    def test_zero(self):
        assert str(elem(XY, 0)) == "0"

    def test_descending_lex_order(self):
        ring = PolynomialRing(["x0", "x1"])
        p = elem(ring, "- 2*x0*x1 + x0^2")
        assert str(p) == "x0^2 - 2*x0*x1"

    def test_unit_coefficients_omitted(self):
        assert XY.format(P("1*x - 1*y")) == "x - y"
        assert XY.format(-XY.parse("x")) == "-x"

    def test_parse_rejects_unknown_variable(self):
        with pytest.raises(ParseError):
            XY.parse("x + z")

    def test_parse_rejects_garbage(self):
        for bad in (
            "", "x +", "^2", "x^", "x//y", "3..5", "--x", "2x", "x y", "x^2^3", "x^-1",
            "x + + y", "-", "x *", "* x", "x**2",
        ):
            with pytest.raises(ParseError):
                XY.parse(bad)

    @pytest.mark.parametrize(
        "text", [" " * 100_000 + "!", "x * " * 50_000 + "y^"], ids=["spaces", "product"]
    )
    def test_parse_fails_in_linear_time(self, text):
        # with "\s*([-+]?)\s*" for a sign and its spaces, a failed match is
        # quadratic in a run of spaces: minutes on the first input
        start = time.perf_counter()
        with pytest.raises(ParseError):
            XY.parse(text)
        assert time.perf_counter() - start < 5

    def test_whitespace_insignificant(self):
        assert XY.parse(" x ^ 2+  3 * y ") == XY.parse("x^2+3*y")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no limit on integer text"
    )
    def test_parse_number_past_digit_limit_is_parse_error(self, tmp_path):
        # int() raises ValueError past the limit; it once ended in a traceback,
        # and over Z and Z/p in a message that echoed every digit
        long = "7" * 5000
        cases = [
            (XY.parse, long + "*x"),
            (XY.parse, "x^" + long),
            (ZZ.parse, long),
            (F7.parse, long),
            (ring_from_doc, {"ring": "mod_p", "modulus": long}),
        ]
        # the JSON reader refuses an unquoted one with a bare ValueError
        bare = tmp_path / "bare.json"
        bare.write_text('{"ring": "int", "rows": [[' + long + "]]}")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for read, text in cases:
                with pytest.raises(ParseError, match="5000-digit") as err:
                    read(text)
                assert len(str(err.value)) < 200
            with pytest.raises(ParseError, match="is not a JSON document"):
                ExactMatrix.load(bare)
            # the message once formatted every digit, which int-to-text refuses
            with pytest.raises(BadRingError, match="negative 16610-bit number") as err:
                PrimeField(-(10**5000))
            assert len(str(err.value)) < 200
        finally:
            sys.set_int_max_str_digits(old)
        with pytest.raises(ParseError, match="^not an integer: 'abc'$"):
            ZZ.parse("abc")


class TestIntegerText:
    # one grammar for integer text: an optional sign, then decimal digits,
    # with space around them, as in polynomial text
    def test_underscores_are_parse_errors(self):
        # int() read "1_0" as 10 over Z and Z/p, and took "1_000_003" as a
        # modulus, while "1_0*x" was already a parse error
        cases = [
            (ZZ.parse, "1_000"),
            (PrimeField(7).parse, "1_0"),
            (lambda text: ring_from_doc({"ring": "mod_p", "modulus": text}), "1_000_003"),
            (XY.parse, "1_0*x"),
        ]
        for read, text in cases:
            with pytest.raises(ParseError, match="^not an integer|^bad polynomial text"):
                read(text)

    @pytest.mark.parametrize(
        "ring,text",
        [
            (ZZ, "\u0661\u0662"),
            (PrimeField(7), "\u0663"),
            (XY, "\u0663*x"),
            (XY, "x^\u0662"),
            (XY, "x + \uff11"),
        ],
        ids=["int", "mod_p", "poly-coefficient", "poly-exponent", "poly-fullwidth"],
    )
    def test_non_ascii_digits_are_parse_errors(self, ring, text):
        # \d matched every Unicode decimal digit, so Arabic-Indic "١٢" read
        # as 12, and "٣*x" and "x^٢" as 3*x and x^2; fullwidth "１" as 1
        with pytest.raises(ParseError, match="^not an integer|^bad polynomial text"):
            ring.parse(text)

    def test_sign_and_space_still_read(self):
        assert ZZ.parse(" -12 ") == -12 and ZZ.parse("+5") == 5
        assert F7.parse(" -12 ") == 2 and F7.parse("+5") == 5
        assert ring_from_doc({"ring": "mod_p", "modulus": " +1000003 "}).modulus == 1_000_003


coeffs = st.integers(min_value=-99, max_value=99)
exps = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)
polys = st.lists(st.tuples(exps, coeffs), max_size=8).map(
    lambda items: Polynomial.from_terms(2, items)
)


@settings(deadline=None, max_examples=200)
@given(polys)
def test_text_roundtrip(p):
    assert XY.parse(XY.format(p)) == p


@st.composite
def ring_polys(draw):
    """A ring of 1 to 17 variables and a polynomial over it: small exponents,
    so that terms share halves of their keys, now and then a large one, the
    constant term, and coefficients +-1, small, or past 2**64."""
    nvars = draw(st.integers(min_value=1, max_value=17))
    ring = PolynomialRing([f"x{i}" for i in range(nvars)])
    exponent = st.integers(0, 2) | st.integers(3, 1000)
    monomial = st.just((0,) * nvars) | st.tuples(*[exponent] * nvars)
    big = st.integers(2**64, 2**70)
    coeff = st.sampled_from([1, -1]) | st.integers(-99, 99) | big | big.map(int.__neg__)
    items = draw(st.lists(st.tuples(monomial, coeff), max_size=12))
    return ring, Polynomial.from_terms(nvars, items)


@settings(deadline=None, max_examples=300)
@given(ring_polys())
@example((PolynomialRing(["x"]), Polynomial(1, {})))
@example((PolynomialRing(["x", "y", "z"]), Polynomial.constant(3, -(2**65))))
def test_format_matches_term_by_term_oracle(ring_poly):
    ring, p = ring_poly
    text = ring.format(p)
    assert text == format_polynomial(ring, p)
    assert ring.parse(text) == p


LOOSE = PolynomialRing(["x", "y2", "z_b"])
blank = st.sampled_from(["", "", " ", "\t", "\n", " \t\n "])


@st.composite
def loose_text(draw):
    """Text that the reader accepts but format() never writes, and the
    (exponents, coefficient) terms it stands for: space around every token,
    an optional leading sign, several numbers and repeated or zeroth powers in
    one term, zero coefficients, and terms in any order."""
    text, items = draw(blank), []
    for t in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["-", "+"] if t else ["", "-", "+"]))
        coeff, exps, factors = 1, [0] * LOOSE.nvars, []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                k = draw(st.integers(0, 12))
                coeff *= k
                factors.append(str(k))
            else:
                i = draw(st.integers(0, LOOSE.nvars - 1))
                e = draw(st.none() | st.integers(0, 3))
                exps[i] += 1 if e is None else e
                power = "" if e is None else draw(blank) + "^" + draw(blank) + str(e)
                factors.append(LOOSE.variables[i] + power)
        body = factors[0]
        for f in factors[1:]:
            body += draw(blank) + "*" + draw(blank) + f
        text += sign + draw(blank) + body + draw(blank)
        items.append((tuple(exps), -coeff if sign == "-" else coeff))
    return text, items


@settings(deadline=None, max_examples=300)
@given(loose_text())
@example(("  -2*3*x*x^2 + y2^0\t- z_b\n", [((3, 0, 0), -6), ((0, 0, 0), 1), ((0, 0, 1), -1)]))
@example(("0*x + x", [((1, 0, 0), 0), ((1, 0, 0), 1)]))
def test_parse_loose_text_matches_its_terms(case):
    text, items = case
    assert LOOSE.parse(text) == Polynomial.from_terms(LOOSE.nvars, items)


def test_format_of_formal_minor_product_matches_oracle():
    # formal (1,7): 16 variables, 40,320 terms whose key halves repeat
    X = symbolic_matrix(8, 2)
    p = mu_prime(X)
    assert len(p.terms) == 40320
    # a bool, so that a failure does not diff two 3.9 MB strings
    same = X.ring.format(p) == format_polynomial(X.ring, p)
    assert same


@settings(deadline=None, max_examples=100)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    # Polynomial arithmetic on raw values, which reduce leaves as they are
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a and a + -a == XY.zero
    assert a + XY.zero == a
    assert a * XY.one == a


MOD_PRIMES = (2, 3, 1_000_003, 2**61 - 1)


@st.composite
def mod_case(draw):
    """(p, x, y, z, k, e): x, y, z ints with 0, 1 and p - 1 drawn often, k a
    plain int that may be negative, e an exponent."""
    p = draw(st.sampled_from(MOD_PRIMES))
    value = st.sampled_from([0, 1, p - 1]) | st.integers()
    x, y, z = draw(value), draw(value), draw(value)
    return p, x, y, z, draw(st.integers(-2 * p, 2 * p)), draw(st.integers(0, 70))


@settings(deadline=None, max_examples=100)
@given(mod_case())
@example((2**61 - 1, 2**61 - 2, 2**61 - 2, 2**61 - 2, -1, 70))
def test_mod_axioms(case):
    p, x, y, z, k, e = case
    F = PrimeField(p)
    a, b, c = (F.coerce(v) for v in (x, y, z))
    r = F.reduce
    # Python int arithmetic on raw values, reduced into [0, p), and the power rule
    for got, want in (
        (r(a + b), x + y),
        (r(a - b), x - y),
        (r(F.coerce(k) - a), k - x),
        (r(a * b), x * y),
        (r(-a), -x),
        (F.pow(a, e), x ** e),
    ):
        assert got == want % p and 0 <= got < p
    assert r(a * r(b + c)) == r(r(a * b) + r(a * c))
    assert r(r(a - b) + b) == a
    # Fermat at p = 2^61 - 1: only a modular power finishes this
    if p == 2**61 - 1 and x % p:
        assert F.pow(a, p - 1) == 1


POWER_RINGS = (ZZ, F7, PrimeField(1_000_003), XY)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(POWER_RINGS), st.randoms(use_true_random=False), st.integers(0, 6))
def test_power_is_repeated_product(ring, rng, e):
    a = ring.random_entry(rng)
    product = ring.one
    for _ in range(e):
        product = ring.reduce(product * a)
    assert ring.pow(a, e) == product
    assert RingElement(ring, a) ** e == RingElement(ring, product)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(POWER_RINGS), st.randoms(use_true_random=False), st.integers(0, 20))
def test_ring_pow_is_the_builtin_power(ring, rng, e):
    a = ring.random_entry(rng)
    p = ring.modulus
    assert ring.pow(a, e) == (pow(a, e, p) if p else a ** e)


@pytest.mark.parametrize("ring", POWER_RINGS, ids=["ZZ", "F7", "F1000003", "ZZ[x,y]"])
@pytest.mark.parametrize("e", [-1, -3, 2.0, 0.5, "2", None])
def test_ring_pow_refuses_a_negative_or_non_int_exponent(ring, e):
    # over Z/7 the builtin pow(3, -1, 7) would silently return the inverse, 5
    a = ring.coerce(3)
    with pytest.raises(ValueError, match="nonnegative integer"):
        ring.pow(a, e)
    with pytest.raises(ValueError, match="nonnegative integer"):
        RingElement(ring, a) ** e


BIG = 2 ** 100
X1 = PolynomialRing(["x"])
XYZ = PolynomialRing(["x", "y", "z"])


@st.composite
def dense_poly(draw):
    """(ring, v): v over Z[x], Z[x, y] or Z[x, y, z] carrying every monomial
    of degree <= deg (deg <= 3), with coefficients in [-9, 9] or within 9 of
    2^100 or -2^100."""
    ring = draw(st.sampled_from([X1, XY, XYZ]))
    k, deg = ring.nvars, draw(st.integers(0, 3))
    monos = [e for j in range(deg + 1) for e in exponent_vectors(k, j)]
    coeff = st.integers(-9, 9) | st.integers(BIG - 9, BIG + 9) | st.integers(-BIG - 9, -BIG + 9)
    cs = draw(st.lists(coeff, min_size=len(monos), max_size=len(monos)))
    return ring, Polynomial.from_terms(k, zip(monos, cs))


def _spy_power(mp):
    """Record what the power rule packs and squares: the packed route packs
    its base once and squares the packed polynomial, the dict loop squares
    the base itself."""
    calls = {"pack": [], "square": []}

    def pack(v, w, fn=_pack):
        calls["pack"].append(v)
        return fn(v, w)

    def square(v, fn=Polynomial._square):
        calls["square"].append(v)
        return fn(v)

    mp.setattr("mvvand.rings._pack", pack)
    mp.setattr(Polynomial, "_square", square)
    return calls


def _repeated_product(ring, v, e):
    product = ring.one
    for _ in range(e):
        product = product * v
    return product


class TestPower:
    """A power over Z[x] squares symmetrically, then multiplies by the base;
    it packs the last variable t = 2^B first when that pays, with B from the
    bound ||v||_1^e on the power's coefficients."""

    @settings(max_examples=80, deadline=None)
    @given(dense_poly(), st.integers(0, 5))
    @example((X1, X1.parse("x + 254")), 2)
    @example((XY, XY.parse("x + y + 1")), 3)
    @example((XYZ, XYZ.parse(f"{BIG}*x*z - {BIG}*x + y*z - y")), 4)
    @example((XY, XY.zero), 3)
    def test_matches_repeated_product_on_the_route_of_the_rule(self, case, e):
        ring, v = case
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_power(mp)
            power = ring.pow(v, e)
        assert power == _repeated_product(ring, v, e)
        multiplies = e >= 2 and bool(v)
        assert calls["pack"] == ([v] if multiplies and packing_pays(v) else [])
        assert len(calls["square"]) == multiplies

    def test_mu_prime_powers_take_both_routes(self, monkeypatch):
        # mu' of linear forms (2.0 terms per packed integer) packs; the formal
        # mu' (1.00) stays on the dict loop
        calls = _spy_power(monkeypatch)
        T3 = PolynomialRing(["t0", "t1", "t2"])
        rng = seeded_rng("linear-power")
        X = ExactMatrix(T3, [[T3.parse(f"{rng.randint(1, 9)}*t0 - {rng.randint(1, 9)}*t1"
                                       f" + {rng.randint(1, 9)}*t2 + {rng.randint(1, 9)}")
                              for _ in range(3)] for _ in range(4)])
        for M, packs in ((X, True), (symbolic_matrix(4, 3), False)):
            v = mu_prime(M)
            calls["pack"].clear()
            assert v ** 2 == v * v
            assert packing_pays(v) is packs
            assert calls["pack"] == ([v] if packs else [])

    @pytest.mark.parametrize(
        "ring,text,e",
        [
            # 254^2 = 64,516 of a bound of 255^2 = 65,025: both 16 bits, so
            # 2^(B-1) above the bound needs a third byte
            (X1, "x + 254", 2),
            (X1, "x - 254", 2),
            (XY, "254*x + x*y", 2),
            # 14^4 = 38,416 of 15^4 = 50,625, and -204^3 of 205^3 (24 bits)
            (X1, "x + 14", 4),
            (XY, "x*y - 204*x", 3),
        ],
    )
    def test_coefficients_at_the_bound(self, ring, text, e, monkeypatch):
        v = ring.parse(text)
        calls = _spy_power(monkeypatch)
        power = ring.pow(v, e)
        assert power == _repeated_product(ring, v, e)
        assert calls["pack"] == [v]
        bound = sum(map(abs, v.terms.values())) ** e
        top = max(map(abs, power.terms.values()))
        assert top.bit_length() == bound.bit_length() and bound.bit_length() % 8 == 0

    @settings(max_examples=80, deadline=None)
    @given(dense_poly())
    def test_symmetric_square_is_the_product(self, case):
        _, v = case
        assert v._square() == v * v

    @pytest.mark.parametrize(
        "text,cancelled",
        [
            # the x^2 coefficient: a cross term, then a diagonal term cancels it
            ("1 + 2*x - 2*x^2", "x^2"),
            # a diagonal term, then a cross term cancels it
            ("2*x + 1 - 2*x^2", "x^2"),
            # two cross terms
            ("1 + x + y - x*y", "x*y"),
        ],
    )
    def test_symmetric_square_drops_cancelled_terms(self, text, cancelled):
        v = P(text)
        square = v._square()
        assert square == v * v
        assert P(cancelled).terms.keys() - square.terms.keys()

    def test_power_past_the_degree_limit_raises_before_any_product(self, monkeypatch):
        # x + 1 to the 70,000 once multiplied on to degree 65,535 first, past
        # 10 s; x^20000 * (1 + y) packs, x^30000 + y does not
        called = []
        for name in ("__mul__", "_square"):
            monkeypatch.setattr(Polynomial, name, lambda *a, name=name: called.append(name))
        monkeypatch.setattr("mvvand.rings._packing_pays", lambda *a: called.append("rule"))
        for ring, text, e in ((X1, "x + 1", 70000), (XY, "x^20000 + x^20000*y", 4),
                              (XY, "x^30000 + y", 3)):
            degree = e * ring.parse(text).total_degree()
            with pytest.raises(ExponentOverflowError, match=f"^total degree {degree} exceeds"):
                ring.pow(ring.parse(text), e)
        assert called == []

    def test_packed_power_at_the_degree_limit(self, monkeypatch):
        # degree 13,107 to the 5th is 65,535, the largest a key holds
        v = XY.parse("x^13106 + x^13106*y")
        calls = _spy_power(monkeypatch)
        power = v ** 5
        assert power.total_degree() == 65535
        assert power == _repeated_product(XY, v, 5)
        assert calls["pack"] == [v]
        with pytest.raises(ExponentOverflowError):
            v ** 6


@st.composite
def packable(draw):
    """(v, w): v over Z[x, y] with gaps in its powers of y, every coefficient
    at most 2^(8w-1) - 1 in absolute value, most at the ends of that range."""
    w = draw(st.integers(1, 3))
    top = (1 << 8 * w - 1) - 1
    coeff = st.sampled_from([1, -1, top, -top, top // 2 + 1, -(top // 2 + 1)]) | st.integers(-top, top)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 40))
    terms = draw(st.dictionaries(exps, coeff, max_size=30))
    return Polynomial.from_terms(2, terms.items()), w


@settings(max_examples=150, deadline=None)
@given(packable())
def test_pack_matches_shift_add(case):
    # each integer from its digits' bytes equals the sum of shifted digits,
    # and its balanced digits are the coefficients again
    v, w = case
    packed = _pack(v, w)
    assert all(exps[-1] == 0 for exps, _ in items_exponents(packed))
    assert {exps[:-1]: c for exps, c in items_exponents(packed)} == pack_by_shifts(v, w)
    assert _unpack(packed, w) == v


def test_sampled_axioms_over_all_rings():
    # seeded random triples, across every supported ring
    rings = (ZZ, PrimeField(1_000_003), XY)
    rng = seeded_rng("axioms")
    for ring in rings:
        for _ in range(1000 // len(rings)):
            a, b, c = (ring.random_entry(rng) for _ in range(3))
            r = ring.reduce
            assert r(r(a + b) + c) == r(a + r(b + c))
            assert r(a * b) == r(b * a)
            assert r(a * r(b + c)) == r(r(a * b) + r(a * c))


ZERO_RULE_RINGS = (ZZ, *map(PrimeField, MOD_PRIMES), XY)


@st.composite
def ring_values(draw):
    """A ring among Z, Z/p at each p in MOD_PRIMES and Z[x,y], and a raw
    value of it, zero often."""
    ring = draw(st.sampled_from(ZERO_RULE_RINGS))
    if ring is XY:
        return ring, draw(st.just(XY.zero) | polys)
    p = ring.modulus
    return ring, draw(st.just(0) | (st.integers(0, p - 1) if p else st.integers()))


@settings(deadline=None, max_examples=200)
@given(ring_values())
def test_raw_value_is_zero_exactly_when_falsy(case):
    # the one zero test, on raw values and on elements alike
    ring, v = case
    assert bool(v) == (v != ring.zero) == (RingElement(ring, v) != RingElement(ring, ring.zero))


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(exps, coeffs), max_size=8), st.randoms(use_true_random=False))
def test_cancelling_sum_is_falsy(items, rng):
    both = items + [(e, -c) for e, c in items]
    rng.shuffle(both)
    assert not Polynomial.from_terms(2, both)
    p = Polynomial.from_terms(2, items)
    assert not p - p and not p + -p


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(ZERO_RULE_RINGS),
    st.integers() | st.integers(-(2**200), 2**200) | st.sampled_from([-1, 2**199, -(2**199)]),
)
def test_coerce_is_the_one_int_embedding(ring, k):
    got = ring.coerce(k)
    if ring is XY:
        assert got == Polynomial.constant(XY.nvars, k)
    elif ring.modulus:
        assert got == k % ring.modulus
    else:
        assert got == k and type(got) is int
    assert ring.parse(str(k)) == got


@pytest.mark.parametrize("ring", [ZZ, F7, PolynomialRing(["x"])], ids=["int", "mod_p", "poly"])
def test_bool_entry_is_written_as_an_int(ring):
    # over Z[x] a bool was kept as a coefficient and written "True", which
    # the package's own reader refuses; over Z and Z/p it was already "1"
    M = ExactMatrix.from_rows(ring, [[True, False]])
    doc = M.to_doc()
    assert doc["rows"] == [["1", "0"]]
    assert ExactMatrix.from_doc(doc) == M


def test_ring_doc_roundtrip():
    for ring in (ZZ, PrimeField(17), PolynomialRing(["a", "b_2"])):
        assert ring_from_doc(ring.to_doc()) == ring
    with pytest.raises(ParseError):
        ring_from_doc({"ring": "float"})
    with pytest.raises(ParseError):
        ring_from_doc({"ring": "mod_p"})
