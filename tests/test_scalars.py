"""Exact Gaussian-rational arithmetic, parsing, and serialization."""

import operator
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heunzeros.scalars import (
    ExactnessError,
    QQi,
    as_exact,
    format_scalar,
    exact_value,
    parse_gaussian_rational,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
    to_mpc,
    working_precision,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)
gaussians = st.builds(QQi, rationals, rationals)


class TestFieldAxioms:
    @given(gaussians, gaussians, gaussians)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(gaussians, gaussians)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(gaussians, gaussians, gaussians)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(gaussians)
    def test_multiplicative_inverse(self, a):
        if a:
            assert a * (QQi(1) / a) == QQi(1)

    @given(gaussians)
    def test_conjugate_abs2(self, a):
        assert a * a.conjugate() == QQi(a.abs2())

    @given(gaussians, st.integers(min_value=0, max_value=8))
    def test_integer_power(self, a, n):
        expected = QQi(1)
        for _ in range(n):
            expected = expected * a
        assert a ** n == expected

    def test_power_takes_the_fewest_products(self, monkeypatch):
        calls = []
        real = QQi.__mul__

        def counted(self, other):
            calls.append(1)
            return real(self, other)

        monkeypatch.setattr(QQi, "__mul__", counted)
        x = QQi(Fraction(2, 3), Fraction(-5, 7))
        assert x ** 2 == real(x, x)
        assert len(calls) == 1
        expected = QQi(1)
        for n in range(7):
            assert x ** n == expected
            expected = real(expected, x)
        del calls[:]
        x ** 3
        assert len(calls) == 2


# parts with denominators up to 2^80 and 10^30, and smooth ones, which
# share factors and so run every gcd reduction of the int triple
numerators = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                       st.integers(-2 ** 90, 2 ** 90))
denominators = st.one_of(
    st.integers(1, 2 ** 80), st.integers(1, 10 ** 30),
    st.builds(lambda i, j, k: 2 ** i * 3 ** j * 5 ** k, st.integers(0, 80),
              st.integers(0, 20), st.integers(0, 30)))
parts = st.builds(Fraction, numerators, denominators)
zero = st.just(Fraction(0))
small = st.integers(-4, 4).map(Fraction)
# (re, im) Fraction pairs: zero, pure real, pure imaginary, Gaussian
# integers such as 1 + i, whose square 2i cancels, and any pair
pairs = st.one_of(st.tuples(parts, parts), st.tuples(parts, zero),
                  st.tuples(zero, parts), st.tuples(zero, zero),
                  st.tuples(small, small),
                  st.tuples(parts, parts).map(
                      lambda p: (p[0], p[0] * p[1].denominator)))
wide = pairs.map(lambda p: QQi(*p))
operands = st.one_of(wide, st.integers(-2 ** 70, 2 ** 70), denominators,
                     denominators.map(operator.neg), parts)


def reference(x) -> tuple:
    """The (re, im) Fraction pair of an int, Fraction or QQi."""
    return (x.re, x.im) if isinstance(x, QQi) else (Fraction(x), Fraction(0))


def ref_op(op, x, y) -> tuple:
    """op on Fraction pairs, the reference of the int triple."""
    (a, b), (c, d) = x, y
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def check(z, want):
    """z is the canonical QQi of the Fraction pair want."""
    assert type(z) is QQi
    assert all(type(v) is int for v in (z.a, z.b, z.d))
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    assert (z.re, z.im) == want
    assert z == QQi(*want) and hash(z) == hash(QQi(*want))


class TestIntTriple:
    """QQi holds (a + bi)/d as three ints, d > 0 and gcd(a, b, d) = 1;
    every operation must agree with Fraction-pair arithmetic and leave
    that canonical triple."""

    @given(pairs)
    def test_construction_is_canonical(self, p):
        check(QQi(*p), p)
        check(QQi(QQi(*p)), p)

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul, operator.truediv],
                             ids=lambda op: op.__name__)
    @given(x=wide, y=operands)
    def test_binary_operators_on_both_sides(self, op, x, y):
        for left, right in ((x, y), (y, x)):
            want_zero = op is operator.truediv and not any(reference(right))
            if want_zero:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            check(op(left, right), ref_op(op, reference(left),
                                          reference(right)))

    @pytest.mark.parametrize("value,triple", [
        (lambda: QQi(Fraction(1, 6)) * 4, (2, 0, 3)),
        (lambda: 4 * QQi(Fraction(1, 6), Fraction(1, 2)), (2, 6, 3)),
        (lambda: QQi(Fraction(1, 6)) + QQi(Fraction(1, 3)), (1, 0, 2)),
        (lambda: QQi(Fraction(1, 2)) + Fraction(1, 3), (5, 0, 6)),
        (lambda: QQi(Fraction(5, 6), 1) - QQi(Fraction(1, 3), 1), (1, 0, 2)),
        (lambda: QQi(Fraction(2, 3)) * QQi(Fraction(3, 4)), (1, 0, 2)),
        (lambda: QQi(Fraction(2, 3), 2) * QQi(Fraction(3, 4)), (1, 3, 2)),
        (lambda: QQi(1, 1) ** 2, (0, 2, 1)),
        (lambda: QQi(Fraction(1, 2), Fraction(1, 2)) * QQi(1, 1), (0, 1, 1)),
        (lambda: 1 / QQi(1, 1), (1, -1, 2)),
        (lambda: QQi(2) / QQi(1, 1), (1, -1, 1)),
        (lambda: QQi(0, 3) / QQi(-6), (0, -1, 2)),
        (lambda: QQi(0, 3) / -6, (0, -1, 2)),
        (lambda: 5 - QQi(5), (0, 0, 1)),
    ], ids=range(14))
    def test_each_reduction_leaves_the_canonical_triple(self, value, triple):
        z = value()
        assert (z.a, z.b, z.d) == triple

    @given(wide, st.integers(0, 6))
    def test_power(self, x, n):
        want = (Fraction(1), Fraction(0))
        for _ in range(n):
            want = ref_op(operator.mul, want, reference(x))
        check(x ** n, want)

    @given(wide)
    def test_unary_and_structure(self, x):
        re_, im_ = reference(x)
        check(-x, (-re_, -im_))
        check(+x, (re_, im_))
        check(x.conjugate(), (re_, -im_))
        assert x.abs2() == re_ * re_ + im_ * im_
        assert type(x.abs2()) is Fraction
        integer = im_ == 0 and re_.denominator == 1
        assert x.as_integer() == (re_.numerator if integer else None)
        assert x.is_real == (im_ == 0) and bool(x) == bool(re_ or im_)

    @given(st.integers(-2 ** 52, 2 ** 52), st.integers(-2 ** 52, 2 ** 52),
           st.integers(0, 60))
    def test_hash_and_eq_agree_with_equal_values(self, n, m, k):
        re_, im_ = Fraction(n, 2 ** k), Fraction(m, 2 ** k)
        q = QQi(re_, im_)
        z = mp.mpc(mp.ldexp(n, -k), mp.ldexp(m, -k))
        # (x, the value whose hash q shares): a QQi hashes as an equal
        # Fraction when real and as an equal mpc otherwise; mpmath hashes
        # a negative real mpc unlike the equal mpf, and Python a complex
        # with a negative part unlike the equal mpc
        twin = re_ if not im_ else z
        equal = [(complex(float(re_), float(im_)), twin), (z, twin)]
        if not im_:
            equal += [(x, x) for x in (re_, float(re_), z.real)]
            if re_.denominator == 1:
                equal.append((int(re_), int(re_)))
        other = q + QQi(0, Fraction(1, 3))
        for x, twin in equal:
            assert q == x and x == q and hash(q) == hash(twin), x
            assert other != x and x != other, x


class TestParser:
    @pytest.mark.parametrize("text,re_, im_", [
        ("5", 5, 0),
        ("-1/2", Fraction(-1, 2), 0),
        ("0.25", Fraction(1, 4), 0),
        ("2i", 0, 2),
        ("-i", 0, -1),
        ("i", 0, 1),
        ("+i", 0, 1),
        ("1/2-3/4i", Fraction(1, 2), Fraction(-3, 4)),
        ("1.5+2i", Fraction(3, 2), 2),
        ("1+i", 1, 1),
        (".5i", 0, Fraction(1, 2)),
        ("-0.75-0.25i", Fraction(-3, 4), Fraction(-1, 4)),
    ])
    def test_grammar(self, text, re_, im_):
        v = parse_gaussian_rational(text)
        assert v == QQi(re_, im_)

    @pytest.mark.parametrize("bad", [
        "", "x", "1+*i", "2i+1", "1//2", "1e5", "i5", "1 + 2i$", "--3",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_gaussian_rational(bad)

    @given(gaussians)
    def test_str_round_trip(self, a):
        assert parse_gaussian_rational(str(a)) == a


# each part as written, with its exact value; the last is in exponent
# notation and so is rounded to the precision, then read exactly
PARTS = [("7", Fraction(7)), ("-3/4", Fraction(-3, 4)),
         ("0.3", Fraction(3, 10)), (".5", Fraction(1, 2)), ("1.", Fraction(1)),
         ("-1e-1", Fraction(-1, 10))]


def scalar_cases():
    """(text, real part, imaginary part or None when none is written)."""
    for a, x in PARTS:
        b = a if a.startswith("-") else "+" + a
        yield from [(a, x, None), (a + "i", 0, x), (a + "j", 0, x),
                    (a + b + "i", x, x), (a + "+i", x, 1), (a + "-I", x, -1),
                    (a + "+J", x, 1)]
    yield from [("i", 0, 1), ("+i", 0, 1), ("-i", 0, -1), ("j", 0, 1),
                (" 1 / 2 - 3 / 4 i ", Fraction(1, 2), Fraction(-3, 4))]


def rounded(x: Fraction, bits: int) -> Fraction:
    """x correctly rounded to bits (numerator and denominator are exact
    at every precision used here, so the division rounds once), as the
    exact value of that binary float."""
    with mp.workprec(bits):
        y = mp.mpf(x.numerator) / x.denominator
    return Fraction(*mp.libmp.to_rational(y._mpf_))


class TestScalarReader:
    @pytest.mark.parametrize("text,re_,im_", [
        pytest.param(*case, id=case[0]) for case in scalar_cases()])
    @pytest.mark.parametrize("bits", [64, 256])
    def test_table(self, text, re_, im_, bits):
        got = parse_scalar(text, bits)
        assert type(got) is QQi
        if "e" not in text.lower():
            assert got == QQi(re_, im_ or 0)
            assert parse_gaussian_rational(text) == got
            return
        with pytest.raises(ValueError, match="needs a precision"):
            parse_gaussian_rational(text)
        assert got.re == rounded(Fraction(re_), bits)
        assert got.im == rounded(Fraction(im_ or 0), bits)

    def test_precision_reaches_every_part(self):
        z64 = parse_scalar("1/3+1e-1i", 64)
        z256 = parse_scalar("1/3+1e-1i", 256)
        assert z64.re != z256.re and z64.im != z256.im
        assert z256.re == rounded(Fraction(1, 3), 256)

    @pytest.mark.parametrize("bad", [
        "", "1_0", "1e3_0", "1_0+2i", "1/0", "1/00+i", "1e-3+", "2i+1",
        "1/2e3", "1e", "e3", ".", "0x10", "infinity", "+nan", "1+-2i",
    ])
    def test_refuses(self, bad):
        with pytest.raises(ValueError, match="cannot parse scalar"):
            parse_scalar(bad, 256)

    @pytest.mark.parametrize("text", [
        str(2 ** 1024), f"-{2 ** 1024}/1", f"1+{2 ** 1024}i", "2e308",
        "-1.8e308i", "1e999999999999"])
    @pytest.mark.parametrize("bits", [1, 256])
    def test_refuses_magnitudes_beyond_the_double_range(self, text, bits):
        with pytest.raises(ValueError, match=r"magnitude 2\^1024 or more"):
            parse_scalar(text, bits)

    def test_accepts_magnitudes_within_the_double_range(self):
        assert parse_scalar(str(2 ** 1024 - 1)) == QQi(2 ** 1024 - 1)
        assert 2 ** 1023 < parse_scalar("1.7e308", 256).re < 2 ** 1024
        assert parse_scalar("1e-300", 1).re > 0
        # below the double range, down to 2^-(1024 + bits)
        assert parse_scalar("1e-400", 2048).re > 0
        assert parse_scalar(f"{Fraction(1, 2 ** 1100)}") != 0

    @pytest.mark.parametrize("text,bits", [
        ("1e-999999999999", 1), ("1e-1000000000", 256), ("1e-386", 256),
        ("1+1e-400i", 256), ("1e-1000", 2048)])
    def test_refuses_nonzero_parts_that_make_huge_denominators(self, text,
                                                               bits):
        # the exact value of 1e-1000000000 has a denominator of 415 MB
        bound = rf"nonzero magnitude below 2\^-{1024 + bits}"
        with pytest.raises(ValueError, match=bound):
            parse_scalar(text, bits)
        assert parse_scalar("0e-999999999999", bits) == 0

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "+inf", "NaN"])
    def test_refuses_non_finite(self, text):
        with pytest.raises(ValueError, match="not a finite number"):
            parse_scalar(text, 256)


class TestExactnessBoundary:
    def test_exact_stays_exact(self):
        v = as_exact("1/3") + as_exact("1/6")
        assert isinstance(v, QQi) and v == QQi(Fraction(1, 2))

    def test_mixing_with_a_float_raises(self):
        q = as_exact("1/3")
        for x in (0.5, 0.5j, mp.mpf(1) / 3, mp.mpc(1, 2)):
            for op in (lambda: q + x, lambda: x + q, lambda: q - x,
                       lambda: x - q, lambda: q * x, lambda: x * q,
                       lambda: q / x, lambda: x / q):
                with pytest.raises(ExactnessError):
                    op()

    def test_only_exact_scalars_coerce(self):
        assert as_exact(3) == QQi(3)
        assert as_exact(Fraction(1, 3)) == QQi(Fraction(1, 3))
        assert as_exact(QQi(1, 2)) == QQi(1, 2)
        assert as_exact("2/7") == QQi(Fraction(2, 7))
        with pytest.raises(ValueError):
            as_exact("zz")
        for x in (0.5, mp.mpf(1)):
            with pytest.raises(ExactnessError):
                as_exact(x)

    def test_a_real_value_hashes_as_a_fraction_float_and_mpf(self):
        # and a non-real one as the equal mpc; a real mpc hashes modulo
        # 2^64 in mpmath, so a negative real QQi hashes unlike it
        for x in (Fraction(-1), Fraction(-3, 8), Fraction(5, 4)):
            assert hash(QQi(x)) == hash(x) == hash(float(x)) \
                == hash(mp.mpf(float(x)))
        assert hash(QQi(Fraction(5, 4))) == hash(mp.mpc(1.25))
        assert QQi(-1) == mp.mpc(-1) and hash(QQi(-1)) != hash(mp.mpc(-1))
        for re_, im_ in ((Fraction(-3, 8), 2), (5, Fraction(-1, 4))):
            assert hash(QQi(re_, im_)) == \
                hash(mp.mpc(float(re_), float(im_)))

    def test_a_float_equals_its_exact_value_only(self):
        # 1/3 is no binary float: equal values hash equal, so a set of a
        # QQi and a float has one member exactly when they are equal
        third = QQi(Fraction(1, 3))
        with working_precision(256):
            f = mp.mpf(1) / 3
            z = mp.mpc(f, -f / 7)
        for x in (f, z, 1 / 3):
            q = exact_value(x)
            assert q == x and x == q and len({q, x}) == 1
            assert q != third and third != x and len({third, x}) == 2
        # a Python complex hashes unlike an equal mpc when a part is
        # negative; a QQi hashes as the mpc does
        c = complex(-1 / 3, -0.25)
        assert exact_value(c) == c and hash(exact_value(c)) == hash(mp.mpc(c))
        assert QQi(Fraction(1, 2)) == 0.5 == QQi(Fraction(1, 2))
        for x in (float("nan"), mp.mpf("inf"), mp.mpc(0, mp.nan)):
            assert third != x and x != third

    def test_a_float_beyond_exact_value_compares_by_its_parts(self):
        # exact_value refuses 2^1100 and 2^-1100, yet each is equal to the
        # QQi of its value and to nothing else
        big = mp.ldexp(3, 1100)
        tiny = mp.ldexp(-5, -1100)
        for q, x in ((QQi(3 * 2 ** 1100), big),
                     (QQi(Fraction(-5, 2 ** 1100)), tiny),
                     (QQi(3 * 2 ** 1100, Fraction(-5, 2 ** 1100)),
                      mp.mpc(big, tiny))):
            with pytest.raises(ValueError):
                exact_value(x)
            assert q == x and x == q and hash(q) == hash(x)
        for q, x in ((QQi(3 * 2 ** 1100 + 1), big), (QQi(2 ** 1101), big),
                     (QQi(3 * 2 ** 1100, 1), big),
                     (QQi(Fraction(-5, 2 ** 1101)), tiny),
                     (QQi(Fraction(-5, 3 * 2 ** 1100)), tiny),
                     (QQi(Fraction(5, 2 ** 1100)), tiny),
                     (QQi(3 * 2 ** 1100), mp.mpc(big, tiny)),
                     (QQi(0), big), (QQi(0), mp.mpc(0, tiny))):
            assert q != x and x != q

    def test_a_huge_float_builds_no_huge_int(self):
        # 3 * 2^(10^6) against 3: the bit lengths differ, so the int of
        # 10^6 bits is never built
        import tracemalloc

        x = mp.ldexp(3, 10 ** 6)
        tracemalloc.start()
        try:
            assert QQi(3) != x and QQi(Fraction(3, 2 ** 10)) != 1 / x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 4


class TestSerialization:
    @given(rationals, rationals)
    def test_exact_json_round_trip(self, re_, im_):
        v = QQi(re_, im_)
        blob = scalar_to_json(v)
        assert scalar_from_json(blob) == v

    def test_bigfloat_round_trip_is_bit_exact(self):
        # a big float is serialized by its exact value, which converts
        # back to the same bits at its precision
        with working_precision(237):
            x = mp.mpf(2) ** mp.mpf("0.123456789")
            z = mp.mpc(x, -x / 3)
        back = scalar_from_json(scalar_to_json(exact_value(z)))
        assert back == exact_value(z)
        with working_precision(237):
            assert to_mpc(back)._mpc_ == z._mpc_


class TestExactValue:
    @pytest.mark.parametrize("x", [0.1, -2.5e-300, 1 + 0.3j, -1.5e300])
    def test_a_float_is_its_exact_binary_value(self, x):
        z = complex(x)
        want = QQi(Fraction(z.real), Fraction(z.imag))
        assert exact_value(x) == want
        # at any working precision, even one below a double's
        with working_precision(2):
            assert exact_value(x) == want
        assert exact_value(mp.mpf(z.real)) == want.re

    def test_every_double_is_accepted_at_53_bits(self):
        with working_precision(53):
            assert exact_value(5e-324) == QQi(Fraction(1, 2 ** 1074))

    def test_an_mpc_keeps_every_bit(self):
        with working_precision(300):
            z = mp.mpc(1, -3) / 7
        q = exact_value(z)
        assert q.re.denominator == 2 ** -z.real._mpf_[2]
        with working_precision(300):
            assert to_mpc(q)._mpc_ == z._mpc_

    def test_exact_scalars_pass_through(self):
        assert exact_value(Fraction(1, 3)) == QQi(Fraction(1, 3))
        assert exact_value("1/2-i") == QQi(Fraction(1, 2), -1)
        assert exact_value(QQi(2, 3)) == QQi(2, 3)

    @pytest.mark.parametrize("x,match", [
        (mp.mpf("1e-1000000000"), "nonzero magnitude below 2\\^-1077"),
        (mp.mpf("1e400"), "magnitude 2\\^1024 or more"),
        (float("nan"), "not a finite number"),
        (mp.mpc(mp.inf, 0), "not a finite number")])
    def test_refuses_values_without_a_small_exact_form(self, x, match):
        with pytest.raises(ValueError, match=match):
            exact_value(x)


class TestConversion:
    def test_to_mpc_respects_precision(self):
        with working_precision(300):
            x = to_mpc(QQi(Fraction(1, 3)))
            err = abs(x.real - mp.mpf(1) / 3)
        assert err < mp.mpf(2) ** -295

    def test_display_keeps_the_value_precision(self):
        # printed at the ambient 53 bits, 30 digits of a third would end
        # in ...314829616256247
        third = "0." + "3" * 30
        with working_precision(256):
            x = mp.mpf(1) / 3
            z = mp.mpc(-x, -x)
        assert format_scalar(x, 30) == third
        assert format_scalar(z, 30) == f"-{third} - {third}i"

    @given(gaussians)
    def test_complex_protocol(self, a):
        c = complex(a)
        assert abs(c.real - float(a.re)) < 1e-12 * (1 + abs(c.real))
