"""Exact Gaussian-rational arithmetic, parsing, and serialization."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heunzeros.scalars import (
    QQi,
    as_exact,
    format_scalar,
    is_exact_scalar,
    mpf_from_hex,
    mpf_to_hex,
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
# notation and so is read as a big float
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


def rounded(x: Fraction, bits: int) -> mp.mpf:
    """x correctly rounded to bits (numerator and denominator are exact
    at every precision used here, so the division rounds once)."""
    with mp.workprec(bits):
        return mp.mpf(x.numerator) / x.denominator


class TestScalarReader:
    @pytest.mark.parametrize("text,re_,im_", [
        pytest.param(*case, id=case[0]) for case in scalar_cases()])
    @pytest.mark.parametrize("bits", [64, 256])
    def test_table(self, text, re_, im_, bits):
        got = parse_scalar(text, bits)
        if "e" not in text.lower():
            assert type(got) is QQi
            assert got == QQi(re_, im_ or 0)
            assert parse_gaussian_rational(text) == got
            return
        with pytest.raises(ValueError, match="needs a precision"):
            parse_gaussian_rational(text)
        re_, im_ = Fraction(re_), im_ if im_ is None else Fraction(im_)
        if im_ is None:
            assert type(got) is mp.mpf
            assert got == rounded(re_, bits)
        else:
            assert type(got) is mp.mpc
            assert got.real == rounded(re_, bits)
            assert got.imag == rounded(im_, bits)

    def test_precision_reaches_every_part(self):
        z64 = parse_scalar("1/3+1e-1i", 64)
        z256 = parse_scalar("1/3+1e-1i", 256)
        assert z64.real != z256.real and z64.imag != z256.imag
        assert z256.real == rounded(Fraction(1, 3), 256)

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
        assert 2 ** 1023 < parse_scalar("1.7e308", 256) < 2 ** 1024
        assert parse_scalar("1e-999999999999", 1) > 0

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "+inf", "NaN"])
    def test_refuses_non_finite(self, text):
        with pytest.raises(ValueError, match="not a finite number"):
            parse_scalar(text, 256)


class TestExactnessBoundary:
    def test_exact_stays_exact(self):
        v = as_exact("1/3") + as_exact("1/6")
        assert isinstance(v, QQi) and v == QQi(Fraction(1, 2))

    def test_mixing_with_float_degrades(self):
        v = as_exact("1/3") * 0.5
        assert isinstance(v, mp.mpc)

    def test_is_exact_scalar(self):
        assert is_exact_scalar(3)
        assert is_exact_scalar(Fraction(1, 3))
        assert is_exact_scalar(QQi(1, 2))
        assert is_exact_scalar("2/7")
        assert not is_exact_scalar("zz")
        assert not is_exact_scalar(0.5)
        assert not is_exact_scalar(mp.mpf(1))


class TestSerialization:
    @given(rationals, rationals)
    def test_exact_json_round_trip(self, re_, im_):
        v = QQi(re_, im_)
        blob = scalar_to_json(v)
        assert scalar_from_json(blob) == v

    def test_bigfloat_round_trip_is_bit_exact(self):
        with working_precision(237):
            x = mp.mpf(2) ** mp.mpf("0.123456789")
            z = mp.mpc(x, -x / 3)
        blob = scalar_to_json(z)
        back = scalar_from_json(blob)
        assert back._mpc_ == z._mpc_

    def test_hex_handles_specials(self):
        assert mpf_from_hex(mpf_to_hex(mp.mpf(0))) == 0
        v = mp.mpf("-1.5e-300")
        assert mpf_from_hex(mpf_to_hex(v)) == v

    @given(st.integers(min_value=-10**9, max_value=10**9),
           st.integers(min_value=-60, max_value=60))
    def test_hex_round_trip(self, mantissa, exp):
        v = mp.ldexp(mp.mpf(mantissa), exp)
        assert mpf_from_hex(mpf_to_hex(v)) == v


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
