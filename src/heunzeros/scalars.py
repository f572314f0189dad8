"""Scalar fields used throughout the package.

Two coefficient fields are supported:

* ``exact``: Gaussian rationals, i.e. complex numbers whose real and
  imaginary parts are :class:`fractions.Fraction`.  All recurrence algebra
  stays in this field when the inputs allow it, so polynomial coefficients
  and substitution identities can be checked with no rounding at all.
* ``bigfloat``: arbitrary-precision binary floats via mpmath, tagged with
  an explicit mantissa size in bits.

The helpers here also own the one reader of typed scalars,
``parse_scalar`` (``"a+bi"``: exact when every part is an integer,
fraction or decimal, a big float when any part has an exponent), and the
serialization forms used by the JSON interchange format: exact values as
decimal-free ``"num/den"`` strings, big-floats as hex-significand strings
that round-trip bit for bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp


class ExactnessError(TypeError):
    """Raised when an exact-field operation receives inexact input."""


class QQi:
    """A Gaussian rational: exact complex number with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, QQi):
            if im:
                raise ValueError("cannot combine QQi real part with imag part")
            self.re, self.im = re.re, re.im
            return
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        if isinstance(x, (int, Fraction)):
            return QQi(x)
        if isinstance(x, str):
            return parse_gaussian_rational(x)
        raise ExactnessError(
            f"cannot coerce {type(x).__name__} into the exact field; "
            "pass int, Fraction, QQi, or a rational string"
        )

    # Mixing with an inexact scalar silently leaves the exact field and
    # yields an mpc at the caller's current working precision.
    def _inexact(self, other, op):
        return op(to_mpc(self), to_mpc(other))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _INEXACT_TYPES):
            return self._inexact(other, lambda a, b: a + b)
        o = QQi.coerce(other)
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _INEXACT_TYPES):
            return self._inexact(other, lambda a, b: a - b)
        o = QQi.coerce(other)
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        if isinstance(other, _INEXACT_TYPES):
            return self._inexact(other, lambda a, b: b - a)
        o = QQi.coerce(other)
        return QQi(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        if isinstance(other, _INEXACT_TYPES):
            return self._inexact(other, lambda a, b: a * b)
        o = QQi.coerce(other)
        return QQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _INEXACT_TYPES):
            return self._inexact(other, lambda a, b: a / b)
        o = QQi.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero in exact field")
        return QQi((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        if isinstance(other, _INEXACT_TYPES):
            return self._inexact(other, lambda a, b: b / a)
        return QQi.coerce(other) / self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("QQi only supports nonnegative integer powers")
        out = QQi(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates / structure -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _INEXACT_TYPES):
            return to_mpc(self) == to_mpc(other)
        try:
            o = QQi.coerce(other)
        except (ExactnessError, ValueError):
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return QQi(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def as_integer(self) -> int | None:
        """The value as a Python int if it is one, else None."""
        if self.im == 0 and self.re.denominator == 1:
            return self.re.numerator
        return None

    def __repr__(self):
        return f"QQi({self})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 and not imag.startswith("-") else ""
        return f"{self.re}{sign}{imag}"


    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)


_INEXACT_TYPES = (float, complex, mp.mpf, mp.mpc)


# -- parsing ---------------------------------------------------------------

# a part: an integer, p/q with q nonzero, a decimal, or a decimal with an
# exponent
_PART = r"\d+/0*[1-9]\d*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# "a", "bi" or "a+bi": an imaginary part after a real one needs its sign
_SCALAR_RE = re.compile(
    rf"(?P<re>[+-]?(?:{_PART}))(?:(?P<im>[+-](?:{_PART})?)[ijIJ])?"
    rf"|(?P<im_only>[+-]?(?:{_PART})?)[ijIJ]"
)


def parse_scalar(text: str, precision_bits: int | None = None):
    """Read ``a``, ``bi`` or ``a+bi``; spaces are ignored, and ``i`` may
    be ``j``, in either case.  Integer, ``p/q`` and decimal parts give an
    exact QQi (``0.3`` is 3/10).  An exponent in any part gives a big
    float, an mpf without an imaginary part and an mpc with one, each
    part correctly rounded to precision_bits, which it then needs.
    Anything else, ``nan`` and ``inf`` included, raises ValueError.
    """
    s = text.strip().replace(" ", "")
    match = _SCALAR_RE.fullmatch(s)
    if match is None:
        finite = s.lower() not in ("nan", "inf", "+inf", "-inf")
        raise ValueError(f"cannot parse scalar {text!r}"
                         + ("" if finite else ": not a finite number"))
    im = match["im"] if match["im"] is not None else match["im_only"]
    if im in ("", "+", "-"):
        im += "1"
    parts = (match["re"] or "0", im or "0")
    if "e" not in "".join(parts).lower():
        return QQi(*map(Fraction, parts))
    if precision_bits is None:
        raise ValueError(f"cannot parse scalar {text!r} exactly: exponent "
                         "notation needs a precision")
    with mp.workprec(precision_bits):
        x, y = map(mp.mpf, parts)
        return x if im is None else mp.mpc(x, y)


def parse_gaussian_rational(text: str) -> QQi:
    """parse_scalar without a precision: exact forms only."""
    return parse_scalar(text)


def as_exact(x) -> QQi:
    """Coerce to QQi, raising ExactnessError for floats and complexes.

    Floats are refused on purpose: a caller holding ``0.1`` almost never
    means the dyadic it rounds to, so exact inputs must be Fraction,
    int, QQi or a rational string.
    """
    return QQi.coerce(x)


def is_exact_scalar(x) -> bool:
    if isinstance(x, (QQi, int, Fraction)):
        return True
    if isinstance(x, str):
        try:
            parse_gaussian_rational(x)
        except ValueError:
            return False
        return True
    return False


# -- big-float conversion ---------------------------------------------------

def fraction_to_mpf(fr: Fraction) -> mp.mpf:
    """Convert under the caller's current mpmath precision."""
    return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


def to_mpc(x) -> mp.mpc:
    """Convert any supported scalar to mpc at the current precision."""
    if isinstance(x, QQi):
        return mp.mpc(fraction_to_mpf(x.re), fraction_to_mpf(x.im))
    if isinstance(x, Fraction):
        return mp.mpc(fraction_to_mpf(x))
    if isinstance(x, (int, float, complex, mp.mpf, mp.mpc)):
        return mp.mpc(x)
    if isinstance(x, str):
        return to_mpc(parse_gaussian_rational(x))
    raise TypeError(f"cannot convert {type(x).__name__} to mpc")


def working_precision(bits: int):
    """Context manager pinning the mpmath mantissa size."""
    return mp.workprec(bits)


# -- fixed point ------------------------------------------------------------
#
# A Gaussian integer pair (x, y) with F fraction bits stands for
# (x + iy) / 2^F.  The fixed-point kernels (the escalated QL and the
# continuant evaluation in `rootfind`, the d2 tail in `tracking`, the
# Frobenius series of the midpoint oracle in `oracle`) run on
# such pairs and use only these conversions and this division.

def _to_fixed(z, F: int) -> tuple:
    """The mpc or mpf z truncated toward zero to F fraction bits; an
    exact scalar (QQi, Fraction or int) rounded to the floor."""
    if isinstance(z, (mp.mpc, mp.mpf)):
        return int(mp.ldexp(z.real, F)), int(mp.ldexp(z.imag, F))
    z = QQi.coerce(z)
    return ((z.re.numerator << F) // z.re.denominator,
            (z.im.numerator << F) // z.im.denominator)


def _from_fixed(x: int, y: int, F: int) -> mp.mpc:
    """(x + iy) / 2^F as mpc, rounded to the current precision."""
    return mp.mpc(mp.ldexp(x, -F), mp.ldexp(y, -F))


def _fixed_div(ar, ai, br, bi, F):
    """(ar + i ai) / (br + i bi), b nonzero, rounded to the floor: with
    Fa fraction bits in a and Fb in b, the quotient has Fa - Fb + F."""
    n2 = br * br + bi * bi
    return ((ar * br + ai * bi) << F) // n2, ((ai * br - ar * bi) << F) // n2


# -- field tags -------------------------------------------------------------

@dataclass(frozen=True)
class FieldTag:
    """Identifies the coefficient field of a polynomial or family."""

    kind: str                      # "exact" | "bigfloat"
    precision_bits: int | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "bigfloat"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "bigfloat" and not self.precision_bits:
            raise ValueError("bigfloat field needs precision_bits")
        if self.kind == "exact" and self.precision_bits is not None:
            raise ValueError("exact field takes no precision_bits")

    def to_json(self):
        if self.kind == "exact":
            return {"kind": "exact"}
        return {"kind": "bigfloat", "precision_bits": self.precision_bits}

    @staticmethod
    def from_json(obj) -> "FieldTag":
        return FieldTag(obj["kind"], obj.get("precision_bits"))


EXACT_FIELD = FieldTag("exact")


def bigfloat_field(bits: int) -> FieldTag:
    return FieldTag("bigfloat", bits)


# -- serialization -----------------------------------------------------------

_HEX_RE = re.compile(r"^(-?)0x([0-9a-f]+)p([+-]\d+)$")


def mpf_to_hex(x: mp.mpf) -> str:
    """Bit-exact hex-significand form, e.g. ``-0x19ap-8``."""
    if not isinstance(x, mp.mpf):
        x = mp.mpf(x)
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return "0x0p+0"
        raise ValueError(f"cannot serialize non-finite value {x}")
    return f"{'-' if sign else ''}0x{man:x}p{exp:+d}"


def mpf_from_hex(text: str) -> mp.mpf:
    m = _HEX_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad hex float {text!r}")
    man = int(m.group(2), 16)
    exp = int(m.group(3))
    # negate inside the widened block: arithmetic rounds at ambient
    # precision, so even a sign flip outside would truncate
    with mp.workprec(max(man.bit_length(), 1) + 8):
        val = mp.ldexp(mp.mpf(man), exp)
        if m.group(1):
            val = -val
    return val


def scalar_to_json(x) -> list[str]:
    """A complex scalar as a ``[re, im]`` pair of strings: fraction
    strings for exact values, hex significands for big floats."""
    if isinstance(x, mp.mpc):
        return [mpf_to_hex(x.real), mpf_to_hex(x.imag)]
    if isinstance(x, mp.mpf):
        return [mpf_to_hex(x), "0x0p+0"]
    q = as_exact(x)
    return [str(q.re), str(q.im)]


def scalar_from_json(pair):
    """Inverse of scalar_to_json: a hex pair becomes an mpc holding its
    exact bits, a fraction pair a QQi."""
    if not pair[0].lstrip("-").startswith("0x"):
        return QQi(Fraction(pair[0]), Fraction(pair[1]))
    re, im = mpf_from_hex(pair[0]), mpf_from_hex(pair[1])
    # assemble without rounding at the ambient precision
    return mp.make_mpc((re._mpf_, im._mpf_))


# -- display -----------------------------------------------------------------

def format_real(x, digits: int = 10, pad: bool = False) -> str:
    """Decimal string with the given number of significant digits.
    pad=True keeps trailing zeros so exactly `digits` figures show."""
    strip = not pad
    if isinstance(x, QQi):
        if not x.is_real:
            raise ValueError("not a real value")
        x = x.re
    if isinstance(x, (Fraction, int)):
        with mp.workprec(4 * digits + 16):
            return mp.nstr(fraction_to_mpf(Fraction(x)), digits,
                           strip_zeros=strip)
    return mp.nstr(mp.mpf(x), digits, strip_zeros=strip)


def format_scalar(x, digits: int = 10, pad: bool = False) -> str:
    """Complex display: real part, or ``a + bi`` with both parts rounded."""
    strip = not pad
    if isinstance(x, QQi):
        if x.is_real:
            return format_real(x.re, digits, pad)
        with mp.workprec(4 * digits + 16):
            z = to_mpc(x)
        return format_scalar(z, digits, pad)
    # mp.mpc(x) would round a big float to the ambient precision
    z = x if isinstance(x, (mp.mpf, mp.mpc)) else mp.mpc(x)
    if z.imag == 0:
        return mp.nstr(z.real, digits, strip_zeros=strip)
    re_s = mp.nstr(z.real, digits, strip_zeros=strip)
    im_s = mp.nstr(z.imag, digits, strip_zeros=strip).lstrip("-")
    sign = "-" if z.imag < 0 else "+"
    if z.real == 0:
        return f"{'-' if z.imag < 0 else ''}{im_s}i"
    return f"{re_s} {sign} {im_s}i"
