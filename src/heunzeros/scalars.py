"""Scalars used throughout the package.

Every parameter of a spec is a Gaussian rational, i.e. a complex number
whose real and imaginary parts are :class:`fractions.Fraction`, so all
recurrence algebra runs with no rounding at all and polynomial
coefficients and substitution identities can be checked exactly.  A
binary float given as a parameter (a float, complex, mpf or mpc) counts
as its exact dyadic value (`exact_value`).  mpc big floats appear only
for runtime values: a value of B, a zero, a d2 estimate.

The helpers here also own the one reader of typed scalars,
``parse_scalar`` (``"a+bi"``: integer, fraction and decimal parts are
read exactly; an exponent in any part rounds every part to the
requested precision, each read as that binary float's exact value),
and the serialization form used by the JSON interchange format:
decimal-free ``"num/den"`` strings.
"""

from __future__ import annotations

import re
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
        # binary powering that starts from the first factor and squares
        # only while bits remain: x**2 is one product, x**3 two
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return QQi(1) if out is None else out

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


# parts read by `parse_scalar` stay in the double range, so a
# fixed-point kernel can hold them in ints of about 1024 + F bits
MAGNITUDE_BITS = 1024


def parse_scalar(text: str, precision_bits: int | None = None) -> QQi:
    """Read ``a``, ``bi`` or ``a+bi`` as a QQi; spaces are ignored, and
    ``i`` may be ``j``, in either case.  Integer, ``p/q`` and decimal
    parts are exact (``0.3`` is 3/10).  An exponent in any part
    correctly rounds every part to precision_bits, which it then needs,
    and each is read as that binary float's exact value, as
    `exact_value` reads one at the working precision precision_bits.
    Anything else, ``nan`` and ``inf`` included, raises ValueError, as
    does a part of magnitude 2^MAGNITUDE_BITS or more (after rounding)
    and a rounded part that `exact_value` refuses.
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
    exact = "e" not in "".join(parts).lower()
    if not exact and precision_bits is None:
        raise ValueError(f"cannot parse scalar {text!r} exactly: exponent "
                         "notation needs a precision")
    try:
        with mp.workprec(precision_bits or mp.mp.prec):
            x, y = (Fraction(p) if exact else _dyadic(mp.mpf(p))
                    for p in parts)
        if max(abs(x), abs(y)) >= 2 ** MAGNITUDE_BITS:
            raise ValueError(f"magnitude 2^{MAGNITUDE_BITS} or more")
    except ValueError as exc:
        raise ValueError(f"cannot parse scalar {text!r}: {exc}") from None
    return QQi(x, y)


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


def exact_value(x) -> QQi:
    """x as a QQi: an exact scalar as `as_exact` reads it, and a binary
    float (a float, complex, mpf or mpc) as its exact dyadic value, each
    part refused as `_dyadic` refuses it."""
    if not isinstance(x, _INEXACT_TYPES):
        return as_exact(x)
    if isinstance(x, (complex, mp.mpc)):
        return QQi(_dyadic(x.real), _dyadic(x.imag))
    return QQi(_dyadic(x))


def _dyadic(x) -> Fraction:
    """The exact value of the float or mpf x.  ValueError when x is not
    finite, when |x| >= 2^MAGNITUDE_BITS, or when x is nonzero and
    |x| < 2^-(MAGNITUDE_BITS + the working precision): the value's
    numerator or denominator has as many bits as its binary exponent, so
    1e-1000000000 alone would be an integer of 415 MB."""
    if isinstance(x, float):
        # exact whatever the working precision
        x = mp.make_mpf(mp.libmp.from_float(x))
    if not mp.isfinite(x):
        raise ValueError("not a finite number")
    _, man, exp, bc = x._mpf_
    # a nonzero x lies in [2^(exp + bc - 1), 2^(exp + bc))
    if man and exp + bc > MAGNITUDE_BITS:
        raise ValueError(f"magnitude 2^{MAGNITUDE_BITS} or more")
    if man and exp + bc <= -(MAGNITUDE_BITS + mp.mp.prec):
        raise ValueError("nonzero magnitude below "
                         f"2^-{MAGNITUDE_BITS + mp.mp.prec}")
    return Fraction(*mp.libmp.to_rational(x._mpf_))


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
# continuant kernel in `rootfind`, which evaluates the zeros'
# polynomials and runs the d2 tail of `tracking`, and the Frobenius
# series of the midpoint oracle in `oracle`) run on such pairs and use
# only these conversions and this division.

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


# -- serialization -----------------------------------------------------------

def scalar_to_json(x) -> list[str]:
    """An exact complex scalar as a ``[re, im]`` pair of fraction
    strings."""
    q = as_exact(x)
    return [str(q.re), str(q.im)]


def scalar_from_json(pair) -> QQi:
    """Inverse of scalar_to_json; anything but a fraction pair, such as
    a hex significand, raises ValueError."""
    return QQi(Fraction(pair[0]), Fraction(pair[1]))


# -- display -----------------------------------------------------------------

def format_scalar(x, digits: int = 10, pad: bool = False) -> str:
    """Complex display: real part, or ``a + bi`` with both parts rounded;
    an exact value is rounded to 4 * digits + 16 bits first.  pad=True
    keeps trailing zeros so exactly `digits` figures show."""
    strip = not pad
    if isinstance(x, QQi):
        with mp.workprec(4 * digits + 16):
            return format_scalar(to_mpc(x), digits, pad)
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
