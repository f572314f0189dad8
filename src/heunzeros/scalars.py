"""Scalars used throughout the package.

Every parameter of a spec is a Gaussian rational (`QQi`), a complex
number (a + bi)/d held as three ints with one shared denominator, whose
parts ``re`` and ``im`` read as :class:`fractions.Fraction`; so all
recurrence algebra runs with no rounding at all and polynomial
coefficients and substitution identities can be checked exactly.  A
binary float (a float, complex, mpf or mpc) given as a parameter, or
as B to the recurrence or the oracle, counts as its exact dyadic value
(`exact_value`); QQi arithmetic with one raises ExactnessError, and a
QQi equals one only when that exact value is the same number.  mpc big
floats appear only as outputs of the numeric kernels (a zero, a d2
estimate) and at the fixed-point boundary (`_to_fixed`).

The helpers here also own the one reader of typed scalars,
``parse_scalar`` (``"a+bi"``: integer, fraction and decimal parts are
read exactly; an exponent in any part rounds every part to the
requested precision, each read as that binary float's exact value),
and the serialization form used by the JSON interchange format:
decimal-free ``"num/den"`` strings.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

import mpmath as mp


class ExactnessError(TypeError):
    """Raised when an exact-field operation receives inexact input."""


class QQi:
    """A Gaussian rational (a + bi)/d held as three ints in canonical
    form, d > 0 and gcd(a, b, d) = 1, so equal values have equal
    triples.  The parts ``re`` and ``im`` are the reduced Fractions a/d
    and b/d, computed when read."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if isinstance(re, QQi):
            if im:
                raise ValueError("cannot combine QQi real part with imag part")
            re, im = re.re, re.im
        # over the lcm of the denominators, a prime of which divides one
        # of them as often, and so not that part's numerator
        x, y = Fraction(re), Fraction(im)
        self.d = d = lcm(x.denominator, y.denominator)
        self.a = x.numerator * d // x.denominator
        self.b = y.numerator * d // y.denominator

    re = property(lambda self: Fraction(self.a, self.d), doc="a/d")
    im = property(lambda self: Fraction(self.b, self.d), doc="b/d")

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        if isinstance(x, (int, Fraction)):
            return _qqi(x.numerator, 0, x.denominator)
        if isinstance(x, str):
            return parse_gaussian_rational(x)
        raise ExactnessError(
            f"cannot coerce {type(x).__name__} into the exact field; "
            "pass int, Fraction, QQi, or a rational string"
        )

    # -- arithmetic -------------------------------------------------------
    #
    # on the triples, with the gcd reductions of Knuth (TAOCP vol. 2,
    # 4.5.1) that Fraction has; gcd takes the denominator first, so it
    # stops at 1 before it reads a second numerator

    def __add__(self, other):
        a1, b1, d1 = self.a, self.b, self.d
        if type(other) is int:      # canonical, as at g = 1 below
            return _qqi(a1 + other * d1, b1, d1)
        o = QQi.coerce(other)
        a2, b2, d2 = o.a, o.b, o.d
        # a prime of the new numerator and of d1 d2 / g divides g as often
        g = gcd(d1, d2)
        if g == 1:
            return _qqi(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
        s, t = d1 // g, d2 // g
        a, b = a1 * t + a2 * s, b1 * t + b2 * s
        g = gcd(g, a, b)
        return _qqi(a // g, b // g, s * (d2 // g))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -QQi.coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a1, b1, d1 = self.a, self.b, self.d
        if type(other) is int:      # canonical, as when b2 = 0 below
            g = gcd(d1, other)
            return _qqi(a1 * (other // g), b1 * (other // g), d1 // g)
        o = QQi.coerce(other)
        a2, b2, d2 = o.a, o.b, o.d
        # each numerator cancelled against the other denominator leaves
        # the product canonical when a factor is real; of two non-real
        # factors a common factor can remain, as (1+i)^2 = 2i
        g = gcd(d2, a1, b1)
        if g != 1:
            a1, b1, d2 = a1 // g, b1 // g, d2 // g
        g = gcd(d1, a2, b2)
        if g != 1:
            a2, b2, d1 = a2 // g, b2 // g, d1 // g
        if not b1 or not b2:
            return _qqi(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
        g = gcd(d, a, b)
        return _qqi(a // g, b // g, d // g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * QQi.coerce(other)._inverse()

    def __rtruediv__(self, other):
        return QQi.coerce(other) / self

    def _inverse(self):
        """d (a - bi)/(a^2 + b^2)."""
        a, b, d = self.a, self.b, self.d
        if not b:
            if not a:
                raise ZeroDivisionError("division by zero in exact field")
            return _qqi(d, 0, a) if a > 0 else _qqi(-d, 0, -a)
        n = a * a + b * b
        g = gcd(n, gcd(a, b) * d)
        return _qqi(a * d // g, -b * d // g, n // g)

    def __neg__(self):
        return _qqi(-self.a, -self.b, self.d)

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
        if type(other) is QQi:
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        # a binary float compares by its exact value, as it hashes; one
        # too large or too small for exact_value compares its mantissa
        # and exponent with the parts (`_is_binary`); nan and inf are
        # unequal
        try:
            other = exact_value(other)
        except ExactnessError:
            return NotImplemented
        except ValueError:
            if isinstance(other, (complex, mp.mpc)):
                return (_is_binary(self.re, other.real)
                        and _is_binary(self.im, other.imag))
            if isinstance(other, (float, mp.mpf)):
                return not self.b and _is_binary(self.re, other)
            return NotImplemented
        return self == other

    def __hash__(self):
        # a real value hashes as the equal Fraction, float and mpf, but
        # not always as the equal real mpc: mpmath reduces that hash
        # modulo 2^sys.hash_info.width, so a negative one differs; a
        # non-real value hashes as the equal mpc (mpmath's rule, which
        # differs from a Python complex's for some values)
        if not self.b:
            return hash(self.re)
        return ((hash(self.re) + sys.hash_info.imag * hash(self.im))
                % 2 ** sys.hash_info.width)

    def __bool__(self):
        return bool(self.a or self.b)

    def conjugate(self):
        return _qqi(self.a, -self.b, self.d)

    @property
    def is_real(self) -> bool:
        return not self.b

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def as_integer(self) -> int | None:
        """The value as a Python int if it is one, else None."""
        return self.a if not self.b and self.d == 1 else None

    def __repr__(self):
        return f"QQi({self})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        imag = f"{im}i" if abs(im) != 1 else ("i" if im > 0 else "-i")
        if re == 0:
            return imag
        sign = "+" if im > 0 and not imag.startswith("-") else ""
        return f"{re}{sign}{imag}"

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)


def _qqi(a: int, b: int, d: int) -> QQi:
    """The QQi of a canonical triple."""
    z = object.__new__(QQi)
    z.a, z.b, z.d = a, b, d
    return z


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
    if isinstance(x, (complex, mp.mpc)):
        return QQi(_dyadic(x.real), _dyadic(x.imag))
    if isinstance(x, (float, mp.mpf)):
        return QQi(_dyadic(x))
    return as_exact(x)


def _is_binary(q: Fraction, x) -> bool:
    """Whether q is the float or mpf x, from x's sign, odd mantissa and
    exponent: the bit lengths of q's numerator and denominator are
    checked first, so no int longer than they are is built."""
    if isinstance(x, float):
        x = mp.make_mpf(mp.libmp.from_float(x))
    sign, man, exp, bc = x._mpf_
    if not man:             # 0, or bc marks inf and nan
        return not bc and q == 0
    n, d = q.numerator, q.denominator
    man = -man if sign else man
    if exp >= 0:
        return d == 1 and n.bit_length() == bc + exp and n == man << exp
    return n == man and d.bit_length() == 1 - exp and d == 1 << -exp


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


# -- big-float conversion ---------------------------------------------------

def to_mpc(x) -> mp.mpc:
    """Convert any supported scalar to mpc at the current precision; an
    exact part's reduced numerator and denominator are each rounded to
    it, and then their quotient."""
    if isinstance(x, (QQi, Fraction)):
        x = QQi.coerce(x)
        return mp.mpc(*(mp.mpf(p.numerator) / mp.mpf(p.denominator)
                        for p in (x.re, x.im)))
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
# (x + iy) / 2^F.  The fixed-point kernels (the qd of the seed rungs
# above 53 bits and the continuant kernel in `rootfind`, which
# evaluates the zeros' polynomials and runs the d2 tail of `tracking`,
# and the Frobenius series of the midpoint oracle in `oracle`) run on
# such pairs and use only these conversions and this division.

def _to_fixed(z, F: int) -> tuple:
    """The complex, mpc or mpf z truncated toward zero to F fraction
    bits; an exact scalar (QQi, Fraction or int) rounded to the floor."""
    if isinstance(z, complex):
        parts = []
        for x in (z.real, z.imag):
            n, d = x.as_integer_ratio()      # d is a power of two
            q = (abs(n) << F) // d
            parts.append(-q if n < 0 else q)
        return tuple(parts)
    if isinstance(z, (mp.mpc, mp.mpf)):
        return int(mp.ldexp(z.real, F)), int(mp.ldexp(z.imag, F))
    z = QQi.coerce(z)
    return (z.a << F) // z.d, (z.b << F) // z.d


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
