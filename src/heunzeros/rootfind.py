"""Polynomial root polishing at configurable precision, and the QL
eigenvalue solver that supplies its seeds.

`find_all_roots` polishes caller-supplied seeds, one per root (such as
the eigenvalues from `tridiagonal_eigenvalues`), each alone by Newton's
method on a `Continuant`, the rows of a three-term recurrence: p and p'
come from that recurrence run in fixed-point Gaussian integers
(`_continuant_kernel`, which also runs the d2 tail, and which runs real
rows at a real point on the real parts alone), never from dense
coefficients, at widths that rise with the bits already right and end
at the full width (`_fixed_newton`); for real rows, once per conjugate
pair and on the real axis for every other seed.  The result stands when
disks around the zeros, each holding a root, are pairwise disjoint and
every residual, the last Newton step |p/p'|, meets the tolerance; for
real rows the disks then also prove the zeros on the axis real.
Otherwise it raises, and the caller may bring better seeds
(`tracking.solve_zeros` climbs a ladder of QL precisions).  The steps
per seed are bounded, and no start point comes from a random generator.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from math import isqrt

import mpmath as mp

from .families import InvalidSpecError
from .scalars import (
    QQi,
    _fixed_div,
    _from_fixed,
    _to_fixed,
    to_mpc,
    working_precision,
)


class NonConvergenceError(RuntimeError):
    """The iteration did not reach its tolerance.

    overlapping lists the roots of a `find_all_roots` call whose disks
    met another one's, or the seed that failed the first-step test of
    `_fixed_newton`: other seeds may help.  Otherwise it is empty.
    stationary lists those of the roots whose Newton step ended where
    p' = 0, with an infinite disk: at a multiple zero no precision
    separates them."""

    def __init__(self, message, overlapping=(), stationary=()):
        super().__init__(message)
        self.overlapping = tuple(overlapping)
        self.stationary = tuple(stationary)


@dataclass(frozen=True)
class ZeroSet:
    """All zeros of one polynomial, display-sorted.

    points[i] is zero i as `find_all_roots` polished it: ints (x, y) for
    z_i = (x + iy) 2^-F, F = `ZeroSet.F`, in descending x, ties by
    ascending y.  zeros[i] is its mpc view, each part rounded to
    F - _KERNEL_GUARD bits: |zeros[i] - z_i| <= 2^-(F - _KERNEL_GUARD) |z_i|.
    residuals[i], the full-width Newton step |p/p'| to z_i on the
    three-term recurrence in fixed point, bounds the error of z_i, not
    of the view; a mirrored zero of a real polynomial has its partner's.
    Every residual met tol = `default_tol(precision_bits)`.  A zero is
    real exactly when y is 0: for real rows, when it was polished on the
    axis.  labels[i] is the grid index k matched to zeros[i] (None when
    no labelling was requested).  seed_bits is the rung of the
    `tracking.solve_zeros` precision ladder whose Jacobi eigenvalues
    seeded the zeros that stood (53 or more; None for seeds given to
    `find_all_roots` directly)."""

    points: tuple
    residuals: tuple
    precision_bits: int
    labels: tuple = None
    seed_bits: int | None = None

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(self, "labels", (None,) * len(self.points))

    @property
    def F(self) -> int:
        """The fraction bits of the points (`_newton_bits`)."""
        return _newton_bits(self.precision_bits)

    @property
    def degree(self) -> int:
        """The number of zeros."""
        return len(self.points)

    @property
    def tol(self) -> mp.mpf:
        """The residual tolerance every zero met (`default_tol`)."""
        return default_tol(self.precision_bits)

    @cached_property
    def zeros(self) -> tuple:
        """The points as mpc, each part rounded to F - _KERNEL_GUARD bits."""
        with working_precision(self.F - _KERNEL_GUARD):
            return tuple(_from_fixed(x, y, self.F) for x, y in self.points)

    @property
    def converged(self) -> tuple:
        """One True per zero: `find_all_roots` raises on any root that
        misses its check, so every zero of a ZeroSet has converged."""
        return (True,) * len(self.points)

    def with_labels(self, labels) -> "ZeroSet":
        if len(labels) != len(self.points):
            raise ValueError("one label per zero required")
        return replace(self, labels=tuple(labels))

    def real_zeros(self) -> list:
        """The zeros whose imaginary part, y, is exactly 0."""
        return [z for z, (_, y) in zip(self.zeros, self.points) if not y]


def default_tol(precision_bits: int) -> mp.mpf:
    """2^-(precision_bits // 2), the residual tolerance of
    `find_all_roots` relative to 1 + |z|."""
    return mp.mpf(2) ** (-(precision_bits // 2))


@dataclass(frozen=True)
class Continuant:
    """The monic degree-m polynomial p_m of the three-term recurrence

        p_{k+1}(z) = (z + A_k) p_k(z) - N_k p_{k-1}(z),  p_0 = 1,

    given by its rows A = (A_0, ..., A_{m-1}) and N = (N_0, ..., N_{m-1}),
    QQi, as `tracking.continuant` builds them (N_0 multiplies p_{-1} = 0
    and is never read).
    Its zeros are the eigenvalues of the complex-symmetric tridiagonal
    matrix with diagonal -A_k and off-diagonal sqrt(N_k), k >= 1
    (`double_matrix`, `tridiagonal_eigenvalues`; docs/math_notes.md,
    section 8)."""

    A: tuple
    N: tuple

    def __post_init__(self):
        if len(self.A) != len(self.N):
            raise InvalidSpecError(
                f"{len(self.A)} A rows and {len(self.N)} N rows; a "
                "Continuant needs one of each per step")

    @property
    def degree(self) -> int:
        return len(self.A)

    def is_real(self) -> bool:
        """Whether every row is real, and so p_m has real coefficients."""
        return all(x.is_real for x in self.A + self.N[1:])

    def double_matrix(self) -> tuple:
        """(diagonal, off-diagonal) as correctly rounded complex doubles."""
        return ([complex(_double(-a.a, a.d), _double(-a.b, a.d))
                 for a in self.A], [_double_sqrt(x) for x in self.N[1:]])

    def fixed_rows(self, F: int) -> tuple:
        """(Re A_k, Im A_k, Re N_k, Im N_k) per row, with F fraction
        bits (`scalars._to_fixed`), for the rational QL, and for
        `_continuant_kernel` once `_short_rows` has split each N_k into
        a mantissa and a power of two."""
        return tuple(_to_fixed(a, F) + _to_fixed(x, F)
                     for a, x in zip(self.A, self.N))


_KERNEL_GUARD = 32    # fraction bits of `_continuant_kernel` beyond the
                      # precision its callers work at
_KERNEL_SPAN = 32     # width, in bits, of the window that holds the
                      # kernel's state, and its floor above 2^F


def _short_rows(rows):
    """The rows (Re A_k, Im A_k, Re N_k, Im N_k) of `Continuant.fixed_rows`
    in the form `_continuant_kernel` reads, (Re A_k, Im A_k, n_r, n_i, t)
    with N_k = (n_r + i n_i) 2^t: t is the number of trailing zero bits
    of both parts (0 when both are 0), so n_r or n_i is odd, or both are
    0.  Where N_k has a small power of two as denominator, as for
    Mathieu, Whittaker-Hill s = -20 or Lame s = 1/2, the mantissas have a
    few dozen bits at most, however wide F; a full-width N_k has t near
    0.  An iterator over rows in, an iterator out.  A row with t = 0
    keeps its own ints, and all rows share one int per value of t, so
    the form copies no int it need not."""
    shifts = {}
    for a, b, x, y in rows:
        v = x | y
        if v & 1 or not v:
            yield a, b, x, y, 0
        else:
            t = (v & -v).bit_length() - 1
            t = shifts.setdefault(t, t)
            yield a, b, x >> t, y >> t, t


def _continuant_kernel(rows, F: int, z, stops, derivative: bool = False,
                       real: bool = False, start=None):
    """The state (p_k, p_{k-1}, p'_k, e) at each k of the ascending stops
    of p_{k+1} = (z + A_k) p_k - N_k p_{k-1}, p_0 = 1, on the iterable
    rows of `Continuant.fixed_rows(F)` in `_short_rows` form; the pair of
    ints z = (x, y) stands for (x + iy) 2^-F, and each value (x, y) for
    (x + iy) 2^(e-F).

    Runs on Gaussian integers; a product is shifted back by F bits,
    rounding to the floor.  N_k q is formed as (n q) << t, the same int
    as N_k q, so a row with short mantissas multiplies at their width
    and every floor is that of the full-width product.  With derivative,
    p'_{k+1} = (z + A_k) p'_k + p_k - N_k p'_{k-1} runs alongside;
    without it p' stays 0.  The state ints share the exponent e, for p_m
    can reach 2^1300 at m = 100: when the larger of the new p_k and p'_k
    leaves [2^(F+S), 2^(F+2S)), S = _KERNEL_SPAN, that is, when its bit
    length leaves [F+1+S, F+1+2S), all are shifted back to 2^(F+S)
    together (docs/math_notes.md, section 8).
    The caller sets real when every row's imaginary ints are 0; with
    z = (x, 0) as well, every imaginary part of the state stays 0, and
    the real arm runs the same products, floors and window on the real
    parts alone, in one loop with p' and one without, so its states are
    the complex arm's, bit for bit.  At a z off the axis, real rows take
    a branch of the complex loop that drops the products with the rows'
    zero imaginary parts, 12 a row with p' against 16, and keeps the same
    floors and window, so its states are the complex arm's too.
    Given start = (k, state), a state this kernel returned at k for the
    same rows, F and z without derivative, the run goes on from it, as
    the run from 0 would: rows then begins at row k, and no stop is
    below k.  Without derivative p'_{k-1} is 0, so the state holds all
    the run carries."""
    k, ((pr, pi), (qr, qi), (dr, di), e) = start or (
        0, ((1 << F, 0), (0, 0), (0, 0), 0))
    low, high = F + 1 + _KERNEL_SPAN, F + 1 + 2 * _KERNEL_SPAN
    steps = iter(rows)
    states = []
    if real and not z[1]:
        x = z[0]
        p, q, d, dq = pr, qr, dr, 0      # p_k, p_{k-1}, p'_k, p'_{k-1}
        for stop in stops:
            if derivative:
                for A, _, n, _, t in islice(steps, stop - k):
                    u = x + A
                    dq, d = d, ((u * d - (n * dq << t)) >> F) + p
                    q, p = p, (u * p - (n * q << t)) >> F
                    b = (abs(p) | abs(d)).bit_length()
                    if b >= high:
                        b -= low
                        e += b
                        p, q, d, dq = p >> b, q >> b, d >> b, dq >> b
                    elif b < low:
                        b = low - b
                        e -= b
                        p, q, d, dq = p << b, q << b, d << b, dq << b
            else:
                # p' = 0, and p's bit length is |p|'s
                for A, _, n, _, t in islice(steps, stop - k):
                    q, p = p, ((x + A) * p - (n * q << t)) >> F
                    b = p.bit_length()
                    if b >= high:
                        b -= low
                        e += b
                        p, q = p >> b, q >> b
                    elif b < low:
                        b = low - b
                        e -= b
                        p, q = p << b, q << b
            k = stop
            states.append(((p, 0), (q, 0), (d, 0), e))
        return states
    zr, zi = z
    er = ei = 0                          # p'_{k-1}
    for stop in stops:
        for Ar, Ai, nr, ni, t in islice(steps, stop - k):
            if real:                     # Ai = ni = 0, so Im(z + A) = zi
                ur = zr + Ar
                if derivative:
                    sr = ((ur * dr - zi * di - (nr * er << t)) >> F) + pr
                    si = ((ur * di + zi * dr - (nr * ei << t)) >> F) + pi
                    er, ei, dr, di = dr, di, sr, si
                tr = (ur * pr - zi * pi - (nr * qr << t)) >> F
                ti = (ur * pi + zi * pr - (nr * qi << t)) >> F
            else:
                ur, ui = zr + Ar, zi + Ai
                if derivative:
                    sr = ((ur * dr - ui * di
                           - ((nr * er - ni * ei) << t)) >> F) + pr
                    si = ((ur * di + ui * dr
                           - ((nr * ei + ni * er) << t)) >> F) + pi
                    er, ei, dr, di = dr, di, sr, si
                tr = (ur * pr - ui * pi - ((nr * qr - ni * qi) << t)) >> F
                ti = (ur * pi + ui * pr - ((nr * qi + ni * qr) << t)) >> F
            qr, qi, pr, pi = pr, pi, tr, ti
            b = (abs(pr) | abs(pi) | abs(dr) | abs(di)).bit_length()
            if b >= high:
                b -= low
                e += b
                pr, pi, qr, qi = pr >> b, pi >> b, qr >> b, qi >> b
                if derivative:
                    dr, di, er, ei = dr >> b, di >> b, er >> b, ei >> b
            elif b < low:
                b = low - b
                e -= b
                pr, pi, qr, qi = pr << b, pi << b, qr << b, qi << b
                if derivative:
                    dr, di, er, ei = dr << b, di << b, er << b, ei << b
        k = stop
        states.append(((pr, pi), (qr, qi), (dr, di), e))
    return states


def _upper_hull(points):
    """Upper convex hull of (x, y) pairs sorted by x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon_seeds(coeffs) -> list:
    """Deterministic starting points on scaled circles, one per root.

    Radii follow the Newton polygon of coefficient magnitudes (the
    upper convex hull of (k, log2|a_k|)), which groups the start points
    near the moduli the roots actually have; each hull segment of
    horizontal span w contributes w equally spaced angles.  A block of
    zero low-order coefficients (a_0 = ... = a_{v-1} = 0) means the
    origin is a root of multiplicity v, so it contributes v seeds at 0
    and the hull covers only the remaining n - v roots.  No solve in
    this package starts from these circles.
    """
    n = len(coeffs) - 1
    pts = [(k, mp.mag(c)) for k, c in enumerate(coeffs) if c != 0]
    if not pts or pts[-1][0] != n:
        raise InvalidSpecError("leading coefficient must be nonzero")
    seeds = [mp.mpc(0)] * pts[0][0]
    hull = _upper_hull(pts) if len(pts) >= 2 else []
    for e, ((k1, v1), (k2, v2)) in enumerate(zip(hull, hull[1:])):
        span = k2 - k1
        radius = mp.mpf(2) ** (mp.mpf(v1 - v2) / span)
        for j in range(span):
            theta = 2 * mp.pi * (j + mp.mpf("0.26") * (e + 1)) / span
            seeds.append(radius * mp.mpc(mp.cos(theta), mp.sin(theta)))
    return seeds


_QL_MAX_STEPS = 50    # QL steps allowed per eigenvalue
_POLISH_STEPS = 40    # Newton steps allowed per root
_SEED_BITS = 53       # bits a seed is taken to be right to: a double
_JUDGE_BITS = 20      # a double seed's first step is below 2^-20 relative
_WIDTH_STEP = 64      # the narrow Newton steps' widths are multiples of it
_QL_GUARD = 32        # fraction bits of the rational QL's c beyond F


def tridiagonal_eigenvalues(rows: Continuant, precision_bits: int = 53):
    """Eigenvalues of the Jacobi matrix of the Continuant rows, or None.

    The matrix is complex-symmetric and tridiagonal, with diagonal -A_k
    and squared off-diagonal N_k, k >= 1.  At precision_bits <= 53,
    implicit QL with Wilkinson shifts (the tqli scheme) runs on
    `Continuant.double_matrix` in complex doubles (`_implicit_ql`); its
    plane rotations have c^2 + s^2 = 1 and act by transposes, not
    conjugate transposes, so every step keeps the matrix
    complex-symmetric.  Above 53 bits, a rational QL (`_rational_ql`)
    takes the same steps on the squared off-diagonal, with no square
    root but the shift's, in fixed point on the exact rows: -A_k with
    F = precision_bits fraction bits and N_k with 2F
    (`Continuant.fixed_rows`), each a Gaussian integer, each operation
    exact integer arithmetic followed by at most one floor rounding, so
    the eigenvalues are the same bits on every machine and every run.
    Either breaks down when a rotation's pivot pair (f, g) has
    f^2 + g^2 = 0, and nothing bounds how fast a non-normal matrix
    converges; on a breakdown, after _QL_MAX_STEPS QL steps per 53 bits
    of precision on one eigenvalue, or when a double entry overflows,
    the result is None (`tracking.solve_zeros` then tries its next rung
    of precision).  The eigenvalues come back in no particular order:
    complex doubles at 53 bits, and above it exact QQi over 2^F.  They
    are accurate to about the unit roundoff times the matrix norm only
    when the matrix is close to normal, and far less when it is not,
    which is why `find_all_roots` judges double seeds by their first
    Newton step when a higher rung could follow.
    """
    if precision_bits > 53:
        F = precision_bits
        fixed = rows.fixed_rows(2 * F)
        dr = [-(a >> F) for a, _, _, _ in fixed]
        di = [-(b >> F) for _, b, _, _ in fixed]
        er = [x for _, _, x, _ in fixed[1:]] + [0]
        ei = [y for _, _, _, y in fixed[1:]] + [0]
        try:
            if not _rational_ql(dr, di, er, ei, F):
                return None
        except ZeroDivisionError:       # a breakdown: r = 0
            return None
        return [QQi(x, y) / (1 << F) for x, y in zip(dr, di)]
    d, e = rows.double_matrix()
    try:
        converged = _implicit_ql(d, e + [0j])
    except (OverflowError, ZeroDivisionError):
        # abs() of a complex with finite parts raises once the modulus
        # exceeds the double range
        return None
    if not converged or not all(cmath.isfinite(x) for x in d):
        return None
    return d


def _implicit_ql(d, e) -> bool:
    """Run QL on d (diagonal) and e (off-diagonal, padded with a
    trailing zero) in place, in complex doubles; False on rotation
    breakdown or when an eigenvalue needs more than _QL_MAX_STEPS
    steps."""
    eps = 2.0 ** -52
    n = len(d)
    for l in range(n):
        for it in range(_QL_MAX_STEPS + 1):
            m = l
            while m < n - 1 and \
                    abs(e[m]) > eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if it == _QL_MAX_STEPS:
                return False
            # Wilkinson shift from the leading 2x2 block
            g = (d[l + 1] - d[l]) / (2 * e[l])
            r = cmath.sqrt(g * g + 1)
            g = d[m] - d[l] + e[l] / (g + r if abs(g + r) >= abs(g - r)
                                      else g - r)
            s = c = 1 + 0j
            p = 0j
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = cmath.sqrt(f * f + g * g)
                e[i + 1] = r
                if r == 0:
                    return False
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            d[l] -= p
            e[l] = g
            e[m] = 0j
    return True


def _fixed_sqrt(x, y):
    """Principal square root of the Gaussian integer x + iy read with
    2F fraction bits, as a pair (re, im) with F fraction bits.  Taking
    the root of an unshifted product of two F-bit values keeps the
    relative precision of a small result."""
    a = isqrt(x * x + y * y)       # >= |x|, so both radicands are >= 0
    if x >= 0:
        re = isqrt((a + x) >> 1)
        return (re, y // (2 * re)) if re else (0, 0)
    im = isqrt((a - x) >> 1)       # >= 1, as a - x >= 2|x|
    if y < 0:
        im = -im
    return y // (2 * im), im


def _double(n: int, d: int) -> float:
    """n/d correctly rounded, or its signed infinity beyond the range."""
    try:
        return n / d
    except OverflowError:
        return cmath.inf if n > 0 else -cmath.inf


def _double_sqrt(z) -> complex:
    """sqrt(z), principal, for the QQi z = (a + ib)/d: the parts
    sqrt((G + X)/2)/d and sign(Y) sqrt((G - X)/2)/d, X + iY = (a + ib) d,
    G = |X + iY|, floored exactly by isqrt and // to 56 or more bits, and
    a sticky bit for a nonzero remainder, round once, correctly."""
    X, Y, d = z.a * z.d, z.b * z.d, z.d
    k = 60 + max(abs(X), abs(Y)).bit_length() // 2 + d.bit_length()
    g = isqrt(S := (X * X + Y * Y) << 4 * k)
    parts = []
    for u in (g + (X << 2 * k), g - (X << 2 * k)):
        q, rest = divmod(r := isqrt(u >> 1), d)
        inexact = g * g != S or u & 1 or r * r != u >> 1 or rest
        parts.append(_double(2 * q + bool(inexact), 1 << k + 1))
    return complex(parts[0], -parts[1] if Y < 0 else parts[1])


def _rational_ql(dr, di, er, ei, F: int) -> bool:
    """Root-free QL (Pal, Walker and Kahan's form of Reinsch's rational
    QL, as LAPACK's dsterf runs it; docs/math_notes.md, section 8) on
    Gaussian integers, in place: the diagonal d = dr + i di, with F
    fraction bits, ends as the eigenvalues; e^2 = er + i ei, the squared
    off-diagonal with 2F fraction bits, is padded with a trailing zero.
    A step on the block l..m shifts by the eigenvalue of its leading 2x2
    block nearest d_l, t = d_l - 2 e_l^2 / (u + v), u = d_l+1 - d_l,
    v = +-sqrt(u^2 + 4 e_l^2) (`_fixed_sqrt`, its one root) with
    Re(u conj v) >= 0.  Then, from c = 1, g = d_m - t and p = g^2, for
    i = m-1 down to l: r = p + e_i^2, e_i+1^2 = s r, c = p / r, g' = g,
    g = c (d_i - t) - s g', d_i+1 = g' + d_i - g, and p = g^2 / c, or
    c_old e_i^2 when c = 0; last, e_l^2 = s p and d_l = g + t; here
    s = 1 - c is never formed: s r = r - c r, and
    c (d_i - t) - s g' = c (d_i - t + g') - g'.  c carries K =
    F + _QL_GUARD fraction bits, so that g keeps F bits for |d_i - t| up
    to 2^_QL_GUARD; p and r carry 2F.  A product is shifted back and a
    quotient's numerator shifted up to the scale it keeps, each rounding
    to the floor, and the floor of X - h 2^K is the floor of X less h,
    so folding s in moves no bit.  Moduli are |x| + |y|.  e_m^2
    deflates when |e_m^2| <= 2^-2F (|d_m| + |d_m+1|)^2, or below the
    squared floor (2^(6-F) max_j ||row_j||_1)^2: rounding leaves an
    absolute error of a few units of 2^-F times the matrix scale in
    every entry, so near a small eigenvalue of a non-normal matrix the
    relative test alone may never pass.  False when an eigenvalue needs
    more than _QL_MAX_STEPS * F // 53 steps; r = 0, a breakdown, raises
    ZeroDivisionError."""
    n = len(dr)
    max_steps = _QL_MAX_STEPS * F // 53
    scale = max(abs(dr[j]) + abs(di[j]) + isqrt(abs(er[j]) + abs(ei[j]))
                + isqrt(abs(er[j - 1]) + abs(ei[j - 1])) for j in range(n))
    floor = (scale >> (F - 6)) ** 2    # er[-1] is the zero padding
    K = F + _QL_GUARD
    for l in range(n):
        for it in range(max_steps + 1):
            m = l
            while m < n - 1:
                size = abs(er[m]) + abs(ei[m])
                if size <= floor or size << 2 * F <= (
                        abs(dr[m]) + abs(di[m]) + abs(dr[m + 1])
                        + abs(di[m + 1])) ** 2:
                    break
                m += 1
            if m == l:
                break
            if it == max_steps:
                return False
            ur, ui = dr[l + 1] - dr[l], di[l + 1] - di[l]
            xr, xi = er[l], ei[l]
            vr, vi = _fixed_sqrt(ur * ur - ui * ui + 4 * xr,
                                 2 * ur * ui + 4 * xi)
            if ur * vr + ui * vi < 0:
                vr, vi = -vr, -vi
            ur, ui = _fixed_div(2 * xr, 2 * xi, ur + vr, ui + vi, 0)
            tr, ti = dr[l] - ur, di[l] - ui          # the shift
            cr, ci = 1 << K, 0
            gr, gi = dr[m] - tr, di[m] - ti
            pr, pi = gr * gr - gi * gi, 2 * gr * gi
            for i in range(m - 1, l - 1, -1):
                xr, xi = er[i], ei[i]
                rr, ri = pr + xr, pi + xi
                # s r = r - c r, floored: r minus the ceiling of c r
                er[i + 1] = rr + ((ci * ri - cr * rr) >> K)
                ei[i + 1] = ri + ((-cr * ri - ci * rr) >> K)
                br, bi = cr, ci
                n2 = rr * rr + ri * ri               # c = p / r
                cr = ((pr * rr + pi * ri) << K) // n2
                ci = ((pi * rr - pr * ri) << K) // n2
                # c u - s g' = c (u + g') - g', u = d_i - t, floored
                ur, ui = dr[i] - tr + gr, di[i] - ti + gi
                hr, hi = gr, gi
                gr = ((cr * ur - ci * ui) >> K) - hr
                gi = ((cr * ui + ci * ur) >> K) - hi
                dr[i + 1] = hr + dr[i] - gr
                di[i + 1] = hi + di[i] - gi
                if cr or ci:                         # p = g^2 / c
                    ar, ai = gr * gr - gi * gi, 2 * gr * gi
                    n2 = cr * cr + ci * ci
                    pr = ((ar * cr + ai * ci) << K) // n2
                    pi = ((ai * cr - ar * ci) << K) // n2
                else:
                    pr = (br * xr - bi * xi) >> K
                    pi = (br * xi + bi * xr) >> K
            er[l] = pr + ((ci * pi - cr * pr) >> K)
            ei[l] = pi + ((-cr * pi - ci * pr) >> K)
            dr[l], di[l] = gr + tr, gi + ti
    return True


def find_all_roots(poly, seeds, precision_bits: int = 256) -> ZeroSet:
    """All roots of the polynomial, polished from one seed each.

    poly: a `Continuant`, the rows of a three-term recurrence, as
    `tracking.solve_zeros` passes them; anything else raises TypeError.
    seeds: the starting points, one per root (any other count raises
    InvalidSpecError), such as the eigenvalues of its Jacobi matrix.
    Each seed is polished alone by `_fixed_newton` to a pair of ints z_i
    with F = `_newton_bits(precision_bits)` fraction bits, whose last
    step, at width F, has length r_i (the residual).  For real rows only
    the upper seed of each `_conjugate_pairs` pair is polished, and the
    other zero is its mirror image (x, -y), with the same r_i; every
    other seed is polished from its real part, on the axis.  The result
    stands when no disks meet (`_overlapping`), which leaves one root in
    each, and every r_i is below tol (1 + |z_i|), tol =
    `default_tol(precision_bits)`; both are decided exactly on the ints.
    For real rows the disks on the axis then hold real roots, the mirror
    pairs non-real ones, and a wrong pairing shows as disks that meet.
    Otherwise NonConvergenceError is raised; its `overlapping` names the
    roots whose disks meet another: their seeds were not near distinct
    roots.  When it is empty, the residuals that missed tol are what the
    arithmetic resolves, so no other seeds can help.  Above 53 bits, a
    complex double seed must pass the first-step test of `_fixed_newton`.
    """
    if not isinstance(poly, Continuant):
        raise TypeError(f"find_all_roots takes a Continuant, not "
                        f"{type(poly).__name__}")
    n = poly.degree
    if n < 1:
        raise InvalidSpecError("need degree >= 1 to find roots")
    if len(seeds) != n:
        raise InvalidSpecError(
            f"{len(seeds)} seeds for a degree-{n} polynomial")
    F, t = _newton_bits(precision_bits), precision_bits // 2
    tables = {F: tuple(_short_rows(poly.fixed_rows(F)))}
    with working_precision(F - _KERNEL_GUARD):
        # a complex double or a QQi is read exactly; other seeds are
        # rounded to the working precision first
        points = [_to_fixed(s if isinstance(s, (complex, QQi))
                            else to_mpc(s), F) for s in seeds]
    real = poly.is_real()
    mirror = _conjugate_pairs(points) if real else {}
    if real:
        kept = set(mirror.values())
        points = [(x, y if i in kept else 0)
                  for i, (x, y) in enumerate(points)]
    done = {i: _fixed_newton(tables, F, p, t, real, i if isinstance(
                seeds[i], complex) and precision_bits > _SEED_BITS else None)
            for i, p in enumerate(points) if i not in mirror}
    for j, i in mirror.items():
        (x, y), w = done[i]
        done[j] = (x, -y), w
    polished = [done[i] for i in range(n)]
    overlap = _overlapping(polished, F, t)
    if overlap:
        raise NonConvergenceError(
            f"the disks of {len(overlap)} of {n} polished seeds "
            f"overlap (indices {_head(overlap)})", overlapping=overlap,
            stationary=[j for j in overlap if polished[j][1] is None])
    # r < 2^-t (1 + |z|) is a < |z| 2^F, with a = r 2^(F + t) - 2^F
    bad = [j for j, ((x, y), w) in enumerate(polished) if w is None
           or (a := (w << t) - (1 << F)) >= 0 and a * a >= x * x + y * y]
    tol = default_tol(precision_bits)
    with working_precision(F - _KERNEL_GUARD):
        residuals = [mp.inf if w is None else mp.ldexp(w, -F)
                     for _, w in polished]
        if bad:
            worst = max(residuals[j] / (1 + abs(_from_fixed(
                *polished[j][0], F))) for j in bad)
            raise NonConvergenceError(
                f"{len(bad)} of {n} roots failed the tolerance check "
                f"(indices {_head(bad)}; relative residuals up to "
                f"{mp.nstr(worst, 3)} against tol {mp.nstr(tol, 3)}) "
                "though their disks are disjoint, so no seeds can lower "
                "them")
    order = sorted(range(n), key=lambda j: (-polished[j][0][0],
                                            polished[j][0][1]))
    return ZeroSet(points=tuple(polished[j][0] for j in order),
                   residuals=tuple(residuals[j] for j in order),
                   precision_bits=precision_bits)


def _newton_bits(precision_bits: int) -> int:
    """F = precision_bits + 24 + _KERNEL_GUARD, the fraction bits of the
    full-width Newton steps of `find_all_roots` and of its zeros."""
    return precision_bits + 24 + _KERNEL_GUARD


def _head(indices) -> str:
    """The first 8 indices, and an ellipsis for any more."""
    return f"{indices[:8]}{'...' if len(indices) > 8 else ''}"


def _overlapping(polished, F: int, t: int) -> list:
    """Indices, ascending, of the disks that meet another, around the
    n zeros ((x, y), w) of a degree-n polynomial as `_fixed_newton` leaves
    them: z_i = (x + iy) 2^-F, last step r_i = w 2^-F (w None: infinite).
    The disk of z_i is D(z_i, max((n + 1) r_i, 2^-t (1 + |z_i|))): a
    root z = z' - w after a Newton step w = p/p'(z') has
    min_k |z' - r_k| <= n |w|, from p'/p = sum_k 1/(z' - r_k), so each
    disk holds a root, and when none meet, the n disks hold one each.
    With the radii rounded up to ints R_i, disks meet when
    |z_i - z_j|^2 4^F <= (R_i + R_j)^2, exactly; a sweep over the disks
    by left edge x - R compares each only with the disks open there."""
    n = len(polished)
    z = [p for p, _ in polished]
    rad = [mp.inf if w is None else max(
        (n + 1) * w, ((1 << F) + isqrt(x * x + y * y) >> t) + 1)
        for (x, y), w in polished]
    lo = [x - r for (x, _), r in zip(z, rad)]
    met, open_ = set(), []
    for i in sorted(range(n), key=lo.__getitem__):
        open_ = [j for j in open_ if z[j][0] + rad[j] >= lo[i]]
        for j in open_:
            if (z[i][0] - z[j][0]) ** 2 + (z[i][1] - z[j][1]) ** 2 <= \
                    (rad[i] + rad[j]) ** 2:
                met.update((i, j))
        open_.append(i)
    return sorted(met)


def _conjugate_pairs(points) -> dict:
    """{j: i} for the seeds (x, y), x + iy with F fraction bits, paired
    as conjugates: Im s_i > 0 > Im s_j, each is the other's nearest
    conjugate in the other half plane, the lowest index on a tie, and
    each is nearer to it than to its own conjugate,
    |s_j - conj s_i| < 2 min(Im s_i, -Im s_j).  Each
    |s_j - conj s_i|^2, with 2F fraction bits, is computed once, in the
    row of s_i, which gives the nearest lower seed of s_i and updates
    the nearest upper seed of each s_j; no table of them is held."""
    upper = [i for i, (_, y) in enumerate(points) if y > 0]
    lower = [j for j, (_, y) in enumerate(points) if y < 0]
    if not (upper and lower):
        return {}
    low = [points[j] for j in lower]
    up, best, down = [], [None] * len(lower), [0] * len(lower)
    for a, i in enumerate(upper):
        x, y = points[i]
        row = [(x - u) ** 2 + (y + v) ** 2 for u, v in low]
        up.append(min(range(len(row)), key=row.__getitem__))
        for b, gap in enumerate(row):
            if best[b] is None or gap < best[b]:
                best[b], down[b] = gap, a
    return {lower[b]: upper[a] for b, a in enumerate(down) if up[a] == b
            and best[b] < 4 * min(points[upper[a]][1],
                                  -points[lower[b]][1]) ** 2}


def _fixed_newton(tables, F: int, z, t: int, real: bool = False, seed=None):
    """Newton's method from z = (x, y), x + iy with F fraction bits, on
    the continuant whose `Continuant.fixed_rows(F)` tables[F] holds in
    `_short_rows` form (real rows when real, which a seed on the axis
    then never leaves), each step
    w = p/p' by `_continuant_kernel` at a width W <= F of about
    2b + _KERNEL_GUARD bits, b the bits of z already right: _SEED_BITS,
    then 2v after a step of relative length 2^-v (docs/math_notes.md,
    section 8).  Where |z| exceeds 2^_KERNEL_SPAN, p_{k-1} and p' sit
    about |z| below p_k in the kernel's window, so W grows by the bits
    of the starting |z| beyond _KERNEL_SPAN.  W is rounded up to a
    multiple of _WIDTH_STEP, and tables keeps the rows shifted to it, in
    the same form.  The first full-width step with
    |w| < 2^-t (1 + |z - w|) / 8, or the one that ends _POLISH_STEPS
    steps or three growing ones, gives (z - w, floor(|w| 2^F)), both
    with F fraction bits; at p' = 0 the step is None, infinite.  Given
    the index seed, a first step |w| > 2^-_JUDGE_BITS (1 + |z - w|) raises
    NonConvergenceError, with that seed in `overlapping`."""
    zr, zi = z
    right, last, grew = _SEED_BITS, None, 0
    big = max(0, (abs(zr) | abs(zi)).bit_length() - F - _KERNEL_SPAN)
    for k in range(_POLISH_STEPS):
        final = grew >= 3 or k == _POLISH_STEPS - 1
        W = -(-(2 * right + _KERNEL_GUARD + big) // _WIDTH_STEP) * _WIDTH_STEP
        W = F if final else min(F, max(_WIDTH_STEP, W))
        drop = F - W
        if W not in tables:
            tables[W] = tuple(_short_rows(
                (a >> drop, b >> drop, (x << t) >> drop, (y << t) >> drop)
                for a, b, x, y, t in tables[F]))
        [(p, _, dp, _)] = _continuant_kernel(
            tables[W], W, (zr >> drop, zi >> drop),
            (len(tables[F]),), True, real)
        if dp == (0, 0):
            return (zr, zi), None
        wr, wi = _fixed_div(*p, *dp, F)     # the shared 2^e cancels
        zr, zi = zr - wr, zi - wi
        size = isqrt(wr * wr + wi * wi)              # |w| 2^F
        scale = (1 << F) + isqrt(zr * zr + zi * zi)  # (1 + |z - w|) 2^F
        if seed is not None and k == 0 and size << _JUDGE_BITS > scale:
            raise NonConvergenceError(
                f"double seed {seed}: its first Newton step is "
                f"{_double(size, scale):.2g} (1 + |z - w|), above "
                f"2^-{_JUDGE_BITS}", overlapping=(seed,))
        if W == F and (final or (8 * size) << t < scale):
            return (zr, zi), size
        grew = grew + 1 if last is not None and size > last else 0
        last = size
        right = 2 * (scale.bit_length() - size.bit_length())


def real_zero_count(zeros) -> int:
    """How many zeros have imaginary part exactly 0, as
    `ZeroSet.real_zeros` counts them.  The zeros may be a ZeroSet or any
    scalars `to_mpc` reads, exact ones included."""
    if isinstance(zeros, ZeroSet):
        return sum(1 for _, y in zeros.points if not y)
    return sum(1 for z in zeros if to_mpc(z).imag == 0)
