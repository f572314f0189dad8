"""Simultaneous polynomial root finding at configurable precision.

From caller-supplied seeds (eigenvalues of a tridiagonal matrix from
`tridiagonal_eigenvalues`, or perturbative zero estimates) each root is
first polished alone by Newton's method, and the result stands when
disks around the polished points, each holding a root, are pairwise
disjoint.  Otherwise, and always from Newton-polygon scaled circles
computed from the coefficient magnitudes, an Aberth-Ehrlich iteration
moves all roots at once before the same Newton polish.  Everything is
deterministic: no starting point comes from a random generator.

Residuals are reported as |p(z)/p'(z)|, the Newton-step length, which
estimates the absolute distance to the true root.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from math import isqrt

import mpmath as mp

from .families import InvalidSpecError
from .scalars import to_mpc, working_precision


class NonConvergenceError(RuntimeError):
    """The iteration did not reach the requested tolerance."""


@dataclass(frozen=True)
class ZeroSet:
    """All zeros of one polynomial, display-sorted.

    Display order is descending real part, ties by ascending imaginary
    part.  labels[i] is the grid index k matched to zeros[i] (None when
    no labelling was requested).  seed_bits is the precision of the
    eigenvalue seeds (53 or more; None for circles or other seeds) and
    sweeps the number of Aberth sweeps run (0 when the Newton polish of
    the seeds stood on its own).
    """

    zeros: tuple
    residuals: tuple
    degree: int
    precision_bits: int
    tol: object
    labels: tuple = None
    seed_bits: int | None = None
    sweeps: int = 0

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(self, "labels", (None,) * len(self.zeros))

    @property
    def converged(self) -> tuple:
        """One True per zero: `find_all_roots` raises on any root that
        misses its check, so every zero of a ZeroSet has converged."""
        return (True,) * len(self.zeros)

    def with_labels(self, labels) -> "ZeroSet":
        if len(labels) != len(self.zeros):
            raise ValueError("one label per zero required")
        return replace(self, labels=tuple(labels))

    def real_zeros(self) -> list:
        """Zeros with |Im z| < 1e-6 * (1 + |Re z|)."""
        return [z for z in self.zeros if _is_real(z)]


def _is_real(z) -> bool:
    return abs(z.imag) < 1e-6 * (1 + abs(z.real))


def default_tol(precision_bits: int) -> mp.mpf:
    return mp.mpf(2) ** (-(precision_bits // 2))


def _as_mpc_coeffs(poly, precision_bits: int) -> list:
    if hasattr(poly, "to_mpc_coeffs"):
        return poly.to_mpc_coeffs(precision_bits)
    with working_precision(precision_bits):
        return [to_mpc(c) for c in poly]


def _horner_pair(coeffs, z):
    """(p(z), p'(z)) in one sweep; coeffs ascending."""
    p = coeffs[-1]
    dp = mp.mpc(0)
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


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
    and the hull covers only the remaining n - v roots.
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
_MAX_SWEEPS = 2000    # Aberth sweeps allowed per polynomial
_POLISH_STEPS = 40    # Newton steps allowed per root


def tridiagonal_eigenvalues(diag, offdiag, precision_bits: int = 53):
    """Eigenvalues of a complex-symmetric tridiagonal matrix, or None.

    diag holds the n diagonal entries, offdiag the n-1 entries coupling
    rows j and j+1.  Implicit QL with Wilkinson shifts (the tqli
    scheme), in complex doubles at precision_bits <= 53 (`_implicit_ql`)
    and otherwise in fixed point with F = precision_bits fraction bits
    (`_fixed_point_ql`): each entry is a Gaussian integer x + iy
    standing for (x + iy) / 2^F, each operation is exact integer
    arithmetic followed by at most one floor rounding, and so the
    eigenvalues are the same bits on every machine and every run.  The
    plane rotations have c^2 + s^2 = 1 and act by transposes, not
    conjugate transposes, so every step keeps the matrix
    complex-symmetric.  Such a rotation breaks down when its pivot pair
    (f, g) has f^2 + g^2 = 0, and nothing bounds how fast a non-normal
    matrix converges; either way, or when a double entry overflows, the
    result is None and the caller must seed some other way.  At most
    _QL_MAX_STEPS QL steps per 53 bits of precision are spent on each
    eigenvalue.  The eigenvalues come back in no particular order, as
    mpc at precision_bits when that exceeds 53; they are accurate to
    about the unit roundoff times the matrix norm only when the matrix
    is close to normal, and far less when it is not, which is why
    `tracking.jacobi_seeds` compares them with those of the reversed
    matrix.
    """
    if len(offdiag) + 1 != len(diag):
        raise ValueError("offdiag needs one entry fewer than diag")
    if precision_bits > 53:
        return _fixed_point_eigenvalues(diag, offdiag, precision_bits)
    d = [complex(x) for x in diag]
    e = [complex(x) for x in offdiag] + [0j]
    try:
        converged = _implicit_ql(d, e)
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


def _fixed_point_eigenvalues(diag, offdiag, bits: int):
    """`tridiagonal_eigenvalues` at bits > 53: the entries, rounded to
    bits and truncated to F = bits fraction bits, go through
    `_fixed_point_ql`, and the eigenvalues come back as mpc at bits."""
    with working_precision(bits):
        d = [to_mpc(x) for x in diag]
        e = [to_mpc(x) for x in offdiag] + [mp.mpc(0)]

    def fixed(xs):
        return [int(mp.ldexp(x.real, bits)) for x in xs], \
            [int(mp.ldexp(x.imag, bits)) for x in xs]

    dr, di = fixed(d)
    if not _fixed_point_ql(dr, di, *fixed(e), bits):
        return None
    with working_precision(bits):
        return [mp.mpc(mp.ldexp(x, -bits), mp.ldexp(y, -bits))
                for x, y in zip(dr, di)]


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


def _fixed_div(ar, ai, br, bi, F):
    """(ar + i ai) / (br + i bi) with F fraction bits, b nonzero."""
    n2 = br * br + bi * bi
    return ((ar * br + ai * bi) << F) // n2, ((ai * br - ar * bi) << F) // n2


def _fixed_point_ql(dr, di, er, ei, F: int) -> bool:
    """The steps of `_implicit_ql` on Gaussian integers with F fraction
    bits: d = dr + i di and e = er + i ei (padded with a trailing zero)
    change in place.  A product of two values is shifted back by F bits
    (rounding to the floor), a quotient is shifted up by F bits before
    the integer division, and the pivots sqrt(g^2 + 1) and
    sqrt(f^2 + g^2) come from `_fixed_sqrt` of the unshifted products.
    Moduli are |x| + |y|.  Besides the relative test
    |e_m| <= 2^(1-F) (|d_m| + |d_m+1|), e_m deflates below the floor
    2^(6-F) max_j ||row_j||_1: rounding leaves an absolute error of a
    few units of 2^-F times the matrix scale in every entry, so near a
    small eigenvalue of a non-normal matrix the relative test alone may
    never pass.  False on rotation breakdown or when an eigenvalue
    needs more than _QL_MAX_STEPS * F // 53 steps."""
    n = len(dr)
    max_steps = _QL_MAX_STEPS * F // 53
    floor = max(abs(dr[j]) + abs(di[j]) + abs(er[j]) + abs(ei[j])
                + abs(er[j - 1]) + abs(ei[j - 1]) for j in range(n)) \
        >> (F - 6)                 # er[-1] is the zero padding
    one = 1 << F
    for l in range(n):
        for it in range(max_steps + 1):
            m = l
            while m < n - 1:
                size = abs(er[m]) + abs(ei[m])
                if size <= floor or size << (F - 1) <= \
                        abs(dr[m]) + abs(di[m]) + abs(dr[m + 1]) + \
                        abs(di[m + 1]):
                    break
                m += 1
            if m == l:
                break
            if it == max_steps:
                return False
            # Wilkinson shift from the leading 2x2 block
            gr, gi = _fixed_div(dr[l + 1] - dr[l], di[l + 1] - di[l],
                                2 * er[l], 2 * ei[l], F)
            rr, ri = _fixed_sqrt(gr * gr - gi * gi + one * one,
                                 2 * gr * gi)
            ur, ui = gr + rr, gi + ri
            vr, vi = gr - rr, gi - ri
            if ur * ur + ui * ui < vr * vr + vi * vi:
                ur, ui = vr, vi
            ur, ui = _fixed_div(er[l], ei[l], ur, ui, F)
            gr, gi = dr[m] - dr[l] + ur, di[m] - di[l] + ui
            sr, si, cr, ci = one, 0, one, 0
            pr = pi = 0
            for i in range(m - 1, l - 1, -1):
                xr, xi = er[i], ei[i]
                fr, fi = (sr * xr - si * xi) >> F, (sr * xi + si * xr) >> F
                br, bi = (cr * xr - ci * xi) >> F, (cr * xi + ci * xr) >> F
                rr, ri = _fixed_sqrt(fr * fr - fi * fi + gr * gr - gi * gi,
                                     2 * (fr * fi + gr * gi))
                er[i + 1], ei[i + 1] = rr, ri
                if not (rr or ri):
                    return False
                sr, si = _fixed_div(fr, fi, rr, ri, F)
                cr, ci = _fixed_div(gr, gi, rr, ri, F)
                gr, gi = dr[i + 1] - pr, di[i + 1] - pi
                ur, ui = dr[i] - gr, di[i] - gi
                rr = (ur * sr - ui * si + 2 * (cr * br - ci * bi)) >> F
                ri = (ur * si + ui * sr + 2 * (cr * bi + ci * br)) >> F
                pr, pi = (sr * rr - si * ri) >> F, (sr * ri + si * rr) >> F
                dr[i + 1], di[i + 1] = gr + pr, gi + pi
                gr = ((cr * rr - ci * ri) >> F) - br
                gi = ((cr * ri + ci * rr) >> F) - bi
            dr[l] -= pr
            di[l] -= pi
            er[l], ei[l] = gr, gi
            er[m] = ei[m] = 0
    return True


def _break_axis_symmetry(points, coeffs, scale):
    """Real coefficients map an all-real Aberth configuration to an
    all-real one, so a fully real start can never reach a complex
    conjugate root pair.  Alternating imaginary offsets remove that
    invariant; they are tiny enough not to disturb real roots."""
    if any(c.imag != 0 for c in coeffs) or any(z.imag != 0 for z in points):
        return points
    return [
        z + mp.mpc(0, scale * (1 + abs(z)) * (1 if j % 2 == 0 else -1))
        for j, z in enumerate(points)
    ]


def _spread_duplicates(points, scale):
    """Nudge exact duplicates apart so the Aberth sum stays finite."""
    seen = {}
    out = []
    for j, z in enumerate(points):
        key = (str(z.real), str(z.imag))
        bump = seen.get(key, 0)
        if bump:
            z = z + mp.mpc(1, 1) * scale * bump
        seen[key] = bump + 1
        out.append(z)
    return out


def find_all_roots(poly, seeds=None, precision_bits: int = 256,
                   tol=None) -> ZeroSet:
    """All roots of the polynomial.

    poly: DensePolynomial or ascending coefficient list (any scalar
    type convertible to mpc).  seeds, when given, are the starting
    points, one per root (any other count raises InvalidSpecError).
    Each seed is first polished alone by `_newton_polish`; the result
    stands when every root converged and the disks
    D(z_i, max(n |p/p'|(z_i), tol (1 + |z_i|))) are pairwise disjoint
    (`_separated`), which leaves one root in each; for a real
    polynomial the disks also show which roots are real and which are
    conjugate pairs, and `_mirrored` makes the result exactly symmetric
    about the real axis.  Otherwise the Aberth sweeps run from the
    seeds, and without seeds they always run from the Newton-polygon
    circles; the polish follows them.  Seeds near the roots, such as
    the eigenvalues of a Jacobi matrix whose characteristic polynomial
    is poly, make the sweeps unnecessary.  A root that fails its check
    always raises NonConvergenceError: so do Aberth sweeps that have
    not settled after _MAX_SWEEPS, a root whose polished residual
    misses tol, and a tol below 2^-(precision_bits + 24), before any
    evaluation, since the iterations run at precision_bits + 24 bits,
    which cannot resolve a smaller step.  Every zero of the result has
    therefore converged.
    """
    coeffs = _as_mpc_coeffs(poly, precision_bits)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    if n < 1:
        raise InvalidSpecError("need degree >= 1 to find roots")
    work_bits = precision_bits + 24
    with working_precision(work_bits):
        tol = mp.mpf(tol) if tol is not None else default_tol(precision_bits)
        if tol < mp.mpf(2) ** -work_bits:
            raise NonConvergenceError(
                f"tolerance {mp.nstr(tol, 3)} is below 2^-{work_bits}, the "
                f"resolution of the {work_bits}-bit working precision "
                f"({precision_bits} bits plus 24 guard bits); raise "
                "the precision or loosen the tolerance"
            )
        z = newton_polygon_seeds(coeffs) if seeds is None else \
            [to_mpc(s) for s in seeds]
        if len(z) != n:
            raise InvalidSpecError(
                f"{len(z)} seeds for a degree-{n} polynomial")
        real_coeffs = all(c.imag == 0 for c in coeffs)
        polished = None if seeds is None else \
            [_newton_polish(coeffs, zj, tol) for zj in z]
        sweeps = 0
        if polished is None or not _separated(polished, n, tol):
            z = _spread_duplicates(z, mp.mpf(2) ** -20)
            z = _break_axis_symmetry(z, coeffs, mp.mpf(2) ** -16)
            sweeps = _aberth(coeffs, z, tol)
            polished = [_newton_polish(coeffs, zj, tol) for zj in z]
        elif real_coeffs:
            polished = _mirrored(polished, n, tol)

        dust = mp.mpf(2) ** (-2 * precision_bits)
        roots, residuals = [], []
        for r, res, _ in polished:
            if real_coeffs and r.imag != 0 and \
                    abs(r.imag) < dust * (1 + abs(r.real)):
                # arithmetic dust orders of magnitude below the working
                # precision, not a resolvable conjugate pair
                r = mp.mpc(r.real, 0)
            roots.append(r)
            residuals.append(res)

    bad = [j for j, (_, _, ok) in enumerate(polished) if not ok]
    if bad:
        raise NonConvergenceError(
            f"{len(bad)} of {n} roots failed the tolerance check "
            f"(indices {bad[:8]}{'...' if len(bad) > 8 else ''})"
        )
    order = sorted(range(n), key=lambda j: (-roots[j].real, roots[j].imag))
    return ZeroSet(
        zeros=tuple(roots[j] for j in order),
        residuals=tuple(residuals[j] for j in order),
        degree=n,
        precision_bits=precision_bits,
        tol=tol,
        sweeps=sweeps,
    )


def _disks(polished, n, tol) -> tuple:
    """(centres, radii) of the disks D(z_i, max(n res_i, tol (1 + |z_i|)))
    around (root, residual, converged) triples.  res = |p/p'|(z) and
    p'/p = sum_k 1/(z - r_k) give min_k |z - r_k| <= n res, so each
    disk holds a root."""
    z = [r for r, _, _ in polished]
    return z, [max(n * res, tol * (1 + abs(r))) for r, res, _ in polished]


def _separated(polished, n, tol) -> bool:
    """Whether every triple converged and the `_disks` are pairwise
    disjoint: n disjoint disks, each holding a root, hold one each."""
    if not all(ok for _, _, ok in polished):
        return False
    z, rad = _disks(polished, n, tol)
    return all(abs(z[i] - z[j]) > rad[i] + rad[j]
               for i in range(n) for j in range(i))


def _mirrored(polished, n, tol) -> list:
    """Separated triples of a real polynomial, made symmetric about the
    real axis as its zeros are.  Each disjoint disk D_i holds one zero
    x_i, and conj(x_i) is a zero too, held by a disk that the mirror
    image of D_i meets.  When that is D_i alone, x_i is real, and z_i
    moves onto the axis, which brings it no further from x_i.  When it
    is one other disk D_j, the zero there is conj(x_i), and of z_i and
    z_j the one with the larger residual becomes the mirror image of
    the other, whose residual |p/p'| it shares."""
    z, rad = _disks(polished, n, tol)
    out = list(polished)
    for i, (r, res, ok) in enumerate(polished):
        if r.imag == 0:
            continue
        w = r.conjugate()
        meets = [j for j in range(n) if abs(w - z[j]) <= rad[i] + rad[j]]
        if meets == [i]:
            out[i] = (mp.mpc(r.real, 0), res, ok)
        elif len(meets) == 1:
            j = meets[0]
            if (res, i) < (polished[j][1], j):
                out[j] = (w, res, ok)
    return out


def _aberth(coeffs, z, tol) -> int:
    """Aberth-Ehrlich sweeps on z in place until no root moves by
    tol/4 relative to 1 + |z|; the number of sweeps run."""
    n = len(z)
    step_goal = tol / 4
    for sweep in range(1, _MAX_SWEEPS + 1):
        worst = mp.mpf(0)
        for j in range(n):
            p, dp = _horner_pair(coeffs, z[j])
            if p == 0:
                continue
            if dp == 0:
                z[j] = z[j] + (1 + abs(z[j])) * mp.mpf(2) ** -12
                worst = mp.mpf(1)
                continue
            w = p / dp
            acc = mp.mpc(0)
            for i in range(n):
                if i != j:
                    acc += 1 / (z[j] - z[i])
            denom = 1 - w * acc
            delta = w if denom == 0 else w / denom
            z[j] = z[j] - delta
            rel = abs(delta) / (1 + abs(z[j]))
            if rel > worst:
                worst = rel
        if worst < step_goal:
            return sweep
    raise NonConvergenceError(
        f"Aberth sweep at degree {n} did not settle within "
        f"{_MAX_SWEEPS} iterations (last step {mp.nstr(worst, 3)})"
    )


def _newton_polish(coeffs, z, tol):
    """Newton iteration; returns (root, |p/p'| residual, converged)."""
    last = mp.inf
    grew = 0
    for _ in range(_POLISH_STEPS):
        p, dp = _horner_pair(coeffs, z)
        if p == 0:
            return z, mp.mpf(0), True
        if dp == 0:
            return z, abs(p), False
        w = p / dp
        step = abs(w)
        z = z - w
        if step < tol * (1 + abs(z)) / 8:
            p2, dp2 = _horner_pair(coeffs, z)
            res = abs(p2 / dp2) if dp2 != 0 else abs(p2)
            return z, res, res < tol * (1 + abs(z))
        grew = grew + 1 if step > last else 0
        if grew >= 3:
            break
        last = step
    p, dp = _horner_pair(coeffs, z)
    res = abs(p / dp) if dp != 0 else abs(p)
    return z, res, res < tol * (1 + abs(z))


def real_zero_count(zeros) -> int:
    """How many zeros are real up to the relative imaginary tolerance,
    by the test of `ZeroSet.real_zeros`."""
    if isinstance(zeros, ZeroSet):
        zeros = zeros.zeros
    return sum(1 for z in zeros if _is_real(mp.mpc(z)))
