"""Polynomial root polishing at configurable precision, and the QL
eigenvalue solver that supplies its seeds.

`find_all_roots` polishes caller-supplied seeds, one per root (such as
the eigenvalues from `tridiagonal_eigenvalues`), each alone by Newton's
method on a `Continuant`, the rows of a three-term recurrence: p and p'
come from that recurrence run in fixed-point Gaussian integers
(`_continuant_kernel`, which also runs the d2 tail), never from dense
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
from itertools import islice
from math import isqrt

import mpmath as mp

from .families import InvalidSpecError
from .scalars import (
    _fixed_div,
    _from_fixed,
    _to_fixed,
    to_mpc,
    working_precision,
)


class NonConvergenceError(RuntimeError):
    """The iteration did not reach its tolerance.

    overlapping lists the roots of a `find_all_roots` call whose disks
    met another one's, and is empty for every other failure."""

    def __init__(self, message, overlapping=()):
        super().__init__(message)
        self.overlapping = tuple(overlapping)


@dataclass(frozen=True)
class ZeroSet:
    """All zeros of one polynomial, display-sorted.

    Display order is descending real part, ties by ascending imaginary
    part.  residuals[i] is the full-width Newton step |p/p'| that
    `find_all_roots` took to zeros[i], on the three-term recurrence in
    fixed point: it bounds the error of zeros[i] from above.  For the
    conjugate of a polished zero of a real polynomial it is its
    partner's step.  It does not cover rounding the zero to mpc at
    precision_bits + 24 bits; the disk floor tol (1 + |z|) of
    `find_all_roots` does, with tol = `default_tol(precision_bits)`,
    the tolerance every residual met.  A zero is real exactly when its
    imaginary part is 0: for real rows, when it was polished on the axis.
    labels[i] is the grid index k matched to zeros[i] (None when no
    labelling was requested).  seed_bits is the rung of the
    `tracking.solve_zeros` precision ladder whose Jacobi eigenvalues
    seeded the zeros that stood (53 or more; None for seeds given to
    `find_all_roots` directly).
    """

    zeros: tuple
    residuals: tuple
    degree: int
    precision_bits: int
    tol: object
    labels: tuple = None
    seed_bits: int | None = None

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
        """The zeros with imaginary part exactly 0."""
        return [z for z in self.zeros if z.imag == 0]


def default_tol(precision_bits: int) -> mp.mpf:
    """2^-(precision_bits // 2), the residual tolerance of
    `find_all_roots` relative to 1 + |z|."""
    return mp.mpf(2) ** (-(precision_bits // 2))


@dataclass(frozen=True)
class Continuant:
    """The monic degree-m polynomial p_m of the three-term recurrence

        p_{k+1}(z) = (z + A_k) p_k(z) - N_k p_{k-1}(z),  p_0 = 1,

    given by its rows A = (A_0, ..., A_{m-1}) and N = (N_0, ..., N_{m-1}),
    exact scalars, as `tracking.continuant` builds them, or mpc (N_0
    multiplies p_{-1} = 0 and is never read).
    Its zeros are the eigenvalues of the complex-symmetric tridiagonal
    matrix with diagonal -A_k and off-diagonal sqrt(N_k), k >= 1
    (`jacobi_matrix`; docs/math_notes.md, section 8)."""

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
        return all(to_mpc(x).imag == 0 for x in self.A + self.N[1:])

    def jacobi_matrix(self) -> tuple:
        """(diagonal, off-diagonal) as mpc at the working precision."""
        return ([-to_mpc(a) for a in self.A],
                [mp.sqrt(to_mpc(x)) for x in self.N[1:]])

    def fixed_rows(self, F: int) -> tuple:
        """(Re A_k, Im A_k, Re N_k, Im N_k) per row, with F fraction
        bits (`scalars._to_fixed`), for `_continuant_kernel`."""
        return tuple(_to_fixed(a, F) + _to_fixed(x, F)
                     for a, x in zip(self.A, self.N))


_KERNEL_GUARD = 32    # fraction bits of `_continuant_kernel` beyond the
                      # precision its callers work at
_KERNEL_SPAN = 32     # width, in bits, of the window that holds the
                      # kernel's state, and its floor above 2^F


def _continuant_kernel(rows, F: int, z, stops, derivative: bool = False):
    """The state (p_k, p_{k-1}, p'_k, e) at each k of the ascending stops
    of p_{k+1} = (z + A_k) p_k - N_k p_{k-1}, p_0 = 1, on the iterable
    rows of `Continuant.fixed_rows(F)`; the pair of ints z = (x, y)
    stands for (x + iy) 2^-F, and each value (x, y) for (x + iy) 2^(e-F).

    Runs on Gaussian integers; a product is shifted back by F bits,
    rounding to the floor.  With derivative, p'_{k+1} = (z + A_k) p'_k
    + p_k - N_k p'_{k-1} runs alongside; without it p' stays 0.  The
    state ints share the exponent e, for p_m can reach 2^1300 at
    m = 100: when the larger of the new p_k and p'_k leaves
    [2^(F+S), 2^(F+2S)), S = _KERNEL_SPAN, all are shifted back to
    2^(F+S) together (docs/math_notes.md, section 8)."""
    zr, zi = z
    pr, pi, qr, qi = 1 << F, 0, 0, 0     # p_k, p_{k-1}
    dr = di = er = ei = 0                # p'_k, p'_{k-1}
    e = k = 0
    steps = iter(rows)
    states = []
    for stop in stops:
        for Ar, Ai, Nr, Ni in islice(steps, stop - k):
            ur, ui = zr + Ar, zi + Ai
            if derivative:
                sr = ((ur * dr - ui * di - Nr * er + Ni * ei) >> F) + pr
                si = ((ur * di + ui * dr - Nr * ei - Ni * er) >> F) + pi
                er, ei, dr, di = dr, di, sr, si
            tr = (ur * pr - ui * pi - Nr * qr + Ni * qi) >> F
            ti = (ur * pi + ui * pr - Nr * qi - Ni * qr) >> F
            qr, qi, pr, pi = pr, pi, tr, ti
            top = (abs(pr) | abs(pi) | abs(dr) | abs(di)).bit_length() - F - 1
            if top >= 2 * _KERNEL_SPAN:
                top -= _KERNEL_SPAN
                e += top
                pr, pi, qr, qi = pr >> top, pi >> top, qr >> top, qi >> top
                if derivative:
                    dr, di, er, ei = dr >> top, di >> top, er >> top, ei >> top
            elif top < _KERNEL_SPAN:
                top = _KERNEL_SPAN - top
                e -= top
                pr, pi, qr, qi = pr << top, pi << top, qr << top, qi << top
                if derivative:
                    dr, di, er, ei = dr << top, di << top, er << top, ei << top
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
_WIDTH_STEP = 64      # the narrow Newton steps' widths are multiples of it


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
    result is None (`tracking.solve_zeros` then tries its next rung of
    precision).  At most _QL_MAX_STEPS QL steps per 53 bits of
    precision are spent on each eigenvalue.  The eigenvalues come back
    in no particular order, as mpc at precision_bits when that exceeds
    53; they are accurate to about the unit roundoff times the matrix
    norm only when the matrix is close to normal, and far less when it
    is not, which is why `tracking.jacobi_seeds` compares them with
    those of the reversed matrix.
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
        re, im = zip(*(_to_fixed(x, bits) for x in xs))
        return list(re), list(im)

    dr, di = fixed(d)
    if not _fixed_point_ql(dr, di, *fixed(e), bits):
        return None
    with working_precision(bits):
        return [_from_fixed(x, y, bits) for x, y in zip(dr, di)]


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
    never pass.  And e_l deflates after a step whose last rotation had
    f = s e_l floor to zero, if it is below 2^(-F/2) max_j ||row_j||_1:
    that rotation has s = 0, so the step could not shrink e_l, and
    without this the block stalls until the step limit (the Lame s = 1/2
    matrix at m = 40 and 106 bits does).  False on rotation breakdown or
    when an eigenvalue needs more than _QL_MAX_STEPS * F // 53 steps."""
    n = len(dr)
    max_steps = _QL_MAX_STEPS * F // 53
    scale = max(abs(dr[j]) + abs(di[j]) + abs(er[j]) + abs(ei[j])
                + abs(er[j - 1]) + abs(ei[j - 1]) for j in range(n))
    floor = scale >> (F - 6)       # er[-1] is the zero padding
    stalled = scale >> (F // 2)
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
            if not (fr or fi) and abs(gr) + abs(gi) <= stalled:
                er[l] = ei[l] = 0
            er[m] = ei[m] = 0
    return True


def find_all_roots(poly, seeds, precision_bits: int = 256) -> ZeroSet:
    """All roots of the polynomial, polished from one seed each.

    poly: a `Continuant`, the rows of a three-term recurrence, as
    `tracking.solve_zeros` passes them; anything else raises TypeError.
    seeds: the starting points, one per root (any other count raises
    InvalidSpecError), such as the eigenvalues of its Jacobi matrix.
    Each seed is polished alone by `_fixed_newton`, at widths up to
    F = precision_bits + 24 + _KERNEL_GUARD fraction bits; the zero z_i
    has taken its last step, of length r_i (the residual) at width F.
    For real rows only the upper seed of each `_conjugate_pairs` pair
    is polished, and the other zero is its conjugate, with the same r_i;
    every other seed is polished from its real part, on the axis.  The
    tolerance is tol = `default_tol(precision_bits)`.  The result
    stands when no disks meet (`_overlapping`), which leaves one root in
    each, and every r_i is below tol (1 + |z_i|).  For real rows the
    disks on the axis then hold real roots, the mirror pairs non-real
    ones, and a wrong pairing shows as disks that meet.  Otherwise
    NonConvergenceError is raised, with `overlapping` naming the roots
    whose disks meet another one: those seeds were not near distinct
    roots.  When it is empty, the disks are disjoint and the residuals
    that missed tol are what the arithmetic resolves, so no other seeds
    can help.  Every zero of the result has therefore converged.
    """
    if not isinstance(poly, Continuant):
        raise TypeError(f"find_all_roots takes a Continuant, not "
                        f"{type(poly).__name__}")
    n = poly.degree
    if n < 1:
        raise InvalidSpecError("need degree >= 1 to find roots")
    work_bits = precision_bits + 24
    with working_precision(work_bits):
        tol = default_tol(precision_bits)
        if len(seeds) != n:
            raise InvalidSpecError(
                f"{len(seeds)} seeds for a degree-{n} polynomial")
        F = work_bits + _KERNEL_GUARD
        tables = {F: poly.fixed_rows(F)}
        points = [_to_fixed(to_mpc(s), F) for s in seeds]
        mirror = {}
        if poly.is_real():
            mirror = _conjugate_pairs(points)
            kept = set(mirror.values())
            points = [(x, y if i in kept else 0)
                      for i, (x, y) in enumerate(points)]
        done = {i: _fixed_newton(tables, F, p, tol)
                for i, p in enumerate(points) if i not in mirror}
        for j, i in mirror.items():
            done[j] = (done[i][0].conjugate(),) + done[i][1:]
        polished = [done[i] for i in range(n)]
        overlap = _overlapping(polished, tol)
        if overlap:
            raise NonConvergenceError(
                f"the disks of {len(overlap)} of {n} polished seeds "
                f"overlap (indices {_head(overlap)})", overlapping=overlap)
        bad = [j for j, (_, _, ok) in enumerate(polished) if not ok]
        if bad:
            worst = max(polished[j][1] / (1 + abs(polished[j][0]))
                        for j in bad)
            raise NonConvergenceError(
                f"{len(bad)} of {n} roots failed the tolerance check "
                f"(indices {_head(bad)}; relative residuals up to "
                f"{mp.nstr(worst, 3)} against tol {mp.nstr(tol, 3)}) "
                "though their disks are disjoint, so no seeds can lower "
                "them")

    order = sorted(range(n), key=lambda j: (-polished[j][0].real,
                                            polished[j][0].imag))
    return ZeroSet(
        zeros=tuple(polished[j][0] for j in order),
        residuals=tuple(polished[j][1] for j in order),
        degree=n,
        precision_bits=precision_bits,
        tol=tol,
    )


def _head(indices) -> str:
    """The first 8 indices, and an ellipsis for any more."""
    return f"{indices[:8]}{'...' if len(indices) > 8 else ''}"


def _overlapping(polished, tol) -> list:
    """Indices, ascending, of the disks that meet another disk, around
    the n = len(polished) (root, residual, converged) triples of a
    degree-n polynomial.  The disk of z_i is
    D(z_i, max((n + 1) r_i, tol (1 + |z_i|))), r_i its residual: a root
    z = z' - w after a Newton step w = p/p'(z') has
    min_k |z' - r_k| <= n |w|, from p'/p = sum_k 1/(z' - r_k), so each
    disk holds a root, and when none meet, the n disks hold one each.
    Only disks whose real extents, widened to [Re z - 2r, Re z + 2r],
    meet are compared (|z_i - z_j| <= r_i + r_j bounds
    |Re z_i - Re z_j|, and the doubled radius keeps the rounding of the
    edges from dropping a pair): a sweep over the disks sorted by left
    edge compares each only with the disks still open there."""
    n = len(polished)
    z = [r for r, _, _ in polished]
    rad = [max((n + 1) * res, tol * (1 + abs(r))) for r, res, _ in polished]
    lo = [x.real - 2 * r for x, r in zip(z, rad)]
    hi = [x.real + 2 * r for x, r in zip(z, rad)]
    met, open_ = set(), []
    for i in sorted(range(n), key=lo.__getitem__):
        open_ = [j for j in open_ if hi[j] >= lo[i]]
        for j in open_:
            if abs(z[i] - z[j]) <= rad[i] + rad[j]:
                met.update((i, j))
        open_.append(i)
    return sorted(met)


def _conjugate_pairs(points) -> dict:
    """{j: i} for the seeds (x, y), x + iy with F fraction bits, paired
    as conjugates: Im s_i > 0 > Im s_j, each is the other's nearest
    conjugate in the other half plane, and each is nearer to it than to
    its own conjugate, |s_j - conj s_i| < 2 min(Im s_i, -Im s_j)."""
    upper = [i for i, (_, y) in enumerate(points) if y > 0]
    lower = [j for j, (_, y) in enumerate(points) if y < 0]
    if not (upper and lower):
        return {}
    def gap(i, j):      # |s_j - conj s_i|^2, with 2F fraction bits
        return (points[i][0] - points[j][0]) ** 2 \
            + (points[i][1] + points[j][1]) ** 2

    up = {i: min(lower, key=lambda j: gap(i, j)) for i in upper}
    down = {j: min(upper, key=lambda i: gap(i, j)) for j in lower}
    return {j: i for j, i in down.items() if up[i] == j
            and gap(i, j) < 4 * min(points[i][1], -points[j][1]) ** 2}


def _fixed_newton(tables, F: int, z, tol):
    """Newton's method from z = (x, y), x + iy with F fraction bits, on
    the continuant with `Continuant.fixed_rows(F)` tables[F], each step
    w = p/p' by `_continuant_kernel` at a width W <= F of about
    2b + _KERNEL_GUARD bits, b the bits of z already right: _SEED_BITS,
    then 2t after a step of relative length 2^-t (docs/math_notes.md,
    section 8).  W is rounded up to a multiple of _WIDTH_STEP, and tables
    keeps the rows shifted to it.  The first full-width step with
    |w| < tol (1 + |z - w|) / 8, or the one that ends _POLISH_STEPS steps
    or three growing ones, gives (root, residual, converged): z - w, |w|
    and whether |w| < tol (1 + |z - w|); at p' = 0 the residual is
    infinite."""
    zr, zi = z
    right, last, grew = _SEED_BITS, None, 0
    for k in range(_POLISH_STEPS):
        final = grew >= 3 or k == _POLISH_STEPS - 1
        W = -(-(2 * right + _KERNEL_GUARD) // _WIDTH_STEP) * _WIDTH_STEP
        W = F if final else min(F, max(_WIDTH_STEP, W))
        if W not in tables:
            tables[W] = tuple(tuple(x >> (F - W) for x in row)
                              for row in tables[F])
        [(p, _, dp, _)] = _continuant_kernel(
            tables[W], W, (zr >> (F - W), zi >> (F - W)),
            (len(tables[F]),), True)
        if dp == (0, 0):
            return _from_fixed(zr, zi, F), mp.inf, False
        wr, wi = _fixed_div(*p, *dp, F)     # the shared 2^e cancels
        zr, zi = zr - wr, zi - wi
        size = isqrt(wr * wr + wi * wi)              # |w| 2^F
        scale = (1 << F) + isqrt(zr * zr + zi * zi)  # (1 + |z - w|) 2^F
        if W == F and (final or 8 * size < tol * scale):
            root, res = _from_fixed(zr, zi, F), mp.ldexp(size, -F)
            return root, res, res < tol * (1 + abs(root))
        grew = grew + 1 if last is not None and size > last else 0
        last = size
        right = 2 * (scale.bit_length() - size.bit_length())


def real_zero_count(zeros) -> int:
    """How many zeros have imaginary part exactly 0, as
    `ZeroSet.real_zeros` counts them.  The zeros may be a ZeroSet or any
    scalars `to_mpc` reads, exact ones included."""
    if isinstance(zeros, ZeroSet):
        zeros = zeros.zeros
    return sum(1 for z in zeros if to_mpc(z).imag == 0)
