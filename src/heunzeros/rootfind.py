"""Simultaneous polynomial root finding at configurable precision.

Aberth-Ehrlich iteration over all roots at once, followed by a Newton
polish of each root.  Everything is deterministic: starting points come
either from caller-supplied seeds (eigenvalues of a tridiagonal matrix
from `tridiagonal_eigenvalues`, or perturbative zero estimates) or from
Newton-polygon scaled circles computed from the coefficient magnitudes,
never from a random generator.

Residuals are reported as |p(z)/p'(z)|, the Newton-step length, which
estimates the absolute distance to the true root.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

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
    no labelling was requested).
    """

    zeros: tuple
    residuals: tuple
    converged: tuple
    degree: int
    precision_bits: int
    tol: object
    labels: tuple = None

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(self, "labels", (None,) * len(self.zeros))

    def with_labels(self, labels) -> "ZeroSet":
        if len(labels) != len(self.zeros):
            raise ValueError("one label per zero required")
        return ZeroSet(self.zeros, self.residuals, self.converged,
                       self.degree, self.precision_bits, self.tol,
                       tuple(labels))

    def real_zeros(self, imag_tol: float = 1e-6) -> list:
        """Zeros with |Im z| < imag_tol * (1 + |Re z|)."""
        return [z for z in self.zeros if _is_real(z, imag_tol)]


def _is_real(z, imag_tol) -> bool:
    return abs(z.imag) < imag_tol * (1 + abs(z.real))


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


def newton_polygon_seeds(coeffs, count: int | None = None) -> list:
    """Deterministic starting points on scaled circles.

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
    if count is not None:
        seeds = seeds[:count]
    return seeds


_EPS = 2.0 ** -52
_QL_MAX_STEPS = 50    # QL steps allowed per eigenvalue


def tridiagonal_eigenvalues(diag, offdiag):
    """Eigenvalues of a complex-symmetric tridiagonal matrix, or None.

    diag holds the n diagonal entries, offdiag the n-1 entries coupling
    rows j and j+1.  Implicit QL with Wilkinson shifts in complex
    doubles (the tqli scheme): the plane rotations have c^2 + s^2 = 1
    and act by transposes, not conjugate transposes, so every step keeps
    the matrix complex-symmetric.  Such a rotation breaks down when its
    pivot pair (f, g) has f^2 + g^2 = 0, and nothing bounds how fast a
    non-normal matrix converges; either way, or when an entry overflows,
    the result is None and the caller must seed some other way.  At most
    _QL_MAX_STEPS QL steps are spent on each eigenvalue.  The
    eigenvalues come back in no particular order; they are accurate to
    about machine epsilon times the matrix norm only when the matrix is
    close to normal.
    """
    d = [complex(x) for x in diag]
    e = [complex(x) for x in offdiag] + [0j]
    if len(e) != len(d):
        raise ValueError("offdiag needs one entry fewer than diag")
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
    trailing zero) in place; False on rotation breakdown or when an
    eigenvalue needs more than _QL_MAX_STEPS steps."""
    n = len(d)
    for l in range(n):
        for it in range(_QL_MAX_STEPS + 1):
            m = l
            while m < n - 1 and \
                    abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
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
                   tol=None, max_iter: int = 400,
                   strict: bool = True) -> ZeroSet:
    """All roots of the polynomial, simultaneously.

    poly: DensePolynomial or ascending coefficient list (any scalar
    type convertible to mpc).  seeds, when given, feed the first
    len(seeds) starting points; the rest come from the Newton-polygon
    circles.  Seeds near the roots, such as the eigenvalues of a Jacobi
    matrix whose characteristic polynomial is poly, cut the number of
    Aberth sweeps; the sweeps and the Newton polish are the same
    whatever the seeds.  With strict=True a root that fails its
    convergence check raises NonConvergenceError instead of being
    flagged, and so does a tol below 2^-(precision_bits + 24), before
    any sweep: the sweeps and the polish run at precision_bits + 24
    bits, which cannot resolve a smaller step.
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
        if strict and tol < mp.mpf(2) ** -work_bits:
            raise NonConvergenceError(
                f"tolerance {mp.nstr(tol, 3)} is below 2^-{work_bits}, the "
                f"resolution of the {work_bits}-bit working precision "
                f"({precision_bits} bits plus 24 guard bits); raise "
                "the precision or loosen the tolerance"
            )
        z = [to_mpc(s) for s in (seeds or [])]
        if len(z) > n:
            raise InvalidSpecError(
                f"{len(z)} seeds for a degree-{n} polynomial"
            )
        if len(z) < n:
            z += newton_polygon_seeds(coeffs, n - len(z))
        z = _spread_duplicates(z, mp.mpf(2) ** -20)
        z = _break_axis_symmetry(z, coeffs, mp.mpf(2) ** -16)

        step_goal = tol / 4
        for _ in range(max_iter):
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
                break
        else:
            if strict:
                raise NonConvergenceError(
                    f"Aberth sweep at degree {n} did not settle within "
                    f"{max_iter} iterations (last step {mp.nstr(worst, 3)})"
                )

        real_coeffs = all(c.imag == 0 for c in coeffs)
        dust = mp.mpf(2) ** (-2 * precision_bits)
        roots, residuals, flags = [], [], []
        for j in range(n):
            r, res, ok = _newton_polish(coeffs, z[j], tol)
            if real_coeffs and r.imag != 0 and \
                    abs(r.imag) < dust * (1 + abs(r.real)):
                # arithmetic dust orders of magnitude below the working
                # precision, not a resolvable conjugate pair
                r = mp.mpc(r.real, 0)
            roots.append(r)
            residuals.append(res)
            flags.append(ok)

    bad = [j for j, ok in enumerate(flags) if not ok]
    if bad and strict:
        raise NonConvergenceError(
            f"{len(bad)} of {n} roots failed the tolerance check "
            f"(indices {bad[:8]}{'...' if len(bad) > 8 else ''})"
        )
    order = sorted(range(n), key=lambda j: (-roots[j].real, roots[j].imag))
    return ZeroSet(
        zeros=tuple(roots[j] for j in order),
        residuals=tuple(residuals[j] for j in order),
        converged=tuple(flags[j] for j in order),
        degree=n,
        precision_bits=precision_bits,
        tol=tol,
    )


def _newton_polish(coeffs, z, tol, max_steps: int = 40):
    """Newton iteration; returns (root, |p/p'| residual, converged)."""
    last = mp.inf
    grew = 0
    for _ in range(max_steps):
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


def real_zero_count(zeros, imag_tol: float = 1e-6) -> int:
    """How many zeros are real up to the relative imaginary tolerance,
    by the test of `ZeroSet.real_zeros`."""
    if isinstance(zeros, ZeroSet):
        zeros = zeros.zeros
    return sum(1 for z in zeros if _is_real(mp.mpc(z), imag_tol))
