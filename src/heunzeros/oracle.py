"""Independent cross-checks straight from the differential equations.

Everything in this module is rebuilt from first principles: the ODE of
each family is written out with explicit polynomial coefficients, a
generic Frobenius stepper turns any such ODE into a local series, and
connection data is obtained by matching series numerically at an
interior point.  None of it calls the production recurrence in
`recurrence.py`, so agreement between the two paths is evidence, not
tautology.  Keep it that way: do not "simplify" this module by
delegating to the production code.

Every polynomial and series here is exact: a float input counts as its
exact value (`scalars.exact_value`).  Only the midpoint match leaves the
field, at the fixed-point stepper `_fixed_steps`, the (1/2)^rho factors
and its 2x2 solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import mpmath as mp

from .families import FamilyKind, InvalidSpecError, RecurrenceSpec
from .scalars import (
    QQi,
    _fixed_div,
    _from_fixed,
    _to_fixed,
    exact_value,
    to_mpc,
    working_precision,
)


class ResonantExponentError(InvalidSpecError):
    """The two local exponents differ by an integer, so the plain
    power-series ansatz breaks down (a log term would be needed)."""


# -- ODE coefficient polynomials ------------------------------------------------

def family_ode_polys(spec: RecurrenceSpec, B):
    """Ascending coefficient lists (p, q, r) with
    p(z) y'' + q(z) y' + r(z) y = 0 the defining equation of the family,
    exact: a binary-float B counts as its exact value (`exact_value`).
    """
    g, d, s, b = spec.gamma, spec.delta, spec.s, exact_value(B)
    zero, one = QQi(0), QQi(1)
    if spec.kind == FamilyKind.HEUN:
        a, bt = spec.alpha, spec.beta
        e = a + bt + 1 - g - d
        p = [zero, -one, one + s, -s]
        q = [-g, g * (1 + s) + d + s * e, -s * (g + d + e)]
        r = [b, -s * a * bt]
    elif spec.kind == FamilyKind.CONFLUENT:
        a = spec.alpha
        p = [zero, -one, one]
        q = [-g, g + d + s, -s]
        r = [b, -s * a]
    else:
        p = [zero, -one, one]
        q = [-g, g + d]
        r = [b, -s]
    return p, q, r


# -- generic Frobenius stepper ---------------------------------------------------

@dataclass(frozen=True)
class SeriesSolution:
    """Local solution z^exponent * sum(coeffs[n] z^n), coeffs[0] = 1."""

    exponent: object
    coeffs: tuple

    def __call__(self, z):
        z = to_mpc(z)
        acc = mp.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * z + to_mpc(c)
        rho = to_mpc(self.exponent)
        return acc * z ** rho if rho != 0 else acc

    def derivative(self, z):
        """d/dz of the solution at z."""
        z = to_mpc(z)
        rho = to_mpc(self.exponent)
        acc = mp.mpc(0)
        for n in range(len(self.coeffs) - 1, -1, -1):
            acc = acc * z + (n + rho) * to_mpc(self.coeffs[n])
        return acc * z ** (rho - 1) if rho != 1 else acc


def series_solution(p, q, r, exponent=0, N: int = 40) -> SeriesSolution:
    """Power-series solution of p y'' + q y' + r y = 0 about the regular
    singular point z = 0, by direct convolution of the coefficient
    polynomials.  Needs p(0) = 0.  The coefficients are exact: each
    input is read by `exact_value`, so a binary float counts as its
    exact value.
    """
    P, Q, R = ([exact_value(x) for x in xs] for xs in (p, q, r))
    rho = exact_value(exponent)
    if not P or P[0] != 0:
        raise InvalidSpecError("z = 0 must be a singular point: p(0) = 0")
    if len(P) < 2:
        raise InvalidSpecError("p must have degree >= 1")
    p1 = P[1]
    q0 = Q[0] if Q else QQi(0)
    a = [QQi(1)]
    for m in range(1, N + 1):
        den = (m + rho) * ((m + rho - 1) * p1 + q0)
        if den == 0:
            raise _resonance(m)
        acc = QQi(0)
        for i in range(2, min(len(P), m + 2)):
            n = m + 1 - i
            acc = acc + P[i] * a[n] * (n + rho) * (n + rho - 1)
        for i in range(1, min(len(Q), m + 1)):
            n = m - i
            acc = acc + Q[i] * a[n] * (n + rho)
        for i in range(0, min(len(R), m)):
            acc = acc + R[i] * a[m - 1 - i]
        a.append(-acc / den)
    return SeriesSolution(exponent=rho, coeffs=tuple(a))


def _resonance(m: int) -> ResonantExponentError:
    return ResonantExponentError(
        f"indicial denominator vanishes at step {m}; exponents differ by "
        "an integer")


_GUARD = 32    # fraction bits of the fixed-point stepper beyond the precision


def _fixed_polys(p, q, r, F: int) -> tuple:
    """The coefficient lists p, q, r through `scalars._to_fixed`."""
    return tuple([_to_fixed(x, F) for x in xs] for xs in (p, q, r))


def _fixed_steps(polys, rho, N: int, F: int, real: bool = False) -> tuple:
    """(a, b): a_n and a_n (n + rho), n = 0..N, of the `series_solution`
    recurrence, on Gaussian-integer pairs with F fraction bits.

    polys is (P, Q, R) from `_fixed_polys`; rho enters through
    `scalars._to_fixed`.  Beside each
    a_n the stepper keeps its weights a_n (n + rho) and
    a_n (n + rho)(n + rho - 1), so step m is a sum of integer products
    at 2F fraction bits, one floor division by the indicial denominator
    (`scalars._fixed_div`) and two products for the new weights.  Every
    rounding is an absolute 2^-F in units of a_0 = 1
    (docs/math_notes.md, section 6).
    The caller sets real when every coefficient's imaginary int is 0;
    with rho's 0 as well, every imaginary part stays 0, and the real arm
    runs one product per term and a single floor division,
    floor(-s / d), which is the complex arm's floor(-s d / d^2): its
    pairs are the complex arm's, bit for bit.
    """
    P, Q, R = polys
    rr, ri = _to_fixed(rho, F)
    one = 1 << F
    p1r, p1i = P[1]
    q0r, q0i = Q[0] if Q else (0, 0)
    P2, Q1 = P[2:], Q[1:]
    if real and not ri:
        R, Q1, P2 = ([x for x, _ in terms] for terms in (R, Q1, P2))
        a, b, c = [one], [rr], [(rr * (rr - one)) >> F]
        for m in range(1, N + 1):
            s = sum(map(mul, R, reversed(a))) \
                + sum(map(mul, Q1, reversed(b))) \
                + sum(map(mul, P2, reversed(c)))
            ur = (m << F) + rr                   # m + rho
            vr = ur - one                        # m + rho - 1
            d = (ur * (((vr * p1r) >> F) + q0r)) >> F
            if not d:
                raise _resonance(m)
            x = -s // d
            w = (x * ur) >> F
            a.append(x)
            b.append(w)
            c.append((w * vr) >> F)
        return [(x, 0) for x in a], [(w, 0) for w in b]
    a = [(one, 0)]
    b = [(rr, ri)]
    c = [((rr * (rr - one) - ri * ri) >> F, (ri * (2 * rr - one)) >> F)]
    for m in range(1, N + 1):
        sr = si = 0
        # a[m - 1 - i] beside R_i, b[m - i] beside Q_i, c[m + 1 - i]
        # beside P_i: each list read from its newest entry down
        for terms, past in ((R, a), (Q1, b), (P2, c)):
            for (xr, xi), (yr, yi) in zip(terms, reversed(past)):
                sr += xr * yr - xi * yi
                si += xr * yi + xi * yr
        ur = (m << F) + rr                       # m + rho
        vr = ur - one                            # m + rho - 1
        tr = ((vr * p1r - ri * p1i) >> F) + q0r
        ti = ((vr * p1i + ri * p1r) >> F) + q0i
        dr, di = (ur * tr - ri * ti) >> F, (ur * ti + ri * tr) >> F
        if not (dr or di):
            raise _resonance(m)
        xr, xi = _fixed_div(-sr, -si, dr, di, 0)
        wr, wi = (xr * ur - xi * ri) >> F, (xr * ri + xi * ur) >> F
        a.append((xr, xi))
        b.append((wr, wi))
        c.append(((wr * vr - wi * ri) >> F, (wr * ri + wi * vr) >> F))
    return a, b


# -- residual check of the production series ------------------------------------

def _poly_eval(coeffs, z):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + to_mpc(c)
    return acc


def _sample_points(spec: RecurrenceSpec, count: int = 5):
    """Fixed sample points inside the convergence disk of the z = 0
    series, kept away from the origin and from all finite singular
    points of the family."""
    radius = mp.mpf(1)
    if spec.kind == FamilyKind.HEUN:
        smag = abs(to_mpc(spec.s))
        if smag > 1:
            radius = 1 / smag
    r0 = mp.mpf("0.35") * radius
    return [r0 * mp.expjpi(2 * mp.mpf(j) / count + mp.mpf("0.117"))
            for j in range(count)]


def ode_residual(spec: RecurrenceSpec, B, N: int = 40, z_samples=None,
                 coeffs=None, precision_bits: int = 256):
    """Largest relative residual of the truncated series in the family
    ODE across the sample points.

    `coeffs` defaults to the production series from `eval_sequence` at
    the exact value of B, so this is an end-to-end check of the
    recurrence path against the differential equation itself.  Passing
    degraded coefficients should make the residual blow up; tests rely
    on that.
    """
    from .recurrence import eval_sequence

    with working_precision(precision_bits):
        if coeffs is None:
            coeffs = eval_sequence(spec, exact_value(B), N)
        cs = [to_mpc(c) for c in coeffs]
        p, q, r = family_ode_polys(spec, B)
        if z_samples is None:
            z_samples = _sample_points(spec)
        d1 = [n * c for n, c in enumerate(cs)][1:]
        d2 = [n * c for n, c in enumerate(d1)][1:]
        worst = mp.mpf(0)
        for z in z_samples:
            z = to_mpc(z)
            if z == 0:
                raise InvalidSpecError("sample points must avoid z = 0")
            t2 = _poly_eval(p, z) * _poly_eval(d2, z)
            t1 = _poly_eval(q, z) * _poly_eval(d1, z)
            t0 = _poly_eval(r, z) * _poly_eval(cs, z)
            scale = max(abs(t2), abs(t1), abs(t0), mp.mpf(1))
            worst = max(worst, abs(t2 + t1 + t0) / scale)
        return worst


# -- local solutions at z = 1 and the exchanged-point parameter map --------------

def _compose_one_minus(poly):
    """Coefficients of poly(1 - w) as a polynomial in w."""
    if not poly:
        return []
    zero = QQi(0)
    out = [zero] * len(poly)
    basis = [QQi(1)]                   # (1 - w)^i, ascending
    for coef in poly:
        for j, bj in enumerate(basis):
            out[j] = out[j] + coef * bj
        nxt = [zero] * (len(basis) + 1)
        for j, bj in enumerate(basis):
            nxt[j] = nxt[j] + bj
            nxt[j + 1] = nxt[j + 1] - bj
        basis = nxt
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def ode_polys_at_1(spec: RecurrenceSpec, B):
    """The family ODE rewritten in w = 1 - z (so w = 0 is the old
    z = 1 point): p(1-w) Y'' - q(1-w) Y' + r(1-w) Y = 0."""
    p, q, r = family_ode_polys(spec, B)
    ph = _compose_one_minus(p)
    if ph[0] != 0:
        raise InvalidSpecError("z = 1 is not singular for this equation")
    return (
        ph,
        [-x for x in _compose_one_minus(q)],
        _compose_one_minus(r),
    )


def local_solutions_at_1(spec: RecurrenceSpec, B, N: int = 40):
    """(analytic, singular) local solutions at z = 1, as series in
    w = 1 - z.  The singular one carries exponent 1 - delta."""
    ph, qh, rh = ode_polys_at_1(spec, B)
    u0 = series_solution(ph, qh, rh, 0, N)
    u1 = series_solution(ph, qh, rh, _singular_exponent(ph, qh), N)
    return u0, u1


def _singular_exponent(ph, qh):
    """The nonzero indicial exponent at w = 0 of the equation from
    `ode_polys_at_1`, 1 - delta."""
    return 1 - qh[0] / ph[1]


def z1_swapped_spec(spec: RecurrenceSpec, B):
    """Parameters of the family seen from z = 1: the substitution
    w = 1 - z maps the equation onto the same family with gamma and
    delta exchanged, a rescaled singularity parameter, and a shifted
    accessory parameter.  Returns (new_spec, new_B), new_B exact."""
    s, b = spec.s, exact_value(B)
    if spec.kind == FamilyKind.HEUN:
        if s == 1:
            raise InvalidSpecError("s = 1 merges the z = 1 and z = 1/s points")
        a, bt = spec.alpha, spec.beta
        new_s = s / (s - 1)
        new_b = (b - s * a * bt) / (1 - s)
        new = RecurrenceSpec(kind=spec.kind, gamma=spec.delta,
                             delta=spec.gamma, s=new_s,
                             alpha=spec.alpha, beta=spec.beta)
    elif spec.kind == FamilyKind.CONFLUENT:
        new_b = b - s * spec.alpha
        new = RecurrenceSpec(kind=spec.kind, gamma=spec.delta,
                             delta=spec.gamma, s=-s, alpha=spec.alpha)
    else:
        new_b = b - s
        new = RecurrenceSpec(kind=spec.kind, gamma=spec.delta,
                             delta=spec.gamma, s=-s)
    return new, new_b


# -- connection coefficient by interior matching ---------------------------------

@dataclass(frozen=True)
class MidpointMatch:
    """Connection weights of the z = 0 holomorphic solution in the
    z = 1 local basis, from a 2x2 match at z = 1/2."""

    d1: object
    d2: object
    condition: object


def d2_by_midpoint_matching(spec: RecurrenceSpec, B, N: int = 80,
                            precision_bits: int = 256) -> MidpointMatch:
    """Expand the holomorphic solution at z = 0 and both local
    solutions at z = 1, evaluate value and slope at z = 1/2, and solve
    for the two connection weights.  Entirely oracle-side arithmetic:
    the three series run in `_fixed_steps` at precision_bits + _GUARD
    fraction bits and are summed at 1/2 exactly (`_at_half`); only the
    (1/2)^rho factors and the 2x2 solve are mpc.  B, read as its exact
    value, enters only as the constant term of r in both equations.
    InvalidSpecError when z = 1/2 lies outside the disk of either
    series.
    """
    F = precision_bits + _GUARD
    at_0, at_1, rho = _midpoint_polys(spec, F)
    br, bi = _to_fixed(exact_value(B), F)
    at_0, at_1 = ((P, Q, [(R[0][0] + br, R[0][1] + bi)] + R[1:])
                  for P, Q, R in (at_0, at_1))
    with working_precision(precision_bits):
        y0, dy0 = _at_half(at_0, 0, N, F)
        u0, du0 = _at_half(at_1, 0, N, F)
        u1, du1 = _at_half(at_1, rho, N, F)
        # d/dz = -d/dw on the w-side series
        m00, m01, m10, m11 = u0, u1, -du0, -du1
        det = m00 * m11 - m01 * m10
        if det == 0:
            raise InvalidSpecError("local basis at z = 1 is degenerate")
        d1 = (y0 * m11 - m01 * dy0) / det
        d2 = (m00 * dy0 - y0 * m10) / det
        fro2 = abs(m00) ** 2 + abs(m01) ** 2 + abs(m10) ** 2 + abs(m11) ** 2
        return MidpointMatch(d1=d1, d2=d2, condition=fro2 / abs(det))


@lru_cache(maxsize=64)
def _midpoint_polys(spec: RecurrenceSpec, F: int) -> tuple:
    """(at_0, at_1, rho): `_fixed_polys` of the family equation and of
    `ode_polys_at_1`, both at B = 0, and the singular exponent at z = 1.
    B sits only in r[0], which is B at z = 0 and r(1) = B + r_1 at
    z = 1.  Cached per (spec, F)."""
    _check_midpoint_disks(spec)
    ph, qh, rh = ode_polys_at_1(spec, 0)
    return (_fixed_polys(*family_ode_polys(spec, 0), F),
            _fixed_polys(ph, qh, rh, F), _singular_exponent(ph, qh))


def _at_half(polys, exponent, N: int, F: int) -> tuple:
    """Value and slope at 1/2 of the `series_solution` solution with
    N + 1 terms, polys from `_fixed_polys`.  The sums of a_n 2^-n and
    a_n (n + rho) 2^-n are exact integers at F + N fraction bits; the
    slope is
    (1/2)^(rho - 1) sum a_n (n + rho) 2^-n."""
    a, b = _fixed_steps(polys, exponent, N, F, real=not any(
        y for terms in polys for _, y in terms))
    sums = [_from_fixed(sum(x << (N - n) for n, (x, _) in enumerate(t)),
                        sum(y << (N - n) for n, (_, y) in enumerate(t)),
                        F + N) for t in (a, b)]
    scale = mp.mpf(2) ** -to_mpc(exponent) if exponent != 0 else mp.mpf(1)
    return scale * sums[0], 2 * scale * sums[1]


def _check_midpoint_disks(spec: RecurrenceSpec):
    """Refuse a spec whose z = 0 series (radius min(1, 1/|s|)) or z = 1
    series (radius min(1, |1 - 1/s|)) cannot reach z = 1/2.  Only the
    full family has the singular point z = 1/s."""
    if spec.kind != FamilyKind.HEUN:
        return
    s = spec.s
    if s == 0:
        return
    if s.abs2() >= 4:
        raise InvalidSpecError(
            "midpoint z = 1/2 lies outside the disk of the z = 0 series "
            f"(radius 1/|s| = {mp.nstr(1 / abs(to_mpc(s)), 3)})")
    if 4 * (s - 1).abs2() <= s.abs2():
        raise InvalidSpecError(
            "midpoint z = 1/2 lies outside the disk of the z = 1 series "
            f"(radius |1 - 1/s| = {mp.nstr(abs(1 - 1 / to_mpc(s)), 3)})")
