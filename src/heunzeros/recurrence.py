"""Coefficient polynomials c_m(B) built by the three-term recurrence.

c_m(B) is the m-th Taylor coefficient of the holomorphic local solution
at z = 0, as a degree-m polynomial in the accessory parameter B:

    (m+1)(m+gamma) c_{m+1}(B) = (B + D_m + s E_m) c_m(B) - s F_m c_{m-1}(B)

with c_{-1} = 0 and c_0 = 1.  Everything here runs either in the exact
Gaussian-rational field or in mpc big-floats, chosen by the field tag,
except the step rows of the d2 tail (`_scaled_step_table`), which are
fixed-point Gaussian integers.

Useful consequences kept as helpers and exploited by the test-suite:
the leading coefficient of c_m is 1/(m! (gamma)_m), and at s = 0 the
polynomial factors through the -D_k grid,
c_{m+1}|_{s=0} = lead * prod_{j<=m} (B + D_j).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import mpmath as mp

from .families import InvalidSpecError, RecurrenceSpec, recurrence_coeffs
from .scalars import (
    EXACT_FIELD,
    FieldTag,
    QQi,
    _fixed_div,
    _to_fixed,
    as_exact,
    bigfloat_field,
    is_exact_scalar,
    scalar_from_json,
    scalar_to_json,
    to_mpc,
    working_precision,
)

SCHEMA_FAMILY = "heunzeros-family/1"


@dataclass(frozen=True)
class DensePolynomial:
    """Dense univariate polynomial, coefficients in ascending degree."""

    coeffs: tuple
    field: FieldTag

    def __post_init__(self):
        if not self.coeffs:
            object.__setattr__(self, "coeffs", (_zero_like(self.field),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "DensePolynomial":
        if self.degree == 0:
            return DensePolynomial((_zero_like(self.field),), self.field)
        return DensePolynomial(
            tuple(c * k for k, c in enumerate(self.coeffs) if k >= 1),
            self.field,
        )

    @property
    def leading_coefficient(self):
        return self.coeffs[-1]

    def to_mpc_coeffs(self, precision_bits: int = 256) -> list:
        with working_precision(precision_bits):
            return [to_mpc(c) for c in self.coeffs]


def _zero_like(field: FieldTag):
    return QQi(0) if field.kind == "exact" else mp.mpc(0)


@dataclass(frozen=True)
class PolynomialFamily:
    """c_0 ... c_{m_max} for one spec, in one coefficient field."""

    spec: RecurrenceSpec
    m_max: int
    polys: tuple
    field: FieldTag

    def __getitem__(self, m: int) -> DensePolynomial:
        return self.polys[m]

    def __len__(self) -> int:
        return len(self.polys)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_FAMILY,
            "spec": self.spec.to_json(),
            "field": self.field.to_json(),
            "m_max": self.m_max,
            "coeffs": [
                [scalar_to_json(c) for c in p.coeffs]
                for p in self.polys
            ],
        }

    def dumps(self, **kw) -> str:
        return json.dumps(self.to_json(), **kw)

    @staticmethod
    def from_json(obj: dict) -> "PolynomialFamily":
        if obj.get("schema") != SCHEMA_FAMILY:
            raise ValueError(f"unknown schema {obj.get('schema')!r}")
        spec = RecurrenceSpec.from_json(obj["spec"])
        field = FieldTag.from_json(obj["field"])
        polys = tuple(
            DensePolynomial(
                tuple(scalar_from_json(p) for p in row), field
            )
            for row in obj["coeffs"]
        )
        return PolynomialFamily(spec=spec, m_max=obj["m_max"], polys=polys,
                                field=field)

    @staticmethod
    def loads(text: str) -> "PolynomialFamily":
        return PolynomialFamily.from_json(json.loads(text))


def build_family(spec: RecurrenceSpec, m_max: int,
                 precision_bits: int = 256) -> PolynomialFamily:
    """Run the recurrence in polynomial space up to c_{m_max}: exactly
    when the spec is exact, else in big floats at precision_bits."""
    if m_max < 0:
        raise InvalidSpecError("m_max must be nonnegative")
    if spec.is_exact:
        field = EXACT_FIELD
        rows = _build_rows(spec, m_max, exact=True)
    else:
        field = bigfloat_field(precision_bits)
        with working_precision(precision_bits):
            rows = _build_rows(spec, m_max, exact=False)
    polys = tuple(DensePolynomial(tuple(r), field) for r in rows)
    return PolynomialFamily(spec=spec, m_max=m_max, polys=polys, field=field)


def _build_rows(spec: RecurrenceSpec, m_max: int, exact: bool) -> list[list]:
    gamma, steps = _step_table(spec, m_max, exact)
    rows = [[QQi(1) if exact else mp.mpc(1)]]
    prev = None          # c_{m-1}
    cur = rows[0]        # c_m
    for m in range(m_max):
        D, sE, sF = steps[m]
        a = D + sE                         # constant part of (B + D + sE)
        nxt = [a * c for c in cur] + [cur[-1]]
        for i in range(1, len(cur)):
            nxt[i] = nxt[i] + cur[i - 1]
        if prev is not None:
            for i, c in enumerate(prev):
                nxt[i] = nxt[i] - sF * c
        q = (m + 1) * (m + gamma)
        nxt = [c / q for c in nxt]
        rows.append(nxt)
        prev, cur = cur, nxt
    return rows


# (key, gamma, steps): the B-independent part of each recurrence step,
# steps[m] = (D_m, s E_m, s F_m), for the most recent spec, parameter
# types and precision (None when exact).  A d2 secant search evaluates
# many B at one spec, K and precision.  The key carries the parameter
# types because specs compare equal across fields (QQi(1/2) == mpf(0.5)),
# and the precision because big-float steps are rounded to it.  The whole
# tuple is replaced at once, so a caller keeps a consistent snapshot.
_steps = (None, None, ())


def _step_table(spec: RecurrenceSpec, K: int, exact: bool) -> tuple:
    """(gamma, steps) with steps[m] = (D_m, s E_m, s F_m) for at least
    m < K, exactly or as mpc at the current precision."""
    global _steps
    key = (spec, spec.param_types, None if exact else mp.mp.prec)
    cached, gamma, steps = _steps
    conv = (lambda x: x) if exact else to_mpc
    if cached != key:
        gamma, steps = conv(spec.gamma), ()
    if len(steps) < K:
        s = conv(spec.s)
        new = []
        for m in range(len(steps), K):
            D, E, F = recurrence_coeffs(spec, m)
            new.append((conv(D), s * conv(E), s * conv(F)))
        steps = steps + tuple(new)
    _steps = (key, gamma, steps)
    return gamma, steps


# (key, rows): the B-independent part of each step of the scaled
# recurrence that `tracking.d2_sequence` runs, rows[k] = the real and
# imaginary parts of A_k, G_k and H_k as ints with F fraction bits, for
# the most recent spec, parameter types and F, keyed as _steps is and
# replaced as a whole in the same way.
_scaled_steps = (None, ())

_ROW_GUARD = 32   # extra fraction bits of the row build


def _scaled_step_table(spec: RecurrenceSpec, K: int, F: int) -> tuple:
    """rows[k] = (Re A_k, Im A_k, Re G_k, Im G_k, Re H_k, Im H_k) for at
    least k < K, each an int standing for its value times 2^F, with

        A_k = D_k + s E_k,  G_k = N_k/(delta+k-2),  N_k = k s F_k,
        H_k = 1/((k+gamma)(k+delta-1)),

    the steps of a_{k+1} = ((B + A_k) a_k - G_k a_{k-1}) H_k, a_0 = 1,
    which a_k = c_k k!/(delta-1)_k satisfies (docs/math_notes.md,
    section 6).  In every family A_k has degree at most 2 in k and N_k
    at most 3, so `recurrence_coeffs` runs only at k = 0..3, on an mpc
    copy of the spec at F + _ROW_GUARD bits.  Their values, truncated to
    W = F + _ROW_GUARD fraction bits, give exact forward differences, and
    each row evaluates the Newton form with the integer binomials
    C(k, 2) and C(k, 3) exactly.  A_k is then shifted down to F bits;
    G_k and H_k each take one rounded division (`scalars._fixed_div`)."""
    global _scaled_steps
    key = (spec, spec.param_types, F)
    cached, rows = _scaled_steps
    if cached != key:
        # drop the old rows first, so two tables are never held at once
        _scaled_steps, rows = (None, ()), ()
    if len(rows) < K:
        rows = rows + _scaled_rows(spec, len(rows), K, F)
    _scaled_steps = (key, rows)
    return rows


def _forward_differences(values: list) -> list:
    """[v_0, (Delta v)_0, (Delta^2 v)_0, ...] of the ints values."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def _scaled_rows(spec: RecurrenceSpec, k0: int, K: int, F: int) -> tuple:
    """Rows k0 <= k < K of `_scaled_step_table`."""
    W = F + _ROW_GUARD
    with working_precision(W):
        big = RecurrenceSpec(spec.kind, *(
            None if v is None else to_mpc(v)
            for v in (spec.gamma, spec.delta, spec.s, spec.alpha, spec.beta)))
        a_vals, n_vals = [], []
        for k in range(4):
            D, E, Fk = recurrence_coeffs(big, k)
            a_vals.append(_to_fixed(D + big.s * E, W))
            n_vals.append(_to_fixed(k * big.s * Fk, W))
        gr, gi = _to_fixed(big.gamma, W)
        dr, di = _to_fixed(big.delta, W)
    a0r, a1r, a2r, _ = _forward_differences([x for x, _ in a_vals])
    a0i, a1i, a2i, _ = _forward_differences([y for _, y in a_vals])
    n0r, n1r, n2r, n3r = _forward_differences([x for x, _ in n_vals])
    n0i, n1i, n2i, n3i = _forward_differences([y for _, y in n_vals])
    one = 1 << W
    num = 1 << (2 * W)           # 1 with 2W fraction bits
    rows = []
    for k in range(k0, K):
        c2 = k * (k - 1) // 2
        c3 = c2 * (k - 2) // 3
        Ar = (a0r + k * a1r + c2 * a2r) >> _ROW_GUARD
        Ai = (a0i + k * a1i + c2 * a2i) >> _ROW_GUARD
        Nr = n0r + k * n1r + c2 * n2r + c3 * n3r
        Ni = n0i + k * n1i + c2 * n2i + c3 * n3i
        Gr, Gi = _fixed_div(Nr, Ni, dr + (k - 2) * one, di, F)
        pr, pi = gr + k * one, gi                  # k + gamma
        qr, qi = dr + (k - 1) * one, di            # k + delta - 1
        Hr, Hi = _fixed_div(num, 0, pr * qr - pi * qi, pr * qi + pi * qr, F)
        rows.append((Ar, Ai, Gr, Gi, Hr, Hi))
    return tuple(rows)


def eval_sequence(spec: RecurrenceSpec, B, K: int,
                  precision_bits: int | None = None) -> list:
    """c_0(B) ... c_K(B) by the scalar recurrence, O(K) work.

    Runs exactly when both spec and B are exact and no precision was
    forced; otherwise in mpc under precision_bits (or the caller's
    current mpmath context when omitted).  The B-independent step data
    (D_m, s E_m, s F_m) comes from a table kept for the most recent spec,
    parameter types and precision, and grown to the largest K asked for,
    so repeated calls at one spec only pay the B-dependent arithmetic.
    `build_family` reads the same table; `tracking.d2_sequence` runs its
    own scaled recurrence instead (`_scaled_step_table`).
    """
    if K < 0:
        raise InvalidSpecError("K must be nonnegative")
    exact = (spec.is_exact and precision_bits is None
             and (is_exact_scalar(B) or isinstance(B, str)))
    if exact:
        return _eval_seq(spec, as_exact(B), K, exact=True)
    if precision_bits is not None:
        with working_precision(precision_bits):
            return _eval_seq(spec, to_mpc(B), K, exact=False)
    return _eval_seq(spec, to_mpc(B), K, exact=False)


def _eval_seq(spec, B, K, exact: bool) -> list:
    gamma, steps = _step_table(spec, K, exact)
    out = [B * 0 + 1]
    prev = None
    cur = out[0]
    for m in range(K):
        D, sE, sF = steps[m]
        val = (B + D + sE) * cur
        if prev is not None:
            val = val - sF * prev
        val = val / ((m + 1) * (m + gamma))
        out.append(val)
        prev, cur = cur, val
    return out


def leading_coefficient_law(spec: RecurrenceSpec, m: int):
    """1/(m! (gamma)_m), the forced leading coefficient of c_m."""
    acc = as_exact(1) if spec.is_exact else to_mpc(1)
    for j in range(m):
        acc = acc * (j + 1) * (spec.gamma + j)
    return 1 / acc


# -- s as indeterminate -------------------------------------------------------

def _sp_trim(p: list) -> list:
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _sp_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else QQi(0)) + (b[i] if i < len(b) else QQi(0))
        for i in range(n)
    ]


def _sp_mul(a: list, b: list) -> list:
    out = [QQi(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def family_in_s(spec: RecurrenceSpec, b_of_s, m_max: int) -> list[list[list]]:
    """Run the recurrence with s symbolic and B = b_of_s(s) substituted.

    b_of_s is a list of exact coefficients of B as a polynomial in s.
    Returns, for each m <= m_max, the coefficient list (in powers of s)
    of c_m(b_of_s(s)).  Exact arithmetic only.
    """
    if not spec.is_exact:
        raise InvalidSpecError("s-indeterminate evaluation is exact-only")
    bpoly = [as_exact(c) for c in b_of_s]
    rows = [[QQi(1)]]
    prev, cur = None, rows[0]
    for m in range(m_max):
        D, E, F = recurrence_coeffs(spec, m)
        # (B(s) + D_m + s E_m) as a polynomial in s
        lin = _sp_add(bpoly, [D, E])
        val = _sp_mul(lin, cur)
        if prev is not None:
            lag = [QQi(0)] + [F * c for c in prev]     # s * F_m * c_{m-1}
            val = _sp_add(val, [-c for c in lag])
        q = (m + 1) * (m + spec.gamma)
        val = _sp_trim([c / q for c in val])
        rows.append(val)
        prev, cur = cur, val
    return rows


def eval_s_polynomial(spec: RecurrenceSpec, B, m: int) -> DensePolynomial:
    """c_{m+1}(B) as an exact polynomial in s.

    B may be an exact scalar or a list of exact coefficients describing
    B(s); the recurrence is run with s as an indeterminate.  Note the
    index convention: input m yields c_{m+1}, the polynomial whose
    substitution identities the perturbative expansions satisfy.
    """
    if isinstance(B, DensePolynomial):
        b_of_s = list(B.coeffs)
    elif isinstance(B, (list, tuple)):
        b_of_s = list(B)
    else:
        b_of_s = [B]
    rows = family_in_s(spec, b_of_s, m + 1)
    return DensePolynomial(tuple(rows[m + 1]), EXACT_FIELD)
