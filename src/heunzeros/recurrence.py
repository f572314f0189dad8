"""Coefficient polynomials c_m(B) built by the three-term recurrence.

c_m(B) is the m-th Taylor coefficient of the holomorphic local solution
at z = 0, as a degree-m polynomial in the accessory parameter B:

    (m+1)(m+gamma) c_{m+1}(B) = (B + D_m + s E_m) c_m(B) - s F_m c_{m-1}(B)

with c_{-1} = 0 and c_0 = 1.  One routine (`_recurrence`) runs it on
coefficient lists in one variable: B for `build_family`, none (a fixed
B) for `eval_sequence`, and s for `family_in_s`.  Specs are exact, so
polynomials run in the exact Gaussian-rational field; only
`eval_sequence` at an inexact B, or at a forced precision, runs in mpc
big floats.

Useful consequences kept as helpers and exploited by the test-suite:
the leading coefficient of c_m is 1/(m! (gamma)_m), and at s = 0 the
polynomial factors through the -D_k grid,
c_{m+1}|_{s=0} = lead * prod_{j<=m} (B + D_j).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace

import mpmath as mp

from .families import InvalidSpecError, RecurrenceSpec, recurrence_coeffs
from .scalars import (
    QQi,
    as_exact,
    is_exact_scalar,
    scalar_from_json,
    scalar_to_json,
    to_mpc,
    working_precision,
)

SCHEMA_FAMILY = "heunzeros-family/1"


@dataclass(frozen=True)
class DensePolynomial:
    """Dense univariate polynomial, exact coefficients in ascending
    degree."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "DensePolynomial":
        return DensePolynomial(
            tuple(c * k for k, c in enumerate(self.coeffs) if k >= 1)
            or (QQi(0),))

    @property
    def leading_coefficient(self):
        return self.coeffs[-1]


@dataclass(frozen=True)
class PolynomialFamily:
    """c_0 ... c_{m_max} for one spec, exact."""

    spec: RecurrenceSpec
    m_max: int
    polys: tuple

    # every family is exact; the attribute stays because readers outside
    # the package name a build by it (perfbench/tracer.py reads
    # field.kind)
    field = SimpleNamespace(kind="exact")

    def __getitem__(self, m: int) -> DensePolynomial:
        return self.polys[m]

    def __len__(self) -> int:
        return len(self.polys)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_FAMILY,
            "spec": self.spec.to_json(),
            "field": {"kind": "exact"},
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
        polys = tuple(
            DensePolynomial(tuple(scalar_from_json(p) for p in row))
            for row in obj["coeffs"]
        )
        return PolynomialFamily(spec=RecurrenceSpec.from_json(obj["spec"]),
                                m_max=obj["m_max"], polys=polys)

    @staticmethod
    def loads(text: str) -> "PolynomialFamily":
        return PolynomialFamily.from_json(json.loads(text))


def build_family(spec: RecurrenceSpec, m_max: int) -> PolynomialFamily:
    """Run the recurrence in polynomial space up to c_{m_max}, exactly."""
    if m_max < 0:
        raise InvalidSpecError("m_max must be nonnegative")
    s = spec.s
    rows = _recurrence(spec, m_max, as_exact,
                       lambda D, E, F: ([D + s * E, 1], [-(s * F)]))
    polys = tuple(DensePolynomial(tuple(r)) for r in rows)
    return PolynomialFamily(spec=spec, m_max=m_max, polys=polys)


def _recurrence(spec: RecurrenceSpec, m_max: int, conv, step) -> list:
    """Coefficient lists, in one variable X, of c_0 ... c_{m_max} by

        (m+1)(m+gamma) c_{m+1} = L_m c_m - M_m c_{m-1},  c_0 = 1,

    where (L_m, -M_m) = step(D_m, E_m, F_m) are coefficient lists in X
    built from the step data after conv (`as_exact`, or `to_mpc` at the
    working precision for `eval_sequence` in big floats).  The step negates M_m, one scalar or two, so
    that no product list is negated term by term."""
    gamma = conv(spec.gamma)
    rows = [[conv(1)]]
    prev = None
    for m in range(m_max):
        L, neg_M = step(*map(conv, recurrence_coeffs(spec, m)))
        cur = rows[-1]
        val = _sp_mul(L, cur)
        if prev is not None:
            val = _sp_add(val, _sp_mul(neg_M, prev))
        q = (m + 1) * (m + gamma)
        rows.append(_sp_trim([c / q for c in val]))
        prev = cur
    return rows


def _sp_trim(p: list) -> list:
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _sp_add(a: list, b: list) -> list:
    n = min(len(a), len(b))
    return [x + y for x, y in zip(a, b)] + a[n:] + b[n:]


def _sp_mul(a: list, b: list) -> list:
    # each entry starts from its first product, not from a zero it is
    # added to, and a term of a that is 1 adds b unmultiplied
    out = [a[0] * y for y in b]
    for i, x in enumerate(a[1:], 1):
        row = b if x == 1 else [x * y for y in b]
        out[i:] = [u + v for u, v in zip(out[i:], row)] + row[len(out) - i:]
    return out


def eval_sequence(spec: RecurrenceSpec, B, K: int,
                  precision_bits: int | None = None) -> list:
    """c_0(B) ... c_K(B) by the scalar recurrence, O(K) work.

    Runs exactly when B is exact and no precision was forced; otherwise
    in mpc under precision_bits (or the caller's current mpmath context
    when omitted).  Each step is the polynomial step of `build_family`
    with B fixed, so its degree-0 lists round exactly as the scalar loop
    does.
    """
    if K < 0:
        raise InvalidSpecError("K must be nonnegative")
    exact = precision_bits is None and (is_exact_scalar(B)
                                        or isinstance(B, str))
    conv = as_exact if exact else to_mpc
    with working_precision(precision_bits or mp.mp.prec):
        B, s = conv(B), conv(spec.s)
        rows = _recurrence(spec, K, conv,
                           lambda D, E, F: ([B + D + s * E], [-(s * F)]))
    return [r[0] for r in rows]


def leading_coefficient_law(spec: RecurrenceSpec, m: int):
    """1/(m! (gamma)_m), the forced leading coefficient of c_m."""
    acc = QQi(1)
    for j in range(m):
        acc = acc * (j + 1) * (spec.gamma + j)
    return 1 / acc


# -- s as indeterminate -------------------------------------------------------

def family_in_s(spec: RecurrenceSpec, b_of_s, m_max: int) -> list[list[list]]:
    """Run the recurrence with s symbolic and B = b_of_s(s) substituted.

    b_of_s is a list of exact coefficients of B as a polynomial in s.
    Returns, for each m <= m_max, the coefficient list (in powers of s)
    of c_m(b_of_s(s)).  Exact arithmetic only.
    """
    bpoly = [as_exact(c) for c in b_of_s]
    # L_m = B(s) + D_m + s E_m and M_m = s F_m as polynomials in s
    return _recurrence(spec, m_max, as_exact,
                       lambda D, E, F: (_sp_add(bpoly, [D, E]), [0, -F]))


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
    return DensePolynomial(tuple(rows[m + 1]))
