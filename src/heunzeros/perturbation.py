"""Perturbative expansions of the polynomial zeros around the s = 0 grid.

At s = 0 every c_{m+1}(B) factors through the grid B = -D_k, k = 0..m.
For small s each zero moves analytically,

    B_k(s) = -D_k - D1_k s - D2_k s^2 + O(s^3),

and the correction coefficients have closed forms in the recurrence data
(D_j, E_j, F_j).  They are independent of the polynomial index m once
m >= k + order (m-stability), which the exact substitution tests in the
suite verify directly.  No second-order formula exists for the two edge
indices k = m-1 and k = m; asking for one raises.

The two specialized closed forms shipped here (Lame in n, reduced
confluent in gamma/delta) must agree exactly with the generic
coefficients; that agreement is itself a dual-route test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import mpmath as mp

from .families import InvalidSpecError, RecurrenceSpec, recurrence_coeffs
from .scalars import QQi, as_exact


class DegenerateGridError(InvalidSpecError):
    """The -D_k grid has collisions (gamma+delta nonpositive integer)."""


class BoundaryOrderError(ValueError):
    """No second-order coefficient exists at k = m-1 or k = m."""


def _check(spec: RecurrenceSpec, k: int, m: int):
    if spec.is_d_degenerate:
        raise DegenerateGridError(
            "perturbative expansion needs distinct D_k; "
            "gamma+delta is a nonpositive integer"
        )
    if m < 0 or k < 0 or k > m:
        raise InvalidSpecError(f"index k={k} outside 0..m={m}")


def recurrence_row(spec: RecurrenceSpec, j: int) -> tuple:
    """(D_j, E_j, G_j) with G_j = j(j-1+gamma) F_j, the weight that
    accompanies every F_j in the perturbation formulas and the
    off-diagonal of the Jacobi matrix.  Cached per (spec, j)."""
    # Inexact specs compute at the ambient precision, so their cache key
    # also carries that precision; exact rows do not depend on it.
    prec = None if spec.is_exact else mp.mp.prec
    return _cached_row(spec, j, (spec.param_types, prec))


@lru_cache(maxsize=4096)
def _cached_row(spec: RecurrenceSpec, j: int, signature) -> tuple:
    D, E, F = recurrence_coeffs(spec, j)
    return D, E, j * (j - 1 + spec.gamma) * F


def first_order_coeff(spec: RecurrenceSpec, k: int, m: int):
    """D1_k for the zero of c_{m+1} near -D_k; valid for 0 <= k <= m."""
    return -zero_expansion(spec, k, m, 1).c1


def second_order_coeff(spec: RecurrenceSpec, k: int, m: int):
    """D2_k for the zero of c_{m+1} near -D_k; valid for 0 <= k <= m-2."""
    return -zero_expansion(spec, k, m, 2).c2


def _highest_order(k: int, m: int) -> int:
    """The highest order with a formula at index k of c_{m+1}: second
    order needs row k+2, so the edge indices k = m-1, m have first."""
    return 2 if k <= m - 2 else 1


def _expansion(row, k: int, m: int, order: int) -> tuple:
    """(c0, ..., c_order) = (-D_k, -D1_k, -D2_k)[:order + 1] for the zero
    of c_{m+1} near -D_k, from row(j) = (D_j, E_j, G_j) at j = k-2..k+2,
    each read once (docs/math_notes.md, section 4)."""
    if order > _highest_order(k, m):
        raise BoundaryOrderError(
            f"no second-order formula at k={k} for c_{m + 1} "
            "(edge indices k=m-1 and k=m stabilize only at larger m)"
        )
    dk, ek, gk = row(k)
    if order == 0:
        return (-dk,)
    d1 = ek
    if k >= 1:
        dp, ep, gp = row(k - 1)
        u1 = gk / (dk - dp)
        d1 = d1 + u1
    if k <= m - 1:
        dn, en, gn = row(k + 1)
        v1 = gn / (dk - dn)
        d1 = d1 + v1
    if order == 1:
        return -dk, -d1
    # the squared-gap weights u2 = G_k/(D_k - D_{k-1})^2 and
    # v2 = G_{k+1}/(D_k - D_{k+1})^2, one division each from u1 and v1
    v2 = v1 / (dk - dn)
    u2 = down = 0
    if k >= 1:
        u2 = u1 / (dk - dp)
        down = ep if k == 1 else ep + gp / (dk - row(k - 2)[0])
    dnn, _, gnn = row(k + 2)
    up = en + gnn / (dk - dnn)
    return -dk, -d1, -(-(u2 + v2) * d1 + u2 * down + v2 * up)


@dataclass(frozen=True)
class PerturbativeExpansion:
    """Zero expansion B_k(s) = c0 + c1 s + c2 s^2 (+ O(s^{order+1})).

    m is the polynomial index the expansion was derived at; None marks
    the m-stable closed forms, valid for every m >= k + order.
    """

    k: int
    order: int
    c0: object
    c1: object = None
    c2: object = None
    m: int | None = None

    def __call__(self, s):
        val = self.c0
        if self.order >= 1:
            val = val + self.c1 * s
        if self.order >= 2:
            val = val + self.c2 * s * s
        return val

    def coefficients(self) -> tuple:
        return (self.c0, self.c1, self.c2)[: self.order + 1]


def zero_expansion(spec: RecurrenceSpec, k: int, m: int,
                   order: int = 2) -> PerturbativeExpansion:
    """Expansion of the zero of c_{m+1}(B) labelled by grid index k."""
    if order not in (0, 1, 2):
        raise InvalidSpecError(f"order must be 0, 1 or 2, got {order}")
    _check(spec, k, m)
    coeffs = _expansion(partial(recurrence_row, spec), k, m, order)
    return PerturbativeExpansion(k, order, *coeffs, m=m)


def zero_estimate(spec: RecurrenceSpec, k: int, m: int, order: int = 2):
    """The expansion evaluated at the spec's own s."""
    return zero_expansion(spec, k, m, order)(spec.s)


# -- specialized closed forms -------------------------------------------------

def lame_expansion(n, k: int) -> PerturbativeExpansion:
    """Second-order zero expansion for the Lame reduction, closed in n.

    Valid for every polynomial index m >= k+2 (k >= 2 interior; k = 0, 1
    have their own displays).  Exact when n is rational.
    """
    if k < 0:
        raise InvalidSpecError("k must be nonnegative")
    n = as_exact(n)
    N = n * (n + 1)
    if k == 0:
        c0 = QQi(0)
        c1 = -N / 8
        c2 = -N / 64 + N * N / 128
    elif k == 1:
        c0 = QQi(-1)
        c1 = Fraction(1, 2) - N / 8
        c2 = Fraction(3, 32) - N / 128 - 5 * N * N / 768
    else:
        k2 = QQi(k * k)
        c0 = -k2
        c1 = k2 / 2 - N / 8
        c2 = 3 * k2 / 32 - N / 64 - N * N / (128 * (4 * k * k - 1))
    return PerturbativeExpansion(k=k, order=2, c0=QQi(c0), c1=QQi(c1),
                                 c2=QQi(c2), m=None)


def reduced_confluent_expansion(gamma, delta, k: int) -> PerturbativeExpansion:
    """Second-order zero expansion for the reduced confluent family,
    closed in (gamma, delta); interior indices k >= 2 only."""
    if k < 2:
        raise InvalidSpecError(
            "closed reduced-confluent expansion covers interior k >= 2"
        )
    g, d = as_exact(gamma), as_exact(delta)
    total = g + d
    ti = total.as_integer()
    if ti is not None and ti <= 0:
        raise DegenerateGridError("gamma+delta is a nonpositive integer")
    diff2 = (g - d) ** 2
    shift2 = (total - 2) ** 2
    A = 2 * k - 2 + total
    C = 2 * k + total
    c0 = -(k * (k - 1 + total))
    c1 = Fraction(1, 2) + (g - d) * (total - 2) / (2 * A * C)
    num = (
        QQi(Fraction(-1, 8))
        + Fraction(3, 4) * ((g - 1) ** 2 + (d - 1) ** 2) / (A * C)
        - Fraction(5, 8) * diff2 * shift2 / (A * C) ** 2
        - Fraction(3, 2) * diff2 * shift2 / (A * C) ** 3
    )
    c2 = num / ((2 * k - 3 + total) * (2 * k + 1 + total))
    return PerturbativeExpansion(k=k, order=2, c0=QQi(c0), c1=QQi(c1),
                                 c2=QQi(c2), m=None)


def perturbative_seeds(spec: RecurrenceSpec, m: int) -> list:
    """Zero estimates for all m+1 zeros of c_{m+1}, for seeding a solver
    and labelling its zeros.

    Interior indices get second order; the two edge indices k = m-1, m
    get first order, since second order does not exist there.  Rows
    0..m are looked up once, not once per formula term.
    """
    _check(spec, 0, m)
    row = [recurrence_row(spec, j) for j in range(m + 1)].__getitem__
    seeds = []
    for k in range(m + 1):
        order = _highest_order(k, m)
        seeds.append(PerturbativeExpansion(
            k, order, *_expansion(row, k, m, order))(spec.s))
    return seeds
