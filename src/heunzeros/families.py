"""Equation families and their three-term recurrence data.

Every family here is a second-order equation with regular singular points
at z = 0 and z = 1 whose holomorphic local solution at 0, normalized to
y(0) = 1, has Taylor coefficients c_m(B) that are polynomials in the
accessory parameter B.  The c_m satisfy one unified three-term recurrence

    (m+1)(m+gamma) c_{m+1} = (B + D_m + s E_m) c_m - s F_m c_{m-1}

with c_{-1} = 0, c_0 = 1, and only the coefficient laws D_m, E_m, F_m
distinguish the families:

    full family:     D_m = m(m-1+gamma+delta)   E_m = m(m-1+gamma+epsilon)
                     F_m = (m-1+alpha)(m-1+beta)
    singly confluent:           same D_m        E_m = m      F_m = m-1+alpha
    reduced confluent:          same D_m        E_m = 0      F_m = 1

epsilon is never free: alpha + beta + 1 = gamma + delta + epsilon.

The classical named equations (Lame, Mathieu, Whittaker-Hill) are carried
as parameter dataclasses plus conversion maps into the generic specs; each
map returns (spec, B or None), B given by the equation's optional classical
accessory constant (Lame eta, Mathieu a, Whittaker-Hill A0).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .scalars import QQi, exact_value, scalar_from_json, scalar_to_json

HALF = Fraction(1, 2)


class InvalidSpecError(ValueError):
    """Parameters outside a family's domain of definition."""


class FamilyKind(enum.Enum):
    HEUN = "Heun"
    CONFLUENT = "ConfluentHeun"
    REDUCED = "ReducedConfluentHeun"


def _normalize(x):
    """Every parameter becomes a QQi: a float, complex, mpf or mpc as its
    exact binary value (`scalars.exact_value`), so that everything formed
    from it is exact."""
    return None if x is None else exact_value(x)


def _nonpositive_integer(x: QQi) -> bool:
    n = x.as_integer()
    return n is not None and n <= 0


@dataclass(frozen=True)
class RecurrenceSpec:
    """One member of one family, with s fixed (B stays free); every
    parameter is a QQi."""

    kind: FamilyKind
    gamma: object
    delta: object
    s: object
    alpha: object = None
    beta: object = None

    def __post_init__(self):
        for name in ("gamma", "delta", "s", "alpha", "beta"):
            object.__setattr__(self, name, _normalize(getattr(self, name)))
        if self.kind == FamilyKind.HEUN:
            if self.alpha is None or self.beta is None:
                raise InvalidSpecError("full family needs alpha and beta")
        elif self.kind == FamilyKind.CONFLUENT:
            if self.alpha is None:
                raise InvalidSpecError("confluent family needs alpha")
            if self.beta is not None:
                raise InvalidSpecError("confluent family takes no beta")
        else:
            if self.alpha is not None or self.beta is not None:
                raise InvalidSpecError("reduced family takes no alpha/beta")
        if _nonpositive_integer(self.gamma):
            raise InvalidSpecError(
                "gamma must not be a nonpositive integer: the recurrence "
                "divides by (m+1)(m+gamma)"
            )
        # the hash of the fields, taken once: the cached recurrence rows
        # (`perturbation.recurrence_row`) look a spec up on every row
        object.__setattr__(self, "_hash", hash((
            self.kind, self.gamma, self.delta, self.s, self.alpha,
            self.beta)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt on unpickling, so the hash is taken in the process
        # that loads it: str and None hash differently in another one
        return RecurrenceSpec, (self.kind, self.gamma, self.delta, self.s,
                                self.alpha, self.beta)

    # -- structure ---------------------------------------------------------

    @property
    def epsilon(self):
        """Derived third local exponent parameter (full family only)."""
        if self.kind != FamilyKind.HEUN:
            raise InvalidSpecError("epsilon is defined for the full family")
        return self.alpha + self.beta + 1 - self.gamma - self.delta

    @property
    def is_d_degenerate(self) -> bool:
        """True iff some D_j coincide, i.e. gamma+delta in {0,-1,-2,...}.

        D_j = D_k with j != k forces j+k-1 = -(gamma+delta); both sides
        integers, and j+k-1 >= 0 fails only when gamma+delta <= 0.
        """
        return _nonpositive_integer(self.gamma + self.delta)

    def with_s(self, s) -> "RecurrenceSpec":
        return RecurrenceSpec(self.kind, self.gamma, self.delta, s,
                              self.alpha, self.beta)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        out = {"kind": self.kind.value, "field": "exact"}
        for name in ("gamma", "delta", "s", "alpha", "beta"):
            v = getattr(self, name)
            if v is not None:
                out[name] = scalar_to_json(v)
        return out

    @staticmethod
    def from_json(obj: dict) -> "RecurrenceSpec":
        vals = {
            name: scalar_from_json(obj[name])
            for name in ("gamma", "delta", "s", "alpha", "beta")
            if name in obj
        }
        return RecurrenceSpec(kind=FamilyKind(obj["kind"]), **vals)


def recurrence_coeffs(spec: RecurrenceSpec, m: int):
    """The triple (D_m, E_m, F_m) of the unified recurrence.

    D_m multiplies c_m together with B (s-free part), E_m is the s-linear
    companion of D_m, F_m weighs the lagged term c_{m-1}.
    """
    if m < 0:
        raise InvalidSpecError("recurrence index must be nonnegative")
    gd = spec.gamma + spec.delta
    D = (m - 1 + gd) * m
    if spec.kind == FamilyKind.HEUN:
        E = (m - 1 + spec.gamma + spec.epsilon) * m
        F = (spec.alpha + (m - 1)) * (spec.beta + (m - 1))
    elif spec.kind == FamilyKind.CONFLUENT:
        E = QQi(m)
        F = spec.alpha + (m - 1)
    else:
        E, F = QQi(0), QQi(1)
    return D, E, F


# -- named equations ---------------------------------------------------------

@dataclass(frozen=True)
class LameParams:
    """Lame equation in its algebraic form; eta is the classical
    accessory constant, related to B by B = -eta*s/4."""

    n: object
    s: object
    eta: object = None


def from_lame(p: LameParams):
    """Lame -> full family: gamma = delta = 1/2, alpha = (n+1)/2,
    beta = -n/2 (whence epsilon = 1/2), accessory parameter
    B = -eta*s/4 (None when eta is not given).  Inputs are read as
    QQi, as spec parameters are, so B is exact too."""
    n = _normalize(p.n)
    s = _normalize(p.s)
    if p.eta is not None and not s:
        raise InvalidSpecError("Lame with eta supplied needs s != 0")
    spec = RecurrenceSpec(
        kind=FamilyKind.HEUN,
        gamma=HALF, delta=HALF,
        alpha=(n + 1) / 2, beta=-n / 2,
        s=s,
    )
    b = None if p.eta is None else -(_normalize(p.eta) * s) / 4
    return spec, b


@dataclass(frozen=True)
class MathieuParams:
    """Mathieu equation, algebraic form: a is the classical
    characteristic value, q the strength of the cos term."""

    q: object
    a: object = None


def from_mathieu(p: MathieuParams):
    """Mathieu -> reduced confluent family: gamma = delta = 1/2, s = q,
    accessory parameter B = q/2 - a/4 (None when a is not given).
    Inputs are read as QQi, as spec parameters are, so B is exact
    too."""
    q = _normalize(p.q)
    spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma=HALF, delta=HALF, s=q)
    b = None if p.a is None else q / 2 - _normalize(p.a) / 4
    return spec, b


@dataclass(frozen=True, kw_only=True)
class WhittakerHillParams:
    """Whittaker-Hill equation with potential A0 + A1 cos 2x + A2 cos 4x,
    where the reduction forces A2 = h^2/2.  A0 fixes only the accessory
    parameter, so it may be left out; the fields are keyword-only."""

    A0: object = None
    A1: object
    h: object

    @property
    def a2(self):
        h = _normalize(self.h)
        return h * h / 2


def from_whittaker_hill(p: WhittakerHillParams):
    """Whittaker-Hill -> confluent family: gamma = delta = 1/2,
    s = -2h, alpha = 1/2 + A1/(4h), accessory parameter
    B = -(2 A0 + 2 A1 + 4h + h^2)/8 (None when A0 is not given).
    Inputs are read as QQi, as spec parameters are, so B is exact
    too."""
    h = _normalize(p.h)
    if not h:
        raise InvalidSpecError("Whittaker-Hill reduction needs h != 0")
    a1 = _normalize(p.A1)
    spec = RecurrenceSpec(
        kind=FamilyKind.CONFLUENT,
        gamma=HALF, delta=HALF,
        alpha=a1 / (4 * h) + HALF,
        s=-2 * h,
    )
    b = None if p.A0 is None else \
        -(2 * _normalize(p.A0) + 2 * a1 + 4 * h + h * h) / 8
    return spec, b
