"""Pinned output bits of the fixed-point kernel's callers.

Each case reduces one result to the exact rational values of its
numbers and compares the sha256 of that text with a stored digest, so
any change to the kernel, the d2 row sums or the Newton polish that
moves a single output bit fails here.  A change meant to move bits
regenerates the digests with

    PYTHONPATH=src python tests/test_bit_pins.py

and says in its description why the numbers moved.
"""

import hashlib
from fractions import Fraction as F

import pytest

from heunzeros.families import (
    FamilyKind,
    LameParams,
    MathieuParams,
    RecurrenceSpec,
    from_lame,
    from_mathieu,
)
from heunzeros.scalars import QQi, exact_value
from heunzeros.tracking import d2_sequence, solve_zeros


def _exact(x) -> str:
    """The exact value of an mpf or mpc as 're|im', two fractions."""
    v = exact_value(x)
    return f"{v.re}|{v.im}"


def _d2(spec, B, K):
    est = d2_sequence(spec, B, K)
    return [est.K] + [_exact(x) for x in (est.estimate, est.tail,
                                          est.error_indicator)]


def _zeros(spec, m):
    zs = solve_zeros(spec, m)
    return ([zs.seed_bits] + [_exact(z) for z in zs.zeros]
            + [_exact(r) for r in zs.residuals] + list(zs.labels))


CASES = {
    "d2-lame-1/100": lambda: _d2(from_lame(LameParams(n=2, s="1/100"))[0],
                                 QQi(F(-31, 10)), 400),
    "d2-mathieu-2i": lambda: _d2(from_mathieu(MathieuParams(q="2i"))[0],
                                 QQi(F(-31, 10), F(1, 4)), 400),
    "d2-heun-9/10": lambda: _d2(
        RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/2", delta="1/2",
                       s="9/10", alpha="3/2", beta=-1),
        QQi(F(-23, 10)), 1600),
    "zeros-lame-1/2-m30": lambda: _zeros(
        from_lame(LameParams(n=2, s="1/2"))[0], 30),
    "zeros-whill-m50": lambda: _zeros(
        RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2", delta="1/2",
                       s=-20, alpha=5), 50),
}

PINS = {
    "d2-lame-1/100":
        "f9a65b5c05c4753e89b5e50b07ec3daf6f1723b84a97cb96b1c1c8a0c27a6d4b",
    "d2-mathieu-2i":
        "60fa6275f1db488b2d327b5757e74ba787724a78e0a085989d60d9f34b09cf96",
    "d2-heun-9/10":
        "a29c804383e71951a76e1dd62742234661974de0b0b82d4ff2da0213cd640143",
    "zeros-lame-1/2-m30":
        "fc8515974513c2188d4dd6f13fd18dd7aed0fd6069be47d31f7432a3e396ece0",
    "zeros-whill-m50":
        "a05c08a14c9216c7bd0e0fcc807c32977cd346f71c77a0efc6ba3943846449dd",
}


def digest(case: str) -> str:
    text = "\n".join(str(x) for x in CASES[case]())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bits_are_pinned(case):
    assert digest(case) == PINS[case]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}":\n        "{digest(case)}",')
