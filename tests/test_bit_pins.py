"""Pinned output bits of the fixed-point kernel's callers and of the
exact routes.

Each case reduces one result to the exact rational values of its
numbers and compares the sha256 of that text with a stored digest, so
any change to the kernel, the d2 row sums or the Newton polish that
moves a single output bit fails here, as does any change to the exact
arithmetic (`scalars.QQi`) that moves a single rational of the
recurrence rows, the perturbative seeds and closed forms, or a built
family, or any label, pairing, matching cost or digit count of the zero
bookkeeping, or any entry of the 53-bit Jacobi matrices that the double
QL of the seed ladder reads.  A change meant to move bits
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
from heunzeros.perturbation import (
    lame_expansion,
    perturbative_seeds,
    reduced_confluent_expansion,
)
from heunzeros import tracking
from heunzeros.recurrence import build_family, eval_sequence, family_in_s
from heunzeros.scalars import QQi, exact_value, scalar_to_json, \
    working_precision
from heunzeros.tracking import (
    continuant,
    convergence_report,
    d2_sequence,
    match_zeros,
    solve_zeros,
    zero_table,
)


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


def _matched(za, zb):
    """match_zeros(za, zb) and the cost matrix its assignment ran on."""
    seen = []
    run = tracking._assignment
    tracking._assignment = lambda cost: seen.append(cost) or run(cost)
    try:
        res = match_zeros(za, zb)
    finally:
        tracking._assignment = run
    return res, seen[0]


def _report(spec):
    # at the report's 256 bits each cost is the correctly rounded
    # distance; at 53 bits a complex difference rounds twice
    with working_precision(256):
        rep = convergence_report(spec, (30, 40))
        za, zb = rep.zero_sets[30], rep.zero_sets[40]
        res, cost = _matched(za, zb)
    return ([list(za.labels), list(zb.labels)]
            + [(i, j, _exact(d)) for i, j, d in res.pairs]
            + [[x.hex() for x in row] for row in cost]
            + [(t.label_k, sorted(t.stabilized.items()))
               for t in rep.tracks])


def _table_labels(spec, ms):
    sets = {m: solve_zeros(spec, m) for m in ms}
    return ([list(sets[m].labels) for m in ms]
            + [(row["k"], [(m, _exact(z)) for m, z in row["zeros"].items()
                           if z is not None])
               for row in zero_table(spec, sets, max(ms))])


def _json(xs) -> list:
    """Each exact scalar of xs as its `scalar_to_json` pair."""
    return [scalar_to_json(x) for x in xs]


def _continuant(spec, m):
    c = continuant(spec, m)
    return [_json(c.A), _json(c.N)]


def _double_matrices(spec, ms):
    """float.hex of both parts of every entry of the 53-bit Jacobi
    matrix (diagonal, off-diagonal) of c_m for each m, as the double QL
    of `solve_zeros` reads it."""
    return [[(x.real.hex(), x.imag.hex()) for x in part]
            for m in ms for part in continuant(spec, m).double_matrix()]


HEUN = RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/3", delta="1/7",
                      s="2/5", alpha="3/2", beta=-1)
HEUN_COMPLEX = HEUN.with_s("2/5+1/3i")
MATHIEU_2I = from_mathieu(MathieuParams(q="2i"))[0]


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
    "report-mathieu-2i-30-40": lambda: _report(MATHIEU_2I),
    "report-lame-1/2-30-40": lambda: _report(
        from_lame(LameParams(n=2, s="1/2"))[0]),
    "table-lame-9/10-m8-12": lambda: _table_labels(
        from_lame(LameParams(n=2, s="9/10"))[0], (8, 12)),
    "seeds-lame-1/2-m39": lambda: _json(perturbative_seeds(
        from_lame(LameParams(n=2, s="1/2"))[0], 39)),
    "seeds-mathieu-2i-m29": lambda: _json(perturbative_seeds(MATHIEU_2I, 29)),
    "seeds-heun-m29": lambda: _json(perturbative_seeds(HEUN, 29)),
    "family-heun-m12": lambda: [_json(p.coeffs) for p in
                                build_family(HEUN_COMPLEX, 12).polys],
    "continuant-heun-m40": lambda: _continuant(HEUN_COMPLEX, 40),
    "doubles-lame-1/100": lambda: _double_matrices(
        from_lame(LameParams(n=2, s="1/100"))[0], (4, 8, 30, 40)),
    "doubles-lame-1/2": lambda: _double_matrices(
        from_lame(LameParams(n=2, s="1/2"))[0], (4, 8, 30, 40)),
    "doubles-mathieu-2": lambda: _double_matrices(
        from_mathieu(MathieuParams(q=2))[0], (8, 30, 40)),
    "doubles-mathieu-2i": lambda: _double_matrices(MATHIEU_2I, (8, 30, 40)),
    "doubles-mathieu-i": lambda: _double_matrices(
        from_mathieu(MathieuParams(q="i"))[0], (8, 30)),
    "doubles-whill--1/100": lambda: _double_matrices(
        RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2", delta="1/2",
                       s="-1/100", alpha=5), (8, 30)),
    "doubles-whill-strong": lambda: _double_matrices(
        RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2", delta="1/2",
                       s=-20, alpha=5), (16, 19, 50, 89, 100)),
    "doubles-heun-complex-m40": lambda: _double_matrices(HEUN_COMPLEX, (40,)),
    "eval-heun-K60": lambda: _json(eval_sequence(
        HEUN, QQi(F(-23, 10), F(1, 4)), 60)),
    "family-in-s-heun-m10": lambda: [_json(row) for row in family_in_s(
        HEUN, [QQi(-1), F(1, 2), QQi(0, F(1, 3))], 10)],
    "lame-expansion-k10": lambda: [
        _json(lame_expansion(n, k).coefficients())
        for n in (2, F(7, 3), QQi(F(1, 2), 1)) for k in range(11)],
    "reduced-confluent-expansion-k10": lambda: [
        _json(reduced_confluent_expansion(g, d, k).coefficients())
        for g, d in ((F(1, 2), F(1, 2)), (F(1, 3), F(1, 7)),
                     (QQi(F(1, 2), F(1, 3)), F(3, 4)))
        for k in range(2, 11)],
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
    "report-mathieu-2i-30-40":
        "a4f8917a70a690dc11c68a949e9910e79d9e1beae541a5fe6fece07176bd5e5b",
    "report-lame-1/2-30-40":
        "9307ed20ff0c1bb64e6de2bf3fe2edd708a81aaa4967dc7165a41cfa0b1f92af",
    "table-lame-9/10-m8-12":
        "20737e5f6a9fe8bde134ecd2fa93c860977a31509e3336a95d46a40a8b5a2914",
    "seeds-lame-1/2-m39":
        "c1f6146782b94e3227dd980e7654d50d9c4eb5ad71d38740bced3ee6c23147cc",
    "seeds-mathieu-2i-m29":
        "b8901010c9ed85fd64da507c01e1a6d17b61ca0cdbf55bfca46f958e1a0576b2",
    "seeds-heun-m29":
        "3990e93643ab31a6c8e5678ccf3dbfba2a7bb18bce7b8a22b5a1713207a5f490",
    "family-heun-m12":
        "2fabc99e9643f2f05d427c91222449378209bf5ed416a605c4877466721036f3",
    "continuant-heun-m40":
        "6bae34cf6e6f3c4d6cd8d4c1aeda1ab71409f6f4a9b805648253adaaa98c634b",
    "doubles-lame-1/100":
        "f59516011d922d01274bf416d21cf3498a8f18873ee3eef156a9960c4397169f",
    "doubles-lame-1/2":
        "f00551f2494ee1b57dc9a5115417c43efa8bca63ad2f85b27bec371520759c87",
    "doubles-mathieu-2":
        "2b33dfe0b3ce53d274a05fd2d8300732655cbf057a9018a19f5d5196373d92d4",
    "doubles-mathieu-2i":
        "09cb9b6f618022c8e6c82832d8adb85e9f7fcbcbec4507c3b274a88be810e54c",
    "doubles-mathieu-i":
        "615cfa44d4916f1047975d28ea2eff0d2c14008e0e9d01285e2f90cd8f3004a0",
    "doubles-whill--1/100":
        "6ec0d6b3ec02bb96259c39c54cb29c01576ad3272050286d751b718bbb7e0006",
    "doubles-whill-strong":
        "b0a4af4a1a6a3de8f592d3af555cab9b7ddc350477bf9f7eee15e2961cb77540",
    "doubles-heun-complex-m40":
        "8bebab26a30e347b2c9763d59013c8075617d854b6719091cddecba40eabc6a9",
    "eval-heun-K60":
        "5137aa9d74244fc2ff0eb825998262d50847d59bd7e953216c5f948fe5689085",
    "family-in-s-heun-m10":
        "3fa605eeb3ade58bd2723b25a5b4959a0ef798c534c1183b635a2536b52c1c60",
    "lame-expansion-k10":
        "57aae216964522e36b353b447be702a6f348480b44dbc82274c6f6c995557ac9",
    "reduced-confluent-expansion-k10":
        "790e39484f8598e36febce08f06992e27674dd9e6b2f1dd1626d1f45b81f3730",
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
