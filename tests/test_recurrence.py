"""Recurrence builds: exact values, structure laws, serialization.

The symbolic cross-check here writes the defining equations in factored
form, expands the series ansatz with sympy, and solves the linear
system of undetermined coefficients.  That route shares neither code
nor algebraic shape with the production recurrence.
"""

from fractions import Fraction

import mpmath as mp
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from heunzeros.families import (
    FamilyKind,
    LameParams,
    RecurrenceSpec,
    from_lame,
    recurrence_coeffs,
)
from heunzeros import tracking
from heunzeros.perturbation import recurrence_row
from heunzeros.recurrence import (
    DensePolynomial,
    PolynomialFamily,
    build_family,
    eval_s_polynomial,
    eval_sequence,
    family_in_s,
    leading_coefficient_law,
)
from heunzeros.scalars import QQi, to_mpc, working_precision
from heunzeros.tracking import continuant


def _sym(q):
    q = QQi.coerce(q) if not isinstance(q, QQi) else q
    re = sp.Rational(q.re.numerator, q.re.denominator)
    im = sp.Rational(q.im.numerator, q.im.denominator)
    return re + sp.I * im


def sympy_series_polys(spec, m_max, b_of_s=None):
    """c_0..c_{m_max} as sympy polynomials in B, straight from the
    factored differential equation by undetermined coefficients; given
    the coefficients b_of_s of B as a polynomial in s, as polynomials in
    a symbolic s with B = b_of_s(s) substituted instead.  Returns the
    polynomials and their variable."""
    z, B = sp.symbols("z B")
    g, d = _sym(spec.gamma), _sym(spec.delta)
    if b_of_s is None:
        s, var = _sym(spec.s), B
    else:
        s = var = sp.Symbol("s")
        B = sum(_sym(c) * s ** k for k, c in enumerate(b_of_s))
    if spec.kind == FamilyKind.HEUN:
        a, bt = _sym(spec.alpha), _sym(spec.beta)
        e = a + bt + 1 - g - d
        p = z * (z - 1) * (1 - s * z)
        q = g * (z - 1) * (1 - s * z) + d * z * (1 - s * z) \
            - s * e * z * (z - 1)
        r = B - s * a * bt * z
    elif spec.kind == FamilyKind.CONFLUENT:
        a = _sym(spec.alpha)
        p = z * (z - 1)
        q = -s * z * (z - 1) + g * (z - 1) + d * z
        r = B - s * a * z
    else:
        p = z * (z - 1)
        q = g * (z - 1) + d * z
        r = B - s * z
    cs = [sp.Integer(1)] + [None] * m_max
    unknowns = sp.symbols(f"c1:{m_max + 1}")
    y = 1 + sum(unknowns[j] * z ** (j + 1) for j in range(m_max))
    lhs = sp.expand(p * sp.diff(y, z, 2) + q * sp.diff(y, z) + r * y)
    poly = sp.Poly(lhs, z)
    solved = {}
    for j in range(m_max):
        eq = poly.coeff_monomial(z ** j).subs(solved)
        sol = sp.solve(sp.Eq(eq, 0), unknowns[j])
        assert len(sol) == 1
        solved[unknowns[j]] = sp.expand(sol[0])
        cs[j + 1] = sp.expand(solved[unknowns[j]])
    return cs, var


def _qqi_to_sym(c):
    return _sym(c)


class TestSymbolicCrossCheck:
    def test_matches_undetermined_coefficients(self, heun_spec,
                                               confluent_spec, reduced_spec,
                                               generic_specs):
        for spec in [heun_spec, confluent_spec, reduced_spec,
                     generic_specs[0]]:
            m_max = 5
            fam = build_family(spec, m_max)
            sym_cs, B = sympy_series_polys(spec, m_max)
            for m in range(m_max + 1):
                ours = fam[m]
                theirs = sp.Poly(sym_cs[m], B)
                for k, coeff in enumerate(ours.coeffs):
                    assert sp.simplify(
                        theirs.coeff_monomial(B ** k) - _qqi_to_sym(coeff)
                    ) == 0, (spec.kind, m, k)


class TestExactValues:
    def test_lame_c4_display(self):
        from heunzeros.families import LameParams, from_lame

        spec, _ = from_lame(LameParams(n=2, s="1/100"))
        fam = build_family(spec, 4)
        expected = [
            QQi(Fraction(121537, 70000000)),
            QQi(Fraction(6154031, 26250000)),
            QQi(Fraction(497299, 1575000)),
            QQi(Fraction(101, 1125)),
            QQi(Fraction(2, 315)),
        ]
        assert list(fam[4].coeffs) == expected

    def test_leading_coefficient_law(self, generic_specs):
        for spec in generic_specs:
            fam = build_family(spec, 10)
            for m in range(11):
                assert fam[m].leading_coefficient == \
                    leading_coefficient_law(spec, m)

    def test_s0_factorization(self, generic_specs):
        # at s = 0 the polynomial is the leading constant times the
        # product of (B + D_j), checked by full polynomial identity
        for spec in generic_specs:
            frozen = spec.with_s(0)
            m = 6
            fam = build_family(frozen, m)
            lead = leading_coefficient_law(frozen, m)
            pts = [QQi(Fraction(i, 7)) for i in range(m + 2)]
            for b in pts:
                prod = QQi(1)
                for j in range(m):
                    prod = prod * (b + recurrence_coeffs(frozen, j)[0])
                assert fam[m](b) == lead * prod


class TestEvalSequence:
    def test_exact_matches_polynomials(self, reduced_spec):
        fam = build_family(reduced_spec, 12)
        b = QQi(Fraction(-5, 3), Fraction(1, 4))
        seq = eval_sequence(reduced_spec, b, 12)
        for m in range(13):
            assert seq[m] == fam[m](b)

    def test_string_b_counts_as_exact(self, reduced_spec):
        seq = eval_sequence(reduced_spec, "-5/3+1/4i", 4)
        assert isinstance(seq[3], QQi)

    def test_bigfloat_matches_exact(self, heun_spec):
        b = QQi(Fraction(-7, 2))
        exact = eval_sequence(heun_spec, b, 30)
        with working_precision(256):
            approx = eval_sequence(heun_spec, mp.mpf("-3.5"), 30,
                                   precision_bits=256)
            for m in range(31):
                want = complex(exact[m])
                err = abs(approx[m] - mp.mpc(exact[m].re.numerator)
                          / exact[m].re.denominator) if exact[m].is_real \
                    else abs(approx[m] - complex(exact[m]))
                assert err < mp.mpf(2) ** -200 * (1 + abs(approx[m]))


def reference_sequence(spec, B, K, exact):
    """c_0(B)..c_K(B) by the plain loop that fetches (D_m, E_m, F_m) at
    every step."""
    conv = (lambda x: x) if exact else to_mpc
    gamma, s = conv(spec.gamma), conv(spec.s)
    out = [B * 0 + 1]
    prev, cur = None, out[0]
    for m in range(K):
        D, E, F = recurrence_coeffs(spec, m)
        val = (B + conv(D) + s * conv(E)) * cur
        if prev is not None:
            val = val - s * conv(F) * prev
        val = val / ((m + 1) * (m + gamma))
        out.append(val)
        prev, cur = cur, val
    return out


def reference_rows(spec, m_max, exact):
    """Coefficient lists of c_0..c_{m_max} by the same plain loop."""
    conv = (lambda x: x) if exact else to_mpc
    gamma, s = conv(spec.gamma), conv(spec.s)
    rows = [[QQi(1) if exact else mp.mpc(1)]]
    prev, cur = None, rows[0]
    for m in range(m_max):
        D, E, F = recurrence_coeffs(spec, m)
        a = conv(D) + s * conv(E)
        nxt = [a * c for c in cur] + [cur[-1]]
        for i in range(1, len(cur)):
            nxt[i] = nxt[i] + cur[i - 1]
        if prev is not None:
            for i, c in enumerate(prev):
                nxt[i] = nxt[i] - s * conv(F) * c
        q = (m + 1) * (m + gamma)
        nxt = [c / q for c in nxt]
        rows.append(nxt)
        prev, cur = cur, nxt
    return rows


def _bits(x):
    """A scalar as its type and exact content: fractions for QQi, the
    mantissa/exponent tuples for mpc."""
    if isinstance(x, QQi):
        return "QQi", x.re, x.im
    return type(x).__name__, x.real._mpf_, x.imag._mpf_


class TestStepTable:
    """eval_sequence and build_family run the shared list recurrence,
    with a fixed B as a degree-0 list or with B as the variable; each
    must equal its plain loop exactly, bit for bit, across specs,
    inputs and precisions."""

    LAME = from_lame(LameParams(n=2, s="1/2"))[0]
    CHEUN = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                           delta="3/2", alpha="5/2", s="-3/2")
    RCHEUN = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                            delta="1/2", s=2)
    # given as mpf parameters: the same exact spec as RCHEUN
    RCHEUN_MPF = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma=mp.mpf(0.5),
                                delta=mp.mpf(0.5), s=mp.mpf(2))
    # gamma = delta = 1/2 + 3 * 2^-64, as a Fraction and as a 256-bit
    # float: one exact spec, whose 64-bit steps differ from its exact ones
    FINE = RecurrenceSpec(kind=FamilyKind.REDUCED,
                          gamma=QQi(Fraction(2**63 + 3, 2**64)),
                          delta=QQi(Fraction(2**63 + 3, 2**64)), s=2)
    with working_precision(256):
        FINE_MPF = RecurrenceSpec(kind=FamilyKind.REDUCED,
                                  gamma=mp.mpf(2**63 + 3) / 2**64,
                                  delta=mp.mpf(2**63 + 3) / 2**64,
                                  s=mp.mpf(2))
    # the exact values of the doubles 0.5, 1.5, -1 and 0.3: its 64- and
    # 256-bit steps differ
    LAME_DECIMAL = RecurrenceSpec(kind=FamilyKind.HEUN, gamma=mp.mpf(0.5),
                                  delta=mp.mpf(0.5), alpha=mp.mpf(1.5),
                                  beta=mp.mpf(-1), s=mp.mpf("0.3"))

    # (spec, precision or None for exact, K): the order switches specs,
    # precisions and lengths, and puts the same spec given as Fractions
    # and as mpf next to each other, so no state may leak between calls
    CASES = [
        (RCHEUN, None, 20), (RCHEUN_MPF, 64, 20), (RCHEUN, 64, 30),
        (RCHEUN_MPF, 256, 30), (RCHEUN, None, 40), (RCHEUN, None, 10),
        (LAME, None, 25), (LAME, 256, 25), (LAME, 64, 40), (LAME, 256, 12),
        (LAME_DECIMAL, 64, 30), (LAME_DECIMAL, 256, 30),
        (LAME_DECIMAL, 64, 35), (CHEUN, 64, 20), (CHEUN, None, 30),
        (RCHEUN_MPF, 64, 45), (RCHEUN, 256, 15), (CHEUN, 256, 30),
        (FINE, 64, 40), (FINE_MPF, 64, 40), (FINE, 64, 40),
    ]

    def test_eval_sequence_matches_the_plain_loop(self):
        B = QQi(Fraction(-7, 5), Fraction(1, 3))
        for spec, bits, K in self.CASES:
            if bits is None:
                got = eval_sequence(spec, B, K)
                want = reference_sequence(spec, B, K, exact=True)
            else:
                got = eval_sequence(spec, B, K, precision_bits=bits)
                with working_precision(bits):
                    want = reference_sequence(spec, to_mpc(B), K, exact=False)
            assert [_bits(x) for x in got] == [_bits(x) for x in want], \
                (spec, bits, K)

    def test_build_family_matches_the_plain_loop(self):
        # build_family is exact, whatever precision a case names
        for spec, bits, m_max in self.CASES:
            with working_precision(bits or 256):
                fam = build_family(spec, m_max)
            want = reference_rows(spec, m_max, exact=True)
            got = [[_bits(c) for c in p.coeffs] for p in fam.polys]
            assert got == [[_bits(c) for c in r] for r in want], \
                (spec, bits, m_max)


class TestScaledStepTable:
    """The d2 tail's rows, the continuant's (A_k, N_k) and the
    normaliser's (k+gamma)(k+delta-1), are summed from forward
    differences at k = 0..4, which is exact only while the coefficient
    laws keep their degrees in k."""

    GENERIC = {
        FamilyKind.HEUN: RecurrenceSpec(
            kind=FamilyKind.HEUN, gamma="1/3+1/7i", delta="2/5-1/2i",
            alpha="7/4+1/3i", beta="-5/6", s="3/11-2/9i"),
        FamilyKind.CONFLUENT: RecurrenceSpec(
            kind=FamilyKind.CONFLUENT, gamma="1/3+1/7i", delta="2/5-1/2i",
            alpha="7/4+1/3i", s="3/11-2/9i"),
        FamilyKind.REDUCED: RecurrenceSpec(
            kind=FamilyKind.REDUCED, gamma="1/3+1/7i", delta="2/5-1/2i",
            s="3/11-2/9i"),
    }

    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
    def test_coefficient_laws_keep_their_degrees_in_k(self, kind):
        spec = self.GENERIC[kind]
        rows = continuant(spec, 8)
        norm = [(k + spec.gamma) * (k + spec.delta - 1) for k in range(8)]

        def difference(v, order):
            v = list(v)
            for _ in range(order):
                v = [b - a for a, b in zip(v, v[1:])]
            return v

        for v, order in ((rows.A, 3), (rows.N, 5), (norm, 3)):
            assert all(isinstance(x, QQi) and x == 0
                       for x in difference(v, order))

    with working_precision(256):
        LAME_MPF = RecurrenceSpec(kind=FamilyKind.HEUN, gamma=mp.mpf(0.5),
                                  delta=mp.mpf(0.5), alpha=mp.mpf(1.5),
                                  beta=mp.mpf(-1), s=mp.mpf(1) / 3)

    @pytest.mark.parametrize("spec", [
        RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/2", delta="1/2",
                       alpha="3/2", beta="-1", s="9/10"),
        from_lame(LameParams(n=2, s="1/100"))[0],
        RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2", delta="1/2",
                       s="2i"),
        RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2", delta="1/2",
                       s=0),
        RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/3",
                       delta="2/3+1/5i", alpha="5/2", s="-1/2"),
        LAME_MPF,
    ], ids=["heun", "lame", "mathieu-2i", "reduced-s0", "cheun-complex-delta",
            "mpf-spec"])
    @pytest.mark.parametrize("F", [96, 288])
    def test_rows_match_a_per_k_build(self, spec, F):
        # the rows of continuant(spec, K), each built at k itself
        K = 12800
        rows = tracking._d2_row_table(spec, K, F)
        assert len(rows) == K
        ks = list(range(40)) + list(range(40, K, 797)) + list(range(K - 5, K))
        with working_precision(F + 64):
            tol = mp.mpf(2) ** (8 - F)
            for k in ks:
                D, E, G = recurrence_row(spec, k)
                row = rows[k]
                for j, w in enumerate((D + spec.s * E, spec.s * G)):
                    w = to_mpc(w)
                    got = mp.mpc(mp.ldexp(row[2 * j], -F),
                                 mp.ldexp(row[2 * j + 1], -F))
                    assert abs(got - w) <= tol * max(1, abs(w)), (k, j)


class TestSPolynomials:
    def test_agrees_with_fixed_s_build(self, generic_specs):
        for spec in generic_specs:
            m = 4
            b = QQi(Fraction(-3, 2))
            pol = eval_s_polynomial(spec, b, m)
            for s0 in (QQi(0), QQi(Fraction(1, 3)), QQi(-2, 1)):
                fixed = build_family(spec.with_s(s0), m + 1)
                assert pol(s0) == fixed[m + 1](b)

    def test_family_in_s_matches_undetermined_coefficients(
            self, heun_spec, confluent_spec, reduced_spec, generic_specs):
        b_of_s = [QQi(Fraction(-3, 2)), QQi(Fraction(2, 5), 1),
                  QQi(Fraction(-1, 7))]
        for spec in [heun_spec, confluent_spec, reduced_spec,
                     generic_specs[0]]:
            m_max = 4
            rows = family_in_s(spec, b_of_s, m_max)
            sym_cs, s = sympy_series_polys(spec, m_max, b_of_s)
            for m in range(m_max + 1):
                theirs = sp.Poly(sym_cs[m], s)
                assert len(rows[m]) == theirs.degree() + 1, (spec.kind, m)
                for k, coeff in enumerate(rows[m]):
                    assert sp.simplify(
                        theirs.coeff_monomial(s ** k) - _sym(coeff)
                    ) == 0, (spec.kind, m, k)

    def test_family_in_s_consistency(self, reduced_spec):
        b_of_s = [QQi(Fraction(-1, 2)), QQi(Fraction(2, 5))]   # B(s) line
        rows = family_in_s(reduced_spec, b_of_s, 3)
        s0 = QQi(Fraction(1, 6))
        b0 = b_of_s[0] + b_of_s[1] * s0
        fixed = build_family(reduced_spec.with_s(s0), 3)
        for m in range(4):
            val = QQi(0)
            for c in reversed(rows[m]):
                val = val * s0 + c
            assert val == fixed[m](b0)


class TestSerialization:
    def test_exact_family_round_trip(self, generic_specs):
        fam = build_family(generic_specs[0], 6)
        again = PolynomialFamily.loads(fam.dumps())
        assert again.spec == fam.spec
        for m in range(7):
            assert again[m].coeffs == fam[m].coeffs

    def test_bigfloat_family_round_trip_bit_exact(self, reduced_spec):
        # s given as a 200-bit mpc: the family is exact and comes back
        # with the exact values of s and of every coefficient
        with working_precision(200):
            s = mp.mpc("0.31", "-1.7")
        fam = build_family(reduced_spec.with_s(s), 5)
        text = fam.dumps()
        assert '"field": {"kind": "exact"}' in text
        again = PolynomialFamily.loads(text)
        with working_precision(200):
            assert to_mpc(again.spec.s)._mpc_ == s._mpc_
        for m in range(6):
            assert again[m].coeffs == fam[m].coeffs


class TestDensePolynomial:
    small_rationals = st.fractions(min_value=-20, max_value=20,
                                   max_denominator=12)

    @given(st.lists(small_rationals, min_size=1, max_size=7),
           small_rationals)
    def test_horner_matches_naive(self, coeffs, x):
        poly = DensePolynomial(coeffs=tuple(QQi(c) for c in coeffs))
        xq = QQi(x)
        naive = QQi(0)
        for k, c in enumerate(coeffs):
            naive = naive + QQi(c) * xq ** k
        assert poly(xq) == naive

    @given(st.lists(small_rationals, min_size=2, max_size=7))
    def test_derivative_reduces_degree(self, coeffs):
        poly = DensePolynomial(coeffs=tuple(QQi(c) for c in coeffs))
        dpoly = poly.derivative()
        assert len(dpoly.coeffs) == max(len(coeffs) - 1, 1)
        for k, c in enumerate(dpoly.coeffs):
            assert c == QQi((k + 1) * coeffs[k + 1])

    def test_build_family_rejects_negative_m(self, reduced_spec):
        from heunzeros.families import InvalidSpecError

        with pytest.raises((InvalidSpecError, ValueError)):
            build_family(reduced_spec, -1)
