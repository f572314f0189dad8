"""Family specs, parameter validation, and the named reductions."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heunzeros.families import (
    EtaBMap,
    FamilyKind,
    InvalidSpecError,
    LameParams,
    MathieuParams,
    RecurrenceSpec,
    WhittakerHillParams,
    from_lame,
    from_mathieu,
    from_whittaker_hill,
    recurrence_coeffs,
)
from heunzeros.recurrence import build_family
from heunzeros.scalars import QQi, to_mpc, working_precision


class TestValidation:
    def test_heun_needs_both_exponent_parameters(self):
        with pytest.raises(InvalidSpecError):
            RecurrenceSpec(kind=FamilyKind.HEUN, gamma=1, delta=1, s=1,
                           alpha=1)

    def test_confluent_rejects_beta(self):
        with pytest.raises(InvalidSpecError):
            RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma=1, delta=1,
                           s=1, alpha=1, beta=2)

    def test_reduced_takes_no_exponent_parameters(self):
        with pytest.raises(InvalidSpecError):
            RecurrenceSpec(kind=FamilyKind.REDUCED, gamma=1, delta=1, s=1,
                           alpha=1)

    @pytest.mark.parametrize("gamma", [0, -1, -7, "0", "-3"])
    def test_nonpositive_integer_gamma_rejected(self, gamma):
        with pytest.raises(InvalidSpecError):
            RecurrenceSpec(kind=FamilyKind.REDUCED, gamma=gamma,
                           delta="1/2", s=1)

    def test_degenerate_grid_flag(self):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="-1/2", s=1)
        assert spec.is_d_degenerate
        ok = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                            delta="1/2", s=1)
        assert not ok.is_d_degenerate


class TestRecurrenceCoefficients:
    def test_heun_epsilon_is_derived(self, heun_spec):
        eps = heun_spec.epsilon
        assert eps == QQi(Fraction(1, 2))           # 3/2 - 1 + 1 - 1/2 - 1/2

    def test_lame_n2_row(self):
        spec, _ = from_lame(LameParams(n=2, s="1/100"))
        D, E, F = recurrence_coeffs(spec, 1)
        assert (D, E, F) == (QQi(1), QQi(1), QQi(Fraction(-3, 2)))

    def test_d_grid_all_families(self, generic_specs):
        for spec in generic_specs:
            g, d = spec.gamma, spec.delta
            for m in range(6):
                D, _, _ = recurrence_coeffs(spec, m)
                assert D == m * (m - 1 + g + d) * QQi(1)

    def test_reduced_has_trivial_e_and_f(self, reduced_spec):
        for m in range(1, 6):
            _, E, F = recurrence_coeffs(reduced_spec, m)
            assert E == QQi(0) and F == QQi(1)

    @given(st.integers(min_value=0, max_value=30))
    def test_confluent_e_is_m(self, m):
        spec = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                              delta="1/2", s=1, alpha=5)
        _, E, F = recurrence_coeffs(spec, m)
        assert E == QQi(m)
        assert F == QQi(m - 1 + 5)


class TestLame:
    def test_map_to_heun(self):
        spec, emap = from_lame(LameParams(n=2, s="1/100"))
        assert spec.kind == FamilyKind.HEUN
        assert spec.gamma == QQi(Fraction(1, 2))
        assert spec.delta == QQi(Fraction(1, 2))
        assert spec.epsilon == QQi(Fraction(1, 2))
        assert spec.alpha == QQi(Fraction(3, 2))
        assert spec.beta == QQi(-1)

    def test_eta_b_round_trip(self):
        _, emap = from_lame(LameParams(n=3, s="1/2"))
        b = emap.b_from_eta(QQi(8))
        assert b == QQi(-1)                          # -eta*s/4 = -8/8

    def test_eta_map_rejects_s_zero(self):
        with pytest.raises(InvalidSpecError):
            EtaBMap(s=QQi(0)).b_from_eta(QQi(1))


class TestMathieu:
    def test_reduction(self):
        spec, b = from_mathieu(MathieuParams(q=2, a=4))
        assert spec.kind == FamilyKind.REDUCED
        assert spec.s == QQi(2)
        assert b == QQi(0)                           # q/2 - a/4 = 1 - 1

    def test_b_absent_without_a(self):
        spec, b = from_mathieu(MathieuParams(q="1/3"))
        assert b is None
        assert spec.gamma == QQi(Fraction(1, 2))


class TestWhittakerHill:
    def test_forward_map_small_h(self):
        params = WhittakerHillParams(A0=0, A1=Fraction(9, 100),
                                     h=Fraction(1, 200))
        spec, b = from_whittaker_hill(params)
        assert spec.kind == FamilyKind.CONFLUENT
        assert spec.s == QQi(Fraction(-1, 100))      # s = -2h
        assert spec.alpha == QQi(5)                  # 1/2 + A1/(4h)
        assert params.a2 == Fraction(1, 80000)       # h^2/2

    def test_h_zero_rejected(self):
        with pytest.raises(InvalidSpecError):
            from_whittaker_hill(WhittakerHillParams(A0=0, A1=1, h=0))


class TestSpecPlumbing:
    def test_with_s(self, reduced_spec):
        moved = reduced_spec.with_s("1/7")
        assert moved.s == QQi(Fraction(1, 7))
        assert moved.kind == reduced_spec.kind

    def test_json_round_trip_exact(self, generic_specs):
        for spec in generic_specs:
            again = RecurrenceSpec.from_json(spec.to_json())
            assert again == spec

    def test_json_round_trip_bigfloat(self):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="1/2", s=mp.mpc(0, 2))
        again = RecurrenceSpec.from_json(spec.to_json())
        assert again.kind == spec.kind
        assert mp.mpc(again.s) == mp.mpc(spec.s)

    def test_json_round_trip_keeps_exact_parameters_of_a_mixed_spec(self):
        # exact gamma beside a 512-bit s: gamma must come back exact, not
        # rounded to a fixed float width
        with working_precision(512):
            s = mp.mpf(1) / 3
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/3",
                              delta="1/2", s=s)
        again = RecurrenceSpec.from_json(spec.to_json())
        assert isinstance(again.gamma, QQi)
        assert again.gamma == QQi(Fraction(1, 3))
        assert again.delta == QQi(Fraction(1, 2))
        assert again.s.real._mpf_ == s._mpf_

    def test_float_parameters_build_at_the_working_precision(self):
        # a Python float stands for its exact binary value; the family
        # built from it must agree with the exact build of those values
        # to the working precision, not to double rounding
        floats = dict(gamma=0.5, delta=0.5, alpha=0.1, beta=-1.0, s=0.3)
        inexact = RecurrenceSpec(kind=FamilyKind.HEUN, **floats)
        exact = RecurrenceSpec(kind=FamilyKind.HEUN, **{
            name: Fraction(x) for name, x in floats.items()})
        got = build_family(inexact, 30, 256)[30].coeffs
        want = build_family(exact, 30)[30].coeffs
        with mp.workprec(256):
            worst = max(abs(to_mpc(g) - to_mpc(w)) / abs(to_mpc(w))
                        for g, w in zip(got, want))
        assert worst < mp.mpf(2) ** -240

    def test_is_exact(self, reduced_spec):
        assert reduced_spec.is_exact
        assert not reduced_spec.with_s(0.5 + 0j).is_exact
