"""Family specs, parameter validation, and the named reductions."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heunzeros.families import (
    FamilyKind,
    _normalize,
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
from heunzeros.scalars import QQi, exact_value, working_precision


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
        spec, b = from_lame(LameParams(n=2, s="1/100"))
        assert b is None
        assert spec.kind == FamilyKind.HEUN
        assert spec.gamma == QQi(Fraction(1, 2))
        assert spec.delta == QQi(Fraction(1, 2))
        assert spec.epsilon == QQi(Fraction(1, 2))
        assert spec.alpha == QQi(Fraction(3, 2))
        assert spec.beta == QQi(-1)

    def test_eta_b_round_trip(self):
        _, b = from_lame(LameParams(n=3, s="1/2", eta=QQi(8)))
        assert b == QQi(-1)                          # -eta*s/4 = -8/8

    def test_eta_map_rejects_s_zero(self):
        with pytest.raises(InvalidSpecError):
            from_lame(LameParams(n=3, s=QQi(0), eta=QQi(1)))


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

    def test_a0_fixes_only_b(self):
        with_a0 = from_whittaker_hill(WhittakerHillParams(A0=1, A1=2, h=4))
        without = from_whittaker_hill(WhittakerHillParams(A1=2, h=4))
        assert with_a0[0] == without[0]
        assert with_a0[1] == QQi(Fraction(-19, 4))   # -(2+4+16+16)/8
        assert without[1] is None

    def test_positional_fields_are_refused(self):
        # a positional A0 must not shift into A1 now that A0 is optional
        with pytest.raises(TypeError):
            WhittakerHillParams(1, 2, 4)


class TestSpecPlumbing:
    def test_an_unpickled_spec_hashes_as_a_new_one_in_its_process(self):
        # a spec's hash is taken once; str and None hash differently in a
        # process with another hash seed, where the spec is rebuilt
        spec = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                              delta="1/2", s="-1/100", alpha=5)
        code = (
            "import pickle, sys\n"
            "from heunzeros.families import FamilyKind, RecurrenceSpec\n"
            "spec = pickle.loads(sys.stdin.buffer.read())\n"
            "new = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma='1/2',"
            " delta='1/2', s='-1/100', alpha=5)\n"
            "print(spec == new, {new: 1}.get(spec))\n")
        for seed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", code], input=pickle.dumps(spec),
                capture_output=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed})
            assert out.stdout.split() == [b"True", b"1"]

    def test_with_s(self, reduced_spec):
        moved = reduced_spec.with_s("1/7")
        assert moved.s == QQi(Fraction(1, 7))
        assert moved.kind == reduced_spec.kind

    def test_json_round_trip_exact(self, generic_specs):
        for spec in generic_specs:
            again = RecurrenceSpec.from_json(spec.to_json())
            assert again == spec

    def test_json_round_trip_bigfloat(self):
        # a big-float parameter is held, and written, as its exact value
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="1/2", s=mp.mpc(0, 2))
        doc = spec.to_json()
        assert doc["field"] == "exact" and doc["s"] == ["0", "2"]
        assert RecurrenceSpec.from_json(doc) == spec

    def test_json_round_trip_keeps_exact_parameters_of_a_mixed_spec(self):
        # exact gamma beside a 512-bit s: both come back exact, s with
        # every bit of the float it was given as
        with working_precision(512):
            s = mp.mpf(1) / 3
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/3",
                              delta="1/2", s=s)
        again = RecurrenceSpec.from_json(spec.to_json())
        assert isinstance(again.gamma, QQi)
        assert again.gamma == QQi(Fraction(1, 3))
        assert again.delta == QQi(Fraction(1, 2))
        assert again.s == exact_value(s)
        assert again.s.re.denominator.bit_length() > 512

    @pytest.mark.parametrize("pair", [["0x1p-1", "0x0p+0"],
                                      ["0x0p+0", "-0x3p+2"]])
    def test_json_refuses_a_hex_pair(self, pair):
        doc = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                             delta="1/2", s=2).to_json()
        doc["s"] = pair
        with pytest.raises(ValueError):
            RecurrenceSpec.from_json(doc)

    def test_float_parameters_build_at_the_working_precision(self):
        # a Python float stands for its exact binary value; the family
        # built from it is the exact build of those values, whatever the
        # working precision
        floats = dict(gamma=0.5, delta=0.5, alpha=0.1, beta=-1.0, s=0.3)
        exact = RecurrenceSpec(kind=FamilyKind.HEUN, **{
            name: Fraction(x) for name, x in floats.items()})
        want = build_family(exact, 30)[30].coeffs
        for bits in (2, 256):
            with working_precision(bits):
                inexact = RecurrenceSpec(kind=FamilyKind.HEUN, **floats)
                assert inexact == exact
                assert build_family(inexact, 30)[30].coeffs == want

    def test_is_exact(self, reduced_spec):
        # every parameter is a QQi, whatever it was given as
        for s in (0.5 + 0j, mp.mpf(0.5), mp.mpc(0.5, 0), Fraction(1, 2),
                  "1/2", QQi(Fraction(1, 2))):
            spec = reduced_spec.with_s(s)
            assert all(isinstance(getattr(spec, name), QQi)
                       for name in ("gamma", "delta", "s"))
            assert spec.s == QQi(Fraction(1, 2))

    def test_one_value_is_one_spec(self):
        # 0.1 as a float, an mpf and a Fraction: one spec, one hash
        specs = [RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                                delta="1/2", s=s)
                 for s in (0.1, mp.mpf(0.1), Fraction(0.1))]
        assert specs[0] == specs[1] == specs[2]
        assert len({hash(spec) for spec in specs}) == 1

    def test_a_tiny_big_float_is_refused(self):
        # its exact value would have a denominator of 415 MB
        with pytest.raises(ValueError, match="nonzero magnitude below"):
            _normalize(mp.mpf("1e-1000000000"))
        with pytest.raises((InvalidSpecError, ValueError)):
            RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                           delta="1/2", s=mp.mpf("1e-1000000000"))
