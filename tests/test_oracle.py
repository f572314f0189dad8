"""Cross-checks of the production series against an independent ODE route.

Everything here leans on the generic Frobenius stepper in oracle.py,
which shares no code with the production recurrence; agreement between
the two is the point of the tests.
"""

from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heunzeros.families import (
    FamilyKind,
    InvalidSpecError,
    LameParams,
    MathieuParams,
    RecurrenceSpec,
    from_lame,
    from_mathieu,
)
from heunzeros import oracle
from heunzeros.oracle import (
    MidpointMatch,
    ResonantExponentError,
    d2_by_midpoint_matching,
    family_ode_polys,
    local_solutions_at_1,
    ode_residual,
    series_solution,
    z1_swapped_spec,
)
from heunzeros.recurrence import eval_sequence
from heunzeros.scalars import (
    QQi,
    _from_fixed,
    exact_value,
    to_mpc,
    working_precision,
)
from heunzeros.tracking import d2_closed_form_s0, d2_sequence


class TestFamilyOdePolys:
    def test_reduced_polys_exact(self, reduced_spec):
        p, q, r = family_ode_polys(reduced_spec, QQi("-7/3"))
        assert p == [QQi(0), QQi(-1), QQi(1)]
        assert q == [QQi("-1/2"), QQi(1)]
        assert r == [QQi("-7/3"), QQi(-2)]
        assert all(isinstance(c, QQi) for c in p + q + r)

    def test_inexact_b_gives_exact_polys(self, reduced_spec):
        # a big-float B is read as its exact value: it is r[0], and p and
        # q do not depend on it
        with working_precision(128):
            b = mp.mpf(1) / 3
            p, q, r = family_ode_polys(reduced_spec, b)
        assert all(isinstance(c, QQi) for c in p + q + r)
        assert r == [exact_value(b), QQi(-2)]
        assert (p, q) == family_ode_polys(reduced_spec, QQi("-7/3"))[:2]


class TestSeriesSolution:
    def test_kummer_polynomial_case(self):
        # z y'' + (1 - z) y' + 3 y = 0 has the degree-3 polynomial
        # solution 1 - 3z + (3/2)z^2 - (1/6)z^3; coefficients by hand
        # from a_{n+1} = a_n (n - 3) / (n + 1)^2
        sol = series_solution([0, 1], [1, -1], [3], 0, N=8)
        assert sol.coeffs[:4] == (QQi(1), QQi(-3), QQi("3/2"), QQi("-1/6"))
        assert all(c == 0 for c in sol.coeffs[4:])

    @pytest.mark.parametrize("which", ["heun", "confluent", "reduced"])
    def test_matches_production_recurrence_exactly(self, which, heun_spec,
                                                   confluent_spec,
                                                   reduced_spec):
        spec = {"heun": heun_spec, "confluent": confluent_spec,
                "reduced": reduced_spec}[which]
        b = QQi("-7/3")
        p, q, r = family_ode_polys(spec, b)
        sol = series_solution(p, q, r, 0, N=12)
        prod = eval_sequence(spec, b, 12)
        assert list(sol.coeffs) == list(prod)

    def test_derivative_consistent_with_value(self, reduced_spec):
        with working_precision(256):
            u0, u1 = local_solutions_at_1(reduced_spec, mp.mpf("0.3"), N=30)
            for sol in (u0, u1):
                z = mp.mpf("0.2")
                num = mp.diff(sol, z)
                assert abs(sol.derivative(z) - num) < mp.mpf("1e-30")

    def test_inexact_inputs_give_exact_coefficients(self, heun_spec):
        # binary floats are read as their exact values: the Kummer case
        # given in floats is the exact polynomial, and the Heun equation
        # rounded to 53 bits has an exact series near the exact one
        sol = series_solution([0.0, 1.0], [1.0, -1.0], [3.0], mp.mpf(0), N=8)
        assert sol.coeffs[:4] == (QQi(1), QQi(-3), QQi("3/2"), QQi("-1/6"))
        assert all(c == 0 for c in sol.coeffs[4:])
        p, q, r = family_ode_polys(heun_spec, QQi("-7/3"))
        exact = series_solution(p, q, r, 0, N=30)
        with working_precision(53):
            rounded = [[to_mpc(c) for c in xs] for xs in (p, q, r)]
            got = series_solution(*rounded, mp.mpf(0), N=30)
        assert all(isinstance(c, QQi) for c in got.coeffs)
        with working_precision(300):
            gap = max(abs(to_mpc(c - e)) / abs(to_mpc(e))
                      for c, e in zip(got.coeffs, exact.coeffs))
        assert 0 < gap < mp.mpf(2) ** -45

    def test_fixed_point_stepper_matches_the_exact_series(self, heun_spec):
        # the midpoint oracle's stepper at 53 + 32 fraction bits
        p, q, r = family_ode_polys(heun_spec, QQi("-7/3"))
        exact = series_solution(p, q, r, 0, N=30)
        F = 53 + oracle._GUARD
        a, _ = oracle._fixed_steps(oracle._fixed_polys(p, q, r, F), 0, 30, F)
        with working_precision(300):
            gap = max(abs(_from_fixed(x, y, F) - to_mpc(e)) / abs(to_mpc(e))
                      for (x, y), e in zip(a, exact.coeffs))
        assert gap < mp.mpf(2) ** -50

    @given(st.data())
    def test_the_real_arm_of_the_fixed_stepper_is_the_complex_arm(self,
                                                                   data):
        # a random real equation p y'' + q y' + r y = 0 with p(0) = 0, B
        # added to the fixed-point r_0 as the midpoint match adds it, and
        # a random real exponent: the same pairs, or the same resonance
        frac = st.fractions(-20, 20, max_denominator=64)
        p = [0, data.draw(frac.filter(bool))] \
            + data.draw(st.lists(frac, max_size=3))
        q, r = (data.draw(st.lists(frac, min_size=1, max_size=3))
                for _ in range(2))
        F = data.draw(st.integers(8, 120))
        P, Q, R = oracle._fixed_polys(p, q, r, F)
        br = data.draw(st.integers(-(40 << F), 40 << F))
        polys = P, Q, [(R[0][0] + br, 0)] + R[1:]
        rho, N = data.draw(frac), data.draw(st.integers(0, 40))

        def steps(real):
            try:
                return oracle._fixed_steps(polys, rho, N, F, real=real)
            except ResonantExponentError as exc:
                return str(exc)

        assert steps(True) == steps(False)

    def test_requires_singular_origin(self):
        with pytest.raises(InvalidSpecError):
            series_solution([1, 1], [1], [1], 0, N=5)

    def test_resonant_exponent_rejected(self):
        # indicial roots 0 and 2 collide with the integer lattice
        with pytest.raises(ResonantExponentError):
            series_solution([0, 1], [-1], [1], 0, N=5)


class TestOdeResidual:
    @pytest.mark.parametrize("which", ["heun", "confluent", "reduced"])
    def test_production_series_satisfies_equation(self, which, heun_spec,
                                                  confluent_spec,
                                                  reduced_spec):
        spec = {"heun": heun_spec, "confluent": confluent_spec,
                "reduced": reduced_spec}[which]
        res = ode_residual(spec, mp.mpf(-7) / 3, N=60)
        assert res < mp.mpf("1e-20")

    def test_detects_corrupted_coefficient(self, reduced_spec):
        with working_precision(256):
            b = mp.mpf(-7) / 3
            cs = [to_mpc(c)
                  for c in eval_sequence(reduced_spec, exact_value(b), 60)]
            cs[5] += mp.mpf("1e-6")
            res = ode_residual(reduced_spec, b, N=60, coeffs=cs)
        assert res > mp.mpf("1e-10")

    def test_explicit_sample_points(self, reduced_spec):
        pts = [mp.mpc("0.1"), mp.mpc("0.2", "0.1")]
        res = ode_residual(reduced_spec, mp.mpf("0.5"), N=60, z_samples=pts)
        assert res < mp.mpf("1e-20")


class TestSwapMap:
    @pytest.mark.parametrize("which", ["heun", "confluent", "reduced"])
    def test_analytic_solution_at_1_is_swapped_family(self, which, heun_spec,
                                                      confluent_spec,
                                                      reduced_spec):
        spec = {"heun": heun_spec, "confluent": confluent_spec,
                "reduced": reduced_spec}[which]
        b = QQi("-7/3")
        u0, u1 = local_solutions_at_1(spec, b, N=10)
        new, nb = z1_swapped_spec(spec, b)
        assert new.gamma == spec.delta and new.delta == spec.gamma
        prod = eval_sequence(new, nb, 10)
        assert list(u0.coeffs) == list(prod)
        # the singular exponent at z = 1 is 1 - delta
        assert u1.exponent == QQi("1/2")

    def test_reduced_shift_is_exact(self, reduced_spec):
        new, nb = z1_swapped_spec(reduced_spec, QQi("-7/3"))
        assert new.s == QQi(-2)
        assert nb == QQi("-13/3")

    @pytest.mark.parametrize("which", ["heun", "confluent", "reduced"])
    def test_swap_is_an_involution(self, which, heun_spec, confluent_spec,
                                   reduced_spec):
        spec = {"heun": heun_spec, "confluent": confluent_spec,
                "reduced": reduced_spec}[which]
        b = QQi("5/7")
        once, b1 = z1_swapped_spec(spec, b)
        twice, b2 = z1_swapped_spec(once, b1)
        assert twice == spec
        assert b2 == b

    def test_an_inexact_b_maps_exactly(self, reduced_spec):
        with working_precision(128):
            b = mp.mpf(-7) / 3
        new, nb = z1_swapped_spec(reduced_spec, b)
        assert isinstance(nb, QQi) and nb == exact_value(b) - 2

    def test_full_family_s_equal_1_rejected(self):
        spec = RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/2", delta="1/2",
                              alpha="3/2", beta=-1, s=1)
        with pytest.raises(InvalidSpecError):
            z1_swapped_spec(spec, 1)

    def test_integer_delta_is_resonant_at_1(self):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2", delta=2,
                              s="1/10")
        with pytest.raises(ResonantExponentError):
            local_solutions_at_1(spec, mp.mpf(1))


class TestMidpointMatching:
    def test_agrees_with_closed_form_at_s0(self):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="1/2", s=0)
        b = mp.mpf(3) / 10
        mm = d2_by_midpoint_matching(spec, b, N=120)
        assert isinstance(mm, MidpointMatch)
        assert abs(mm.d2 - d2_closed_form_s0(spec, b)) < mp.mpf("1e-30")

    @pytest.mark.parametrize("which,b", [
        ("confluent", -2),
        ("reduced", "0.7"),
    ])
    def test_agrees_with_scaled_tail_route(self, which, b, confluent_spec,
                                           reduced_spec):
        spec = {"confluent": confluent_spec, "reduced": reduced_spec}[which]
        b = mp.mpf(b)
        mm = d2_by_midpoint_matching(spec, b, N=120)
        seq = d2_sequence(spec, b, K=600)
        assert abs(mm.d2 - seq.estimate) < mp.mpf("1e-14")
        assert mm.condition > 1
        assert mm.condition < 100

    # the z = 0 series reaches 1/2 for |s| < 2, the z = 1 series for
    # |1 - 1/s| > 1/2; both bounds are refused
    @pytest.mark.parametrize("s,series", [
        ("5/2", "z = 0"), ("-2", "z = 0"), ("9/10", "z = 1"),
        ("2/3", "z = 1"),
    ])
    def test_midpoint_outside_a_series_disk_rejected(self, s, series):
        spec = RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/2",
                              delta="1/2", alpha="3/2", beta=-1, s=s)
        with pytest.raises(InvalidSpecError, match=f"of the {series} series"):
            d2_by_midpoint_matching(spec, mp.mpf(-2))

    @pytest.mark.parametrize("bits", [64, 256])
    def test_a_dyadic_b_gives_the_same_bits_as_qqi_and_as_mpc(
            self, bits, confluent_spec):
        # B is read as its exact value, whichever type carries it, even
        # with parts 4 bits finer than the precision
        specs = [confluent_spec, from_mathieu(MathieuParams(q="2i"))[0],
                 RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/3",
                                delta="1/2", alpha="3/2", beta=-1,
                                s="1/3+1/4i")]
        tiny = Fraction(1, 2 ** (bits + 4))
        b = QQi(Fraction(-13, 8) - tiny, Fraction(3, 4) + tiny)
        with working_precision(bits + 8):
            as_mpc = to_mpc(b)
        assert exact_value(as_mpc) == b
        for spec in specs:
            d2s = [d2_by_midpoint_matching(spec, x, precision_bits=bits).d2
                   for x in (b, as_mpc)]
            assert d2s[0]._mpc_ == d2s[1]._mpc_

    def test_cached_polys_do_not_depend_on_call_order(self, heun_spec):
        b = mp.mpf("-2.5")
        calls = [(heun_spec, 64), (heun_spec, 256), (heun_spec, 64)]
        first = [d2_by_midpoint_matching(s, b, precision_bits=p).d2._mpc_
                 for s, p in calls]
        oracle._midpoint_polys.cache_clear()
        fresh = [d2_by_midpoint_matching(s, b, precision_bits=p).d2._mpc_
                 for s, p in reversed(calls)]
        assert first == fresh[::-1] and first[0] == first[2]

    def test_coincident_exponents_rejected(self):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2", delta=1,
                              s="1/10")
        with pytest.raises(InvalidSpecError):
            d2_by_midpoint_matching(spec, mp.mpf(1))


PRECISION_SPECS = {
    "lame-1/100": from_lame(LameParams(n=2, s="1/100"))[0],
    "mathieu-2i": from_mathieu(MathieuParams(q="2i"))[0],
    "reduced-s0": RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                                 delta="1/2", s=0),
}


@lru_cache(maxsize=None)
def _midpoint_d2_700(name, b):
    return d2_by_midpoint_matching(PRECISION_SPECS[name], mp.mpf(float(b)),
                                   precision_bits=700).d2


@pytest.mark.parametrize("bits", [53, 64, 256])
@pytest.mark.parametrize("b", ["-3.1", "-49.3", "-400.7"])
@pytest.mark.parametrize("name", sorted(PRECISION_SPECS))
def test_midpoint_holds_its_precision(name, b, bits):
    # B is the double nearest b, the same number at every precision; the
    # exact equations are floored to bits + 32 fraction bits
    d2 = d2_by_midpoint_matching(PRECISION_SPECS[name], mp.mpf(float(b)),
                                 precision_bits=bits).d2
    ref = _midpoint_d2_700(name, b)
    with working_precision(700):
        assert abs(d2 - ref) < mp.mpf(2) ** (8 - bits) * abs(ref)
