"""Perturbative zero expansions: exact anchors, stability, closed forms."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heunzeros.families import (
    FamilyKind,
    LameParams,
    RecurrenceSpec,
    from_lame,
    from_mathieu,
    MathieuParams,
)
from heunzeros.perturbation import (
    BoundaryOrderError,
    DegenerateGridError,
    first_order_coeff,
    lame_expansion,
    perturbative_seeds,
    recurrence_row,
    reduced_confluent_expansion,
    second_order_coeff,
    zero_estimate,
    zero_expansion,
)
from heunzeros.recurrence import eval_s_polynomial
from heunzeros.scalars import QQi, working_precision

F = Fraction


class TestExactAnchors:
    """Hand-derived rational values for specific small cases."""

    def test_lame_first_order_k2(self):
        spec, _ = from_lame(LameParams(n=2, s="1/100"))
        assert first_order_coeff(spec, 2, 6) == QQi(F(-5, 4))

    def test_lame_second_order_k3(self):
        spec, _ = from_lame(LameParams(n=2, s="1/100"))
        assert second_order_coeff(spec, 3, 8) == QQi(F(-831, 1120))

    def test_mathieu_second_order_k2(self):
        spec, _ = from_mathieu(MathieuParams(q=2))
        # closed form: -1/(8(4k^2-1)) at k=2 -> -1/120; stored negated
        assert second_order_coeff(spec, 2, 6) == QQi(F(1, 120))

    def test_lame_zero_estimate_k0(self):
        spec, _ = from_lame(LameParams(n=2, s="1/100"))
        est = zero_estimate(spec, 0, 6)
        assert est == QQi(F(-1197, 160000))    # = -0.00748125 exactly


class TestMStability:
    def test_settles_at_k_plus_order(self, generic_specs):
        for spec in generic_specs:
            for k in range(6):
                ref1 = first_order_coeff(spec, k, k + 1)
                ref2 = second_order_coeff(spec, k, k + 2)
                for m in range(k + 2, 10):
                    assert first_order_coeff(spec, k, m) == ref1
                    assert second_order_coeff(spec, k, m) == ref2

    @given(st.integers(min_value=0, max_value=8),
           st.integers(min_value=2, max_value=6))
    def test_stability_property(self, k, extra):
        spec = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="2/3",
                              delta="4/5", s=1, alpha="1/6")
        base = second_order_coeff(spec, k, k + 2)
        assert second_order_coeff(spec, k, k + extra) == base


class TestRemainderOrders:
    """Substituting the truncated expansion back into c_{m+1}(B(s))
    must kill the low-order s coefficients identically."""

    def test_first_order_kills_s1(self, generic_specs):
        for spec in generic_specs:
            k, m = 2, 5
            exp = zero_expansion(spec, k, m, order=1)
            pol = eval_s_polynomial(spec, list(exp.coefficients()), m)
            assert pol.coeffs[0] == QQi(0)
            assert pol.coeffs[1] == QQi(0)
            assert pol.coeffs[2] != QQi(0)

    def test_second_order_kills_s2(self, generic_specs):
        for spec in generic_specs:
            for k, m in ((0, 4), (2, 5), (3, 6)):
                exp = zero_expansion(spec, k, m, order=2)
                pol = eval_s_polynomial(spec, list(exp.coefficients()), m)
                assert pol.coeffs[0] == QQi(0)
                assert pol.coeffs[1] == QQi(0)
                assert pol.coeffs[2] == QQi(0)


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, F(5, 7)])
    def test_lame_expansion_matches_generic(self, n):
        spec, _ = from_lame(LameParams(n=n, s="1/3"))
        for k in range(13):
            closed = lame_expansion(n, k).coefficients()
            exp = zero_expansion(spec, k, k + 2, order=2)
            assert closed == exp.coefficients()

    @pytest.mark.parametrize("gamma,delta", [
        (F(1, 2), F(1, 2)), (F(2, 3), F(3, 4)),
        (F(1, 3), F(5, 4)), (F(3, 2), F(1, 5)),
    ])
    def test_reduced_expansion_matches_generic(self, gamma, delta):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma=gamma,
                              delta=delta, s=1)
        for k in range(2, 13):
            closed = reduced_confluent_expansion(gamma, delta, k)
            exp = zero_expansion(spec, k, k + 2, order=2)
            assert closed.coefficients() == exp.coefficients()

    def test_mathieu_specialization(self):
        # gamma = delta = 1/2 collapses the general second-order term
        # to -1/(8(4k^2-1)) with the slope fixed at 1/2
        spec, _ = from_mathieu(MathieuParams(q=1))
        for k in range(2, 9):
            exp = zero_expansion(spec, k, k + 2, order=2)
            c0, c1, c2 = exp.coefficients()
            assert c0 == QQi(-k * k)
            assert c1 == QQi(F(1, 2))
            assert c2 == QQi(F(-1, 8 * (4 * k * k - 1)))

    def test_whittaker_hill_specialization(self):
        alpha = F(5)
        spec = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                              delta="1/2", s=1, alpha=alpha)
        for k in range(2, 9):
            c0, c1, c2 = zero_expansion(spec, k, k + 2,
                                        order=2).coefficients()
            assert c0 == QQi(-k * k)
            assert c1 == QQi(alpha / 2)
            want = -F(1, 32) - F((2 * alpha - 1) ** 2,
                                 32 * (4 * k * k - 1))
            assert c2 == QQi(want)


class TestBoundariesAndErrors:
    def test_second_order_undefined_near_top(self, reduced_spec):
        m = 6
        with pytest.raises(BoundaryOrderError):
            second_order_coeff(reduced_spec, m - 1, m)
        with pytest.raises(BoundaryOrderError):
            second_order_coeff(reduced_spec, m, m)

    def test_degenerate_grid_raises(self):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="-1/2", s=1)
        with pytest.raises(DegenerateGridError):
            first_order_coeff(spec, 1, 4)

    def test_k_out_of_range(self, reduced_spec):
        with pytest.raises(Exception):
            first_order_coeff(reduced_spec, 7, 5)

    def test_seed_order_downgrades_at_top(self, reduced_spec):
        m = 5
        seeds = perturbative_seeds(reduced_spec, m)
        assert len(seeds) == m + 1
        # the top two grid labels only support first order
        top = zero_estimate(reduced_spec, m, m, order=1)
        assert seeds[m] == top

    def test_seeds_are_second_order_except_at_the_two_edges(
            self, generic_specs):
        for spec in generic_specs:
            for m in range(1, 13):
                assert perturbative_seeds(spec, m) == [
                    zero_estimate(spec, k, m, 2 if k <= m - 2 else 1)
                    for k in range(m + 1)]


class TestEvaluation:
    def test_expansion_call_is_horner(self, reduced_spec):
        exp = zero_expansion(reduced_spec, 2, 5, order=2)
        c0, c1, c2 = exp.coefficients()
        s = QQi(F(1, 9))
        assert exp(s) == c0 + c1 * s + c2 * s * s

    def test_zero_estimate_uses_spec_s_by_default(self):
        spec, _ = from_mathieu(MathieuParams(q="1/4"))
        assert zero_estimate(spec, 2, 6) == zero_expansion(spec, 2, 6)(spec.s)


class TestRowCache:
    def test_exact_rows_ignore_the_working_precision(self):
        # gamma = 29/31 keeps this spec out of every other test's rows
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="29/31",
                              delta="1/2", s="1/3")
        before = recurrence_row.cache_info().misses
        with working_precision(53):
            low = recurrence_row(spec, 5)
        with working_precision(300):
            high = recurrence_row(spec, 5)
        assert recurrence_row.cache_info().misses == before + 1
        assert high is low

    def test_one_value_given_three_ways_makes_one_row_per_j(self):
        # s = 0.1 as a float, an mpf and a Fraction is one spec; gamma =
        # 27/31 keeps it out of every other test's rows
        specs = [RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="27/31",
                                delta="1/2", s=s)
                 for s in (0.1, mp.mpf(0.1), Fraction(0.1))]
        before = recurrence_row.cache_info().misses
        for bits in (53, 300):
            with working_precision(bits):
                rows = {j: {recurrence_row(spec, j) for spec in specs}
                        for j in range(4)}
        assert recurrence_row.cache_info().misses == before + 4
        assert all(len(row) == 1 for row in rows.values())
