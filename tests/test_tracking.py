"""Zero tracking across degrees and the d2 connection-coefficient limit."""

import json

import mpmath as mp
import pytest

from heunzeros.cli import table_text
from heunzeros.families import (
    FamilyKind,
    InvalidSpecError,
    LameParams,
    MathieuParams,
    RecurrenceSpec,
    from_lame,
    from_mathieu,
    recurrence_coeffs,
)
from heunzeros.rootfind import real_zero_count, tridiagonal_eigenvalues
from heunzeros.tracking import (
    convergence_report,
    d2_closed_form_s0,
    d2_sequence,
    d2_zero_search,
    jacobi_matrix,
    match_zeros,
    min_grid_gap,
    solve_zeros,
    stabilized_digits,
    zero_table,
)


THREE_FAMILIES = (
    from_lame(LameParams(n=2, s="1/100"))[0],
    from_mathieu(MathieuParams(q=2))[0],
    RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2", delta="1/2",
                   s="-1/100", alpha=5),
)
WHILL_STRONG = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                              delta="1/2", s=-20, alpha=5)


def sorted_zeros(zs):
    return sorted(zs.zeros, key=lambda z: (z.real, z.imag))


@pytest.fixture(scope="module")
def lame_small():
    spec, _ = from_lame(LameParams(n=2, s="1/100"))
    return spec


class TestSolveZeros:
    def test_labels_follow_grid_order(self, lame_small):
        zs = solve_zeros(lame_small, 8)
        assert zs.labels == tuple(range(8))
        assert all(zs.converged)

    def test_estimate_seeding_reaches_complex_pair(self):
        # real parameters, but c_6 has a conjugate pair; the all-real
        # perturbative seeds must not strand the sweep on the real axis
        spec = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                              delta="1/2", s="-1/5", alpha="11/2")
        zs = solve_zeros(spec, 6)
        assert real_zero_count(zs.zeros) == 4
        want = mp.mpc("-18.045277094", "4.120210441")
        assert min(abs(z - want) for z in zs.zeros) < mp.mpf("1e-8")

    def test_circle_seeding_matches_estimate_seeding(self):
        # 'auto' seeds from the Jacobi-matrix eigenvalues
        for spec in THREE_FAMILIES:
            est = solve_zeros(spec, 8, seed_policy="estimates")
            cir = solve_zeros(spec, 8, seed_policy="circles")
            eig = solve_zeros(spec, 8, seed_policy="auto")
            assert all(l is None for l in cir.labels)
            assert eig.labels == est.labels
            for other in (cir, eig):
                worst = max(abs(x - y) for x, y in zip(sorted_zeros(est),
                                                       sorted_zeros(other)))
                assert worst < mp.mpf(2) ** -80, spec.kind.value

    def test_rejects_bad_inputs(self, lame_small):
        with pytest.raises(InvalidSpecError):
            solve_zeros(lame_small, 0)
        with pytest.raises(InvalidSpecError):
            solve_zeros(lame_small, 4, seed_policy="guess")


class TestJacobiSeeds:
    def test_s0_eigenvalues_are_the_grid(self):
        spec = THREE_FAMILIES[0].with_s(0)
        eig = tridiagonal_eigenvalues(*jacobi_matrix(spec, 12))
        grid = [-complex(recurrence_coeffs(spec, k)[0]) for k in range(12)]
        assert sorted(eig, key=abs) == sorted(grid, key=abs)

    @pytest.mark.parametrize("spec", THREE_FAMILIES,
                             ids=lambda spec: spec.kind.value)
    def test_eigenvalues_are_close_to_the_zeros(self, spec):
        zs = solve_zeros(spec, 12)
        eig = sorted(tridiagonal_eigenvalues(*jacobi_matrix(spec, 12)),
                     key=lambda z: (z.real, z.imag))
        for z, e in zip(sorted_zeros(zs), eig):
            assert abs(complex(z) - e) < 1e-10 * (1 + abs(e))

    def test_failed_eigenvalue_solve_falls_back_to_circles(self, monkeypatch):
        import heunzeros.rootfind as rootfind
        import heunzeros.tracking as tracking

        spec = THREE_FAMILIES[1]
        eig = solve_zeros(spec, 10)
        circle_calls = []
        polygon = rootfind.newton_polygon_seeds

        def counting_polygon(coeffs, count=None):
            circle_calls.append(count)
            return polygon(coeffs, count)

        monkeypatch.setattr(tracking, "tridiagonal_eigenvalues",
                            lambda diag, offdiag: None)
        monkeypatch.setattr(rootfind, "newton_polygon_seeds",
                            counting_polygon)
        fallback = solve_zeros(spec, 10)
        assert circle_calls == [10]
        assert fallback.labels == eig.labels
        worst = max(abs(x - y) for x, y in zip(sorted_zeros(eig),
                                               sorted_zeros(fallback)))
        assert worst < mp.mpf(2) ** -80

    def test_strong_coupling_solve_is_bit_identical(self):
        a = solve_zeros(WHILL_STRONG, 50)
        b = solve_zeros(WHILL_STRONG, 50)
        assert [(z.real._mpf_, z.imag._mpf_) for z in a.zeros] == \
            [(z.real._mpf_, z.imag._mpf_) for z in b.zeros]
        assert all(a.converged)
        assert real_zero_count(a) == 0


class TestMatching:
    def test_identity_on_shared_values(self):
        a = [mp.mpc(-3), mp.mpc("0.5")]
        b = [mp.mpc("0.5"), mp.mpc(-3), mp.mpc(9)]
        res = match_zeros(a, b)
        assert [(i, j) for i, j, _ in res.pairs] == [(0, 1), (1, 0)]
        assert all(d == 0 for _, _, d in res.pairs)
        assert res.new_in_b == (2,)

    def test_threshold_recovers_from_greedy_mistake(self):
        # nearest-first pairing grabs (1 -> 0.6) and strands a[0] at
        # distance 1.61; the optimal assignment keeps both under 0.7
        a = [mp.mpc(0), mp.mpc(1)]
        b = [mp.mpc("0.6"), mp.mpc("1.61")]
        greedy = match_zeros(a, b)
        assert [(i, j) for i, j, _ in greedy.pairs] == [(0, 1), (1, 0)]
        fixed = match_zeros(a, b, threshold=1.0)
        assert [(i, j) for i, j, _ in fixed.pairs] == [(0, 0), (1, 1)]
        assert max(d for _, _, d in fixed.pairs) < mp.mpf("0.7")

    def test_larger_first_set_rejected(self):
        with pytest.raises(InvalidSpecError):
            match_zeros([mp.mpc(0), mp.mpc(1)], [mp.mpc(0)])


class TestStabilizedDigits:
    def test_relative_digit_count(self):
        assert stabilized_digits(1, 1 + mp.mpf("1e-8")) == 7

    def test_no_shared_digits_clamps_to_zero(self):
        assert stabilized_digits(1, 100) == 0

    def test_identical_values_hit_cap(self):
        assert stabilized_digits(mp.mpf(2), mp.mpf(2)) == 60
        assert stabilized_digits(0, 0) == 60

    def test_cap_override(self):
        assert stabilized_digits(1, 1 + mp.mpf("1e-30"), cap=20) == 20


class TestConvergenceReport:
    def test_small_report(self, lame_small):
        rep = convergence_report(lame_small, m_list=(16, 20), digits=10)
        assert len(rep.tracks) == 20
        assert rep.n_stable(6) >= 10
        assert rep.n_stable(10) >= 8
        assert rep.n_stable(6) >= rep.n_stable(10)
        first = rep.tracks[0]
        assert first.label_k == 0
        assert first.value_at(20) is not None
        assert first.value_at(99) is None
        # the k = 0 zero is tiny and negative at this coupling
        assert -1 < first.value_at(20).real < 0

    def test_json_and_table(self, lame_small):
        rep = convergence_report(lame_small, m_list=(16, 20), digits=10)
        js = json.loads(rep.dumps())
        assert js["schema"] == "heunzeros-report/1"
        assert js["m_list"] == [16, 20]
        assert js["n_stable"] == rep.n_stable()
        assert sorted(js["tracks"][0]["entries"]) == ["16", "20"]
        table = table_text(rep.m_list,
                           zero_table(lame_small, rep.zero_sets, k_max=3), 10)
        assert "zero of c_20" in table.splitlines()[0]
        assert len(table.splitlines()) == 5

    def test_needs_two_degrees(self, lame_small):
        with pytest.raises(InvalidSpecError):
            convergence_report(lame_small, m_list=(12,))


class TestMinGridGap:
    def test_half_half_grid(self, lame_small):
        # gamma = delta = 1/2 puts the grid at D_k = k^2, so the
        # tightest gap over k < m is D_1 - D_0 = 1
        assert min_grid_gap(lame_small, 8) == 1


class TestD2Sequence:
    def test_constant_sequence_identity(self):
        # at gamma = delta = 1/2, s = 0, B = -1/4 the recurrence gives
        # c_{k+1}/c_k = (k - 1/2)/(k + 1), which the scaling cancels
        # exactly: a_k == 1 for every k
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="1/2", s=0)
        est = d2_sequence(spec, mp.mpf(-1) / 4, K=200)
        assert max(abs(a - 1) for a in est.sequence) < mp.mpf("1e-70")
        assert abs(est.estimate - 1) < mp.mpf("1e-70")

    def test_extrapolation_agrees_with_closed_form_at_s0(self):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="1/2", s=0)
        b = mp.mpf(3) / 10
        est = d2_sequence(spec, b, K=500)
        exact = d2_closed_form_s0(spec, b)
        assert abs(est.estimate - exact) < mp.mpf("1e-20")
        # the raw tail is only O(1/K); extrapolation must beat it
        assert abs(est.tail - exact) > abs(est.estimate - exact)

    def test_full_family_outside_disk_warns(self):
        spec = RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/2",
                              delta="1/2", alpha="3/2", beta=-1, s=2)
        with pytest.warns(RuntimeWarning):
            d2_sequence(spec, mp.mpf(1), K=50)

    def test_integer_delta_rejected(self):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta=2, s="1/10")
        with pytest.raises(InvalidSpecError):
            d2_sequence(spec, mp.mpf(1), K=50)

    def test_needs_two_terms(self):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="1/2", s=0)
        with pytest.raises(InvalidSpecError):
            d2_sequence(spec, mp.mpf(1), K=1)


class TestD2ZeroSearch:
    def test_finds_zero_near_stabilized_lame_zero(self, lame_small):
        # agrees with where the k = 2 zero of c_30 and c_40 stabilizes
        res = d2_zero_search(lame_small, mp.mpf("-3.9875"))
        assert abs(res.B - mp.mpf("-3.9874736179")) < mp.mpf("1e-8")
        assert res.iterations <= 10

    def test_finds_zero_near_stabilized_mathieu_zero(self):
        spec, _ = from_mathieu(MathieuParams(q=2))
        res = d2_zero_search(spec, mp.mpf("1.4"))
        assert abs(res.B - mp.mpf("1.3784892213")) < mp.mpf("1e-8")
        assert abs(res.d2) < mp.mpf("1e-9")
