"""Zero tracking across degrees and the d2 connection-coefficient limit."""

import json

import mpmath as mp
import pytest

from heunzeros.cli import main, table_text
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
from heunzeros import recurrence, tracking
from heunzeros.perturbation import perturbative_seeds, zero_estimate
from heunzeros.recurrence import build_family, eval_sequence
from heunzeros.rootfind import (
    NonConvergenceError,
    find_all_roots,
    real_zero_count,
    tridiagonal_eigenvalues,
)
from heunzeros.scalars import to_mpc, working_precision
from heunzeros.tracking import (
    convergence_report,
    d2_closed_form_s0,
    d2_sequence,
    d2_zero_search,
    jacobi_matrix,
    match_zeros,
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
        # solve_zeros seeds from the Jacobi-matrix eigenvalues
        for spec in THREE_FAMILIES:
            c8 = build_family(spec, 8)[8]
            est = find_all_roots(c8, seeds=perturbative_seeds(spec, 7))
            cir = find_all_roots(c8)
            eig = solve_zeros(spec, 8)
            assert sorted(eig.labels) == list(range(8))
            for other in (cir, eig):
                worst = max(abs(x - y) for x, y in zip(sorted_zeros(est),
                                                       sorted_zeros(other)))
                assert worst < mp.mpf(2) ** -80, spec.kind.value

    def test_rejects_bad_inputs(self, lame_small):
        with pytest.raises(InvalidSpecError):
            solve_zeros(lame_small, 0)

    def test_inexact_parameters_solve_at_the_requested_precision(self):
        # q = 2 read as a 512-bit float: a 256-bit build left the zeros
        # 1e-74 away from the exact-build ones, above the 2^-256 tolerance
        exact = solve_zeros(from_mathieu(MathieuParams(q=2))[0], 8,
                            precision_bits=512)
        with working_precision(512):
            spec = from_mathieu(MathieuParams(q=mp.mpf(2)))[0]
        assert not spec.is_exact
        inexact = solve_zeros(spec, 8, precision_bits=512)
        worst = max(abs(x - y) for x, y in zip(sorted_zeros(exact),
                                               sorted_zeros(inexact)))
        assert worst < exact.tol


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

        def counting_polygon(coeffs):
            circle_calls.append(len(coeffs) - 1)
            return polygon(coeffs)

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
        # nearest-first pairing would grab (1 -> 0.6) and strand a[0] at
        # distance 1.61; the optimal assignment keeps both under 0.7
        a = [mp.mpc(0), mp.mpc(1)]
        b = [mp.mpc("0.6"), mp.mpc("1.61")]
        fixed = match_zeros(a, b)
        assert [(i, j) for i, j, _ in fixed.pairs] == [(0, 0), (1, 1)]
        assert max(d for _, _, d in fixed.pairs) < mp.mpf("0.7")

    def test_empty_first_set_leaves_every_b_new(self):
        res = match_zeros([], [mp.mpc(1), mp.mpc(2)])
        assert res.pairs == ()
        assert res.new_in_b == (0, 1)

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

    def test_json_and_table(self, lame_small, capsys):
        rep = convergence_report(lame_small, m_list=(16, 20), digits=10)
        # the report's JSON record is the track subcommand's
        assert main(["track", "--family", "lame", "--n", "2", "--s", "1/100",
                     "--m", "16,20", "--format", "json"]) == 0
        js = json.loads(capsys.readouterr().out)
        assert js["schema"] == "heunzeros-report/1"
        assert js["m_list"] == [16, 20]
        assert js["n_stable"] == rep.n_stable()
        assert sorted(js["tracks"][0]["entries"]) == ["16", "20"]
        table = table_text(rep.m_list,
                           zero_table(lame_small, rep.zero_sets, k_max=3), 10)
        assert "zero of c_20" in table.splitlines()[0]
        assert len(table.splitlines()) == 5

    def test_table_estimates_at_the_solve_precision(self):
        # s = 1/2 read as a float: the estimates must not drop to the
        # ambient 53 bits
        with working_precision(256):
            spec, _ = from_lame(LameParams(n=2, s=mp.mpf("0.5")))
        row = zero_table(spec, {8: solve_zeros(spec, 8)}, k_max=2)[2]
        with working_precision(256):
            assert abs(row["orders"][2] - mp.mpf(-1059) / 320) \
                < mp.mpf(2) ** -250

    def test_tracks_carry_their_top_degree_labels(self):
        # chained from degree 4, two tracks used to share k = 3 and k = 4
        spec, _ = from_lame(LameParams(n=2, s="1/2"))
        rep = convergence_report(spec, m_list=(4, 8, 30, 40))
        labels = [t.label_k for t in rep.tracks]
        assert sorted(labels) == list(range(40))
        top = dict(zip(rep.zero_sets[40].labels, rep.zero_sets[40].zeros))
        for t in rep.tracks:
            assert t.value_at(40) == top[t.label_k]
        assert abs(top[3] - mp.mpf("-6.869999689")) < mp.mpf("1e-9")
        assert abs(top[5] - mp.mpf("-18.35252588")) < mp.mpf("1e-8")

    def test_needs_two_degrees(self, lame_small):
        with pytest.raises(InvalidSpecError):
            convergence_report(lame_small, m_list=(12,))


class TestD2Sequence:
    def test_constant_sequence_identity(self):
        # at gamma = delta = 1/2, s = 0, B = -1/4 the recurrence gives
        # c_{k+1}/c_k = (k - 1/2)/(k + 1), which the scaling cancels
        # exactly: a_k == 1 for every k
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="1/2", s=0)
        b = mp.mpf(-1) / 4
        with working_precision(256):
            c = eval_sequence(spec, b, 200)
            factor, worst = mp.mpf(1), mp.mpf(0)
            for k in range(1, 201):
                factor = factor * k / (mp.mpf(1) / 2 + (k - 2))
                worst = max(worst, abs(factor * c[k] - 1))
        assert worst < mp.mpf("1e-70")
        est = d2_sequence(spec, b, K=200)
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

    @pytest.mark.parametrize("direction", [-1, 0, 1])
    def test_doubling_k_does_not_stop_on_the_coarser_zero(self, direction):
        # near the edge of the disk the search doubles K from 400 to 800;
        # a secant step across the two K used to stop at -2.37862728652,
        # where |d2| at K = 6400 is 1.2e-6
        spec = RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/2",
                              delta="1/2", alpha="3/2", beta="-1", s="9/10")
        with working_precision(256):
            b0 = to_mpc(zero_estimate(spec, 2, 39, 2))
            b0 += direction * mp.mpf("1e-3") * (1 + abs(b0.real))
        res = d2_zero_search(spec, b0)
        assert res.K_used > 400
        assert abs(res.B - mp.mpf("-2.37862735853")) < mp.mpf("1e-10")

    def test_secant_iteration_cap_names_the_start(self, monkeypatch):
        monkeypatch.setattr(tracking, "_D2_MAX_STEPS", 1)
        spec, _ = from_mathieu(MathieuParams(q=2))
        with pytest.raises(NonConvergenceError,
                           match=r"did not settle in 1 iterations from "
                                 r"B0 = \(?1\.4\b"):
            d2_zero_search(spec, mp.mpf("1.4"))

    def test_search_builds_each_step_row_once(self, monkeypatch):
        # seven d2 evaluations at K = 400 share one table of step rows
        calls = []

        def counting(spec, m):
            calls.append(m)
            return recurrence_coeffs(spec, m)

        monkeypatch.setattr(recurrence, "recurrence_coeffs", counting)
        spec, _ = from_mathieu(MathieuParams(q=2))
        res = d2_zero_search(spec, mp.mpf("1.4"), K=400)
        assert res.K_used == 400
        assert len(calls) <= 400
