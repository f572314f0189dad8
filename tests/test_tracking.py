"""Zero tracking across degrees and the d2 connection-coefficient limit."""

import json
from fractions import Fraction

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
from heunzeros.scalars import QQi, to_mpc, working_precision
from heunzeros.tracking import (
    convergence_report,
    d2_closed_form_s0,
    d2_sequence,
    d2_zero_search,
    jacobi_matrix,
    jacobi_seeds,
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

    def test_extended_ql_agrees_with_doubles(self):
        spec = THREE_FAMILIES[1]
        with working_precision(256):
            diag, off = jacobi_matrix(spec, 12)
        low = tridiagonal_eigenvalues(diag, off)
        high = tridiagonal_eigenvalues(diag, off, precision_bits=106)
        assert len(high) == 12
        for h in high:
            assert min(abs(h - e) for e in low) < 1e-13 * (1 + abs(h))

    @pytest.mark.parametrize("m", [89, 100])
    def test_non_normal_matrix_escalates_to_106_bits(self, m):
        # the double seeds are about 0.4 off at m = 89 and 100
        with working_precision(256):
            seeds, bits = jacobi_seeds(*jacobi_matrix(WHILL_STRONG, m), 256)
        assert bits == 106
        zs = find_all_roots(build_family(WHILL_STRONG, m)[m], seeds=seeds)
        assert zs.sweeps == 0
        for e in seeds:
            assert min(abs(z - e) for z in zs.zeros) < 1e-10 * (1 + abs(e))

    def test_deflation_floor_lets_higher_precision_converge(self):
        # near a small eigenvalue of this non-normal matrix the relative
        # deflation test alone never passes; the floor tied to the
        # matrix scale ends the QL, and more bits give better seeds
        with working_precision(256):
            diag, off = jacobi_matrix(WHILL_STRONG, 89)
        zeros = solve_zeros(WHILL_STRONG, 89).zeros

        def error(bits):
            eig = tridiagonal_eigenvalues(diag, off, precision_bits=bits)
            with working_precision(256):
                return max(min(abs(z - e) for e in eig) / abs(z)
                           for z in zeros)

        assert error(160) < min(1e-25, error(106))

    def test_escalated_eigenvalues_are_bit_identical(self):
        # integer arithmetic: the same bits on every call, whatever the
        # caller's working precision
        with working_precision(256):
            diag, off = jacobi_matrix(WHILL_STRONG, 89)
        a = tridiagonal_eigenvalues(diag, off, precision_bits=106)
        with working_precision(512):
            b = tridiagonal_eigenvalues(diag, off, precision_bits=106)
        assert [(x.real._mpf_, x.imag._mpf_) for x in a] == \
            [(x.real._mpf_, x.imag._mpf_) for x in b]

    def test_seed_rungs(self, monkeypatch):
        # forward doubles, reversed doubles, 106 bits: what each outcome
        # of the three runs seeds with
        low, off_by_one = [1j, 2j], [1j, 3j]
        cases = [
            ([low, [2j, 1j]], (low, 53)),
            ([low, off_by_one, ["hi"]], (["hi"], 106)),
            ([low, None, ["hi"]], (["hi"], 106)),
            ([low, off_by_one, None], (low, 53)),
            ([None], (None, None)),
        ]
        for runs, want in cases:
            calls = iter(runs)
            monkeypatch.setattr(tracking, "tridiagonal_eigenvalues",
                                lambda *args: next(calls))
            assert jacobi_seeds([0, 0], [0], 256) == want
        calls = iter([low, off_by_one])
        assert jacobi_seeds([0, 0], [0], 53) == (low, 53)

    @pytest.mark.parametrize("spec,m", [
        (from_mathieu(MathieuParams(q=2))[0], 40),
        (from_lame(LameParams(n=2, s="1/2"))[0], 40),
        (from_mathieu(MathieuParams(q="2i"))[0], 30),
    ], ids=["mathieu-2", "lame-1/2", "mathieu-2i"])
    def test_newton_first_matches_the_aberth_path(self, monkeypatch, spec, m):
        import heunzeros.rootfind as rootfind

        newton = solve_zeros(spec, m)
        assert newton.sweeps == 0 and newton.seed_bits == 53
        monkeypatch.setattr(rootfind, "_separated", lambda *args: False)
        aberth = solve_zeros(spec, m)
        assert aberth.sweeps > 0
        assert aberth.labels == newton.labels
        for x, y in zip(newton.zeros, aberth.zeros):
            assert abs(x - y) < newton.tol * (1 + abs(x))

    def test_strong_coupling_degree_100_is_bit_identical(self):
        a = solve_zeros(WHILL_STRONG, 100)
        b = solve_zeros(WHILL_STRONG, 100)
        assert (a.seed_bits, a.sweeps) == (106, 0)
        assert [(z.real._mpf_, z.imag._mpf_) for z in a.zeros] == \
            [(z.real._mpf_, z.imag._mpf_) for z in b.zeros]
        assert real_zero_count(a) == 26
        assert sum(z.imag == 0 for z in a.zeros) == 26

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


def reference_d2(spec, B, K):
    """(estimate, tail, indicator) by the plain route: c_0..c_K from
    eval_sequence, each c_k scaled by k!/(delta-1)_k, and the 8-node
    Neville extrapolation against 1/k read from the whole list."""
    c = eval_sequence(spec, B, K)
    delta = to_mpc(spec.delta)
    factor, seq = mp.mpc(1), []
    for k in range(1, K + 1):
        factor = factor * k / (delta + (k - 2))
        seq.append(factor * c[k])
    estimate = seq[-1]
    if K >= 40:
        step = K // 16
        ks = [K - i * step for i in range(8)]
        xs = [mp.mpf(1) / k for k in ks]
        t = [seq[k - 1] for k in ks]
        for j in range(1, 8):
            for i in range(8 - j):
                t[i] = ((xs[i + j] * t[i] - xs[i] * t[i + 1])
                        / (xs[i + j] - xs[i]))
        estimate = t[0]
    return estimate, seq[-1], abs(seq[-1] - seq[-2])


def _bits(x):
    """An mpf or mpc as its type and mantissa/exponent tuples."""
    return type(x).__name__, x._mpc_ if isinstance(x, mp.mpc) else x._mpf_


class TestScaledTail:
    """d2_sequence runs a_k = c_k k!/(delta-1)_k by its own recurrence
    from a table of scaled step rows; it must agree with the plain route
    and not depend on what the table held before."""

    HEUN_EDGE = RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/2",
                               delta="1/2", alpha="3/2", beta="-1",
                               s="9/10")
    LAME_MPF = RecurrenceSpec(kind=FamilyKind.HEUN, gamma=mp.mpf(0.5),
                              delta=mp.mpf(0.5), alpha=mp.mpf(1.5),
                              beta=mp.mpf(-1), s=mp.mpf("0.3"))

    @pytest.mark.parametrize("spec,B", [
        (THREE_FAMILIES[0], "-31/10"),
        (THREE_FAMILIES[1], "13/10"),
        (from_mathieu(MathieuParams(q="2i"))[0], "1/2"),
        (RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2", delta="1/2",
                        s=0), "-11/5"),
        (HEUN_EDGE, "-23/10"),
        (LAME_MPF, "-31/10"),
        (THREE_FAMILIES[0], "-31/10+2/5i"),
    ], ids=["lame", "mathieu-2", "mathieu-2i", "reduced-s0", "heun-edge",
            "mpf-spec", "complex-B"])
    def test_agrees_with_the_plain_route(self, spec, B):
        with working_precision(256):
            b = to_mpc(B)
            for K in (2, 3, 39, 40, 400, 1600):
                est = d2_sequence(spec, b, K)
                got = (est.estimate, est.tail, est.error_indicator)
                for x, y in zip(got, reference_d2(spec, b, K)):
                    assert abs(x - y) <= mp.mpf("1e-60") * abs(y), (K, x, y)

    # gamma = delta = 1/2 + 3 * 2^-64, exact and as a 256-bit float
    FINE = RecurrenceSpec(kind=FamilyKind.REDUCED,
                          gamma=QQi(Fraction(2**63 + 3, 2**64)),
                          delta=QQi(Fraction(2**63 + 3, 2**64)), s=2)
    with working_precision(256):
        FINE_MPF = RecurrenceSpec(kind=FamilyKind.REDUCED,
                                  gamma=mp.mpf(2**63 + 3) / 2**64,
                                  delta=mp.mpf(2**63 + 3) / 2**64,
                                  s=mp.mpf(2))
    LAME_EQUAL_MPF = RecurrenceSpec(kind=FamilyKind.HEUN, gamma=mp.mpf(0.5),
                                    delta=mp.mpf(0.5), alpha=mp.mpf(1.5),
                                    beta=mp.mpf(-1),
                                    s=mp.mpf(1) / 64)
    LAME_64 = from_lame(LameParams(n=2, s="1/64"))[0]

    # (spec, precision, K): switches specs, fields and precisions, grows
    # and reuses one table, and puts equal exact and big-float specs next
    # to each other
    CASES = [
        (LAME_64, 256, 40), (LAME_EQUAL_MPF, 256, 40), (LAME_64, 64, 80),
        (LAME_EQUAL_MPF, 64, 80), (LAME_EQUAL_MPF, 64, 20),
        (LAME_64, 256, 120), (THREE_FAMILIES[0], 256, 60), (FINE, 64, 50),
        (FINE_MPF, 64, 50), (FINE_MPF, 256, 50), (FINE, 256, 100),
        (FINE, 64, 30), (LAME_MPF, 64, 45), (LAME_MPF, 256, 45),
    ]

    def test_table_reuse_is_bit_identical(self, monkeypatch):
        B = mp.mpc("-3.1", "0.25")
        cold = []
        for spec, bits, K in self.CASES:
            monkeypatch.setattr(recurrence, "_scaled_steps", (None, ()))
            cold.append(d2_sequence(spec, B, K, bits))
        for (spec, bits, K), want in zip(self.CASES, cold):
            got = d2_sequence(spec, B, K, bits)
            assert [_bits(x) for x in (got.estimate, got.tail,
                                       got.error_indicator)] == \
                [_bits(x) for x in (want.estimate, want.tail,
                                    want.error_indicator)], (spec, bits, K)

    def test_never_evaluates_the_plain_sequence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("d2_sequence called eval_sequence")

        monkeypatch.setattr(recurrence, "eval_sequence", refuse)
        monkeypatch.setattr(tracking, "eval_sequence", refuse, raising=False)
        est = d2_sequence(THREE_FAMILIES[1], mp.mpf("1.3"), K=400)
        assert abs(est.estimate) > 0


class TestFixedPointTail:
    """d2_sequence runs in fixed point with _D2_GUARD bits beyond the
    requested precision; its results must hold that precision."""

    @pytest.mark.parametrize("bits", [64, 256, 512])
    def test_agrees_with_a_run_at_96_more_bits(self, bits):
        cases = [
            (THREE_FAMILIES[0], "-31/10"),
            (THREE_FAMILIES[1], "13/10"),
            (THREE_FAMILIES[2], "-1+1/3i"),
            (from_mathieu(MathieuParams(q="2i"))[0], "1/2"),
            (RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                            delta="1/2", s=0), "-11/5"),
            (TestScaledTail.HEUN_EDGE, "-23/10"),
            (RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/3",
                            delta="2/3+1/5i", alpha="5/2", s="-1/2"),
             "-1+1/2i"),
        ]
        tol = mp.mpf(2) ** (40 - bits)
        for spec, B in cases:
            for K in (40, 400):
                got = d2_sequence(spec, B, K, bits)
                ref = d2_sequence(spec, B, K, bits + 96)
                with working_precision(bits + 96):
                    for x, y in ((got.estimate, ref.estimate),
                                 (got.tail, ref.tail)):
                        assert abs(x - y) <= tol * max(1, abs(y)), \
                            (spec, B, K)


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
