"""Zero tracking across degrees and the d2 connection-coefficient limit."""

import itertools
import json
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from heunzeros import recurrence, rootfind, tracking
from heunzeros.perturbation import (
    BoundaryOrderError,
    perturbative_seeds,
    zero_estimate,
)
from heunzeros.recurrence import build_family, eval_sequence
from heunzeros.rootfind import (
    NonConvergenceError,
    ZeroSet,
    find_all_roots,
    real_zero_count,
    tridiagonal_eigenvalues,
)
from heunzeros.scalars import QQi, exact_value, to_mpc, working_precision
from heunzeros.tracking import (
    continuant,
    convergence_report,
    d2_closed_form_s0,
    d2_sequence,
    d2_zero_search,
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


def failing_below(bits):
    """tridiagonal_eigenvalues, but None below the given precision."""
    real = tracking.tridiagonal_eigenvalues

    def ql(rows, precision_bits=53):
        if precision_bits < bits:
            return None
        return real(rows, precision_bits)
    return ql


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

    def test_ladder_matches_estimate_seeding(self):
        # solve_zeros seeds from the Jacobi-matrix eigenvalues; the
        # estimate-seeded polish runs the same recurrence kernel, so
        # mpmath's polyroots on the exact dense c_8 checks both from
        # outside it
        for spec in THREE_FAMILIES:
            est = find_all_roots(continuant(spec, 8),
                                 seeds=perturbative_seeds(spec, 7))
            eig = solve_zeros(spec, 8)
            assert sorted(eig.labels) == list(range(8))
            with working_precision(256):
                dense = mp.polyroots(
                    [to_mpc(c) for c in reversed(build_family(spec, 8)[8]
                                                 .coeffs)],
                    maxsteps=100, extraprec=256)
            dense = sorted(dense, key=lambda z: (z.real, z.imag))
            for zs in (est, eig):
                worst = max(abs(x - y) for x, y in zip(sorted_zeros(zs),
                                                       dense))
                assert worst < mp.mpf(2) ** -80, spec.kind.value

    def test_rejects_bad_inputs(self, lame_small):
        with pytest.raises(InvalidSpecError):
            solve_zeros(lame_small, 0)

    def test_inexact_parameters_solve_at_the_requested_precision(self):
        # q = 2 given as a 512-bit float is the exact spec of q = 2 and
        # solves to the same zeros, bit for bit
        exact_spec = from_mathieu(MathieuParams(q=2))[0]
        exact = solve_zeros(exact_spec, 8, precision_bits=512)
        with working_precision(512):
            spec = from_mathieu(MathieuParams(q=mp.mpf(2)))[0]
        assert spec == exact_spec
        inexact = solve_zeros(spec, 8, precision_bits=512)
        assert inexact.zeros == exact.zeros


class TestJacobiSeeds:
    def test_s0_eigenvalues_are_the_grid(self):
        spec = THREE_FAMILIES[0].with_s(0)
        eig = tridiagonal_eigenvalues(continuant(spec, 12))
        grid = [-complex(recurrence_coeffs(spec, k)[0]) for k in range(12)]
        assert sorted(eig, key=abs) == sorted(grid, key=abs)

    @pytest.mark.parametrize("spec", THREE_FAMILIES,
                             ids=lambda spec: spec.kind.value)
    def test_eigenvalues_are_close_to_the_zeros(self, spec):
        zs = solve_zeros(spec, 12)
        eig = sorted(tridiagonal_eigenvalues(continuant(spec, 12)),
                     key=lambda z: (z.real, z.imag))
        for z, e in zip(sorted_zeros(zs), eig):
            assert abs(complex(z) - e) < 1e-10 * (1 + abs(e))

    def test_failed_double_eigenvalue_solve_climbs_a_rung(self,
                                                         monkeypatch):
        spec = THREE_FAMILIES[1]
        eig = solve_zeros(spec, 10)
        assert eig.seed_bits == 53
        monkeypatch.setattr(tracking, "tridiagonal_eigenvalues",
                            failing_below(106))
        climbed = solve_zeros(spec, 10)
        assert climbed.seed_bits == 106
        assert climbed.labels == eig.labels
        worst = max(abs(x - y) for x, y in zip(sorted_zeros(eig),
                                               sorted_zeros(climbed)))
        assert worst < mp.mpf(2) ** -80

    def test_extended_ql_agrees_with_doubles(self):
        spec = THREE_FAMILIES[1]
        rows = continuant(spec, 12)
        low = tridiagonal_eigenvalues(rows)
        high = [complex(h) for h in tridiagonal_eigenvalues(rows, 106)]
        assert len(high) == 12
        for h in high:
            assert min(abs(h - e) for e in low) < 1e-13 * (1 + abs(h))

    @pytest.mark.parametrize("m,seed,step", [(89, 1, "1e-06"),
                                             (100, 2, "0.00022")],
                             ids=["89", "100"])
    def test_non_normal_matrix_escalates_to_106_bits(self, m, seed, step):
        # the polish of the double seeds stops at the first one whose
        # first Newton step is above 2^-20 relative; the 106-bit seeds
        # stand
        rows = continuant(WHILL_STRONG, m)
        with pytest.raises(NonConvergenceError,
                           match=rf"^double seed {seed}: its first "
                                 rf"Newton step is {step} \(1 \+ \|z - w\|\)"
                                 rf", above 2\^-20$") as exc:
            find_all_roots(rows, tridiagonal_eigenvalues(rows))
        assert exc.value.overlapping == (seed,)
        seeds = tridiagonal_eigenvalues(rows, 106)
        zs = find_all_roots(rows, seeds=seeds)
        for e in map(to_mpc, seeds):
            assert min(abs(z - e) for z in zs.zeros) < 1e-10 * (1 + abs(e))

    def test_deflation_floor_lets_higher_precision_converge(self):
        # near a small eigenvalue of this non-normal matrix rounding
        # leaves the off-diagonal entries at a floor tied to the matrix
        # scale, where they deflate; more bits give better seeds (the
        # rotation QL on sqrt(N_k) needed that floor to end at all)
        rows = continuant(WHILL_STRONG, 89)
        zeros = solve_zeros(WHILL_STRONG, 89).zeros

        def error(bits):
            eig = tridiagonal_eigenvalues(rows, precision_bits=bits)
            with working_precision(256):
                eig = [to_mpc(e) for e in eig]
                return max(min(abs(z - e) for e in eig) / abs(z)
                           for z in zeros)

        assert error(160) < min(1e-25, error(106))

    def test_stalled_top_entry_deflates(self):
        # in the Lame s = 1/2 matrix at m = 40 the rotation QL's top
        # off-diagonal entry of a block stopped shrinking once s e_l
        # floored to zero, and the 106-bit run hit its step limit unless
        # a stall rule deflated it; the rational QL needs no such rule
        spec = from_lame(LameParams(n=2, s="1/2"))[0]
        rows = continuant(spec, 40)
        zeros = solve_zeros(spec, 40).zeros

        def error(bits):
            eig = tridiagonal_eigenvalues(rows, precision_bits=bits)
            with working_precision(256):
                eig = [to_mpc(e) for e in eig]
                return max(min(abs(z - e) for e in eig) / abs(z)
                           for z in zeros)

        assert error(106) < min(1e-20, error(53))

    def test_escalated_eigenvalues_are_bit_identical(self):
        # integer arithmetic: the same bits on every call, whatever the
        # caller's working precision
        rows = continuant(WHILL_STRONG, 89)
        with working_precision(256):
            a = tridiagonal_eigenvalues(rows, precision_bits=106)
        with working_precision(512):
            b = tridiagonal_eigenvalues(rows, precision_bits=106)
        assert [(x.a, x.b, x.d) for x in a] == [(x.a, x.b, x.d) for x in b]

    def test_seed_rungs(self, monkeypatch):
        # every rung gives seeds that Newton takes to one zero, so the
        # ladder climbs to the top; the patched QL records each run
        spec = THREE_FAMILIES[1]
        runs = []

        def one_seed(rows, bits=53):
            runs.append(bits)
            return [mp.mpc(0)] * rows.degree

        monkeypatch.setattr(tracking, "tridiagonal_eigenvalues", one_seed)
        for bits, want in [(256, [53, 106, 212, 256]), (80, [53, 80]),
                           (53, [53])]:
            runs.clear()
            with pytest.raises(NonConvergenceError) as exc:
                solve_zeros(spec, 4, precision_bits=bits)
            assert runs == want
            msg = str(exc.value)
            assert "degree-4 polynomial" in msg
            assert f"precision_bits = {bits} is too low" in msg
            for rung in sorted(set(want)):
                assert f"{rung} bits: the disks of 4 of 4 polished seeds " \
                    "overlap (indices [0, 1, 2, 3])" in msg

    def test_failed_ql_skips_its_rung(self, monkeypatch):
        spec = THREE_FAMILIES[1]
        real = tracking.tridiagonal_eigenvalues
        runs = []

        def none_at_106(rows, bits=53):
            runs.append(bits)
            if bits == 53:
                return [mp.mpc(0)] * rows.degree
            return None if bits == 106 else real(rows, bits)

        monkeypatch.setattr(tracking, "tridiagonal_eigenvalues", none_at_106)
        zs = solve_zeros(spec, 4)
        assert (runs, zs.seed_bits) == ([53, 106, 212], 212)
        monkeypatch.setattr(tracking, "tridiagonal_eigenvalues",
                            lambda rows, bits=53: None)
        with pytest.raises(NonConvergenceError,
                           match=r"53 bits: the QL failed; 106 bits: the QL "
                                 r"failed; 212 bits: the QL failed; 256 "
                                 r"bits: the QL failed\. precision_bits"):
            solve_zeros(spec, 4)

    @pytest.mark.parametrize("off,rung", [(2.0 ** -15, 106),
                                          (2.0 ** -30, 53)],
                             ids=["off-2^-15", "off-2^-30"])
    def test_first_steps_judge_the_double_seeds(self, monkeypatch, off,
                                                rung):
        # double seeds off by 2^-15 relative give way at their first
        # Newton step; off by 2^-30 they stand, and with no higher rung
        # they are not judged at all
        spec = THREE_FAMILIES[1]
        real = tracking.tridiagonal_eigenvalues

        def shifted(rows, bits=53):
            eig = real(rows, bits)
            if bits == 53:
                eig = [e + off * (1 + abs(e)) for e in eig]
            return eig

        monkeypatch.setattr(tracking, "tridiagonal_eigenvalues", shifted)
        assert solve_zeros(spec, 6).seed_bits == rung
        assert solve_zeros(spec, 6, precision_bits=53).seed_bits == 53
        monkeypatch.setattr(tracking, "tridiagonal_eigenvalues",
                            lambda rows, bits=53:
                            shifted(rows) if bits == 53 else None)
        if rung == 106:
            with pytest.raises(NonConvergenceError,
                               match=r"53 bits: double seed 0: its "
                                     r"first Newton step is [0-9.e-]+ "
                                     r"\(1 \+ \|z - w\|\), above 2\^-20; "
                                     r"106 bits: the QL failed"):
                solve_zeros(spec, 6)

    def test_residual_failure_stops_the_ladder(self, monkeypatch):
        # disjoint disks whose residuals miss tol: seeds from a higher
        # rung would be polished to the same points, so none is tried
        import heunzeros.rootfind as rootfind

        spec = THREE_FAMILIES[1]
        runs = []
        real = tracking.tridiagonal_eigenvalues

        def recording(rows, bits=53):
            runs.append(bits)
            return real(rows, bits)

        polish = rootfind._fixed_newton

        def never_converged(tables, F, z, t, real=False, seed=None):
            # a step twice the tolerance 2^-t (1 + |z|): small disks
            (x, y), _ = polish(tables, F, z, t, real, seed)
            return (x, y), ((1 << F) + math.isqrt(x * x + y * y)) >> (t - 1)

        monkeypatch.setattr(tracking, "tridiagonal_eigenvalues", recording)
        monkeypatch.setattr(rootfind, "_fixed_newton", never_converged)
        with pytest.raises(NonConvergenceError,
                           match=r"53 bits: 6 of 6 roots failed the "
                                 r"tolerance check .* though their disks "
                                 r"are disjoint.*\. precision_bits = 256 "
                                 r"is too low; raise it$"):
            solve_zeros(spec, 6)
        assert runs == [53]

    def test_a_double_zero_is_not_blamed_on_precision(self):
        # reduced gamma = -3/2, delta = -5/2 at s = 0: the grid points
        # -D_j and -D_k coincide for j + k = 5, so c_33 has double
        # zeros.  Newton steps that end on them, where p' = 0, give
        # infinite disks at every rung, which no precision separates
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="-3/2",
                              delta="-5/2", s=0)
        with pytest.raises(NonConvergenceError) as exc:
            solve_zeros(spec, 33)
        msg = str(exc.value)
        assert "256 bits: the disks of 33 of 33 polished seeds overlap" \
            in msg
        assert msg.endswith(
            "At 256 bits the Newton steps of 6 seeds (indices [0, 1, 2, 3, "
            "4, 5]) ended where p' = 0, as at a multiple zero; more "
            "precision does not separate zeros where p' vanishes")
        assert "raise it" not in msg
        assert exc.value.stationary == (0, 1, 2, 3, 4, 5)

    @pytest.mark.parametrize("spec,m", [
        (from_mathieu(MathieuParams(q=2))[0], 40),
        (from_lame(LameParams(n=2, s="1/2"))[0], 40),
        (from_mathieu(MathieuParams(q="2i"))[0], 30),
    ], ids=["mathieu-2", "lame-1/2", "mathieu-2i"])
    def test_every_rung_gives_the_same_zeros(self, monkeypatch, spec, m):
        # the double seeds stand; without them the next rung's seeds
        # reach the same zeros to the solver tolerance
        low = solve_zeros(spec, m)
        assert low.seed_bits == 53
        monkeypatch.setattr(tracking, "tridiagonal_eigenvalues",
                            failing_below(106))
        high = solve_zeros(spec, m)
        assert high.seed_bits == 106
        assert high.labels == low.labels
        for x, y in zip(low.zeros, high.zeros):
            assert abs(x - y) < low.tol * (1 + abs(x))

    def test_strong_coupling_degree_100_is_bit_identical(self):
        a = solve_zeros(WHILL_STRONG, 100)
        b = solve_zeros(WHILL_STRONG, 100)
        assert a.seed_bits == 106
        assert [(z.real._mpf_, z.imag._mpf_) for z in a.zeros] == \
            [(z.real._mpf_, z.imag._mpf_) for z in b.zeros]
        assert real_zero_count(a) == 26
        assert sum(z.imag == 0 for z in a.zeros) == 26
        # the zeros of a real polynomial, exactly symmetric about the axis
        assert sorted((z.real._mpf_, z.imag._mpf_) for z in a.zeros) == \
            sorted((z.real._mpf_, mp.fneg(z.imag, exact=True)._mpf_)
                   for z in a.zeros)

    def test_strong_coupling_solve_is_bit_identical(self):
        a = solve_zeros(WHILL_STRONG, 50)
        b = solve_zeros(WHILL_STRONG, 50)
        assert [(z.real._mpf_, z.imag._mpf_) for z in a.zeros] == \
            [(z.real._mpf_, z.imag._mpf_) for z in b.zeros]
        assert all(a.converged)
        assert real_zero_count(a) == 0

    def test_strong_coupling_real_counts_by_degree(self):
        # the real zeros vanish and come back as m grows; the rung that
        # stands and the real count, pinned across the 53 -> 106 switch
        want = {20: (53, 2), 30: (53, 2), 40: (53, 2), 50: (53, 0),
                55: (53, 1), 60: (53, 2), 65: (106, 3), 70: (106, 4),
                75: (106, 5), 80: (106, 8), 85: (106, 13), 90: (106, 18),
                95: (106, 23), 100: (106, 26)}
        got = {}
        for m in want:
            zs = solve_zeros(WHILL_STRONG, m)
            got[m] = (zs.seed_bits, real_zero_count(zs))
        assert got == want

    def test_degree_60_stands_on_the_double_rung(self):
        # the first steps of the double seeds pass, so c_60 stands at 53
        # bits; each zero of a 512-bit solve lies in the disk of radius
        # (m + 1) residual around its counterpart
        zs = solve_zeros(WHILL_STRONG, 60)
        ref = solve_zeros(WHILL_STRONG, 60, precision_bits=512)
        assert (zs.seed_bits, real_zero_count(zs)) == (53, 2)
        with working_precision(512):
            for z, r in zip(zs.zeros, zs.residuals):
                assert min(abs(z - x) for x in ref.zeros) <= 61 * r

    def test_recurrence_resolves_degree_89_at_80_bits(self):
        # the dense c_89 rounded to 80 bits could not resolve these
        # zeros; the recurrence evaluates p_89 without it
        zs = solve_zeros(WHILL_STRONG, 89, precision_bits=80)
        ref = solve_zeros(WHILL_STRONG, 89, precision_bits=512)
        assert real_zero_count(zs) == 17
        for x, y in zip(zs.zeros, ref.zeros):
            assert abs(x - y) < zs.tol * (1 + abs(y))

    def test_degree_89_stands_at_64_bits(self):
        # the rational QL's 64-bit seeds resolve c_89 to tol = 2^-32;
        # each zero is within tol (1 + |z|) of a 256-bit solve's
        zs = solve_zeros(WHILL_STRONG, 89, precision_bits=64)
        ref = solve_zeros(WHILL_STRONG, 89)
        assert (zs.seed_bits, real_zero_count(zs)) == (64, 17)
        for x, y in zip(zs.zeros, ref.zeros):
            assert abs(x - y) < zs.tol * (1 + abs(y))

    def test_solve_builds_no_dense_coefficients(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense coefficients on the solve path")

        monkeypatch.setattr(recurrence, "build_family", forbidden)
        for spec in THREE_FAMILIES:
            assert solve_zeros(spec, 12).degree == 12
        assert solve_zeros(WHILL_STRONG, 50).degree == 50

    def test_double_rung_builds_no_big_floats(self, monkeypatch):
        # the 53-bit matrix comes from the exact rows, and its complex
        # double seeds are read exactly
        def forbidden(*args, **kwargs):
            raise AssertionError("big floats on the double seed path")

        monkeypatch.setattr(rootfind, "to_mpc", forbidden)
        monkeypatch.setattr(mp, "sqrt", forbidden)
        for spec in THREE_FAMILIES:
            assert solve_zeros(spec, 12).seed_bits == 53
        assert solve_zeros(WHILL_STRONG, 50).seed_bits == 53

    def test_fixed_rung_builds_no_big_floats(self, monkeypatch):
        # the 106-bit rung reads the exact rows in fixed point, takes no
        # square root of N_k, and hands its seeds over as exact QQi
        def forbidden(*args, **kwargs):
            raise AssertionError("big floats on the fixed seed path")

        for name in ("to_mpc", "_from_fixed"):
            monkeypatch.setattr(rootfind, name, forbidden)
        monkeypatch.setattr(mp, "sqrt", forbidden)
        assert solve_zeros(WHILL_STRONG, 89).seed_bits == 106


def random_specs(count, seed):
    """count pairs (spec, m) drawn by a seeded generator: an exact
    Heun, confluent or reduced spec whose parameters are rationals over
    1, 2, 3, 4, 5, 7 or 10, with |s| <= 3, s nonzero and sometimes
    complex, and a degree m in 2..25.  At s = 0 a grid with coinciding
    points has multiple zeros, which no seeds resolve."""
    rng = random.Random(seed)

    def rational(bound):
        d = rng.choice((1, 2, 3, 4, 5, 7, 10))
        return Fraction(rng.randint(-bound * d, bound * d), d)

    specs = []
    while len(specs) < count:
        kind = rng.choice(list(FamilyKind))
        s = rational(3) if rng.random() < 0.6 else \
            QQi(rational(2), rational(2))
        try:
            spec = RecurrenceSpec(
                kind=kind, gamma=rational(3), delta=rational(3), s=s,
                alpha=None if kind is FamilyKind.REDUCED else rational(3),
                beta=rational(3) if kind is FamilyKind.HEUN else None)
        except InvalidSpecError:        # gamma a nonpositive integer
            continue
        if s:
            specs.append((spec, rng.randint(2, 25)))
    return specs


RANDOM_SPECS = random_specs(20, 2026)


class TestRandomSpecs:
    """A seeded sweep of random specs: the fixed-point rung's seeds stand
    at 256 bits, and no zero depends on the caller's mpmath precision."""

    @pytest.mark.parametrize("spec,m", RANDOM_SPECS, ids=[
        f"{i}-{spec.kind.value}-m{m}" for i, (spec, m) in
        enumerate(RANDOM_SPECS)])
    def test_fixed_rung_seeds_stand(self, spec, m):
        rows = continuant(spec, m)
        seeds = tridiagonal_eigenvalues(rows, 106)
        assert seeds is not None
        assert find_all_roots(rows, seeds).degree == m
        with mp.workprec(53):
            low = solve_zeros(spec, m)
        with mp.workprec(300):
            high = solve_zeros(spec, m)
        assert (low.points, low.labels, low.seed_bits) == \
            (high.points, high.labels, high.seed_bits)


class TestFixedPointNewton:
    """`rootfind._fixed_newton` steps at rising widths and evaluates at
    the full width about once per polished seed: one per real zero and
    per conjugate pair of a real polynomial."""

    @pytest.mark.parametrize("spec,m,rung,polished,aborted", [
        (THREE_FAMILIES[1], 40, 53, 40, 0),
        (WHILL_STRONG, 100, 106, 26 + 37, 3),
    ], ids=["mathieu-2", "whill-m100"])
    def test_about_one_full_width_evaluation_per_zero(self, monkeypatch,
                                                      spec, m, rung,
                                                      polished, aborted):
        widths, starts = [], []
        kernel, polish = rootfind._continuant_kernel, rootfind._fixed_newton

        def counting(rows, F, z, stops, derivative=False,
                     real=False):
            widths.append(F)
            return kernel(rows, F, z, stops, derivative, real)

        def polishing(*args):
            # (judged, start): only the double seeds below a higher rung
            # are judged by their first step, and carry their index
            starts.append((args[5] is not None, len(widths)))
            return polish(*args)

        monkeypatch.setattr(rootfind, "_continuant_kernel", counting)
        monkeypatch.setattr(rootfind, "_fixed_newton", polishing)
        assert solve_zeros(spec, m).seed_bits == rung
        full = 256 + 24 + rootfind._KERNEL_GUARD
        # the seeds of the rung that stands, and of the double rung that
        # gave way to it, counted apart
        stood = [k for judged, k in starts if judged == (rung == 53)]
        gave_way = [k for judged, k in starts if judged != (rung == 53)]
        assert max(widths) == full
        assert widths.count(full) <= 1.3 * len(stood)
        # each polished seed starts below the full width
        assert (len(stood), len(gave_way)) == (polished, aborted)
        assert all(widths[k] < full for _, k in starts)

    @pytest.mark.parametrize("spec,m,worst", [
        (WHILL_STRONG, 100, 7.3e-79),
        (from_lame(LameParams(n=2, s="1/2"))[0], 40, 4.8e-85),
    ], ids=["whill-m100", "lame-1/2"])
    def test_zeros_against_a_768_bit_solve(self, spec, m, worst):
        # each zero of the 768-bit solve lies in the disk of radius
        # (m + 1) residual around its 256-bit counterpart, the relative
        # error stays within 4 times the worst of the mpc polish this
        # polish replaced, and a second solve gives the same bits
        zs = solve_zeros(spec, m)
        ref = solve_zeros(spec, m, precision_bits=768)
        with working_precision(768):
            errors = [min(abs(z - x) for x in ref.zeros) for z in zs.zeros]
            assert all(e <= (m + 1) * r
                       for e, r in zip(errors, zs.residuals))
            assert max(e / abs(z) for e, z in zip(errors, zs.zeros)) \
                < 4 * worst
        again = solve_zeros(spec, m)
        assert [(z.real._mpf_, z.imag._mpf_, r._mpf_)
                for z, r in zip(zs.zeros, zs.residuals)] == \
            [(z.real._mpf_, z.imag._mpf_, r._mpf_)
             for z, r in zip(again.zeros, again.residuals)]


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


    def test_conjugate_pair_tie_takes_the_first_free_column(self):
        # -1 sits at distance 1/2 from both -1 +- i/2; scipy's
        # linear_sum_assignment gives it the lower-indexed one
        a = [mp.mpc(-1), mp.mpc(2, 1), mp.mpc(2, -1)]
        b = [mp.mpc(-1, "0.5"), mp.mpc(-1, "-0.5"), mp.mpc(2, "1.1"),
             mp.mpc(2, "-1.1")]
        res = match_zeros(a, b)
        assert [(i, j) for i, j, _ in res.pairs] == [(0, 0), (1, 2), (2, 3)]
        assert res.new_in_b == (1,)
        swapped = match_zeros(a[:1], b[1::-1])
        assert [(i, j) for i, j, _ in swapped.pairs] == [(0, 0)]

    @given(st.data())
    def test_summed_distance_is_the_brute_force_minimum(self, data):
        lattice = data.draw(st.booleans())
        point = (st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
                 if lattice else
                 st.builds(complex, st.floats(-10, 10), st.floats(-10, 10)))
        n = data.draw(st.integers(1, 6))
        a = data.draw(st.lists(point, min_size=n, max_size=n))
        b = data.draw(st.lists(point, min_size=n, max_size=8))
        res = match_zeros(a, b)
        assert sorted(i for i, _, _ in res.pairs) == list(range(n))
        assert len({j for _, j, _ in res.pairs}) == n
        dist = [[abs(x - y) for y in b] for x in a]
        best = min(sum(dist[i][j] for i, j in enumerate(cols))
                   for cols in itertools.permutations(range(len(b)), n))
        total = sum(d for _, _, d in res.pairs)
        assert abs(total - best) <= 1e-12 * (1 + best)

    def test_same_columns_as_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(2016)
        for case in range(1500):
            n = rng.randint(1, 12)
            m = rng.randint(n, 15)
            if case % 3 == 0:
                cost = [[rng.random() for _ in range(m)] for _ in range(n)]
            elif case % 3 == 1:
                cost = [[float(rng.randint(0, 3)) for _ in range(m)]
                        for _ in range(n)]
            else:
                a, b = ([complex(rng.randint(-2, 2), rng.randint(-2, 2))
                         for _ in range(size)] for size in (n, m))
                cost = [[abs(x - y) for y in b] for x in a]
            _, cols = optimize.linear_sum_assignment(cost)
            assert tracking._assignment(cost) == cols.tolist(), cost


def _zero_set(points, precision_bits):
    """A ZeroSet of the Gaussian-integer points, read with the F
    fraction bits of a `find_all_roots` result at precision_bits."""
    return ZeroSet(points=tuple(points), residuals=(0,) * len(points),
                   degree=len(points), precision_bits=precision_bits, tol=0)


def _matched_costs(za, zb):
    """match_zeros(za, zb) and the cost matrix its assignment ran on."""
    seen = []
    run = tracking._assignment
    tracking._assignment = lambda cost: seen.append(cost) or run(cost)
    try:
        res = match_zeros(za, zb)
    finally:
        tracking._assignment = run
    return res, seen[0]


# quarter-integer lattice points, so that zeros and estimates tie often
_QUARTER = st.builds(lambda x, y: (Fraction(x, 4), Fraction(y, 4)),
                     st.integers(-8, 8), st.integers(-8, 8))


class TestIntegerBookkeeping:
    """Labels, matching costs and shared digits against references in
    Fractions and 4F-bit mpmath, at two working precisions that must not
    matter."""

    @given(st.lists(_QUARTER, min_size=1, max_size=7),
           st.lists(st.builds(lambda x, y, d: QQi(Fraction(x, d),
                                                  Fraction(y, d)),
                              st.integers(-24, 24), st.integers(-24, 24),
                              st.sampled_from([1, 2, 3, 4, 6, 12])),
                    min_size=1, max_size=7))
    def test_labels_are_the_greedy_rule_in_fractions(self, zeros, ests):
        bits = 8
        scale = 2 ** _zero_set((), bits).F
        floored = [(Fraction(math.floor(e.re * scale), scale),
                    Fraction(math.floor(e.im * scale), scale))
                   for e in ests]
        want, free = [], list(range(len(ests)))
        for zr, zi in zeros:
            best = best_d = None
            for k in free:
                d = (zr - floored[k][0]) ** 2 + (zi - floored[k][1]) ** 2
                if best is None or d < best_d:
                    best, best_d = k, d
            want.append(best)
            if best is not None:
                free.remove(best)
        zs = _zero_set([(int(x * scale), int(y * scale)) for x, y in zeros],
                       bits)
        for ambient in (8, 1024):
            with mp.workprec(ambient):
                assert tracking._labels_by_proximity(zs, ests) == want

    @given(st.data())
    def test_every_cost_is_the_correctly_rounded_distance(self, data):
        bits = data.draw(st.sampled_from([8, 53, 256]))
        F = _zero_set((), bits).F
        part = st.integers(-2 ** (F + 8), 2 ** (F + 8))
        a = data.draw(st.lists(st.tuples(part, part), min_size=1,
                               max_size=4))
        # an exact distance 5t, drawn points, and a distance far below 1
        t = data.draw(st.integers(1, 2 ** 40))
        b = ([(a[0][0] + 3 * t, a[0][1] - 4 * t)]
             + data.draw(st.lists(st.tuples(part, part),
                                  min_size=len(a) - 1, max_size=4))
             + [(a[-1][0] + data.draw(st.integers(-3, 3)), a[-1][1] + 1)])
        za = _zero_set(a, bits)
        with working_precision(F + 64):
            zb = [mp.mpc(mp.ldexp(x, -F), mp.ldexp(y, -F)) for x, y in b]
        with mp.workprec(4 * F):
            want = [[float(mp.ldexp(mp.sqrt((x - u) ** 2 + (y - v) ** 2),
                                    -F)) for u, v in b] for x, y in a]
        pairings = []
        for ambient in (8, 1024):
            with mp.workprec(ambient):
                res, cost = _matched_costs(za, zb)
            assert cost == want
            pairings.append([(i, j) for i, j, _ in res.pairs])
        assert cost[0][0] == 5 * t / 2 ** F
        assert pairings[0] == pairings[1]

    @given(st.integers(1, 59), st.integers(-10 ** 6, 10 ** 6),
           st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
    def test_shared_digits_are_exact_at_the_boundary(self, d, x, y, den):
        za = QQi(Fraction(x, den), Fraction(y, den))
        if not za:
            za = QQi(1)
        # |za - on| = 0.5 10^-d |za| exactly, and |on| < |za|
        half = Fraction(1, 2 * 10 ** d)
        on = za * QQi(1 - half)
        inside = za * QQi(1 - half + Fraction(1, 10 ** 80))
        for ambient in (8, 1024):
            with mp.workprec(ambient):
                assert stabilized_digits(za, on) == d - 1
                assert stabilized_digits(on, za) == d - 1
                assert stabilized_digits(za, inside) == d


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
        # s = 1/2 given as a float is exact, and so are the estimates: they
        # must not drop to the ambient 53 bits
        with working_precision(256):
            spec, _ = from_lame(LameParams(n=2, s=mp.mpf("0.5")))
        row = zero_table(spec, {8: solve_zeros(spec, 8)}, k_max=2)[2]
        with working_precision(256):
            assert abs(to_mpc(row["orders"][2]) - mp.mpf(-1059) / 320) \
                < mp.mpf(2) ** -250

    @pytest.mark.parametrize("top", [4, 30])
    @pytest.mark.parametrize("gamma", ["1/3", mp.mpf(1) / 3],
                             ids=["exact", "bigfloat"])
    def test_table_cells_are_the_estimates_of_each_order(self, top, gamma):
        # one expansion per row; its partial sums are the estimates of
        # orders 0, 1 and 2, or None where that order has no formula
        with working_precision(256):
            spec = RecurrenceSpec(kind=FamilyKind.HEUN, gamma=gamma,
                                  delta="1/7", s="2/5", alpha="3/2", beta=-1)
        rows = zero_table(spec, {top: solve_zeros(spec, top)}, k_max=top)
        assert [row["k"] for row in rows] == list(range(top))
        with working_precision(256):
            for row in rows:
                for order, cell in enumerate(row["orders"]):
                    try:
                        want = zero_estimate(spec, row["k"], top - 1, order)
                    except BoundaryOrderError:
                        want = None
                    assert cell == want
            assert [row["orders"][2] is None for row in rows[-3:]] \
                == [False, True, True]

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

    @pytest.mark.parametrize("ambient", [53, 512])
    def test_digits_are_counted_at_the_report_precision(self, lame_small,
                                                        ambient):
        # the zeros k = 2..17 of c_30 and c_40 agree to 15-54 digits;
        # at the 53 bits of a double each pair rounds to one value, and
        # read that way they would count as identical
        with working_precision(ambient):
            rep = convergence_report(lame_small, m_list=(30, 40), digits=20)
        assert rep.n_stable(20) == 16
        digits = {t.label_k: t.stabilized[(30, 40)] for t in rep.tracks
                  if (30, 40) in t.stabilized}
        assert (digits[1], digits[2], digits[17]) == (60, 54, 15)
        with working_precision(256):
            for t in rep.tracks:
                if (30, 40) in t.stabilized:
                    assert t.stabilized[(30, 40)] == stabilized_digits(
                        t.value_at(30), t.value_at(40))

    def test_needs_two_degrees(self, lame_small):
        with pytest.raises(InvalidSpecError):
            convergence_report(lame_small, m_list=(12,))

    def test_a_repeated_degree_is_named(self, lame_small):
        with pytest.raises(InvalidSpecError,
                           match=r"at least two distinct degrees, got 12, "
                                 r"12$"):
            convergence_report(lame_small, m_list=(12, 12))


def _public_results(spec, m_list, B):
    """What solve_zeros, convergence_report, match_zeros, zero_table,
    d2_sequence and d2_zero_search return on spec, as exact values and
    bits; match distances, mpf at the working precision, are left out."""
    sets = [solve_zeros(spec, m) for m in m_list]
    rep = convergence_report(spec, m_list)
    res = match_zeros(*sets)
    est = d2_sequence(spec, B, K=400)
    found = d2_zero_search(spec, B)
    return {
        "zero sets": [(zs.points, zs.labels, zs.seed_bits,
                       [_bits(r) for r in zs.residuals],
                       [_bits(z) for z in zs.zeros])
                      for zs in sets + [rep.zero_sets[m] for m in m_list]],
        "pairs": ([(i, j) for i, j, _ in res.pairs], res.new_in_b),
        "tracks": [(t.label_k, sorted(t.stabilized.items()),
                    sorted((m, _bits(z)) for m, z in t.entries.items()))
                   for t in rep.tracks],
        "table": [(row["k"], row["orders"],
                   [(m, z and _bits(z)) for m, z in row["zeros"].items()])
                  for row in zero_table(spec, rep.zero_sets, k_max=5)],
        "d2": [_bits(x) for x in (est.estimate, est.tail,
                                  est.error_indicator)],
        "search": (_bits(found.B), _bits(found.d2), found.iterations,
                   found.K_used),
    }


class TestPrecisionIndependence:
    """The public results do not depend on the caller's mpmath
    precision.  On Mathieu q = 2i, c_30 has two zeros with real part
    -0.5406395812..., equal to 53 bits but not to 280: a sort on mpc at
    the caller's precision put them in one order at 20 and 53 bits and
    the other at 300, and the labels followed."""

    @pytest.mark.parametrize("ambient", [20, 53, 300])
    @pytest.mark.parametrize("spec,m_list,B", [
        (from_mathieu(MathieuParams(q="2i"))[0], (24, 30), "1/2"),
        (from_lame(LameParams(n=2, s="1/2"))[0], (24, 30), "-4"),
    ], ids=["mathieu-2i", "lame-1/2"])
    def test_results_at_any_working_precision(self, spec, m_list, B,
                                              ambient):
        with mp.workprec(300):
            want = _public_results(spec, m_list, B)
        with mp.workprec(ambient):
            got = _public_results(spec, m_list, B)
        for part in want:
            assert got[part] == want[part], part


class TestD2Sequence:
    def test_constant_sequence_identity(self):
        # at gamma = delta = 1/2, s = 0, B = -1/4 the recurrence gives
        # c_{k+1}/c_k = (k - 1/2)/(k + 1), which the scaling cancels
        # exactly: a_k == 1 for every k
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="1/2", s=0)
        b = mp.mpf(-1) / 4
        c = eval_sequence(spec, exact_value(b), 200)
        with working_precision(256):
            factor, worst = mp.mpf(1), mp.mpf(0)
            for k in range(1, 201):
                factor = factor * k / (mp.mpf(1) / 2 + (k - 2))
                worst = max(worst, abs(factor * to_mpc(c[k]) - 1))
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

    @pytest.mark.parametrize("K", [39, 400])
    def test_exact_zero_of_the_tail_at_s0(self, K):
        # at s = 0, c_k(-4) = 0 for k >= 3: p_k vanishes, the kernel's
        # window exponent falls without bound, and a_k is exactly 0
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="1/2", s=0)
        est = d2_sequence(spec, -4, K=K)
        assert (est.estimate, est.tail, est.error_indicator) == (0, 0, 0)
        assert d2_closed_form_s0(spec, -4) == 0

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

    def test_the_spec_is_checked_once_per_precision(self, monkeypatch):
        # the last (spec, precision_bits) that passed is not checked
        # again; a refused spec raises on every call
        reads, convert = [], tracking.to_mpc

        def counting(x):
            reads.append(x)
            return convert(x)

        monkeypatch.setattr(tracking, "to_mpc", counting)
        monkeypatch.setattr(tracking, "_d2_checked", None)
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/3",
                              delta="1/7", s="1/10")

        def checks():
            return sum(x is spec.gamma or x is spec.delta for x in reads)

        for B, bits, want in (("13/10", 256, 2), ("7/5", 256, 2),
                              ("7/5", 128, 4), ("7/5", 256, 6)):
            d2_sequence(spec, B, K=50, precision_bits=bits)
            assert checks() == want, (B, bits)
        refused = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/3",
                                 delta=2, s="1/10")
        for _ in range(2):
            with pytest.raises(InvalidSpecError):
                d2_sequence(refused, 1, K=50)
        assert tracking._d2_checked == (spec, 256)

    def test_needs_two_terms(self):
        spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                              delta="1/2", s=0)
        with pytest.raises(InvalidSpecError):
            d2_sequence(spec, mp.mpf(1), K=1)


def reference_d2(spec, B, K):
    """(estimate, tail, indicator) by the plain route: c_0..c_K by the
    plain mpc loop of the recurrence at the working precision, each c_k
    scaled by k!/(delta-1)_k, and the 8-node Neville extrapolation
    against 1/k read from the whole list."""
    gamma, s = to_mpc(spec.gamma), to_mpc(spec.s)
    c = [mp.mpc(1)]
    for m in range(K):
        D, E, F = map(to_mpc, recurrence_coeffs(spec, m))
        prev = c[m - 1] if m else 0
        c.append(((B + D + s * E) * c[m] - s * F * prev)
                 / ((m + 1) * (m + gamma)))
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
    """d2_sequence runs a_k = c_k k!/(delta-1)_k as the continuant over
    its normaliser, from a kept table of continuant rows and a kept
    normaliser; it must agree with the plain route and not depend on
    what those held before."""

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

    # gamma = delta = 1/2 + 3 * 2^-64, as a Fraction and as a 256-bit
    # float: one exact spec
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

    # (spec, precision, K): switches specs and precisions, grows and
    # reuses one table, and puts the same spec given as Fractions and as
    # mpf next to each other
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
            monkeypatch.setattr(tracking, "_d2_rows", (None, ()))
            monkeypatch.setattr(tracking, "_d2_normaliser", (None, ()))
            monkeypatch.setattr(tracking, "_d2_tail", (None, ()))
            cold.append(d2_sequence(spec, B, K, bits))
        for (spec, bits, K), want in zip(self.CASES, cold):
            # the kept rows and normaliser run again, not the kept tail
            monkeypatch.setattr(tracking, "_d2_tail", (None, ()))
            got = d2_sequence(spec, B, K, bits)
            assert [_bits(x) for x in (got.estimate, got.tail,
                                       got.error_indicator)] == \
                [_bits(x) for x in (want.estimate, want.tail,
                                    want.error_indicator)], (spec, bits, K)

    def test_d2_and_the_zeros_step_through_one_kernel(self, monkeypatch):
        # the d2 tail, its normaliser and the Newton steps of the zeros
        # all run rootfind's continuant loop
        calls, polishes = [], []
        kernel, polish = rootfind._continuant_kernel, rootfind._fixed_newton

        def counting(rows, F, z, stops, derivative=False,
                     real=False, start=None):
            calls.append((tuple(stops), derivative))
            return kernel(rows, F, z, stops, derivative, real, start)

        def polishing(*args):
            before = len(calls)
            result = polish(*args)
            polishes.append(len(calls) - before)
            return result

        monkeypatch.setattr(rootfind, "_continuant_kernel", counting)
        monkeypatch.setattr(rootfind, "_fixed_newton", polishing)
        monkeypatch.setattr(tracking, "_d2_normaliser", (None, ()))
        monkeypatch.setattr(tracking, "_d2_tail", (None, ()))
        spec = THREE_FAMILIES[1]
        d2_sequence(spec, mp.mpf("1.3"), K=400)
        stops = (225, 250, 275, 300, 325, 350, 375, 400)
        assert calls == [(stops, False), (stops, False)]
        assert polishes == []
        calls.clear()
        solve_zeros(spec, 6)
        assert calls and set(calls) == {((6,), True)}
        # each kernel call of the solve is a Newton step of one zero
        assert len(polishes) == 6 and all(polishes)
        assert sum(polishes) == len(calls)

    @pytest.mark.parametrize("spec,B,arms", [
        (THREE_FAMILIES[1], "13/10", [True, True]),
        (THREE_FAMILIES[1], "13/10+1/4i", [False, True]),
        (from_mathieu(MathieuParams(q="2i"))[0], "1/2", [False, True]),
        (RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/3",
                        delta="2/3+1/5i", alpha="5/2", s="-1/2"), "-1",
         [False, False]),
    ], ids=["real", "complex-B", "complex-rows", "complex-normaliser"])
    def test_real_rows_and_a_real_b_run_the_real_arm(self, monkeypatch,
                                                     spec, B, arms):
        # the tail, then its normaliser: the real arm runs where the
        # rows and z are real, and each run gives the complex arm's bits
        taken, kernel = [], rootfind._continuant_kernel

        def both_arms(rows, F, z, stops, derivative=False, real=False,
                      start=None):
            rows = tuple(rows)
            taken.append(real and z[1] == 0)
            states = kernel(rows, F, z, stops, derivative, real, start)
            assert states == kernel(rows, F, z, stops, derivative,
                                    start=start)
            return states

        monkeypatch.setattr(rootfind, "_continuant_kernel", both_arms)
        monkeypatch.setattr(tracking, "_d2_normaliser", (None, ()))
        monkeypatch.setattr(tracking, "_d2_tail", (None, ()))
        d2_sequence(spec, B, K=400)
        assert taken == arms

    def test_the_last_tail_is_kept(self, monkeypatch):
        # the same spec, precision, K and fixed-point B again run no
        # kernel and give the same bits; any other runs one
        calls, kernel = [], rootfind._continuant_kernel

        def counting(rows, F, z, stops, derivative=False, real=False,
                     start=None):
            calls.append(z)
            return kernel(rows, F, z, stops, derivative, real, start)

        monkeypatch.setattr(rootfind, "_continuant_kernel", counting)
        monkeypatch.setattr(tracking, "_d2_tail", (None, ()))
        spec = THREE_FAMILIES[1]
        first = d2_sequence(spec, "13/10", K=400)
        assert len(calls) == 2
        with working_precision(256):
            again = d2_sequence(spec, mp.mpf(13) / 10, K=400)
        assert len(calls) == 2
        assert [_bits(x) for x in (again.estimate, again.tail,
                                   again.error_indicator)] == \
            [_bits(x) for x in (first.estimate, first.tail,
                                first.error_indicator)]
        for args in (("7/5", 400, 256), ("13/10", 800, 256),
                     ("13/10", 400, 128)):
            before = len(calls)
            d2_sequence(spec, args[0], *args[1:])
            assert len(calls) > before, args

    def test_kept_states_give_the_bits_of_runs_with_nothing_kept(
            self, monkeypatch):
        # K grows at a kept B with its nodes beyond the kept K (the tail
        # and the normaliser go on from their states), or with nodes
        # below it, or shrinks, or B is new (each runs from 0); each
        # result is that of a run with nothing kept
        spec = THREE_FAMILIES[1]
        calls = [("13/10", 100), ("13/10", 200), ("7/5", 100),
                 ("13/10", 110), ("7/5", 200), ("13/10", 30),
                 ("7/5", 400), ("3/2", 60), ("13/10", 400)]

        def run(B, K):
            est = d2_sequence(spec, B, K, 64)
            return [_bits(x) for x in (est.estimate, est.tail,
                                       est.error_indicator)]

        def forget():
            for name in ("_d2_rows", "_d2_normaliser", "_d2_tail"):
                monkeypatch.setattr(tracking, name, (None, ()))

        cold = []
        for B, K in calls:
            forget()
            cold.append(run(B, K))
        forget()
        assert [run(B, K) for B, K in calls] == cold

    def test_a_fresh_tail_rounds_nine_quotients(self, monkeypatch):
        # a_k at the eight Neville nodes and a_{K-1}
        quotients, ratio = [], tracking._ratio

        def counting(*args):
            quotients.append(args)
            return ratio(*args)

        monkeypatch.setattr(tracking, "_ratio", counting)
        monkeypatch.setattr(tracking, "_d2_tail", (None, ()))
        d2_sequence(THREE_FAMILIES[1], "13/10", K=400)
        assert len(quotients) == 9

    def test_never_evaluates_the_plain_sequence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("d2_sequence called eval_sequence")

        monkeypatch.setattr(recurrence, "eval_sequence", refuse)
        monkeypatch.setattr(tracking, "eval_sequence", refuse, raising=False)
        est = d2_sequence(THREE_FAMILIES[1], mp.mpf("1.3"), K=400)
        assert abs(est.estimate) > 0


class TestFixedPointTail:
    """d2_sequence runs in fixed point with _KERNEL_GUARD bits beyond the
    requested precision and extrapolates on the fixed-point values; its
    results must hold that precision."""

    # (spec, B, a dyadic B near it): below 64 bits B itself would round
    # differently at the two precisions compared
    CASES = [
        (THREE_FAMILIES[0], "-31/10", "-25/8"),
        (THREE_FAMILIES[1], "13/10", "5/4"),
        (THREE_FAMILIES[2], "-1+1/3i", "-1+3/8i"),
        (from_mathieu(MathieuParams(q="2i"))[0], "1/2", "1/2"),
        (RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                        delta="1/2", s=0), "-11/5", "-9/4"),
        (TestScaledTail.HEUN_EDGE, "-23/10", "-19/8"),
        (RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/3",
                        delta="2/3+1/5i", alpha="5/2", s="-1/2"),
         "-1+1/2i", "-1+1/2i"),
    ]

    @pytest.mark.parametrize("bits", [8, 16, 32, 53, 64, 256, 512])
    def test_agrees_with_a_run_at_96_more_bits(self, bits):
        tol = mp.mpf(2) ** (8 - bits)
        for spec, B, dyadic in self.CASES:
            B = dyadic if bits < 64 else B
            for K in (40, 400, 1600):
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

    def test_doubling_k_steps_each_tail_row_once(self, monkeypatch):
        # the d2-edge-19/20-k2 search of the d2-hunt benchmark doubles K
        # from 400 to 1600 at its current point, then at the older one;
        # each goes on from the state it kept at the old K, as does the
        # normaliser: 10 000 tail rows and 1 600 normaliser rows, where
        # runs from 0 step 12 400 and 2 800
        stepped = {"tail": 0, "normaliser": 0}
        kernel = rootfind._continuant_kernel

        def counting(rows, F, z, stops, derivative=False, real=False,
                     start=None):
            rows = list(rows)
            stepped["normaliser" if z == (0, 0) else "tail"] += len(rows)
            return kernel(rows, F, z, stops, derivative, real, start)

        monkeypatch.setattr(rootfind, "_continuant_kernel", counting)
        for name in ("_d2_rows", "_d2_normaliser", "_d2_tail"):
            monkeypatch.setattr(tracking, name, (None, ()))
        spec = RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/2",
                              delta="1/2", alpha="3/2", beta="-1",
                              s="19/20")
        b0 = QQi(Fraction("-2.57559375"))
        d2_sequence(spec, b0, K=400)      # as `heunzeros d2 --search`
        res = d2_zero_search(spec, b0, K=400)
        assert stepped == {"tail": 10000, "normaliser": 1600}
        assert (res.iterations, res.K_used) == (9, 1600)
        assert mp.nstr(res.B, 15) == "(-2.16802736466249 + 0.0j)"
        assert mp.nstr(res.d2, 15) == "(-2.40245924700235e-22 + 0.0j)"

    def test_search_builds_each_step_row_once(self, monkeypatch):
        # seven d2 evaluations at K = 400 share one table of continuant
        # rows, summed from the rows at k = 0..4
        calls = []
        row = tracking.recurrence_row

        def counting(spec, m):
            calls.append(m)
            return row(spec, m)

        monkeypatch.setattr(tracking, "recurrence_row", counting)
        monkeypatch.setattr(tracking, "_d2_rows", (None, ()))
        spec, _ = from_mathieu(MathieuParams(q=2))
        res = d2_zero_search(spec, mp.mpf("1.4"), K=400)
        assert res.K_used == 400
        assert calls == [0, 1, 2, 3, 4]
