"""Simultaneous root finding at controlled precision."""

import hashlib
import random
from fractions import Fraction
from math import isqrt

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
from heunzeros import rootfind
from heunzeros.recurrence import build_family, leading_coefficient_law
from heunzeros.rootfind import (
    Continuant,
    NonConvergenceError,
    default_tol,
    find_all_roots,
    newton_polygon_seeds,
    real_zero_count,
    tridiagonal_eigenvalues,
)
from heunzeros.scalars import (
    QQi,
    _to_fixed,
    exact_value,
    to_mpc,
    working_precision,
)
from heunzeros.tracking import continuant, solve_zeros

F = Fraction


def jacobi_eigenvalues(spec, m):
    """The double QL eigenvalues of the Jacobi matrix of c_m."""
    return tridiagonal_eigenvalues(continuant(spec, m))


def jacobi_rows(diag, off):
    """The Continuant whose Jacobi matrix has the given diagonal and
    off-diagonal, A = -diag and N = (0,) + off^2, from the exact values
    of the entries."""
    return Continuant(A=tuple(-exact_value(a) for a in diag),
                      N=(QQi(0),) + tuple(exact_value(b) ** 2 for b in off))


def poly_from_roots(roots):
    """The Continuant of prod (B - r), exactly, where a root with a
    nonzero imaginary part stands for itself and its conjugate: a real
    root r is one row A = -r, N = 0, and a pair a +- bi is two rows
    A = -a, -a with N = 0, -b^2."""
    A, N = [], []
    for r in map(QQi.coerce, roots):
        if r.im:
            A += [QQi(-r.re), QQi(-r.re)]
            N += [QQi(0), QQi(-r.im * r.im)]
        else:
            A.append(QQi(-r.re))
            N.append(QQi(0))
    return Continuant(A=tuple(A), N=tuple(N))


class TestKnownRoots:
    def test_quadratic(self):
        poly = poly_from_roots([QQi(-1), QQi(-2)])
        zs = find_all_roots(poly, ["-0.9", "-2.1"], precision_bits=128)
        assert [mp.nstr(z.real, 10) for z in zs.zeros] == ["-1.0", "-2.0"]
        assert all(zs.converged)

    def test_conjugate_pair_display_order(self):
        poly = poly_from_roots([QQi(0, 1)])
        zs = find_all_roots(poly, [mp.mpc("0.1", "1.1"), mp.mpc("-0.1", "-0.9")],
                            precision_bits=128)
        # most negative imaginary part first once real parts tie
        assert zs.zeros[0].imag < 0 < zs.zeros[1].imag

    def test_clustered_roots_resolved(self):
        roots = [QQi(F(1, 1)), QQi(F(1001, 1000)), QQi(F(-3, 2))]
        poly = poly_from_roots(roots)
        zs = find_all_roots(poly, ["0.99999", "1.00101", "-1.4"],
                            precision_bits=192)
        with working_precision(192):
            got = sorted(z.real for z in zs.zeros)
            want = sorted(F(r.re) for r in roots)
            for g, w in zip(got, want):
                assert abs(g - mp.mpf(w.numerator) / w.denominator) \
                    < mp.mpf(2) ** -80

    def test_real_seeds_cannot_reach_a_conjugate_pair(self):
        # (B - 2)(B + 3)(B^2 - 2B + 5) has real coefficients, so Newton
        # keeps real seeds real and never reaches the pair 1 +- 2i: the
        # seeds are at fault, and the error says so by naming overlaps
        poly = poly_from_roots([2, -3, QQi(1, 2)])
        with pytest.raises(NonConvergenceError, match="overlap") as exc:
            find_all_roots(poly, seeds=[3, 0, -1, -4], precision_bits=128)
        assert exc.value.overlapping

    @given(st.sets(st.integers(min_value=-12, max_value=12), min_size=2,
                   max_size=7))
    def test_integer_grids(self, root_set):
        roots = [QQi(r) for r in sorted(root_set)]
        poly = poly_from_roots(roots)
        zs = find_all_roots(poly, [r + F(1, 10) for r in sorted(root_set)],
                            precision_bits=160)
        got = sorted(z.real for z in zs.zeros)
        for g, r in zip(got, sorted(root_set)):
            assert abs(g - r) < mp.mpf(2) ** -70
            assert all(abs(z.imag) < mp.mpf(2) ** -70 for z in zs.zeros)


class TestResiduals:
    def test_residuals_below_tolerance(self):
        spec, _ = from_lame(LameParams(n=2, s="1/100"))
        zs = find_all_roots(continuant(spec, 8), jacobi_eigenvalues(spec, 8),
                            precision_bits=256)
        assert max(zs.residuals) < zs.tol
        assert zs.degree == 8

    def test_default_tol_scales_with_precision(self):
        assert default_tol(256) == mp.mpf(2) ** -128
        assert default_tol(64) == mp.mpf(2) ** -32


class TestSeeding:
    def test_polygon_seed_count_and_determinism(self):
        spec, _ = from_lame(LameParams(n=2, s="1/2"))
        fam = build_family(spec, 12)
        with working_precision(256):
            coeffs = [to_mpc(c) for c in fam[12].coeffs]
            a = newton_polygon_seeds(coeffs)
            b = newton_polygon_seeds(coeffs)
        assert len(a) == 12
        assert all(x == y for x, y in zip(a, b))

    def test_explicit_seeds_must_not_exceed_degree(self):
        # a seed list, when given, has exactly one seed per root: too
        # many and too few are both refused
        poly = poly_from_roots([QQi(1), QQi(2)])
        for count in (5, 1, 0):
            with pytest.raises(InvalidSpecError, match=f"{count} seeds"):
                find_all_roots(poly, seeds=[mp.mpc(0)] * count,
                               precision_bits=64)


class TestInputForm:
    def test_continuant_needs_one_N_per_A(self):
        # one row short: the kernel would run one step and report
        # overlapping disks for a degree-2 polynomial it never formed
        with pytest.raises(InvalidSpecError, match="2 A rows and 1 N rows"):
            Continuant(A=(-1, -2), N=(0,))

    def test_coefficient_list_is_refused(self):
        with pytest.raises(TypeError, match="Continuant, not list"):
            find_all_roots([QQi(2), QQi(-3), QQi(1)], ["0.9", "2.1"],
                           precision_bits=64)


class TestTridiagonalEigenvalues:
    def test_complex_symmetric_two_by_two(self):
        # [[1, 2i], [2i, 3]] has eigenvalues 2 +- i sqrt(3)
        eig = tridiagonal_eigenvalues(jacobi_rows([1, 3], [2j]))
        want = [complex(2, 3 ** 0.5), complex(2, -(3 ** 0.5))]
        for w in want:
            assert min(abs(e - w) for e in eig) < 1e-14

    def test_eigenvalues_are_characteristic_roots(self):
        diag = [1 + 1j, -2, 0.5j, 3]
        off = [1j, 2 - 1j, 0.25]
        # det(B - J) as the Continuant with A = -diag, N = (0,) + off^2,
        # its rows the exact values of the doubles
        p = jacobi_rows(diag, off)
        eig = tridiagonal_eigenvalues(p)
        roots = find_all_roots(p, eig, precision_bits=128).zeros
        assert len(eig) == 4
        for z in roots:
            assert min(abs(complex(z) - e) for e in eig) < 1e-12

    def test_rotation_breakdown_reports_failure(self):
        # [[1, i], [i, -1]] is a nonzero nilpotent matrix; its first
        # rotation pivot (f, g) = (i, -1) has f^2 + g^2 = 0
        assert tridiagonal_eigenvalues(jacobi_rows([1, -1], [1j])) is None

    def test_iteration_bound_reports_failure(self, monkeypatch):
        import heunzeros.rootfind as rootfind

        monkeypatch.setattr(rootfind, "_QL_MAX_STEPS", 0)
        for bits in (53, 106):
            assert tridiagonal_eigenvalues(jacobi_rows([1, 3], [2j]),
                                           bits) is None
            assert tridiagonal_eigenvalues(jacobi_rows([1, 3], [0j]),
                                           bits) == [1, 3]

    def test_overflow_reports_failure(self):
        # finite parts, but the modulus is beyond the double range
        huge = complex(1.5e308, 1.5e308)
        assert tridiagonal_eigenvalues(jacobi_rows([1, 2], [huge])) is None
        assert tridiagonal_eigenvalues(jacobi_rows([huge, -huge],
                                                   [1])) is None

    def test_offdiag_length_checked(self):
        # the rows refuse a second off-diagonal entry for two diagonal ones
        with pytest.raises(ValueError):
            tridiagonal_eigenvalues(jacobi_rows([1, 2], [1, 1]))

    def test_extended_precision_two_by_two(self):
        eig = tridiagonal_eigenvalues(jacobi_rows([1, 3], [2j]),
                                      precision_bits=106)
        with working_precision(106):
            for w in (mp.mpc(2, mp.sqrt(3)), mp.mpc(2, -mp.sqrt(3))):
                assert min(abs(to_mpc(e) - w) for e in eig) < \
                    mp.mpf(2) ** -100
        assert tridiagonal_eigenvalues(jacobi_rows([1, -1], [1j]),
                                       precision_bits=106) is None

    def test_step_limit_grows_with_precision(self, monkeypatch):
        # one eigenvalue of this block takes three QL steps in doubles
        # and more than two at 106 bits: two steps per 53 bits are too
        # few for the doubles, and the four they allow at 106 bits do
        import heunzeros.rootfind as rootfind

        monkeypatch.setattr(rootfind, "_QL_MAX_STEPS", 2)
        rows = jacobi_rows([1, 2, 4], [1, 1])
        assert tridiagonal_eigenvalues(rows) is None
        assert len(tridiagonal_eigenvalues(rows, precision_bits=106)) == 3


def parts_hex(z) -> tuple:
    return z.real.hex(), z.imag.hex()


RATIONALS = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                      st.integers(1, 10 ** 30))


class TestDoubleMatrix:
    """`Continuant.double_matrix`, the 53-bit rung's Jacobi matrix built
    from the exact rows: each part correctly rounded."""

    @given(re=RATIONALS, im=RATIONALS,
           kind=st.sampled_from(["complex", "real", "negative", "square"]))
    def test_entries_are_correctly_rounded(self, re, im, kind):
        z = {"complex": QQi(re, im), "real": QQi(re),
             "negative": QQi(-abs(re) - 1),
             "square": QQi(re, im) * QQi(re, im)}[kind]
        diag, off = Continuant(A=(z, z), N=(QQi(0), z)).double_matrix()
        with working_precision(600):
            want_diag = complex(-to_mpc(z))
            want_off = complex(mp.sqrt(to_mpc(z)))
        assert [parts_hex(x) for x in diag] == [parts_hex(want_diag)] * 2
        assert [parts_hex(x) for x in off] == [parts_hex(want_off)]
        if kind == "negative":
            # the principal branch: +i sqrt|N|
            assert off[0].real == 0 and off[0].imag > 0

    def test_exact_roots_on_a_rounding_midpoint(self):
        # 1 + 2^-53 lies halfway between two doubles: an exact root that
        # is a midpoint rounds to even, and a root just above it rounds up
        x = 1 + Fraction(1, 2 ** 53)
        for z, want in [(QQi(x * x), 1.0),
                        (QQi(x * x + Fraction(1, 2 ** 200)),
                         1 + 2.0 ** -52)]:
            [root] = Continuant(A=(QQi(0), QQi(0)),
                                N=(QQi(0), z)).double_matrix()[1]
            assert root == want

    def test_an_entry_beyond_the_double_range_gives_no_seeds(self):
        # complex(mpc) of such an entry is inf; so is its double here,
        # the double QL then fails, and the solve stands on a fixed rung
        spec = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                              delta="1/2", s=-2 ** 1030, alpha=5)
        rows = continuant(spec, 6)
        diag, off = rows.double_matrix()
        with working_precision(256):
            big = [-to_mpc(a) for a in rows.A] + \
                [mp.sqrt(to_mpc(x)) for x in rows.N[1:]]
        assert [parts_hex(x) for x in diag + off] == \
            [parts_hex(complex(x)) for x in big]
        assert mp.isinf(diag[-1].real)
        assert tridiagonal_eigenvalues(rows) is None
        assert solve_zeros(spec, 6).seed_bits == 106


def fixed_ql_eigenvalues(spec, m, bits):
    """The fixed-point QL eigenvalues of the Jacobi matrix of c_m, read
    from its exact rows, as mpc that hold them exactly."""
    eig = tridiagonal_eigenvalues(continuant(spec, m), precision_bits=bits)
    with working_precision(2 * bits):
        return None if eig is None else [to_mpc(e) for e in eig]


QL_SPECS = {"lame": from_lame(LameParams(n=2, s="1/2"))[0],
            "mathieu": from_mathieu(MathieuParams(q=2))[0]}


class TestFixedPointQL:
    """Each QL rung above 53 bits, the rational QL on the exact rows, is
    as good as its width, and none drifts at rounding level until the
    step limit."""

    @pytest.mark.parametrize("m", [10, 30, 40, 80])
    @pytest.mark.parametrize("family", sorted(QL_SPECS))
    def test_every_rung_against_a_600_bit_solve(self, family, m):
        spec = QL_SPECS[family]
        ref = solve_zeros(spec, m, precision_bits=600).zeros
        for bits in (212, 424):
            eig = fixed_ql_eigenvalues(spec, m, bits)
            assert eig is not None, (family, m, bits)
            with working_precision(700):
                worst = max(min(abs(x - y) for y in ref) / abs(x)
                            for x in eig)
            assert worst < mp.mpf(2) ** (16 - bits), (family, m, bits)

    def test_an_entry_that_stops_shrinking_deflates(self):
        # in the rotation QL on sqrt(N_k), e_5 fell to 2^-411 in three
        # steps here and then grew a bit a step until the step limit,
        # unless a stall rule deflated it; on e^2 = N_k no rule is needed
        eig = fixed_ql_eigenvalues(QL_SPECS["mathieu"], 10, 424)
        assert len(eig) == 10

    def test_degree_one_is_its_diagonal(self):
        # no coupling: the eigenvalue is -A_0, A_0 floored to F bits
        a = QQi(F(1, 3), F(-2, 7))
        x, y = _to_fixed(a, 106)
        assert tridiagonal_eigenvalues(Continuant(A=(a,), N=(QQi(0),)),
                                       106) == [QQi(F(-x, 2 ** 106),
                                                    F(-y, 2 ** 106))]

    def test_degree_two_gives_the_roots_of_its_quadratic(self):
        # p_2 = (z + A_0)(z + A_1) - N_1
        A = (QQi(F(1, 3)), QQi(-2, F(1, 5)))
        N = (QQi(0), QQi(F(-7, 4), F(1, 2)))
        rows = Continuant(A=A, N=N)
        eig = tridiagonal_eigenvalues(rows, 106)
        with working_precision(300):
            b, c = to_mpc(A[0] + A[1]), to_mpc(A[0] * A[1] - N[1])
            root = mp.sqrt(b * b - 4 * c)
            want = [(-b + root) / 2, (-b - root) / 2]
            for w in want:
                assert min(abs(to_mpc(e) - w) for e in eig) < \
                    mp.mpf(2) ** -100
        assert len(find_all_roots(rows, eig).zeros) == 2

    def test_a_run_without_a_step_stands(self, monkeypatch):
        # at s = -2^1030 every e_k^2 is below the squared floor, which the
        # diagonal sets: each deflates before any QL step (each step takes
        # one `_fixed_sqrt`), and the eigenvalues are the diagonal
        spec = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                              delta="1/2", s=-2 ** 1030, alpha=5)
        rows = continuant(spec, 6)
        monkeypatch.setattr(rootfind, "_fixed_sqrt", None)
        eig = tridiagonal_eigenvalues(rows, 106)
        assert eig == [QQi(F(-x, 2 ** 106), F(-y, 2 ** 106))
                       for x, y in (_to_fixed(a, 106) for a in rows.A)]

    @pytest.mark.parametrize("m,digest", [(89, "48d3b886b503c792"),
                                          (100, "4d886c7c720d4645")],
                             ids=["89", "100"])
    def test_whittaker_hill_106_bit_seeds_keep_their_bits(self, m, digest):
        # the sha256 of the exact eigenvalues, each (a + ib)/d in lowest
        # terms
        spec = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                              delta="1/2", alpha=5, s=-20)
        eig = tridiagonal_eigenvalues(continuant(spec, m), precision_bits=106)
        text = repr([(z.a, z.b, z.d) for z in eig])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestNewtonFirst:
    def test_good_seeds_need_no_sweep(self):
        poly = poly_from_roots([QQi(1), QQi(2), QQi(-3)])
        zs = find_all_roots(poly, seeds=["1.01", "1.98", "-3.02"],
                            precision_bits=128)
        assert zs.seed_bits is None
        assert [mp.nstr(z.real, 10) for z in zs.zeros] == \
            ["2.0", "1.0", "-3.0"]

    def test_two_seeds_at_one_root_overlap(self):
        # Newton keeps both seeds at the root 1; their disks overlap,
        # and the error names the two seeds
        poly = poly_from_roots([QQi(1), QQi(2), QQi(-3)])
        with pytest.raises(NonConvergenceError,
                           match=r"disks of 2 of 3 polished seeds overlap "
                                 r"\(indices \[0, 1\]\)") as exc:
            find_all_roots(poly, seeds=[1, 1, -3], precision_bits=128)
        assert exc.value.overlapping == (0, 1)

    def test_zeros_proved_real_lie_on_the_axis(self):
        # the seeds near the axis are not conjugate pairs, so Newton
        # starts from their real parts and ends exactly on the axis
        poly = poly_from_roots([QQi(1), QQi(2), QQi(0, 1)])
        seeds = [mp.mpc(2, 1e-3), mp.mpc(1, -1e-3), mp.mpc(1e-3, 1.001),
                 mp.mpc(-1e-3, -0.999)]
        zs = find_all_roots(poly, seeds=seeds, precision_bits=128)
        assert [z.imag for z in zs.zeros[:2]] == [0, 0]
        assert [mp.nstr(z.imag, 10) for z in zs.zeros[2:]] == ["-1.0", "1.0"]

    def test_one_polish_per_seed_bounds_the_work(self, monkeypatch):
        # no iteration beyond the Newton polish: one `_fixed_newton` per
        # seed, with at most _POLISH_STEPS evaluations, whether the
        # seeds stand or not
        import heunzeros.rootfind as rootfind

        calls, polishes = [], []
        kernel, polish = rootfind._continuant_kernel, rootfind._fixed_newton

        def counting(rows, F, z, stops, derivative=False,
                     real=False):
            calls.append(z)
            return kernel(rows, F, z, stops, derivative, real)

        def polishing(*args):
            before = len(calls)
            result = polish(*args)
            polishes.append(len(calls) - before)
            return result

        monkeypatch.setattr(rootfind, "_continuant_kernel", counting)
        monkeypatch.setattr(rootfind, "_fixed_newton", polishing)
        poly = poly_from_roots([QQi(1), QQi(2), QQi(-3)])
        for seeds in (["1.01", "1.98", "-3.02"], [1, 1, -3], [0, 0, 0]):
            calls.clear()
            polishes.clear()
            try:
                find_all_roots(poly, seeds, precision_bits=128)
            except NonConvergenceError:
                pass
            assert len(polishes) == 3 and sum(polishes) == len(calls)
            assert all(0 < k <= rootfind._POLISH_STEPS for k in polishes)

    def test_zero_derivative_gives_an_infinite_residual(self):
        # p = z^2 - 10^-6 has p'(0) = 0: no Newton step, and no disk,
        # can come from there, so the seed counts as overlapping
        import heunzeros.rootfind as rootfind

        poly = Continuant(A=(QQi(0), QQi(0)), N=(QQi(0), QQi(F(1, 10 ** 6))))
        width = 128 + 24 + rootfind._KERNEL_GUARD
        assert rootfind._fixed_newton({width: short(poly.fixed_rows(width))},
                                      width, (0, 0), 64) == ((0, 0), None)
        with pytest.raises(NonConvergenceError,
                           match=r"disks of 2 of 2 polished seeds overlap"
                           ) as exc:
            find_all_roots(poly, [0, "0.001"], precision_bits=128)
        assert exc.value.overlapping == (0, 1)


def fixed_points(seeds, bits=128):
    """The seeds as `find_all_roots` reads them, with its F."""
    F = bits + 24 + rootfind._KERNEL_GUARD
    with working_precision(bits + 24):
        return [_to_fixed(to_mpc(s), F) for s in seeds]


def recording_polish(monkeypatch):
    """The start points `find_all_roots` hands to `_fixed_newton`, in
    the order it polishes them."""
    starts, polish = [], rootfind._fixed_newton

    def recording(tables, F, z, t, real=False, seed=None):
        starts.append(z)
        return polish(tables, F, z, t, real, seed)

    monkeypatch.setattr(rootfind, "_fixed_newton", recording)
    return starts


def mirror_symmetric(zs) -> bool:
    """Whether the zeros equal their conjugates, as mpf tuples."""
    return sorted((z.real._mpf_, z.imag._mpf_) for z in zs.zeros) == \
        sorted((z.real._mpf_, mp.fneg(z.imag, exact=True)._mpf_)
               for z in zs.zeros)


class TestConjugatePairs:
    """On real rows one seed of each conjugate pair is polished and the
    other zero is its conjugate; every other seed is polished from its
    real part, on the axis."""

    def test_lower_member_may_come_first(self, monkeypatch):
        poly = poly_from_roots([QQi(1), QQi(2), QQi(0, 3)])
        seeds = ["0.1-2.9j", "1.1", "0.1+3.1j", "2.1"]
        points = fixed_points(seeds)
        assert rootfind._conjugate_pairs(points) == {0: 2}
        starts = recording_polish(monkeypatch)
        zs = find_all_roots(poly, seeds, precision_bits=128)
        assert starts == [points[1], points[2], points[3]]
        assert mirror_symmetric(zs) and real_zero_count(zs) == 2
        assert (zs.zeros[2].real, zs.zeros[2].imag) == \
            (zs.zeros[3].real, mp.fneg(zs.zeros[3].imag, exact=True))
        assert zs.residuals[2] == zs.residuals[3]
        assert [mp.nstr(z, 10) for z in zs.zeros] == \
            ["(2.0 + 0.0j)", "(1.0 + 0.0j)", "(0.0 - 3.0j)", "(0.0 + 3.0j)"]

    def test_real_seeds_are_polished_once_each(self, monkeypatch):
        spec, _ = from_lame(LameParams(n=2, s="1/2"))
        seeds = jacobi_eigenvalues(spec, 10)
        assert all(s.imag == 0 for s in seeds)
        points = fixed_points(seeds, 64)
        assert rootfind._conjugate_pairs(points) == {}
        starts = recording_polish(monkeypatch)
        zs = find_all_roots(continuant(spec, 10), seeds, precision_bits=64)
        assert starts == points
        assert real_zero_count(zs) == 10

    def test_near_real_seeds_nearer_their_own_conjugates_stay_unpaired(
            self, monkeypatch):
        # |s_1 - conj s_0| = 1/10 is more than 2 Im s_0 = 1/50
        poly = poly_from_roots([QQi(1), QQi(F(11, 10)), QQi(5)])
        seeds = ["1+0.01j", "1.1-0.01j", "5"]
        points = fixed_points(seeds)
        assert rootfind._conjugate_pairs(points) == {}
        starts = recording_polish(monkeypatch)
        zs = find_all_roots(poly, seeds, precision_bits=128)
        assert starts == [(x, 0) for x, _ in points]
        assert real_zero_count(zs) == 3

    def test_only_mutual_nearest_seeds_nearer_than_their_own_pair(self):
        # s_1 and s_2 both find conj s_0 nearest, and it finds s_1
        assert rootfind._conjugate_pairs(
            [(0, 10), (1, -10), (2, -10)]) == {1: 0}
        # -i lies nearer its own conjugate i than conj(10i) = -10i
        assert rootfind._conjugate_pairs([(0, 10), (0, -1)]) == {}
        assert rootfind._conjugate_pairs([(0, 10), (0, -10)]) == {1: 0}

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                    max_size=16))
    def test_matches_the_nearest_by_min_on_small_grids(self, points):
        # the definition read plainly, min over each side with a key;
        # small grids give ties, which go to the lowest index
        def gap(i, j):
            return (points[i][0] - points[j][0]) ** 2 \
                + (points[i][1] + points[j][1]) ** 2

        upper = [i for i, (_, y) in enumerate(points) if y > 0]
        lower = [j for j, (_, y) in enumerate(points) if y < 0]
        want = {}
        if upper and lower:
            up = {i: min(lower, key=lambda j: gap(i, j)) for i in upper}
            for j in lower:
                i = min(upper, key=lambda i: gap(i, j))
                if up[i] == j and gap(i, j) < 4 * min(points[i][1],
                                                      -points[j][1]) ** 2:
                    want[j] = i
        assert rootfind._conjugate_pairs(points) == want

    def test_a_pair_across_two_real_roots_overlaps(self):
        # the seeds pair, |s_1 - conj s_0| = 1/100 < 2 Im s_0, but the
        # roots near them are real: the polished seed and its mirror
        # image hold one real root, so their disks meet
        poly = poly_from_roots([QQi(1), QQi(F(101, 100)), QQi(5)])
        seeds = ["1+0.01j", "1.01-0.01j", "5"]
        assert rootfind._conjugate_pairs(fixed_points(seeds)) == {1: 0}
        with pytest.raises(NonConvergenceError,
                           match=r"polished seeds overlap") as exc:
            find_all_roots(poly, seeds, precision_bits=128)
        assert exc.value.overlapping == (0, 1)

    def test_complex_rows_polish_every_seed_as_given(self, monkeypatch):
        spec, _ = from_mathieu(MathieuParams(q="2i"))
        seeds = jacobi_eigenvalues(spec, 12)
        starts = recording_polish(monkeypatch)
        find_all_roots(continuant(spec, 12), seeds, precision_bits=128)
        assert starts == fixed_points(seeds)


class TestRefinement:
    def test_strict_polish_failure_raises(self, monkeypatch):
        import heunzeros.rootfind as rootfind

        spec, _ = from_lame(LameParams(n=2, s="1/2"))
        polish = rootfind._fixed_newton
        calls = []

        def first_root_fails(tables, F, z, t, real=False, seed=None):
            calls.append(z)
            (x, y), w = polish(tables, F, z, t, real, seed)
            if len(calls) > 1:
                return (x, y), w
            # a step twice the tolerance 2^-t (1 + |z|): a small disk
            return (x, y), ((1 << F) + isqrt(x * x + y * y)) >> (t - 1)

        monkeypatch.setattr(rootfind, "_fixed_newton", first_root_fails)
        with pytest.raises(NonConvergenceError,
                           match=r"1 of 10 roots failed the tolerance check"
                                 r" \(indices \[0\]; relative residuals "
                                 r"up to ") as exc:
            find_all_roots(continuant(spec, 10), jacobi_eigenvalues(spec, 10),
                           precision_bits=64)
        # the disks are disjoint: no other seeds could help
        assert exc.value.overlapping == ()


class TestZeroSet:
    def test_real_zero_count(self):
        poly = poly_from_roots([QQi(1), QQi(2), QQi(0, 3)])
        zs = find_all_roots(poly, ["1.1", "2.1", "0.1+3.1j", "-0.1-2.9j"],
                            precision_bits=128)
        assert real_zero_count(zs) == 2

    def test_real_zero_count_reads_exact_scalars(self):
        zeros = [QQi(1), QQi(Fraction(1, 3), Fraction(1, 2)), Fraction(-2, 7),
                 "5/3", "1/4+2i", 3]
        assert real_zero_count(zeros) == 4

    def test_real_means_an_imaginary_part_of_exactly_zero(self):
        # a zero off the axis by 1e-30 is not real, however close
        assert real_zero_count([mp.mpc(1, 1e-30), 2, "1/4+2i"]) == 1

    def test_labels_round_trip(self):
        poly = poly_from_roots([QQi(1), QQi(2)])
        zs = find_all_roots(poly, ["1.1", "2.1"], precision_bits=128)
        labelled = zs.with_labels([1, 0])
        assert labelled.labels == (1, 0)
        with pytest.raises(Exception):
            zs.with_labels([0])


class TestContinuantKernel:
    """The fixed-point (p_m, p_m'), scaled by the kernel's window
    exponent, against m! (gamma)_m times the exact c_m and c_m' at
    rational points."""

    @pytest.mark.parametrize("spec,m,z", [
        (from_lame(LameParams(n=2, s="1/2"))[0], 12, QQi(F(-7, 3), F(1, 5))),
        (from_mathieu(MathieuParams(q="2i"))[0], 20, QQi(F(5, 2), F(-1, 3))),
        (RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/2", delta="3/2",
                        s="3+2i", alpha=2, beta="-3/2"), 15,
         QQi(F(-11, 4), F(2, 7))),
        # values pass 2^1000
        (RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                        delta="1/2", s=-20, alpha=5), 100, QQi(1000)),
        (RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                        delta="1/2", s=-20, alpha=5), 100, QQi(0, 1000)),
    ], ids=["lame-1/2", "mathieu-2i", "heun-complex-s", "whill-m100-real",
            "whill-m100-imag"])
    def test_matches_exact_coefficients(self, spec, m, z):
        c = build_family(spec, m)[m]
        scale = 1 / leading_coefficient_law(spec, m)
        p, dp = c(z) * scale, c.derivative()(z) * scale
        bits = 256
        Fb = bits + 24 + rootfind._KERNEL_GUARD
        rows = short(continuant(spec, m).fixed_rows(Fb))
        with working_precision(Fb + 64):
            [(p_m, _, dp_m, e)] = rootfind._continuant_kernel(
                rows, Fb, _to_fixed(to_mpc(z), Fb), (m,), derivative=True)
            want_p, want_dp = to_mpc(p), to_mpc(dp)
            assert abs(want_p) > 1 and abs(want_dp) > 1
            # each pair (x, y) stands for (x + iy) 2^(e - F)
            for got, want in ((p_m, want_p), (dp_m, want_dp)):
                got = mp.mpc(*got) * mp.mpf(2) ** (e - Fb)
                assert abs(got - want) <= \
                    mp.mpf(2) ** (8 - Fb) * abs(want)


    @pytest.mark.parametrize("derivative", [False, True])
    def test_states_at_stops_are_those_of_shorter_runs(self, derivative):
        spec = from_lame(LameParams(n=2, s="1/2"))[0]
        bits = 128
        rows = short(continuant(spec, 12).fixed_rows(bits))
        z = _to_fixed(QQi(F(-7, 3), F(1, 5)), bits)
        states = rootfind._continuant_kernel(rows, bits, z, (0, 3, 7, 12),
                                             derivative)
        assert states[0] == ((1 << bits, 0), (0, 0), (0, 0), 0)
        for k, state in zip((3, 7, 12), states[1:]):
            assert rootfind._continuant_kernel(
                rows[:k], bits, z, (k,), derivative) == [state]
            assert (state[2] != (0, 0)) == derivative


def short(rows):
    """The rows as the kernel reads them (`rootfind._short_rows`)."""
    return tuple(rootfind._short_rows(rows))


def fixed_ints(bits):
    """Ints standing for values with that many fraction bits: 0, values
    of modulus at most 1, which pull the kernel's state down through its
    window, and values up to 2^70, which push it up through it."""
    unit = st.integers(-(1 << bits), 1 << bits)
    return st.one_of(st.just(0), unit,
                     st.builds(lambda x, e: x << e, unit,
                               st.integers(0, 70)))


@st.composite
def real_kernel_runs(draw):
    """(rows, F, x, stops) of a kernel run on real rows at z = (x, 0):
    ascending stops, with 0 and repeats among them."""
    bits = draw(st.integers(1, 80))
    rows = draw(st.lists(st.tuples(fixed_ints(bits), fixed_ints(bits)),
                         max_size=30))
    stops = sorted(draw(st.lists(st.integers(0, len(rows)), min_size=1,
                                 max_size=6)))
    return (short((A, 0, N, 0) for A, N in rows), bits,
            draw(fixed_ints(bits)), stops)


@st.composite
def resumed_kernel_runs(draw):
    """(rows, F, z, real, k, stops): a kernel run, on real rows at a real
    z when real, a point k to resume at and ascending stops from k on."""
    real = draw(st.booleans())
    bits = draw(st.integers(1, 80))
    part = fixed_ints(bits)
    imag = st.just(0) if real else part
    rows = draw(st.lists(st.tuples(part, imag, part, imag), max_size=30))
    k = draw(st.integers(0, len(rows)))
    stops = sorted(draw(st.lists(st.integers(k, len(rows)), min_size=1,
                                 max_size=5)))
    return short(rows), bits, (draw(part), draw(imag)), real, k, stops


class TestResume:
    """A run given its own state at k, and the rows from k, goes on as
    the run from 0 does, in either arm."""

    @given(resumed_kernel_runs())
    def test_a_resumed_run_gives_the_states_from_0(self, run):
        rows, bits, z, real, k, stops = run
        states = rootfind._continuant_kernel(rows, bits, z, [k] + stops,
                                             real=real)
        assert rootfind._continuant_kernel(
            rows[k:], bits, z, stops, real=real,
            start=(k, states[0])) == states[1:]


WHILL_STRONG = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                              delta="1/2", alpha=5, s=-20)


def kernel_states(rows, F, z, derivative, real):
    """The kernel's states at a third, two thirds and the end of the
    rows, and without derivative those of the run resumed halfway."""
    m = len(rows)
    stops, k = (m // 3, 2 * m // 3, m), m // 2
    kernel = rootfind._continuant_kernel
    states = kernel(rows, F, z, stops, derivative, real)
    if derivative:
        return states, None
    [mid] = kernel(rows, F, z, (k,), real=real)
    return states, kernel(rows[k:], F, z, stops[1:], real=real,
                          start=(k, mid))


class TestRealArm:
    """On real rows at a real z the kernel runs the real parts alone, and
    on real rows at a complex z it drops the rows' imaginary parts; its
    states must be the complex arm's, bit for bit, and a call with a
    complex row must take the complex arm."""

    @given(real_kernel_runs(), st.booleans())
    def test_matches_the_complex_arm(self, run, derivative):
        rows, bits, x, stops = run
        assert rootfind._continuant_kernel(
            rows, bits, (x, 0), stops, derivative, real=True) == \
            rootfind._continuant_kernel(rows, bits, (x, 0), stops,
                                        derivative)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_both_window_shifts_run(self, derivative):
        # at z = 0, A = 2^40 lifts the state past 2^(F+64), then
        # A = 2^-20 with N = 0 lowers it below 2^(F+32): the exponent
        # rises and falls
        bits = 48
        rows = short([(1 << (bits + 40), 0, 1 << (bits + 30), 0)] * 4
                     + [(1 << (bits - 20), 0, 0, 0)] * 8)
        stops = range(len(rows) + 1)
        states = rootfind._continuant_kernel(rows, bits, (0, 0), stops,
                                             derivative, real=True)
        assert states == rootfind._continuant_kernel(
            rows, bits, (0, 0), stops, derivative)
        e = [state[3] for state in states]
        assert any(b > a for a, b in zip(e, e[1:]))
        assert any(b < a for a, b in zip(e, e[1:]))

    @pytest.mark.parametrize("derivative", [False, True])
    def test_a_complex_z_on_real_rows_matches_the_complex_arm(
            self, derivative):
        # Lame s = 1/2 rows at 2 + 3i, from 0 and, without p', resumed
        # from the state at row 20
        bits = 128
        rows = short(continuant(from_lame(LameParams(n=2, s="1/2"))[0],
                                40).fixed_rows(bits))
        z = _to_fixed(QQi(2, 3), bits)
        got = kernel_states(rows, bits, z, derivative, True)
        assert got == kernel_states(rows, bits, z, derivative, False)
        assert all(p[1] and (dp[1] != 0) == derivative
                   for p, _, dp, _ in got[0])

    @given(real_kernel_runs(), fixed_ints(80), st.booleans())
    def test_real_rows_off_the_axis_match_the_complex_arm(
            self, run, y, derivative):
        rows, bits, x, stops = run
        assert rootfind._continuant_kernel(
            rows, bits, (x, y), stops, derivative, real=True) == \
            rootfind._continuant_kernel(rows, bits, (x, y), stops,
                                        derivative)

    @pytest.mark.parametrize("bits", [128, 312])
    def test_whittaker_hill_rows_at_the_complex_106_bit_seeds(self, bits):
        # the upper seeds of the 36 conjugate pairs at m = 89, which the
        # polish starts from; the other 17 start on the axis
        rows = continuant(WHILL_STRONG, 89)
        points = [_to_fixed(z, bits) for z in
                  tridiagonal_eigenvalues(rows, precision_bits=106)]
        upper = set(rootfind._conjugate_pairs(points).values())
        assert len(upper) == 36
        table = short(rows.fixed_rows(bits))
        for i in upper:
            for derivative in (False, True):
                assert kernel_states(table, bits, points[i], derivative,
                                     True) == \
                    kernel_states(table, bits, points[i], derivative, False)

    @staticmethod
    def kernel_flags(monkeypatch):
        """(real, z real) of each kernel call, recorded."""
        flags, kernel = [], rootfind._continuant_kernel

        def recording(rows, F, z, stops, derivative=False, real=False):
            flags.append((real, z[1] == 0))
            return kernel(rows, F, z, stops, derivative, real)

        monkeypatch.setattr(rootfind, "_continuant_kernel", recording)
        return flags

    def test_the_polish_of_real_rows_runs_the_real_arm_on_the_axis(
            self, monkeypatch):
        flags = self.kernel_flags(monkeypatch)
        poly = poly_from_roots([QQi(1), QQi(2), QQi(0, 3)])
        find_all_roots(poly, ["1.1", "2.1", "0.1+3.1j", "0.1-2.9j"],
                       precision_bits=128)
        assert {real for real, _ in flags} == {True}
        assert (True, True) in flags and (True, False) in flags

    def test_a_real_z_with_one_complex_row_runs_the_complex_arm(
            self, monkeypatch):
        flags = self.kernel_flags(monkeypatch)
        poly = poly_from_roots([QQi(1), QQi(2), QQi(-3)])
        poly = Continuant(A=poly.A[:2] + (QQi(3, F(1, 1024)),), N=poly.N)
        zs = find_all_roots(poly, ["1.01", "1.98", "-3.02"],
                            precision_bits=128)
        assert mp.nstr(zs.zeros[2], 10) == "(-3.0 - 0.0009765625j)"
        assert (False, True) in flags
        assert {real for real, _ in flags} == {False}

    def test_each_upper_conjugate_is_polished_on_real_rows_off_the_axis(
            self, monkeypatch):
        # whittaker-hill m = 50 stands on its double seeds, with no real
        # zero: each of the 25 upper seeds is polished off the axis on
        # its real rows, and each lower zero is its mirror image
        calls, kernel = [], rootfind._continuant_kernel
        polish = rootfind._fixed_newton

        def recording_polish(tables, F, z, t, real=False, seed=None):
            calls.append((z, []))
            return polish(tables, F, z, t, real, seed)

        def recording(rows, F, z, stops, derivative=False, real=False,
                      start=None):
            calls[-1][1].append((real, z[1]))
            return kernel(rows, F, z, stops, derivative, real, start)

        monkeypatch.setattr(rootfind, "_fixed_newton", recording_polish)
        monkeypatch.setattr(rootfind, "_continuant_kernel", recording)
        rows = continuant(WHILL_STRONG, 50)
        zs = find_all_roots(rows, tridiagonal_eigenvalues(rows), 256)
        assert real_zero_count(zs) == 0
        assert len(calls) == sum(1 for _, y in zs.points if y > 0) == 25
        assert all(z[1] > 0 and steps and all(real and y > 0
                                              for real, y in steps)
                   for z, steps in calls)


class TestShortRows:
    """The kernel multiplies by each N_k's mantissa and shifts by its
    trailing zero bits: the split must give back N_k exactly, and the
    mantissas must be short where N_k is a short dyadic."""

    @pytest.mark.parametrize("spec,widest", [
        (WHILL_STRONG, (1, 24)),
        (from_lame(LameParams(n=2, s="1/100"))[0], (300, 340)),
    ], ids=["whill-strong", "lame-1/100"])
    def test_the_split_is_exact(self, spec, widest):
        # Whittaker-Hill s = -20 has integer couplings of up to 25 bits,
        # 24 once the trailing zeros go; at s = 1/100 they stay full width
        full = continuant(spec, 100).fixed_rows(312)
        rows = short(full)
        for (a, b, x, y), (a2, b2, nr, ni, t) in zip(full, rows):
            assert (a2, b2, nr << t, ni << t) == (a, b, x, y)
            assert t >= 0 and ((nr | ni) & 1 or nr == ni == 0)
        lo, hi = widest
        assert lo <= max(max(abs(nr).bit_length(), abs(ni).bit_length())
                         for _, _, nr, ni, _ in rows) <= hi

    def test_the_polish_reads_the_short_rows(self, monkeypatch):
        # the full-width Newton steps of a solve at 256 bits run at
        # F = 312 on the short form of the continuant's own rows
        seen, kernel = {}, rootfind._continuant_kernel

        def recording(rows, F, *args, **kwargs):
            seen[F] = rows
            return kernel(rows, F, *args, **kwargs)

        monkeypatch.setattr(rootfind, "_continuant_kernel", recording)
        solve_zeros(WHILL_STRONG, 100)
        assert seen[312] == short(continuant(WHILL_STRONG, 100)
                                  .fixed_rows(312))


def brute_overlapping(polished, F, t):
    """The disks of `rootfind._overlapping` that meet another, by
    comparing every pair."""
    n = len(polished)
    rad = [max((n + 1) * w, ((1 << F) + isqrt(x * x + y * y) >> t) + 1)
           for (x, y), w in polished]
    return sorted({k for i in range(n) for j in range(i)
                   if (polished[i][0][0] - polished[j][0][0]) ** 2
                   + (polished[i][0][1] - polished[j][0][1]) ** 2
                   <= (rad[i] + rad[j]) ** 2 for k in (i, j)})


DISK_F = 16     # fraction bits of the disks below


def seeded_disks(seed, n=31):
    """n ((x, y), step) pairs, with DISK_F fraction bits, on a grid of
    quarters, so that many disks touch exactly (n + 1 is a power of 2,
    so the radii are exact), with conjugate pairs among them; the grid
    widens with the seed, so fewer disks meet."""
    rng = random.Random(seed)
    width = 8 << (seed % 3)
    grid = [k << (DISK_F - 2) for k in range(-width, width + 1)]
    out = []
    while len(out) < n:
        x, y = rng.choice(grid), rng.choice(grid)
        step = (rng.choice((1, 2, 4)) << DISK_F) // 8 // (n + 1)  # 1/8 .. 1/2
        out.append(((x, y), step))
        if y and len(out) < n and rng.random() < 0.5:
            out.append(((x, -y), step))
    return out


class TestDiskSweep:
    """`_overlapping` compares only disks whose real extents meet; it
    must agree with the all-pairs test."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_all_pairs(self, seed):
        polished = seeded_disks(seed)
        assert rootfind._overlapping(polished, DISK_F, 100) == \
            brute_overlapping(polished, DISK_F, 100)

    def test_touching_disks_meet(self):
        # four roots: radii 5/8, so centres 5/4 apart touch, as do a
        # conjugate pair at +-5i/8
        step, one = 1 << (DISK_F - 3), 1 << DISK_F
        polished = [((0, 0), step), ((5 * one // 4, 0), step),
                    ((3 * one, 5 * one // 8), step),
                    ((3 * one, -5 * one // 8), step)]
        assert rootfind._overlapping(polished, DISK_F, 100) == [0, 1, 2, 3]
        assert brute_overlapping(polished, DISK_F, 100) == [0, 1, 2, 3]
        # a unit further apart, none meet
        polished[1] = ((5 * one // 4 + 1, 0), step)
        polished[2] = ((3 * one, 5 * one // 8 + 1), step)
        assert rootfind._overlapping(polished, DISK_F, 100) == []

    def test_the_tolerance_floor_is_rounded_up(self):
        # zero steps leave the floor 2^-t (1 + |z|), here 1 + |z| units,
        # which is 4 + 1 after rounding up at |z| just above 3
        one = 1 << DISK_F
        for gap, met in ((10, [0, 1]), (11, [])):
            polished = [((3 * one, 0), 0), ((3 * one + gap, 0), 0)]
            assert rootfind._overlapping(polished, DISK_F, DISK_F) == met
