"""Simultaneous root finding at controlled precision."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heunzeros.families import LameParams, from_lame
from heunzeros.recurrence import DensePolynomial, build_family
from heunzeros.rootfind import (
    NonConvergenceError,
    ZeroSet,
    default_tol,
    find_all_roots,
    newton_polygon_seeds,
    real_zero_count,
    tridiagonal_eigenvalues,
)
from heunzeros.scalars import EXACT_FIELD, QQi, working_precision

F = Fraction


def poly_from_roots(roots):
    """Exact expansion of prod (B - r)."""
    coeffs = [QQi(1)]
    for r in roots:
        nxt = [QQi(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] - QQi.coerce(r) * c
            nxt[i + 1] = nxt[i + 1] + c
        coeffs = nxt
    return DensePolynomial(coeffs=tuple(coeffs), field=EXACT_FIELD)


class TestKnownRoots:
    def test_quadratic(self):
        poly = poly_from_roots([QQi(-1), QQi(-2)])
        zs = find_all_roots(poly, precision_bits=128)
        assert [mp.nstr(z.real, 10) for z in zs.zeros] == ["-1.0", "-2.0"]
        assert all(zs.converged)

    def test_conjugate_pair_display_order(self):
        poly = poly_from_roots([QQi(0, 1), QQi(0, -1)])
        zs = find_all_roots(poly, precision_bits=128)
        # most negative imaginary part first once real parts tie
        assert zs.zeros[0].imag < 0 < zs.zeros[1].imag

    def test_clustered_roots_resolved(self):
        roots = [QQi(F(1, 1)), QQi(F(1001, 1000)), QQi(F(-3, 2))]
        poly = poly_from_roots(roots)
        zs = find_all_roots(poly, precision_bits=192)
        with working_precision(192):
            got = sorted(z.real for z in zs.zeros)
            want = sorted(F(r.re) for r in roots)
            for g, w in zip(got, want):
                assert abs(g - mp.mpf(w.numerator) / w.denominator) \
                    < mp.mpf(2) ** -80

    def test_real_seeds_reach_complex_conjugate_pair(self):
        # (B - 2)(B + 3)(B^2 - 2B + 5); an all-real start must still
        # find the pair 1 +- 2i despite the real coefficients
        poly = [QQi(-30), QQi(17), QQi(-3), QQi(-1), QQi(1)]
        zs = find_all_roots(poly, seeds=[3, 0, -1, -4], precision_bits=128)
        for w in (mp.mpc(2), mp.mpc(-3), mp.mpc(1, 2), mp.mpc(1, -2)):
            assert min(abs(z - w) for z in zs.zeros) < mp.mpf(2) ** -60
        assert all(zs.converged)

    @given(st.sets(st.integers(min_value=-12, max_value=12), min_size=2,
                   max_size=7))
    def test_integer_grids(self, root_set):
        roots = [QQi(r) for r in sorted(root_set)]
        poly = poly_from_roots(roots)
        zs = find_all_roots(poly, precision_bits=160)
        got = sorted(z.real for z in zs.zeros)
        for g, r in zip(got, sorted(root_set)):
            assert abs(g - r) < mp.mpf(2) ** -70
            assert all(abs(z.imag) < mp.mpf(2) ** -70 for z in zs.zeros)


class TestResiduals:
    def test_residuals_below_tolerance(self):
        spec, _ = from_lame(LameParams(n=2, s="1/100"))
        fam = build_family(spec, 8)
        zs = find_all_roots(fam[8], precision_bits=256)
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
            coeffs = fam[12].to_mpc_coeffs()
            a = newton_polygon_seeds(coeffs, 12)
            b = newton_polygon_seeds(coeffs, 12)
        assert len(a) == 12
        assert all(x == y for x, y in zip(a, b))

    def test_explicit_seeds_must_not_exceed_degree(self):
        poly = poly_from_roots([QQi(1), QQi(2)])
        with pytest.raises(Exception):
            find_all_roots(poly, seeds=[mp.mpc(0)] * 5, precision_bits=64)


class TestTridiagonalEigenvalues:
    def test_complex_symmetric_two_by_two(self):
        # [[1, 2i], [2i, 3]] has eigenvalues 2 +- i sqrt(3)
        eig = tridiagonal_eigenvalues([1, 3], [2j])
        want = [complex(2, 3 ** 0.5), complex(2, -(3 ** 0.5))]
        for w in want:
            assert min(abs(e - w) for e in eig) < 1e-14

    def test_eigenvalues_are_characteristic_roots(self):
        diag = [1 + 1j, -2, 0.5j, 3]
        off = [1j, 2 - 1j, 0.25]
        # det(B - J) by the three-term recurrence, ascending powers of B
        p_prev, p = [mp.mpc(1)], [mp.mpc(-diag[0]), mp.mpc(1)]
        for a, b in zip(diag[1:], off):
            nxt = [mp.mpc(0)] + p
            for i, c in enumerate(p):
                nxt[i] -= a * c
            for i, c in enumerate(p_prev):
                nxt[i] -= b * b * c
            p_prev, p = p, nxt
        roots = find_all_roots(p, precision_bits=128).zeros
        eig = tridiagonal_eigenvalues(diag, off)
        assert len(eig) == 4
        for z in roots:
            assert min(abs(complex(z) - e) for e in eig) < 1e-12

    def test_rotation_breakdown_reports_failure(self):
        # [[1, i], [i, -1]] is a nonzero nilpotent matrix; its first
        # rotation pivot (f, g) = (i, -1) has f^2 + g^2 = 0
        assert tridiagonal_eigenvalues([1, -1], [1j]) is None

    def test_iteration_bound_reports_failure(self, monkeypatch):
        import heunzeros.rootfind as rootfind

        monkeypatch.setattr(rootfind, "_QL_MAX_STEPS", 0)
        assert tridiagonal_eigenvalues([1, 3], [2j]) is None
        assert tridiagonal_eigenvalues([1, 3], [0j]) == [1, 3]

    def test_overflow_reports_failure(self):
        # finite parts, but the modulus is beyond the double range
        huge = complex(1.5e308, 1.5e308)
        assert tridiagonal_eigenvalues([1, 2], [huge]) is None
        assert tridiagonal_eigenvalues([huge, -huge], [1]) is None

    def test_offdiag_length_checked(self):
        with pytest.raises(ValueError):
            tridiagonal_eigenvalues([1, 2], [1, 1])


class TestRefinement:
    def test_strict_nonconvergence_raises(self):
        # a tolerance the working precision resolves, but one sweep from
        # the circles cannot meet
        spec, _ = from_lame(LameParams(n=2, s="1/2"))
        fam = build_family(spec, 10)
        with pytest.raises(NonConvergenceError,
                           match="did not settle within 1 iterations"):
            find_all_roots(fam[10], precision_bits=64, tol=mp.mpf(2) ** -60,
                           max_iter=1)

    def test_strict_polish_failure_raises(self, monkeypatch):
        import heunzeros.rootfind as rootfind

        spec, _ = from_lame(LameParams(n=2, s="1/2"))
        fam = build_family(spec, 10)
        polish = rootfind._newton_polish
        calls = []

        def first_root_fails(coeffs, z, tol):
            calls.append(z)
            r, res, ok = polish(coeffs, z, tol)
            return r, res, ok and len(calls) > 1

        monkeypatch.setattr(rootfind, "_newton_polish", first_root_fails)
        with pytest.raises(NonConvergenceError,
                           match=r"1 of 10 roots failed the tolerance check"):
            find_all_roots(fam[10], precision_bits=64)

    def test_unreachable_tolerance_fails_before_any_sweep(self, monkeypatch):
        import heunzeros.rootfind as rootfind

        spec, _ = from_lame(LameParams(n=2, s="1/2"))
        fam = build_family(spec, 8)

        def no_sweeps(coeffs, z):
            raise AssertionError("evaluated the polynomial")

        monkeypatch.setattr(rootfind, "_horner_pair", no_sweeps)
        with pytest.raises(NonConvergenceError,
                           match=r"tolerance 1\.0e-70 .*2\^-88.*88-bit"):
            find_all_roots(fam[8], precision_bits=64, tol=1e-70)

    def test_tolerance_within_guard_bits_is_accepted(self):
        # below 2^-64 but above 2^-88, the resolution the sweeps run at
        spec, _ = from_lame(LameParams(n=2, s="1/2"))
        fam = build_family(spec, 8)
        zs = find_all_roots(fam[8], precision_bits=64, tol=1e-20)
        assert all(zs.converged) and zs.degree == 8

    def test_non_strict_reports_converged_flags(self):
        spec, _ = from_lame(LameParams(n=2, s="1/2"))
        fam = build_family(spec, 10)
        zs = find_all_roots(fam[10], precision_bits=64,
                            tol=mp.mpf(2) ** -200, max_iter=4, strict=False)
        assert not all(zs.converged)


class TestZeroSet:
    def test_real_zero_count(self):
        poly = poly_from_roots([QQi(1), QQi(2), QQi(0, 3), QQi(0, -3)])
        zs = find_all_roots(poly, precision_bits=128)
        assert real_zero_count(zs) == 2

    def test_labels_round_trip(self):
        poly = poly_from_roots([QQi(1), QQi(2)])
        zs = find_all_roots(poly, precision_bits=128)
        labelled = zs.with_labels([1, 0])
        assert labelled.labels == (1, 0)
        with pytest.raises(Exception):
            zs.with_labels([0])
