"""Release gates: one test per reproduction target, printed as a checklist.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
gate.  Expected values are decimal strings exactly as they must be
displayed; list entries are checked to 8 significant digits (half an
ulp at the 8th digit), approximation-table cells to every displayed
digit in exact rational arithmetic, and algebraic identities exactly.
"""

import time
from fractions import Fraction as F

import mpmath as mp

from heunzeros.families import (
    FamilyKind,
    LameParams,
    MathieuParams,
    RecurrenceSpec,
    from_lame,
    from_mathieu,
    recurrence_coeffs,
)
from heunzeros.perturbation import (
    first_order_coeff,
    second_order_coeff,
    zero_estimate,
    zero_expansion,
)
from heunzeros.recurrence import build_family, eval_s_polynomial
from heunzeros.rootfind import real_zero_count
from heunzeros.scalars import QQi, parse_gaussian_rational, to_mpc, working_precision
from heunzeros.oracle import d2_by_midpoint_matching
from heunzeros.tracking import (
    convergence_report,
    d2_closed_form_s0,
    d2_sequence,
    solve_zeros,
)

TABLE_TIME_LIMIT = 30.0


def value(text):
    """Displayed decimal string -> mpc, exactly."""
    return to_mpc(parse_gaussian_rational(text))


def sig_tol(w, digits=8):
    """Half an ulp at the digits-th significant digit of w."""
    return mp.mpf(10) ** (mp.floor(mp.log10(abs(w))) - digits + 1) / 2


def assert_zeros_shown(zeros, shown, digits=8):
    """Every displayed value has its own computed zero within half an
    ulp at the digits-th significant digit (no ordering assumed)."""
    pool = list(zeros)
    for text in shown:
        w = value(text)
        dist, idx = min((abs(z - w), i) for i, z in enumerate(pool))
        assert dist <= sig_tol(w, digits), (
            f"{text}: nearest computed zero is off by {mp.nstr(dist, 3)}"
        )
        pool.pop(idx)


def solve_within_budget(spec, m):
    t0 = time.monotonic()
    zs = solve_zeros(spec, m)
    elapsed = time.monotonic() - t0
    assert elapsed < TABLE_TIME_LIMIT, (
        f"degree {m} table took {elapsed:.1f}s"
    )
    return zs


def test_1_exact_degree4_coefficients():
    spec, _ = from_lame(LameParams(n=2, s="1/100"))
    fam = build_family(spec, 4)
    want = [QQi("121537/70000000"), QQi("6154031/26250000"),
            QQi("497299/1575000"), QQi("101/1125"), QQi("2/315")]
    assert list(fam[4].coeffs) == want
    print("PASS  1/9 exact degree-4 coefficient polynomial")


LAME_TABLES = {
    "1/100": {
        4: (["-.007481156136", "-1.002518844", "-3.988544101",
             "-9.141455899"], None),
        8: (["-.007481156136", "-1.002518844", "-3.987473618",
             "-8.962425455", "-15.92736843", "-24.88377990",
             "-35.92102641", "-50.70792619"], None),
        30: (["-.007481156136", "-1.002518844", "-3.987473618",
              "-8.962425430", "-15.92735912", "-24.88227415",
              "-35.82717042"], "-920.1619370"),
    },
    "1/2": {
        4: (["-.3169872981", "-1.183012702", "-4.535836596",
             "-14.96416340"], None),
        8: (["-.3169872981", "-1.183012702", "-3.404179955",
             "-7.875606843", "-15.98660376", "-30.00270451",
             "-53.91569102", "-97.31521392"], None),
        30: (["-.3169872981", "-1.183012702", "-3.284830016",
              "-6.870001746", "-11.89319364", "-18.35299952",
              "-26.25221475"], "-2042.087995"),
        40: (["-.3169872981", "-1.183012702", "-3.284829947",
              "-6.869999689", "-11.89315665", "-18.35252588",
              "-26.24770357"], "-3798.692942"),
    },
}


def test_2_lame_zero_tables():
    for s, tables in LAME_TABLES.items():
        spec, _ = from_lame(LameParams(n=2, s=s))
        for degree, (shown, tail) in tables.items():
            zs = solve_within_budget(spec, degree)
            assert_zeros_shown(zs.zeros, shown)
            if tail is not None:
                w = value(tail)
                assert abs(zs.zeros[-1] - w) <= sig_tol(w)
    print("PASS  2/9 zero tables at s=1/100 and s=1/2 "
          "(8 significant digits, < 30 s per table)")


# approximation-table cells as (re, im) display strings; an entry
# without a decimal point must be matched exactly
def _half_ulp(text):
    if "." not in text:
        return F(0)
    return F(1, 2 * 10 ** len(text.split(".")[1]))


def assert_cell_exact(est, re_s, im_s):
    shown_re, shown_im = F(re_s), F(im_s)
    assert abs(est.re - shown_re) <= _half_ulp(re_s), (re_s, est)
    assert abs(est.im - shown_im) <= _half_ulp(im_s), (im_s, est)


APPROXIMATION_TABLES = [
    ("lame", "1/100", [
        (0, ("0", "0"), ("-.0075000000", "0"), ("-.0074812500", "0")),
        (1, ("-1", "0"), ("-1.002500000", "0"), ("-1.002518750", "0")),
        (2, ("-4", "0"), ("-3.987500000", "0"), ("-3.987473750", "0")),
        (3, ("-9", "0"), ("-8.962500000", "0"), ("-8.962425804", "0")),
    ]),
    ("lame", "1/2", [
        (0, ("0", "0"), ("-.3750000000", "0"), ("-.3281250000", "0")),
        (1, ("-1", "0"), ("-1.125000000", "0"), ("-1.171875000", "0")),
        (2, ("-4", "0"), ("-3.375000000", "0"), ("-3.309375000", "0")),
        (3, ("-9", "0"), ("-7.125000000", "0"), ("-6.939508929", "0")),
    ]),
    ("mathieu", "2", [
        (0, ("0", "0"), ("1", "0"), ("1.500000000", "0")),
        (1, ("-1", "0"), ("0", "0"), ("-.4166666667", "0")),
        (2, ("-4", "0"), ("-3", "0"), ("-3.033333333", "0")),
        (3, ("-9", "0"), ("-8", "0"), ("-8.014285714", "0")),
        (4, ("-16", "0"), ("-15", "0"), ("-15.00793651", "0")),
        (5, ("-25", "0"), ("-24", "0"), ("-24.00505051", "0")),
    ]),
    ("mathieu", "2i", [
        (0, ("0", "0"), ("0", "1"), ("-.5000000000", "1")),
        (1, ("-1", "0"), ("-1", "1"), ("-.5833333333", "1")),
        (2, ("-4", "0"), ("-4", "1"), ("-3.966666667", "1")),
        (3, ("-9", "0"), ("-9", "1"), ("-8.985714286", "1")),
        (4, ("-16", "0"), ("-16", "1"), ("-15.99206349", "1")),
        (5, ("-25", "0"), ("-25", "1"), ("-24.99494949", "1")),
    ]),
    ("mathieu", "i", [
        (0, ("0", "0"), ("0", ".5"), ("-.1250000000", ".5")),
        (1, ("-1", "0"), ("-1", ".5"), ("-.8958333333", ".5")),
        (2, ("-4", "0"), ("-4", ".5"), ("-3.991666667", ".5")),
        (3, ("-9", "0"), ("-9", ".5"), ("-8.996428571", ".5")),
        (4, ("-16", "0"), ("-16", ".5"), ("-15.99801587", ".5")),
        (5, ("-25", "0"), ("-25", ".5"), ("-24.99873737", ".5")),
    ]),
    ("whill", "-1/100", [
        (0, ("0", "0"), ("-.0250000000", "0"), ("-.0247500000", "0")),
        (1, ("-1", "0"), ("-1.025000000", "0"), ("-1.025212500", "0")),
        (2, ("-4", "0"), ("-4.025000000", "0"), ("-4.025020000", "0")),
        (3, ("-9", "0"), ("-9.025000000", "0"), ("-9.025010357", "0")),
        (4, ("-16", "0"), ("-16.02500000", "0"), ("-16.02500714", "0")),
        (5, ("-25", "0"), ("-25.02500000", "0"), ("-25.02500568", "0")),
    ]),
]


def _table_spec(family, s):
    if family == "lame":
        return from_lame(LameParams(n=2, s=s))[0]
    if family == "mathieu":
        return from_mathieu(MathieuParams(q=s))[0]
    return RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                          delta="1/2", alpha=5, s=s)


def test_3_approximation_cells_exact():
    cells = 0
    for family, s, rows in APPROXIMATION_TABLES:
        spec = _table_spec(family, s)
        for k, *orders in rows:
            for order, (re_s, im_s) in enumerate(orders):
                est = zero_estimate(spec, k, 29, order)
                assert isinstance(est, QQi)
                assert_cell_exact(est, re_s, im_s)
                cells += 1
    assert cells == 96
    print(f"PASS  3/9 all {cells} approximation cells exact "
          "to displayed digits")


MATHIEU_TABLES = {
    "2": {
        8: (["1.378487800", "-.2931696155", "-3.035348462", "-8.015086274",
             "-15.02054999", "-24.16203960", "-36.25913692",
             "-54.59315694"], None),
        30: (["1.378489221", "-.2931662833", "-3.035300946", "-8.014303906",
              "-15.00793924", "-24.00505119", "-35.00349673"],
             "-864.9717520"),
    },
    "2i": {
        8: (["-.5406371066+.5331266835i", "-.5406402496+1.466879047i",
             "-3.968636255+.9999756999i", "-8.986123112+.9989291467i",
             "-16.01021544+1.007508356i", "-24.84797965+1.233162247i",
             "-34.56459475-.1600728404i", "-50.54117344-6.079508341i"],
            None),
        30: (["-.5406395812+.5331266960i", "-.5406395812+1.466873304i",
              "-3.968701175+i", "-8.985730155+i", "-15.99206621+i",
              "-24.99495018+i", "-35.99650372+i"],
             "-846.6304900-26.02805043i"),
    },
    "i": {
        8: (["-.1431861828+.4999999951i", "-.8775200607+.5000000522i",
             "-3.991791404+.4999998065i", "-8.996435830+.4999651877i",
             "-15.99919580+.5002363252i", "-24.99010545+.5324971426i",
             "-35.50299960+.3000806539i", "-49.49876567-3.332779163i"],
            None),
        30: (["-.1431861712+.5i", "-.8775200792+.5i", "-3.991792466+.5i",
              "-8.996429618+.5i", "-15.99801604+.5i", "-24.99873742+.5i",
              "-35.99912589+.5i"],
             "-842.7448796-13.99121594i"),
    },
}


def test_4_mathieu_complex_s_tables():
    for q, tables in MATHIEU_TABLES.items():
        spec, _ = from_mathieu(MathieuParams(q=q))
        for degree, (shown, tail) in tables.items():
            zs = solve_within_budget(spec, degree)
            assert_zeros_shown(zs.zeros, shown)
            if tail is not None:
                w = value(tail)
                assert abs(zs.zeros[-1] - w) <= sig_tol(w)
            if q == "2i" and degree == 30:
                # the lowest two zeros share their real part to the
                # displayed 10 digits even though the imaginary parts
                # are far apart
                pair = []
                for text in shown[:2]:
                    w = value(text)
                    pair.append(min(zs.zeros, key=lambda z: abs(z - w)))
                assert abs(pair[0].real - pair[1].real) < mp.mpf("1e-9")
    print("PASS  4/9 s = 2, 2i, i zero tables "
          "(8 significant digits, shifted-grid pattern included)")


WHILL_SMALL_S = {
    8: (["-.02475005544", "-1.025212444", "-4.025020000", "-9.025010357",
         "-16.02500729", "-25.02496069", "-36.03300188", "-48.53703728"],
        None),
    30: (["-.02475005544", "-1.025212444", "-4.025020000", "-9.025010357",
          "-16.02500714", "-25.02500568", "-36.02500490"], "-835.6811120"),
}

WHILL_LARGE_S_PARTIAL = {
    16: ["2.051282315", "31.28075111", "54.63259197-14.18872668i"],
    19: ["2.051136527", "31.66623015", "50.75984059",
         "59.89047866-28.89267645i"],
}


def test_5_whittaker_hill():
    small = _table_spec("whill", "-1/100")
    for degree, (shown, tail) in WHILL_SMALL_S.items():
        zs = solve_within_budget(small, degree)
        assert_zeros_shown(zs.zeros, shown)
        if tail is not None:
            w = value(tail)
            assert abs(zs.zeros[-1] - w) <= sig_tol(w)

    large = _table_spec("whill", "-20")
    for degree, shown in WHILL_LARGE_S_PARTIAL.items():
        assert_zeros_shown(solve_zeros(large, degree).zeros, shown)
    solved = {m: solve_zeros(large, m) for m in (50, 89, 100)}
    counts = {m: real_zero_count(zs) for m, zs in solved.items()}
    assert counts == {50: 0, 89: 17, 100: 26}
    for m in (89, 100):
        zs = solved[m]
        reals = sorted((z.real for z in zs.real_zeros()), reverse=True)
        assert abs(reals[0] - value("-11.72870190")) <= \
            sig_tol(value("-11.72870190"), 7)
        assert abs(reals[1] - value("-37.26280325")) <= \
            sig_tol(value("-37.26280325"), 7)
    print("PASS  5/9 alpha=5 tables; real-zero counts 0/17/26 at s=-20 "
          "and leading real zeros to 7 digits")


def test_6_stabilization_counts():
    lame, _ = from_lame(LameParams(n=2, s="1/100"))
    mathieu, _ = from_mathieu(MathieuParams(q=2))
    n_lame = convergence_report(lame, m_list=(30, 40), digits=10).n_stable()
    n_mathieu = convergence_report(mathieu, m_list=(30, 40),
                                   digits=10).n_stable()
    assert n_lame >= 20
    assert n_mathieu >= 20
    print(f"PASS  6/9 n_stable(10) between degrees 30 and 40: "
          f"{n_lame} (Lame s=1/100), {n_mathieu} (Mathieu s=2), both >= 20")


def _generic_specs():
    return [
        RecurrenceSpec(kind=FamilyKind.HEUN, gamma="2/3", delta="3/4",
                       alpha="1/5", beta="1/3", s="5/7"),
        RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="3/5", delta="7/4",
                       alpha=2, s="-1/3"),
        RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="5/4", delta="2/7",
                       s="-3/2"),
    ]


def test_7_exact_property_suite():
    for spec in _generic_specs():
        # expansion coefficients stop depending on the degree once the
        # degree clears the grid index by the expansion order
        for k in range(11):
            ref1 = first_order_coeff(spec, k, k + 1)
            assert all(first_order_coeff(spec, k, m) == ref1
                       for m in range(k + 1, 15))
            ref2 = second_order_coeff(spec, k, k + 2)
            assert all(second_order_coeff(spec, k, m) == ref2
                       for m in range(k + 2, 15))
        # substituting the truncated expansion back in kills the low
        # orders of s identically
        for k, m in ((0, 4), (2, 5), (3, 6)):
            pol1 = eval_s_polynomial(
                spec, list(zero_expansion(spec, k, m, order=1).coefficients()),
                m)
            assert pol1.coeffs[0] == QQi(0) and pol1.coeffs[1] == QQi(0)
            assert pol1.coeffs[2] != QQi(0)
            pol2 = eval_s_polynomial(
                spec, list(zero_expansion(spec, k, m, order=2).coefficients()),
                m)
            assert (pol2.coeffs[0] == QQi(0) and pol2.coeffs[1] == QQi(0)
                    and pol2.coeffs[2] == QQi(0))
        # at s = 0 the polynomial factors over the grid
        spec0 = spec.with_s(0)
        fam = build_family(spec0, 8)
        for k in range(8):
            d_k = recurrence_coeffs(spec0, k)[0]
            assert fam[8](QQi.coerce(-d_k)) == QQi(0)
        # leading coefficient law
        lead = QQi(1)
        for j in range(8):
            lead = lead / ((j + 1) * (QQi.coerce(spec.gamma) + j))
        assert fam[8].coeffs[-1] == lead
    print("PASS  7/9 exact identities: degree stability, O(s^2)/O(s^3) "
          "remainders, s=0 factorization, leading law")


def test_8_second_order_accuracy_slope():
    base, _ = from_lame(LameParams(n=2, s="1/100"))
    s_values = ["1/100", "1/1000", "1/10000"]
    errs = {k: [] for k in range(6)}
    with working_precision(256):
        for s in s_values:
            spec = base.with_s(s)
            zs = solve_zeros(spec, 12)
            labels = list(zs.labels)
            for k in range(6):
                z = zs.zeros[labels.index(k)]
                est = to_mpc(zero_estimate(spec, k, 11, 2))
                errs[k].append(abs(z - est))
        span = mp.log(mp.mpf(100))  # two decades of s
        for k in range(6):
            slope = (mp.log(errs[k][0]) - mp.log(errs[k][2])) / span
            assert slope >= mp.mpf("2.7"), (k, mp.nstr(slope, 4))
    print("PASS  8/9 second-order estimate error scales with slope >= 2.7 "
          "over s = 1e-2..1e-4")


def test_9_d2_triangle_and_zero_consistency():
    flat = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2", delta="1/2",
                          s=0)
    with working_precision(256):
        for b in (mp.mpf(-2), mp.mpf(-1), mp.mpf(-1) / 4, mp.mpf(1) / 2,
                  mp.mpf(2)):
            routes = (
                d2_sequence(flat, b, K=500).estimate,
                d2_closed_form_s0(flat, b),
                d2_by_midpoint_matching(flat, b).d2,
            )
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(routes[i] - routes[j]) < mp.mpf("1e-8"), (
                        mp.nstr(b, 5), i, j)

    lame, _ = from_lame(LameParams(n=2, s="1/100"))
    report = convergence_report(lame, m_list=(30, 40), digits=10)
    stable = report.stable_tracks()
    assert len(stable) >= 20
    worst = mp.mpf(0)
    for track in stable:
        est = d2_sequence(lame, track.value_at(40), K=500).estimate
        worst = max(worst, abs(est))
    assert worst < mp.mpf("1e-6")
    print("PASS  9/9 d2 routes agree pairwise to 1e-8 at s=0; "
          f"|d2| <= {mp.nstr(worst, 3)} at all {len(stable)} stabilized "
          "zeros (consistency observation; no rigorous error bound)")
