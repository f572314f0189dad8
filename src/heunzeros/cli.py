"""Command-line front end.

Subcommands
    poly     build coefficient polynomials and print them
    zeros    zeros of one polynomial, labelled by grid index
    table    comparison table: grid point, three approximation orders,
             and the solved zero at each requested degree
    track    stabilization report across degrees
    d2       connection-coefficient estimate at a given B
    verify   self-contained property checks (independent of pytest)

Families, with the parameters that fix the spec and, for the named
equations, the one that fixes B (d2 only, and not together with --B)
    heun     --gamma --delta --alpha --beta --s
    cheun    --gamma --delta --alpha --s
    rcheun   --gamma --delta --s
    lame     --n --s        [--eta]     (gamma = delta = 1/2 member)
    mathieu  --q            [--a]       (reduced family, s = q)
    whill    --A1 --h       [--A0]      (confluent member, s = -2h)

Scalar arguments are read by scalars.parse_scalar as exact Gaussian
rationals: "a", "yi" or "x+yi" with integer, "p/q" or decimal parts
are read as written; an exponent in any part ("1e-3", "1/2+1.5e-3i")
rounds every part to --precision-bits, and each is read as that binary
float's exact value.  A part of magnitude 2^1024 or more is refused,
and so is a nonzero rounded part below 2^-(1024 + precision-bits).

Exit codes: 0 success, 2 argument parse error, 3 numerical
non-convergence, 4 invalid parameters or an unwritable --output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import NamedTuple

import mpmath as mp

from .families import (
    FamilyKind,
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
from .oracle import (
    d2_by_midpoint_matching,
    family_ode_polys,
    local_solutions_at_1,
    ode_residual,
    series_solution,
    z1_swapped_spec,
)
from .perturbation import (
    first_order_coeff,
    perturbative_seeds,
    second_order_coeff,
    zero_expansion,
)
from .recurrence import (
    build_family,
    eval_s_polynomial,
    eval_sequence,
    leading_coefficient_law,
)
from .rootfind import NonConvergenceError, find_all_roots
from .scalars import (
    QQi,
    format_scalar,
    parse_scalar,
    to_mpc,
    working_precision,
)
from .tracking import (
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

EXIT_OK = 0
EXIT_NONCONVERGENCE = 3
EXIT_INVALID = 4


def _parse_tol(args: argparse.Namespace, default):
    """--tol read at --precision-bits: a positive, finite real number, or
    `default` when the option was not given."""
    if args.tol is None:
        return default
    x = parse_scalar(args.tol, args.precision_bits)
    if not x.is_real or x.re <= 0:
        raise InvalidSpecError(
            f"--tol must be a positive real number, got {args.tol!r}"
        )
    with working_precision(args.precision_bits):
        return to_mpc(x).real


def _generic(kind: FamilyKind):
    """The map of a generic family: its spec, and no B of its own."""
    return lambda p: (RecurrenceSpec(kind=kind, **p), None)


# family -> (the parameters that fix its spec, the parameter that fixes B
# or None, the map from those parsed parameters to (spec, B or None))
_FAMILIES = {
    "heun": (("gamma", "delta", "alpha", "beta", "s"), None,
             _generic(FamilyKind.HEUN)),
    "cheun": (("gamma", "delta", "alpha", "s"), None,
              _generic(FamilyKind.CONFLUENT)),
    "rcheun": (("gamma", "delta", "s"), None, _generic(FamilyKind.REDUCED)),
    "lame": (("n", "s"), "eta", lambda p: from_lame(LameParams(**p))),
    "mathieu": (("q",), "a", lambda p: from_mathieu(MathieuParams(**p))),
    "whill": (("A1", "h"), "A0",
              lambda p: from_whittaker_hill(WhittakerHillParams(**p))),
}
# every subcommand takes the spec parameters; only d2 takes the B ones
_SPEC_PARAMS = tuple(dict.fromkeys(
    name for params, _, _ in _FAMILIES.values() for name in params))
_B_PARAMS = tuple(b for _, b, _ in _FAMILIES.values() if b)


def build_spec(args: argparse.Namespace):
    """(spec, B_or_None) from --family, its parameters and, on d2, --B or
    the family's own B parameter, all exact; a value with an exponent is
    rounded to --precision-bits as it is read."""
    bits = args.precision_bits
    fam = args.family
    params, b_param, to_spec = _FAMILIES[fam]
    given = [name for name in _SPEC_PARAMS + _B_PARAMS
             if getattr(args, name, None) is not None]
    unread = [name for name in given if name not in params + (b_param,)]
    if unread:
        raise InvalidSpecError(
            f"family {fam!r} does not read --{' --'.join(unread)}"
        )
    p = {name: parse_scalar(getattr(args, name), bits) for name in given}
    B = getattr(args, "B", None)
    B = parse_scalar(B, bits) if B is not None else None
    missing = [name for name in params if name not in p]
    if missing:
        raise InvalidSpecError(f"family {fam!r} needs --{' --'.join(missing)}")
    if B is not None and b_param in p:
        raise InvalidSpecError(f"give --B or --{b_param}, not both")
    spec, b = to_spec(p)
    return spec, b if B is None else B


# -- output ------------------------------------------------------------------------

def _fmt(x, digits: int) -> str:
    """Table cell: exact integers bare, everything else padded to the
    full digit count."""
    if x is None:
        return "-"
    if isinstance(x, QQi) and x.as_integer() is not None:
        return str(x.as_integer())
    return format_scalar(x, digits, pad=True)


class Result(NamedTuple):
    """A subcommand's JSON record, CSV rows (dicts keyed by the header),
    text lines and exit code."""

    record: dict | None
    rows: list | None
    lines: list
    code: int = EXIT_OK


def render(result: Result, fmt: str) -> str:
    """The output of a subcommand in the format fmt (text, json, csv),
    ending in a newline."""
    if fmt == "json":
        return json.dumps(result.record, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(result.rows[0])
        w.writerows(row.values() for row in result.rows)
        return buf.getvalue()
    return "\n".join(result.lines) + "\n"


# -- subcommands -------------------------------------------------------------------

def cmd_poly(args: argparse.Namespace) -> Result:
    spec, _ = build_spec(args)
    fam = build_family(spec, args.m)
    coeffs = [[str(c) for c in fam[m].coeffs] for m in range(args.m + 1)]
    return Result(
        fam.to_json(),
        [{"m": m, "k": k, "coefficient": c}
         for m, cs in enumerate(coeffs) for k, c in enumerate(cs)],
        [f"c_{m}(B): [{', '.join(cs)}]" for m, cs in enumerate(coeffs)],
    )


def cmd_zeros(args: argparse.Namespace) -> Result:
    spec, _ = build_spec(args)
    zs = solve_zeros(spec, args.m, precision_bits=args.precision_bits)
    d = args.digits
    zeros, lines = [], [f"zeros of c_{args.m}(B)  [{spec.kind.value}]"]
    for z, r, lab in zip(zs.zeros, zs.residuals, zs.labels):
        zeros.append({
            "re": mp.nstr(z.real, d + 5),
            "im": mp.nstr(z.imag, d + 5),
            "residual": mp.nstr(r, 5),
            "label_k": lab,
        })
        k = "-" if lab is None else str(lab)
        lines.append(f"  k={k:>3}  {_fmt(z, d):<36}  residual {mp.nstr(r, 3)}")
    return Result({
        "schema": "heunzeros-zeros/1",
        "spec": spec.to_json(),
        "m": args.m,
        "precision_bits": args.precision_bits,
        "tol": mp.nstr(zs.tol, 5),
        "converged": True,
        "zeros": zeros,
    }, zeros, lines)


def _table_rows(ms, rows, digits: int) -> list:
    """The cells of `table`: one dict per `tracking.zero_table` row,
    keyed by the column header."""
    return [
        {"k": str(r["k"]),
         "0th approx.": _fmt(r["orders"][0], digits),
         "1st approx.": _fmt(r["orders"][1], digits),
         "2nd approx.": _fmt(r["orders"][2], digits),
         **{f"zero of c_{m}": _fmt(r["zeros"][m], digits) for m in ms}}
        for r in rows
    ]


def _aligned(table_rows) -> list:
    """Header and rows as right-aligned text lines."""
    table = [list(table_rows[0])] + [list(r.values()) for r in table_rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in table]


def table_text(ms, rows, digits: int) -> str:
    """The text output of `table` for `tracking.zero_table` rows at
    the degrees ms."""
    return "\n".join(_aligned(_table_rows(ms, rows, digits)))


def cmd_table(args: argparse.Namespace) -> Result:
    spec, _ = build_spec(args)
    if not args.m:
        raise InvalidSpecError("table needs --m (one or more degrees)")
    ms = tuple(sorted(set(args.m)))
    zero_sets = {
        m: solve_zeros(spec, m, precision_bits=args.precision_bits)
        for m in ms
    }
    rows = zero_table(spec, zero_sets, args.k_max)
    cells = _table_rows(ms, rows, args.digits)
    return Result({
        "schema": "heunzeros-table/1",
        "spec": spec.to_json(),
        "m_list": list(ms),
        "rows": [
            {
                "k": r["k"],
                "order0": c["0th approx."],
                "order1": c["1st approx."],
                "order2": c["2nd approx."],
                "zeros": {str(m): c[f"zero of c_{m}"] for m in ms},
            }
            for r, c in zip(rows, cells)
        ],
    }, cells, _aligned(cells))


def cmd_track(args: argparse.Namespace) -> Result:
    spec, _ = build_spec(args)
    rep = convergence_report(spec, m_list=args.m, digits=args.digits,
                             precision_bits=args.precision_bits)
    m1, m2 = rep.m_list[-2], rep.m_list[-1]
    n_stable = rep.n_stable()
    tracks, rows = [], []
    lines = [
        f"degrees {rep.m_list}: n_stable({args.digits}) = "
        f"{n_stable} of {len(rep.zero_sets[m2].zeros)}"
    ]
    for t in rep.tracks:
        z = t.value_at(m2)
        sd = t.stabilized.get((m1, m2))
        tracks.append({
            "label_k": t.label_k,
            "entries": {str(m): [mp.nstr(v.real, 17), mp.nstr(v.imag, 17)]
                        for m, v in t.entries.items()},
            "stabilized": {f"{ma},{mb}": n
                           for (ma, mb), n in t.stabilized.items()},
        })
        rows.append({
            "label_k": t.label_k,
            "re": mp.nstr(z.real, args.digits + 5),
            "im": mp.nstr(z.imag, args.digits + 5),
            "stabilized_digits": sd,
        })
        k = "-" if t.label_k is None else str(t.label_k)
        lines.append(
            f"  k={k:>3}  {_fmt(z, args.digits):<36}  "
            f"digits {'-' if sd is None else sd}"
        )
    return Result({
        "schema": "heunzeros-report/1",
        "spec": spec.to_json(),
        "m_list": list(rep.m_list),
        "digits": rep.digits,
        "precision_bits": rep.precision_bits,
        "n_stable": n_stable,
        "tracks": tracks,
    }, rows, lines)


def cmd_d2(args: argparse.Namespace) -> Result:
    spec, B = build_spec(args)
    if B is None:
        b_param = _FAMILIES[args.family][1]
        raise InvalidSpecError(
            "d2 needs --B" + (f" or --{b_param}" if b_param else ""))
    est = d2_sequence(spec, B, K=args.K, precision_bits=args.precision_bits)
    d = args.digits
    out = {
        "schema": "heunzeros-d2/1",
        "spec": spec.to_json(),
        "B": _fmt(B, d + 5),
        "K": args.K,
        "estimate": _fmt(est.estimate, d),
        "tail": _fmt(est.tail, d),
        "error_indicator": mp.nstr(est.error_indicator, 5),
    }
    lines = [f"d2 estimate  = {out['estimate']}   (K = {args.K})",
             f"raw tail     = {out['tail']}",
             f"indicator    = {out['error_indicator']}"]
    if not spec.s:
        out["closed_form"] = _fmt(
            d2_closed_form_s0(spec, B, args.precision_bits), d
        )
        lines.append(f"closed form  = {out['closed_form']}   (s = 0)")
    if args.midpoint:
        mm = d2_by_midpoint_matching(spec, B,
                                     precision_bits=args.precision_bits)
        out["midpoint"] = _fmt(mm.d2, d)
        lines.append(f"midpoint     = {out['midpoint']}")
    row = {k: v for k, v in out.items() if k not in ("schema", "spec")}
    if args.search:
        res = d2_zero_search(spec, B, tol=_parse_tol(args, 1e-10), K=args.K,
                             precision_bits=args.precision_bits)
        search = out["zero_search"] = {
            "B": _fmt(res.B, d),
            "d2": _fmt(res.d2, d),
            "iterations": res.iterations,
            "K_used": res.K_used,
        }
        row.update((f"search_{k}", v) for k, v in search.items())
        lines.append(f"zero search  : B = {search['B']}  d2 = {search['d2']}  "
                     f"({res.iterations} iterations, K = {res.K_used})")
    return Result(out, [row], lines)


# -- verify ------------------------------------------------------------------------

def _default_specs():
    lame, _ = from_lame(LameParams(n=2, s="1/100"))
    math, _ = from_mathieu(MathieuParams(q=2))
    whc = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                         delta="1/2", s="-1/100", alpha=5)
    return [lame, math, whc]


def _suite_recurrence(spec, bits):
    # every check compares exact values with ==
    B = "-7/3"
    sol = series_solution(*family_ode_polys(spec, B), 0, 16)
    prod = eval_sequence(spec, B, 16)
    yield ("series matches the defining equation",
           all(sol.coeffs[k] == prod[k] for k in range(17)), "")
    fam = build_family(spec.with_s(0), 6)
    yield ("s=0 zeros sit on the -D_k grid",
           all(fam[m + 1](-(recurrence_coeffs(spec, k)[0])) == 0
               for m in range(6) for k in range(m + 1)), "")
    fam = build_family(spec, 8)
    yield ("leading coefficient law",
           all(fam[m].leading_coefficient == leading_coefficient_law(spec, m)
               for m in range(1, 9)), "")


def _suite_perturbation(spec, bits):
    # exact throughout: nothing here depends on bits
    refs = {k: (first_order_coeff(spec, k, k + 1),
                second_order_coeff(spec, k, k + 2)) for k in range(5)}
    stable = all(
        x == y
        for k in range(5) for m in range(k + 2, 9)
        for x, y in zip((first_order_coeff(spec, k, m),
                         second_order_coeff(spec, k, m)), refs[k])
    )
    yield ("expansion coefficients settle for m >= k+order", stable, "")
    k, m = 2, 5
    vanish = True
    for order in (1, 2):
        exp = zero_expansion(spec, k, m, order)
        poly = eval_s_polynomial(spec, list(exp.coefficients()), m)
        vanish = vanish and all(c == 0 for c in poly.coeffs[:order + 1])
    yield ("substituted expansions vanish to their order", vanish, "")


def _suite_rootfind(spec, bits):
    c8 = continuant(spec, 8)
    zs_eig = solve_zeros(spec, 8, precision_bits=bits)
    try:
        zs_est = find_all_roots(c8, seeds=perturbative_seeds(spec, 7),
                                precision_bits=bits)
    except NonConvergenceError as exc:
        # estimates that polish to one zero twice: this happens already
        # at moderate |s| (Lame n=2 at s = 1/2 and s = 9/10), and it is
        # a fault of the estimates, not of the eigenvalue-seeded solve
        yield ("seeding strategies agree on c_8 zeros", False,
               f"estimate seeds: {exc}")
    else:
        gap = max(d for _, _, d in match_zeros(zs_eig, zs_est).pairs)
        # each solve meets its tol 2^-(bits/2); the pass line
        # keeps 3/16 of the bits as slack and is 2^-80 at 256 bits
        yield ("seeding strategies agree on c_8 zeros",
               gap < mp.mpf(2) ** -(5 * bits // 16),
               f"max gap {mp.nstr(gap, 3)}")
    yield ("zero residuals below tolerance",
           max(zs_eig.residuals) < zs_eig.tol, "")


def _suite_tracking(spec, bits):
    za = solve_zeros(spec, 12, precision_bits=bits)
    zb = solve_zeros(spec, 16, precision_bits=bits)
    yield ("cross-degree matching preserves labels",
           all(za.labels[ia] == zb.labels[ib]
               for ia, ib, _ in match_zeros(za, zb).pairs), "")
    n = convergence_report(spec, m_list=(16, 20), digits=6,
                           precision_bits=bits).n_stable(6)
    yield ("low zeros stabilize quickly", n >= 8, f"n_stable(6) = {n}")


def _check_digit_counter(bits):
    # exact inputs: at fewer than 24 bits mpf("1.0000001") rounds to 1
    ok = (stabilized_digits("10000001/10000000", 1) == 6
          and stabilized_digits(1, 1) >= 50)
    return "stabilized-digit counter calibrated", ok, ""


def _suite_oracle(spec, bits):
    # truncation tail at |z| = 0.35 with 60 terms sits near 1e-25,
    # far below the pass line yet far above honest coefficient bugs;
    # below 80 bits the line sits 2^16 rounding units (2^-bits) up
    res = ode_residual(spec, mp.mpf("-2.0"), N=60, precision_bits=bits)
    yield ("production series satisfies the equation",
           res < max(mp.mpf("1e-20"), mp.mpf(2) ** (16 - bits)),
           f"residual {mp.nstr(res, 3)}")
    u0, _ = local_solutions_at_1(spec, "-7/3", 12)
    prod = eval_sequence(*z1_swapped_spec(spec, "-7/3"), 12)
    yield ("point-exchange parameter map exact",
           all(u0.coeffs[k] == prod[k] for k in range(13)), "")


def _check_d2_routes(bits):
    s0 = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2", delta="1/2",
                        s=0)
    b = mp.mpf("-0.35")
    seq = d2_sequence(s0, b, K=400, precision_bits=bits).estimate
    cf = d2_closed_form_s0(s0, b, bits)
    mid = d2_by_midpoint_matching(s0, b, precision_bits=bits).d2
    tri = max(abs(seq - cf), abs(cf - mid), abs(mid - seq))
    return ("three d2 routes agree at s = 0", tri < mp.mpf("1e-10"),
            f"max gap {mp.nstr(tri, 3)}")


# suite name -> (checks yielded for each spec, spec-free checks), all
# called with --precision-bits last
_SUITES = {
    "recurrence": (_suite_recurrence, ()),
    "perturbation": (_suite_perturbation, ()),
    "rootfind": (_suite_rootfind, ()),
    "tracking": (_suite_tracking, (_check_digit_counter,)),
    "oracle": (_suite_oracle, (_check_d2_routes,)),
}


def cmd_verify(args: argparse.Namespace) -> Result:
    if args.family:
        spec, _ = build_spec(args)
        specs = [spec]
    elif any(getattr(args, name) is not None for name in _SPEC_PARAMS):
        raise InvalidSpecError("family parameters need --family")
    else:
        specs = _default_specs()
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    bits = args.precision_bits
    lines, failures = [], 0
    with working_precision(bits):
        for name in names:
            per_spec, spec_free = _SUITES[name]
            checks = [(f"{label} [{spec.kind.value}]", ok, detail)
                      for spec in specs
                      for label, ok, detail in per_spec(spec, bits)]
            checks += [check(bits) for check in spec_free]
            for label, ok, detail in checks:
                mark = "PASS" if ok else "FAIL"
                failures += not ok
                suffix = f"  ({detail})" if detail and not ok else ""
                lines.append(f"{mark}  [{name}] {label}{suffix}")
    lines.append("all checks passed" if failures == 0
                 else f"{failures} check(s) failed")
    return Result(None, None, lines, 0 if failures == 0 else 1)


# -- argument wiring -----------------------------------------------------------------

def _int_at_least(low: int, expected: str):
    """argparse type of an integer option that is at least low."""
    def read(text: str) -> int:
        if not text.isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return int(text)
    return read


# the counts --digits and --precision-bits, here and in the scripts, and
# each degree --m that zeros, table and track solve
positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")
# d2 --K, here and in scripts/d2_zero_hunt.py: the tail needs two terms
_tail_length = _int_at_least(2, "an integer K >= 2")


# options that only some subcommands read
_SHARED = {
    "digits": dict(type=positive_int, default=10),
    "format": dict(dest="fmt", default="text",
                   choices=["text", "json", "csv"]),
}


def _add_common(p: argparse.ArgumentParser, *shared: str,
                family_required: bool = True):
    """--family, its spec parameters, --precision-bits and --output,
    plus the named options of _SHARED."""
    p.add_argument("--family", required=family_required,
                   choices=list(_FAMILIES))
    for name in _SPEC_PARAMS:
        p.add_argument(f"--{name}", default=None,
                       help=f"family parameter {name}")
    p.add_argument("--precision-bits", type=positive_int, default=256)
    for name in shared:
        p.add_argument(f"--{name}", **_SHARED[name])
    p.add_argument("--output", default=None, help="write result to a file")


def _m_list(text: str) -> tuple:
    return tuple(positive_int(tok.strip()) for tok in text.split(",")
                 if tok.strip())


_COMMANDS = {
    "poly": cmd_poly,
    "zeros": cmd_zeros,
    "table": cmd_table,
    "track": cmd_track,
    "d2": cmd_d2,
    "verify": cmd_verify,
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    ap = argparse.ArgumentParser(
        prog="heunzeros",
        allow_abbrev=False,
        description="coefficient polynomials of Heun-class equations: "
                    "exact builds, zero tracking, and connection estimates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    p = command("poly", "build and print c_0..c_m")
    _add_common(p, "format")
    p.add_argument("--m", type=_non_negative_int, default=4)

    p = command("zeros", "zeros of c_m")
    _add_common(p, "digits", "format")
    p.add_argument("--m", type=positive_int, required=True)

    p = command("table", "approximation-vs-zero table")
    _add_common(p, "digits", "format")
    p.add_argument("--m", type=_m_list, required=True,
                   help="degree or comma list, e.g. 30,40")
    p.add_argument("--k-max", type=_non_negative_int, default=6)

    p = command("track", "stabilization across degrees")
    _add_common(p, "digits", "format")
    p.add_argument("--m", type=_m_list, default=(30, 40),
                   help="comma list of degrees, e.g. 30,40")

    p = command("d2", "connection-coefficient estimate")
    _add_common(p, "digits", "format")
    p.add_argument("--B", default=None, help="accessory parameter value")
    for fam, (_, b_param, _) in _FAMILIES.items():
        if b_param:
            p.add_argument(f"--{b_param}", default=None,
                           help=f"{fam}: B in the family's own terms "
                                "(not with --B)")
    p.add_argument("--K", type=_tail_length, default=500)
    p.add_argument("--search", action="store_true",
                   help="secant search for the nearest d2 zero from --B")
    p.add_argument("--tol", default=None,
                   help="secant stop of --search, a positive real read at "
                        "--precision-bits (default 1e-10)")
    p.add_argument("--midpoint", action="store_true",
                   help="also run the interior-matching cross-check")

    p = command("verify", "self-contained property checks")
    _add_common(p, family_required=False)
    p.set_defaults(fmt="text")
    p.add_argument("--suite", default="all",
                   choices=["all"] + sorted(_SUITES))

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
        out = render(result, args.fmt)
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(out)
            except OSError as exc:
                raise ValueError(f"cannot write --output {args.output!r}: "
                                 f"{exc.strerror}") from None
        else:
            sys.stdout.write(out)
        return result.code
    except (NonConvergenceError, ValueError) as exc:
        code = (EXIT_NONCONVERGENCE if isinstance(exc, NonConvergenceError)
                else EXIT_INVALID)
        print(json.dumps({"error": str(exc), "code": code}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
