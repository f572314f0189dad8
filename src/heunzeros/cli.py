"""Command-line front end.

Subcommands
    poly     build coefficient polynomials and print them
    zeros    zeros of one polynomial, labelled by grid index
    table    comparison table: grid point, three approximation orders,
             and the solved zero at each requested degree
    track    stabilization report across degrees
    d2       connection-coefficient estimate at a given B
    verify   self-contained property checks (independent of pytest)

Families
    lame     --n --s [--eta]            (gamma = delta = 1/2 member)
    mathieu  --q [--a]                  (reduced family, s = q)
    whill    --A0 --A1 --h              (confluent member, s = -2h)
    heun     --gamma --delta --alpha --beta --s
    cheun    --gamma --delta --alpha --s
    rcheun   --gamma --delta --s

Scalar arguments accept the grammar "a", "a/b", "a.b", and complex
combinations "x+yi" / "x-yi" / "yi" with rational or decimal parts;
such values stay exact.  Exponent notation ("1e-3", "1.5e-3+2i") is
accepted too and is read as a big float rounded to --precision-bits.

Exit codes: 0 success, 2 argument parse error, 3 numerical
non-convergence, 4 invalid parameters.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

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
    as_exact,
    format_scalar,
    is_exact_scalar,
    parse_gaussian_rational,
    to_mpc,
    working_precision,
)
from .tracking import (
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


_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# "x+yi", "x-yi", "yi", "-i": the imaginary part needs its own sign when
# a real part precedes it
_COMPLEX_RE = re.compile(
    rf"^(?:(?P<re>[+-]?{_FLOAT})(?P<im>[+-](?:{_FLOAT})?)"
    rf"|(?P<im_only>[+-]?(?:{_FLOAT})?))[ijIJ]$"
)


def parse_cli_scalar(text: str, precision_bits: int = 256):
    """Exact Gaussian-rational parse first, then big-float syntax.

    Inexact input (exponent notation, possibly inside "x+yi") is read
    correctly rounded to precision_bits.
    """
    try:
        return parse_gaussian_rational(text)
    except ValueError:
        pass
    s = text.strip().replace(" ", "")
    with working_precision(precision_bits):
        try:
            x = mp.mpf(s)
        except ValueError:
            pass
        else:
            if not mp.isfinite(x):
                raise InvalidSpecError(f"cannot parse scalar {text!r}: "
                                       "not a finite number")
            return x
        match = _COMPLEX_RE.match(s)
        if match is None:
            raise InvalidSpecError(f"cannot parse scalar {text!r}")
        im = match["im"] if match["im"] is not None else match["im_only"]
        im = im + "1" if im in ("", "+", "-") else im
        return mp.mpc(mp.mpf(match["re"] or 0), mp.mpf(im))


def _parse_tol(args: argparse.Namespace, default):
    """--tol read at --precision-bits: a positive, finite real number, or
    `default` when the option was not given."""
    if args.tol is None:
        return default
    x = parse_cli_scalar(args.tol, args.precision_bits)
    with working_precision(args.precision_bits):
        x = to_mpc(x)
    if x.imag != 0 or not x.real > 0:
        raise InvalidSpecError(
            f"--tol must be a positive real number, got {args.tol!r}"
        )
    return x.real


def build_spec(args: argparse.Namespace):
    """(spec, B_or_None) from the family selector and parameters.
    Inexact parameters are parsed, and mapped into the family's own, at
    --precision-bits."""
    bits = args.precision_bits
    fam = args.family
    if fam not in _FAMILY_PARAMS:
        raise InvalidSpecError(f"unknown family {fam!r}")
    given = [flag for flag in _PARAM_FLAGS if getattr(args, flag) is not None]
    unread = [flag for flag in given if flag not in _FAMILY_PARAMS[fam]]
    if unread:
        raise InvalidSpecError(
            f"family {fam!r} does not read --{' --'.join(unread)}"
        )
    p = {flag: parse_cli_scalar(getattr(args, flag), bits) for flag in given}
    B = getattr(args, "B", None)
    B = parse_cli_scalar(B, bits) if B is not None else None

    with working_precision(bits):
        return _family_spec(fam, p, B)


def _family_spec(fam: str, p: dict, B):
    """(spec, B_or_None) of family fam from its parsed parameters p."""
    def need(*names):
        missing = [n for n in names if n not in p]
        if missing:
            raise InvalidSpecError(
                f"family {fam!r} needs --{' --'.join(missing)}"
            )

    if fam == "lame":
        need("n", "s")
        spec, emap = from_lame(LameParams(n=p["n"], s=p["s"],
                                          eta=p.get("eta")))
        if "eta" in p and B is None:
            B = emap.b_from_eta(p["eta"])
        return spec, B
    if fam == "mathieu":
        need("q")
        spec, b_from_a = from_mathieu(MathieuParams(q=p["q"], a=p.get("a")))
        return spec, b_from_a if b_from_a is not None else B
    if fam == "whill":
        need("A0", "A1", "h")
        spec, b = from_whittaker_hill(
            WhittakerHillParams(A0=p["A0"], A1=p["A1"], h=p["h"])
        )
        return spec, b if B is None else B
    if fam == "heun":
        need("gamma", "delta", "alpha", "beta", "s")
        return RecurrenceSpec(kind=FamilyKind.HEUN, gamma=p["gamma"],
                              delta=p["delta"], s=p["s"], alpha=p["alpha"],
                              beta=p["beta"]), B
    if fam == "cheun":
        need("gamma", "delta", "alpha", "s")
        return RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma=p["gamma"],
                              delta=p["delta"], s=p["s"],
                              alpha=p["alpha"]), B
    need("gamma", "delta", "s")
    return RecurrenceSpec(kind=FamilyKind.REDUCED, gamma=p["gamma"],
                          delta=p["delta"], s=p["s"]), B


# -- formatting helpers ------------------------------------------------------------

def _fmt(x, digits: int) -> str:
    """Table cell: exact integers bare, everything else padded to the
    full digit count."""
    if x is None:
        return "-"
    if is_exact_scalar(x) and not isinstance(x, str):
        q = as_exact(x)
        if q.is_real and q.re.denominator == 1:
            return str(q.re.numerator)
    return format_scalar(x, digits, pad=True)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _emit(payload: str, args: argparse.Namespace):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


# -- subcommands -------------------------------------------------------------------

def cmd_poly(args: argparse.Namespace) -> str:
    spec, _ = build_spec(args)
    fam = build_family(spec, args.m, args.precision_bits)
    if args.fmt == "json":
        return json.dumps(fam.to_json(), indent=2)
    if args.fmt == "csv":
        rows = [("m", "k", "coefficient")]
        for m in range(args.m + 1):
            for k, c in enumerate(fam[m].coeffs):
                rows.append((m, k, str(c)))
        return _csv_text(rows)
    lines = []
    for m in range(args.m + 1):
        body = ", ".join(str(c) for c in fam[m].coeffs)
        lines.append(f"c_{m}(B): [{body}]")
    return "\n".join(lines)


def cmd_zeros(args: argparse.Namespace) -> str:
    spec, _ = build_spec(args)
    zs = solve_zeros(spec, args.m, precision_bits=args.precision_bits,
                     tol=_parse_tol(args, None), order=args.order)
    d = args.digits
    if args.fmt == "json":
        return json.dumps({
            "schema": "heunzeros-zeros/1",
            "spec": spec.to_json(),
            "m": args.m,
            "precision_bits": args.precision_bits,
            "tol": mp.nstr(zs.tol, 5),
            "converged": all(zs.converged),
            "zeros": [
                {
                    "re": mp.nstr(z.real, d + 5),
                    "im": mp.nstr(z.imag, d + 5),
                    "residual": mp.nstr(r, 5),
                    "label_k": lab,
                }
                for z, r, lab in zip(zs.zeros, zs.residuals, zs.labels)
            ],
        }, indent=2)
    if args.fmt == "csv":
        rows = [("re", "im", "residual", "label_k")]
        for z, r, lab in zip(zs.zeros, zs.residuals, zs.labels):
            rows.append((mp.nstr(z.real, d + 5), mp.nstr(z.imag, d + 5),
                         mp.nstr(r, 5), "" if lab is None else lab))
        return _csv_text(rows)
    lines = [f"zeros of c_{args.m}(B)  [{spec.kind.value}]"]
    for z, r, lab in zip(zs.zeros, zs.residuals, zs.labels):
        k = "-" if lab is None else str(lab)
        lines.append(f"  k={k:>3}  {_fmt(z, d):<36}  residual {mp.nstr(r, 3)}")
    return "\n".join(lines)


def _table_cells(ms, rows, digits: int) -> list:
    header = ["k", "0th approx.", "1st approx.", "2nd approx."] + [
        f"zero of c_{m}" for m in ms
    ]
    table = [header]
    for r in rows:
        cells = [str(r["k"])] + [_fmt(e, digits) for e in r["orders"]]
        cells += [_fmt(r["zeros"][m], digits) for m in ms]
        table.append(cells)
    return table


def table_text(ms, rows, digits: int) -> str:
    """The text output of `table` for `tracking.zero_table` rows at
    the degrees ms."""
    table = _table_cells(ms, rows, digits)
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in table
    )


def cmd_table(args: argparse.Namespace) -> str:
    spec, _ = build_spec(args)
    if not args.m:
        raise InvalidSpecError("table needs --m (one or more degrees)")
    ms = tuple(sorted(set(args.m)))
    zero_sets = {
        m: solve_zeros(spec, m, precision_bits=args.precision_bits,
                       order=args.order)
        for m in ms
    }
    rows = zero_table(spec, zero_sets, args.k_max)
    d = args.digits
    if args.fmt == "json":
        return json.dumps({
            "schema": "heunzeros-table/1",
            "spec": spec.to_json(),
            "m_list": list(ms),
            "rows": [
                {
                    "k": r["k"],
                    "order0": _fmt(r["orders"][0], d),
                    "order1": _fmt(r["orders"][1], d),
                    "order2": _fmt(r["orders"][2], d),
                    "zeros": {str(m): _fmt(z, d)
                              for m, z in r["zeros"].items()},
                }
                for r in rows
            ],
        }, indent=2)
    if args.fmt == "csv":
        return _csv_text(_table_cells(ms, rows, d))
    return table_text(ms, rows, d)


def cmd_track(args: argparse.Namespace) -> str:
    spec, _ = build_spec(args)
    rep = convergence_report(spec, m_list=args.m, digits=args.digits,
                             precision_bits=args.precision_bits)
    if args.fmt == "json":
        return json.dumps(rep.to_json(), indent=2)
    m1, m2 = rep.m_list[-2], rep.m_list[-1]
    if args.fmt == "csv":
        rows = [("label_k", "re", "im", "stabilized_digits")]
        for t in rep.tracks:
            z = t.value_at(m2)
            rows.append((
                "" if t.label_k is None else t.label_k,
                mp.nstr(z.real, args.digits + 5),
                mp.nstr(z.imag, args.digits + 5),
                t.stabilized.get((m1, m2), ""),
            ))
        return _csv_text(rows)
    lines = [
        f"degrees {rep.m_list}: n_stable({args.digits}) = "
        f"{rep.n_stable()} of {len(rep.zero_sets[m2].zeros)}"
    ]
    for t in rep.tracks:
        z = t.value_at(m2)
        sd = t.stabilized.get((m1, m2))
        k = "-" if t.label_k is None else str(t.label_k)
        lines.append(
            f"  k={k:>3}  {_fmt(z, args.digits):<36}  "
            f"digits {'-' if sd is None else sd}"
        )
    return "\n".join(lines)


def cmd_d2(args: argparse.Namespace) -> str:
    spec, B = build_spec(args)
    if B is None:
        raise InvalidSpecError("d2 needs --B (or a family mapping giving one)")
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
    with working_precision(args.precision_bits):
        s_is_zero = to_mpc(spec.s) == 0
    if s_is_zero:
        out["closed_form"] = _fmt(
            d2_closed_form_s0(spec, B, args.precision_bits), d
        )
    if args.midpoint:
        mm = d2_by_midpoint_matching(spec, B,
                                     precision_bits=args.precision_bits)
        out["midpoint"] = _fmt(mm.d2, d)
    if args.search:
        res = d2_zero_search(spec, B, tol=_parse_tol(args, 1e-10), K=args.K,
                             precision_bits=args.precision_bits)
        out["zero_search"] = {
            "B": _fmt(res.B, d),
            "d2": _fmt(res.d2, d),
            "iterations": res.iterations,
            "K_used": res.K_used,
        }
    if args.fmt == "json":
        return json.dumps(out, indent=2)
    if args.fmt == "csv":
        row = {k: v for k, v in out.items()
               if k not in ("schema", "spec", "zero_search")}
        row.update((f"search_{k}", v)
                   for k, v in out.get("zero_search", {}).items())
        return _csv_text([tuple(row), tuple(str(v) for v in row.values())])
    lines = [f"d2 estimate  = {out['estimate']}   (K = {args.K})",
             f"raw tail     = {out['tail']}",
             f"indicator    = {out['error_indicator']}"]
    if "closed_form" in out:
        lines.append(f"closed form  = {out['closed_form']}   (s = 0)")
    if "midpoint" in out:
        lines.append(f"midpoint     = {out['midpoint']}")
    if "zero_search" in out:
        zs = out["zero_search"]
        lines.append(
            f"zero search  : B = {zs['B']}  d2 = {zs['d2']}  "
            f"({zs['iterations']} iterations, K = {zs['K_used']})"
        )
    return "\n".join(lines)


# -- verify ------------------------------------------------------------------------

def _default_specs():
    lame, _ = from_lame(LameParams(n=2, s="1/100"))
    math, _ = from_mathieu(MathieuParams(q=2))
    whc = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                         delta="1/2", s="-1/100", alpha=5)
    return [lame, math, whc]


def _suite_recurrence(spec):
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


def _suite_perturbation(spec):
    refs = {k: (first_order_coeff(spec, k, k + 1),
                second_order_coeff(spec, k, k + 2)) for k in range(5)}
    stable = all(
        (first_order_coeff(spec, k, m), second_order_coeff(spec, k, m))
        == refs[k]
        for k in range(5) for m in range(k + 2, 9)
    )
    yield ("expansion coefficients settle for m >= k+order", stable, "")
    k, m = 2, 5
    vanish = True
    for order in (1, 2):
        exp = zero_expansion(spec, k, m, order)
        poly = eval_s_polynomial(spec, list(exp.coefficients()), m)
        vanish = vanish and all(c == 0 for c in poly.coeffs[:order + 1])
    yield ("substituted expansions vanish to their order", vanish, "")


def _suite_rootfind(spec):
    c8 = build_family(spec, 8)[8]
    zs_est = find_all_roots(c8, seeds=perturbative_seeds(spec, 7))
    zs_cir = find_all_roots(c8)
    zs_eig = solve_zeros(spec, 8)
    gap = max(d for za, zb in ((zs_est, zs_cir), (zs_eig, zs_est))
              for _, _, d in match_zeros(za, zb).pairs)
    yield ("seeding strategies agree on c_8 zeros", gap < mp.mpf(2) ** -80,
           f"max gap {mp.nstr(gap, 3)}")
    yield ("zero residuals below tolerance",
           max(zs_est.residuals) < zs_est.tol, "")


def _suite_tracking(spec):
    za = solve_zeros(spec, 12)
    zb = solve_zeros(spec, 16)
    yield ("cross-degree matching preserves labels",
           all(za.labels[ia] == zb.labels[ib]
               for ia, ib, _ in match_zeros(za, zb).pairs), "")
    n = convergence_report(spec, m_list=(16, 20), digits=6).n_stable(6)
    yield ("low zeros stabilize quickly", n >= 8, f"n_stable(6) = {n}")


def _check_digit_counter():
    ok = (stabilized_digits(mp.mpf("1.0000001"), mp.mpf(1)) == 6
          and stabilized_digits(mp.mpf(1), mp.mpf(1)) >= 50)
    return "stabilized-digit counter calibrated", ok, ""


def _suite_oracle(spec):
    # truncation tail at |z| = 0.35 with 60 terms sits near 1e-25,
    # far below the pass line yet far above honest coefficient bugs
    res = ode_residual(spec, mp.mpf("-2.0"), N=60)
    yield ("production series satisfies the equation",
           res < mp.mpf("1e-20"), f"residual {mp.nstr(res, 3)}")
    u0, _ = local_solutions_at_1(spec, "-7/3", 12)
    prod = eval_sequence(*z1_swapped_spec(spec, "-7/3"), 12)
    yield ("point-exchange parameter map exact",
           all(u0.coeffs[k] == prod[k] for k in range(13)), "")


def _check_d2_routes():
    s0 = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2", delta="1/2",
                        s=0)
    b = mp.mpf("-0.35")
    seq = d2_sequence(s0, b, K=400).estimate
    cf = d2_closed_form_s0(s0, b)
    mid = d2_by_midpoint_matching(s0, b).d2
    tri = max(abs(seq - cf), abs(cf - mid), abs(mid - seq))
    return ("three d2 routes agree at s = 0", tri < mp.mpf("1e-10"),
            f"max gap {mp.nstr(tri, 3)}")


# suite name -> (checks yielded for each spec, spec-free checks)
_SUITES = {
    "recurrence": (_suite_recurrence, ()),
    "perturbation": (_suite_perturbation, ()),
    "rootfind": (_suite_rootfind, ()),
    "tracking": (_suite_tracking, (_check_digit_counter,)),
    "oracle": (_suite_oracle, (_check_d2_routes,)),
}


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    if args.family:
        spec, _ = build_spec(args)
        specs = [spec]
    elif any(getattr(args, flag) is not None for flag in _PARAM_FLAGS):
        raise InvalidSpecError("family parameters need --family")
    else:
        specs = _default_specs()
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    lines, failures = [], 0
    with working_precision(args.precision_bits):
        for name in names:
            per_spec, spec_free = _SUITES[name]
            checks = [(f"{label} [{spec.kind.value}]", ok, detail)
                      for spec in specs
                      for label, ok, detail in per_spec(spec)]
            checks += [check() for check in spec_free]
            for label, ok, detail in checks:
                mark = "PASS" if ok else "FAIL"
                failures += 0 if ok else 1
                suffix = f"  ({detail})" if detail and not ok else ""
                lines.append(f"{mark}  [{name}] {label}{suffix}")
    lines.append(
        f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}"
    )
    return "\n".join(lines), (0 if failures == 0 else 1)


# -- argument wiring -----------------------------------------------------------------

_PARAM_FLAGS = ("gamma", "delta", "alpha", "beta", "s", "n", "q", "a",
                "A0", "A1", "h", "eta")
# the parameter flags each family reads
_FAMILY_PARAMS = {
    "lame": ("n", "s", "eta"),
    "mathieu": ("q", "a"),
    "whill": ("A0", "A1", "h"),
    "heun": ("gamma", "delta", "alpha", "beta", "s"),
    "cheun": ("gamma", "delta", "alpha", "s"),
    "rcheun": ("gamma", "delta", "s"),
}
# options that only some subcommands read
_SHARED = {
    "tol": dict(default=None,
                help="a positive real, read at --precision-bits; "
                     "zeros: root tolerance (default 2^(-precision/2)); "
                     "d2 --search: secant stop (default 1e-10)"),
    "order": dict(type=int, default=2, choices=[0, 1, 2],
                  help="order of the perturbative estimates that label "
                       "the zeros"),
    "digits": dict(type=int, default=10),
    "format": dict(dest="fmt", default="text",
                   choices=["text", "json", "csv"]),
}


def _add_common(p: argparse.ArgumentParser, *shared: str,
                family_required: bool = True):
    """--family, its parameters, --precision-bits and --output, plus
    the named options of _SHARED."""
    p.add_argument("--family", required=family_required,
                   choices=list(_FAMILY_PARAMS))
    for flag in _PARAM_FLAGS:
        p.add_argument(f"--{flag}", default=None,
                       help=argparse.SUPPRESS if flag in ("eta",)
                       else f"family parameter {flag}")
    p.add_argument("--precision-bits", type=int, default=256)
    for name in shared:
        p.add_argument(f"--{name}", **_SHARED[name])
    p.add_argument("--output", default=None, help="write result to a file")


def _m_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}")


_COMMANDS = {
    "poly": cmd_poly,
    "zeros": cmd_zeros,
    "table": cmd_table,
    "track": cmd_track,
    "d2": cmd_d2,
    "verify": cmd_verify,
}


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heunzeros",
        description="coefficient polynomials of Heun-class equations: "
                    "exact builds, zero tracking, and connection estimates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="build and print c_0..c_m")
    _add_common(p, "format")
    p.add_argument("--m", type=int, default=4)

    p = sub.add_parser("zeros", help="zeros of c_m")
    _add_common(p, "tol", "order", "digits", "format")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("table", help="approximation-vs-zero table")
    _add_common(p, "order", "digits", "format")
    p.add_argument("--m", type=_m_list, required=True,
                   help="degree or comma list, e.g. 30,40")
    p.add_argument("--k-max", type=int, default=6)

    p = sub.add_parser("track", help="stabilization across degrees")
    _add_common(p, "digits", "format")
    p.add_argument("--m", type=_m_list, default=(30, 40),
                   help="comma list of degrees, e.g. 30,40")

    p = sub.add_parser("d2", help="connection-coefficient estimate")
    _add_common(p, "tol", "digits", "format")
    p.add_argument("--B", default=None, help="accessory parameter value")
    p.add_argument("--K", type=int, default=500)
    p.add_argument("--search", action="store_true",
                   help="secant search for the nearest d2 zero from --B")
    p.add_argument("--midpoint", action="store_true",
                   help="also run the interior-matching cross-check")

    p = sub.add_parser("verify", help="self-contained property checks")
    _add_common(p, family_required=False)
    p.add_argument("--suite", default="all",
                   choices=["all"] + sorted(_SUITES))

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        out = _COMMANDS[args.command](args)
        text, code = out if isinstance(out, tuple) else (out, EXIT_OK)
        _emit(text, args)
        return code
    except NonConvergenceError as exc:
        print(json.dumps({"error": str(exc), "code": EXIT_NONCONVERGENCE}),
              file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (InvalidSpecError, ValueError) as exc:
        print(json.dumps({"error": str(exc), "code": EXIT_INVALID}),
              file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
