#!/usr/bin/env python3
"""Regenerate the zero-tracking comparison tables at desk scale.

Each table lists, per grid index k: the zeroth/first/second order
perturbative approximations and the solved zero of the coefficient
polynomial at each requested degree, followed by the stabilization
count between the last two degrees and the most negative zero (the
"tail", which moves with the degree and is not expected to converge).

Run `python3 scripts/zero_tables.py` for all tables, or pass a subset,
e.g. `python3 scripts/zero_tables.py lame-1/2 mathieu-2i`.
"""

import argparse
import sys
import time

from heunzeros.cli import positive_int, table_text
from heunzeros.families import (
    FamilyKind,
    LameParams,
    MathieuParams,
    RecurrenceSpec,
    from_lame,
    from_mathieu,
)
from heunzeros.scalars import format_scalar, working_precision
from heunzeros.tracking import convergence_report, solve_zeros, zero_table

TABLES = {
    "lame-1/100": (lambda: from_lame(LameParams(n=2, s="1/100"))[0],
                   (4, 8, 30), 3),
    "lame-1/2": (lambda: from_lame(LameParams(n=2, s="1/2"))[0],
                 (4, 8, 30, 40), 3),
    "mathieu-2": (lambda: from_mathieu(MathieuParams(q=2))[0], (8, 30), 5),
    "mathieu-2i": (lambda: from_mathieu(MathieuParams(q="2i"))[0], (8, 30), 5),
    "mathieu-i": (lambda: from_mathieu(MathieuParams(q="i"))[0], (8, 30), 5),
    "whill--1/100": (lambda: RecurrenceSpec(kind=FamilyKind.CONFLUENT,
                                            gamma="1/2", delta="1/2",
                                            alpha=5, s="-1/100"),
                     (8, 30), 5),
}


def print_table(name, precision_bits, digits):
    build, m_list, k_max = TABLES[name]
    spec = build()
    t0 = time.monotonic()
    report = convergence_report(spec, m_list=m_list, digits=digits,
                                precision_bits=precision_bits)
    elapsed = time.monotonic() - t0
    top = m_list[-1]
    print(f"== {name}  [{spec.kind.value}]  degrees {m_list} ==")
    rows = zero_table(spec, report.zero_sets, k_max)
    print(table_text(report.m_list, rows, digits))
    with working_precision(precision_bits):
        tail = report.zero_sets[top].zeros[-1]
        print(f"tail zero of c_{top}: {format_scalar(tail, digits)}")
    print(f"n_stable({digits}) between c_{m_list[-2]} and c_{top}: "
          f"{report.n_stable()} of {len(report.tracks)}   "
          f"[{elapsed:.1f}s]")
    print()


def print_real_zero_survey(precision_bits, digits):
    """The strong-coupling regime where real zeros first vanish and
    then reappear as the degree grows."""
    spec = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2",
                          delta="1/2", alpha=5, s=-20)
    print("== whill--20: real zeros by degree ==")
    for m in (16, 19, 50, 89, 100):
        zs = solve_zeros(spec, m, precision_bits=precision_bits)
        reals = sorted((z.real for z in zs.real_zeros()), reverse=True)
        head = ", ".join(format_scalar(r, digits) for r in reals[:4])
        more = ", ..." if len(reals) > 4 else ""
        print(f"c_{m:<3}  {len(reals):2d} real zero(s)"
              + (f":  {head}{more}" if reals else ""))
    print()


def main(argv=None):
    known = list(TABLES) + ["whill--20"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 allow_abbrev=False)
    ap.add_argument("tables", nargs="*", metavar="TABLE",
                    help="subset to regenerate (default: all); one of "
                         + ", ".join(known))
    ap.add_argument("--precision-bits", type=positive_int, default=256)
    ap.add_argument("--digits", type=positive_int, default=10)
    args = ap.parse_args(argv)
    for name in args.tables:
        if name not in known:
            ap.error(f"unknown table {name!r} (choose from {', '.join(known)})")
    names = args.tables or known
    for name in names:
        if name == "whill--20":
            print_real_zero_survey(args.precision_bits, args.digits)
        else:
            print_table(name, args.precision_bits, args.digits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
