#!/usr/bin/env python3
"""Hunt zeros of the connection coefficient d2(B) near stabilized
polynomial zeros.

The stabilized zeros of the degree-m coefficient polynomials are the
natural starting guesses: where a zero has stopped moving between two
degrees, d2 should vanish nearby.  This script runs the degree-(30,40)
stabilization report, then refines each stable zero by a secant search
on the scaled-tail estimate of d2, and prints how far the polynomial
zero sits from the refined d2 zero.

Examples
    python3 scripts/d2_zero_hunt.py                  # Lame, s = 1/100
    python3 scripts/d2_zero_hunt.py --family mathieu --q 2
"""

import argparse
import json
import sys
import time

import mpmath as mp

from heunzeros.cli import (
    _FAMILIES,
    EXIT_INVALID,
    _m_list,
    _parse_tol,
    _tail_length,
    positive_int,
)
from heunzeros.rootfind import NonConvergenceError
from heunzeros.scalars import format_scalar, parse_scalar, working_precision
from heunzeros.tracking import convergence_report, d2_sequence, d2_zero_search


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 allow_abbrev=False)
    ap.add_argument("--family", choices=["lame", "mathieu"], default="lame")
    ap.add_argument("--n", default="2", help="Lame degree parameter")
    ap.add_argument("--s", default="1/100", help="Lame coupling")
    ap.add_argument("--q", default="2", help="Mathieu coupling")
    ap.add_argument("--m", type=_m_list, default=(30, 40),
                    help="degrees for the stabilization report")
    ap.add_argument("--digits", type=positive_int, default=10,
                    help="shared digits that make a zero stable")
    ap.add_argument("--tol", default="1e-12", help="secant stop tolerance")
    ap.add_argument("--K", type=_tail_length, default=400,
                    help="initial tail length for the d2 estimate")
    ap.add_argument("--precision-bits", type=positive_int, default=256)
    args = ap.parse_args(argv)

    m_list = args.m
    bits = args.precision_bits
    t0 = time.monotonic()
    # values are read, and the family mapped, as the CLI's build_spec does
    params, _, to_spec = _FAMILIES[args.family]
    label = " ".join([args.family]
                     + [f"{name}={getattr(args, name)}" for name in params])
    try:
        tol = _parse_tol(args, None)
        spec, _ = to_spec({name: parse_scalar(getattr(args, name), bits)
                           for name in params})
        report = convergence_report(spec, m_list=m_list, digits=args.digits,
                                    precision_bits=args.precision_bits)
    except ValueError as exc:      # InvalidSpecError among them, as in the CLI
        print(json.dumps({"error": str(exc), "code": EXIT_INVALID}),
              file=sys.stderr)
        return EXIT_INVALID
    stable = report.stable_tracks()
    print(f"{label}: {len(stable)} zero(s) stable to {args.digits} digits "
          f"between c_{m_list[-2]} and c_{m_list[-1]} "
          f"[{time.monotonic() - t0:.1f}s]")
    print(f"{'k':>4}  {'polynomial zero':>24}  {'refined d2 zero':>24}  "
          f"{'|shift|':>10}  {'|d2| there':>10}  it")

    with working_precision(args.precision_bits):
        for track in stable:
            b0 = track.value_at(m_list[-1])
            try:
                res = d2_zero_search(spec, b0, tol=tol, K=args.K,
                                     precision_bits=args.precision_bits)
            except NonConvergenceError as exc:
                print(f"{track.label_k:>4}  {format_scalar(b0, 12):>24}  "
                      f"search failed: {exc}")
                continue
            at_b0 = d2_sequence(spec, b0, K=res.K_used,
                                precision_bits=args.precision_bits).estimate
            print(f"{track.label_k:>4}  {format_scalar(b0, 12):>24}  "
                  f"{format_scalar(res.B, 12):>24}  "
                  f"{mp.nstr(abs(res.B - b0), 3):>10}  "
                  f"{mp.nstr(abs(at_b0), 3):>10}  {res.iterations}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
