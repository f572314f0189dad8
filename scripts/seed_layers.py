#!/usr/bin/env python3
"""Time the seed layers of the Whittaker-Hill s = -20 solves.

For each degree of the `whill-strong` benchmark workload (alpha = 5,
s = -20, m = 16, 19, 50, 89, 100) this times, interleaved round by
round: `tridiagonal_eigenvalues` at 53 bits (the double QL) and at 106
bits (the fixed-point rung), and `find_all_roots` at 256 bits from the
seeds of the rung `solve_zeros` stands on.  It prints the median and
quartiles of each beside the exact number of steps, sweep positions
and off-diagonals tested each eigenvalue solver took, counted in one
traced run apart from the timed ones, and writes them all to a JSON
file.  The counts need no change to the solvers: a step is the first
statement after a solver's step cap, a position the first statement of
its sweep, and a test the first line of its step loop that reads an
off-diagonal's size, abs(e...).

Run from the root of a source checkout:

    PYTHONPATH=src python3 scripts/seed_layers.py --rounds 11
"""

import argparse
import inspect
import json
import platform
import statistics
import sys
import time

from heunzeros import rootfind
from heunzeros.families import FamilyKind, RecurrenceSpec
from heunzeros.rootfind import find_all_roots, tridiagonal_eigenvalues
from heunzeros.tracking import continuant, solve_zeros

SPEC = RecurrenceSpec(kind=FamilyKind.CONFLUENT, gamma="1/2", delta="1/2",
                      s=-20, alpha=5)
DEGREES = (16, 19, 50, 89, 100)
SWEEP = " in range(m - 1, l - 1, -1):"


def _next_statement(text, i):
    """The index of the first line after text[i] that is code."""
    i += 1
    while not text[i] or text[i].startswith("#"):
        i += 1
    return i


def solver_marks() -> dict:
    """{code: (step line, position line, test line)} for each eigenvalue
    solver of `rootfind`, a function whose sweep runs over
    range(m - 1, l - 1, -1): its steps start after the `return False` of
    its step cap, its positions with the first statement of the sweep,
    and its tests with the first line after the head of its step loop,
    `for it in range(...)`, that reads abs(e...)."""
    marks = {}
    for fn in vars(rootfind).values():
        if not inspect.isfunction(fn) or fn.__module__ != rootfind.__name__:
            continue
        lines, first = inspect.getsourcelines(fn)
        text = [line.strip() for line in lines]
        sweep = [i for i, line in enumerate(text)
                 if line.startswith("for ") and line.endswith(SWEEP)]
        cap = [i for i, line in enumerate(text) if line.startswith("if it ==")]
        loop = [i for i, line in enumerate(text)
                if line.startswith("for it in range(")]
        if sweep and cap and loop:
            step = _next_statement(text, _next_statement(text, cap[0]))
            test = next(i for i in range(loop[0] + 1, len(text))
                        if "abs(e" in text[i])
            marks[fn.__code__] = (first + step,
                                  first + _next_statement(text, sweep[0]),
                                  first + test)
    return marks


def counted(call, marks):
    """(result, steps, positions, tests) of call() under a line tracer."""
    counts = [0, 0, 0]

    def local(frame, event, arg):
        if event == "line":
            lines = marks[frame.f_code]
            if frame.f_lineno in lines:
                counts[lines.index(frame.f_lineno)] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in marks else None

    sys.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return result, *counts


def quartiles(times) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=11,
                    help="timed rounds, each over every layer and degree")
    ap.add_argument("--out", default="BENCH_seeds.json",
                    help="where to write the results (JSON)")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds needs at least 2 for quartiles")
    marks = solver_marks()
    layers, calls, times = {}, {}, {}
    for m in DEGREES:
        rows = continuant(SPEC, m)
        rung = solve_zeros(SPEC, m).seed_bits
        seeds = tridiagonal_eigenvalues(rows, rung)
        layers[m] = {"seed_bits": rung}
        for bits in (53, 106):
            eig, steps, positions, tests = counted(
                lambda: tridiagonal_eigenvalues(rows, bits), marks)
            layers[m][f"eig{bits}"] = {"seeds": eig is not None,
                                       "steps": steps,
                                       "positions": positions,
                                       "tests": tests}
            calls[m, f"eig{bits}"] = (
                lambda rows=rows, bits=bits: tridiagonal_eigenvalues(rows,
                                                                     bits))
        layers[m]["find_all_roots"] = {}
        calls[m, "find_all_roots"] = (
            lambda rows=rows, seeds=seeds: find_all_roots(rows, seeds, 256))
    for _ in range(args.rounds):
        for key, call in calls.items():
            start = time.perf_counter()
            call()
            times.setdefault(key, []).append(time.perf_counter() - start)
    print(f"{'m':>4} {'layer':<15} {'median s':>9} {'q1':>9} {'q3':>9} "
          f"{'steps':>6} {'positions':>9} {'tests':>6}")
    for (m, layer), ts in times.items():
        entry = layers[m][layer]
        entry.update(quartiles(ts))
        print(f"{m:>4} {layer:<15} {entry['median_s']:>9.5f} "
              f"{entry['q1_s']:>9.5f} {entry['q3_s']:>9.5f} "
              f"{entry.get('steps', ''):>6} {entry.get('positions', ''):>9} "
              f"{entry.get('tests', ''):>6}")
    result = {"spec": "Whittaker-Hill alpha = 5, s = -20",
              "rounds": args.rounds, "python": platform.python_version(),
              "machine": platform.machine(),
              "degrees": {str(m): layer for m, layer in layers.items()}}
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
