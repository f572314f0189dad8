#!/usr/bin/env python3
"""One benchmark worker: a fresh process that sets up, then runs one
pass over its workload's task list as a closed loop (one task in flight
at a time) and reports per-task times, checks and output digests.
Untraced, it times the pass with speed.SpeedClock: raw seconds and
seconds at reference machine speed.

Protocol on stdout, one JSON line each:
    READY {}      set-up done: heunzeros.cli imported, inputs generated
    RESULT {...}  the pass; with --setup-only just the kernel time of
                  a speed.burst() run right after set-up

run.py starts it with the program's src/ on PYTHONPATH and times set-up
from process start to the READY line.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import mpmath

import heunzeros.cli as cli
from heunzeros import tracking
from heunzeros.families import FamilyKind, RecurrenceSpec

import checks
import speed
import workloads

# Whittaker-Hill alpha = 5 at s = -20: the whill-strong polynomials
WHILL_STRONG = dict(kind=FamilyKind.CONFLUENT, gamma="1/2", delta="1/2",
                    alpha=5, s=-20)


def emit(tag: str, payload: dict):
    sys.__stdout__.write(f"{tag} {json.dumps(payload)}\n")
    sys.__stdout__.flush()


def exact(x) -> str:
    """An mpf as an exact rational string."""
    return str(Fraction(*mpmath.libmp.to_rational(x._mpf_)))


def run_cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def run_solve(spec, m) -> list:
    zs = tracking.solve_zeros(spec, m)
    if not all(zs.converged):
        raise RuntimeError(f"c_{m}: {zs.converged.count(False)} zeros "
                           "left unconverged")
    return [[exact(z.real), exact(z.imag)] for z in zs.zeros]


def digest(output) -> str:
    text = output if isinstance(output, str) else json.dumps(output)
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(tasks, spec, now) -> list:
    """Run the tasks in order; `now()` gives (raw seconds, seconds at
    reference speed), the same reading twice without a speed clock."""
    results = []
    for task in tasks:
        raw0, ref0 = now()
        try:
            if task["kind"] == "cli":
                output = run_cli(task["argv"])
            else:
                output = run_solve(spec, task["m"])
        except Exception as exc:  # a failed task is counted, not fatal
            raw1, ref1 = now()
            traceback.print_exc(file=sys.stderr)
            failures, out_digest = [f"{type(exc).__name__}: {exc}"], None
        else:
            raw1, ref1 = now()
            failures, out_digest = checks.verify(task, output), digest(output)
        results.append({"id": task["id"], "seconds": ref1 - ref0,
                        "raw_seconds": raw1 - raw0,
                        "failures": failures, "digest": out_digest})
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    tasks = workloads.generate(args.workload, args.seed)
    spec = RecurrenceSpec(**WHILL_STRONG)
    emit("READY", {})
    if args.setup_only:
        emit("RESULT", {"setup_kernel_s": speed.burst()})
        return 0

    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
        t0 = time.perf_counter()

        def now():
            t = time.perf_counter() - t0
            return t, t

        results = run_pass(tasks, spec, now)
        wall = now()
        tracer.uninstall()
        extra = {"trace": tracer.summary()}
    else:
        with speed.SpeedClock() as clock:
            results = run_pass(tasks, spec, clock.now)
            wall = clock.now()
        extra = {"setup_kernel_s": clock.start_kernel_s,
                 "kernel_samples": len(clock.samples),
                 "kernel_median_s": statistics.median(clock.samples)}
    payload = {
        "wall_raw_s": wall[0],
        "wall_s": wall[1],
        "tasks": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": mpmath.libmp.BACKEND,
        **extra,
    }
    emit("RESULT", payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
