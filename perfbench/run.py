#!/usr/bin/env python3
"""heunzeros benchmark.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  Each pass over the workload's
task list runs in a fresh worker process (worker.py) as a closed loop:
one caller, one task in flight.  Passes repeat until --seconds is used
up (at least one).  Extra set-up-only workers time start-up.

--trace 0 prints the end-to-end metrics: setup_s, wall_s, task_s_p50,
task_s_tail and peak_rss_mb (the result line carries the ones
BENCHMARK.json declares).  Times are seconds at a reference machine
speed, which speed.py samples while the workers run; the raw seconds
are printed beside them.  --trace 1 runs one untraced pass and one
traced pass and prints the per-layer metrics (see README.md).

Every task's output is checked against reference.py; a task that raised,
exited nonzero, left a zero unconverged or missed its check is failed.
Every task's output digest must agree between passes and with earlier
runs of the same code and seed (kept under .bench_build/perfbench/).
Before measuring, a self-test of the harness runs (self_test below).
The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"

SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


# -- workers -------------------------------------------------------------------

def start_worker(workload, seed, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)


def run_worker(workload, seed, *flags) -> dict:
    """Start a worker and wait for it; set-up time is measured from the
    start of the process to its READY line."""
    t0 = time.perf_counter()
    proc = start_worker(workload, seed, *flags)
    guard = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    guard.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        guard.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not ready.startswith("READY"):
        raise RuntimeError(f"worker {' '.join(flags)} exited with {code}")
    out = {"setup_s": setup_s}
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            out.update(json.loads(line[len("RESULT "):]))
    return out


# -- statistics ----------------------------------------------------------------

def tail_percentile(n_min: int) -> int:
    """Highest whole percentile with at least ten of n_min samples
    beyond it (nearest-rank); 100, the maximum, below 20 samples."""
    if n_min < 20:
        return 100
    p = 100
    while n_min - math.ceil(p * n_min / 100) < 10:
        p -= 1
    return p


def nearest_rank(values, p: int):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


# -- determinism -----------------------------------------------------------------

def code_hash() -> str:
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_digest(tasks) -> str:
    h = hashlib.sha256()
    for t in sorted(tasks, key=lambda t: t["id"]):
        h.update(f"{t['id']}={t['digest']}\n".encode())
    return h.hexdigest()[:16]


def check_recorded_digest(workload, seed, digest) -> str | None:
    """Compare with the digest an earlier run of the same code and seed
    recorded; record it when there is none.  Returns the earlier digest
    on a mismatch."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{code_hash()}|{workload}|{seed}"
    if key in known:
        return None if known[key] == digest else known[key]
    known[key] = digest
    STATE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


# -- self-test -------------------------------------------------------------------

def _shifted(text: str, rel=1e-6) -> str:
    re_part, im_part = checks.parse(text)
    size = math.hypot(float(re_part), float(im_part)) or 1.0
    shifted = float(re_part) + rel * size
    return f"{shifted!r}{'+' if im_part >= 0 else '-'}{float(abs(im_part))!r}i"


def _zeros_output(values) -> str:
    zeros = []
    for text in values:
        re_s, im_s = checks.split_complex(text)
        zeros.append({"re": re_s, "im": im_s, "residual": "0", "label_k": 0})
    return json.dumps({"converged": True, "zeros": zeros})


def _whill_output(shown_real, extra_real) -> list:
    reals = list(shown_real) + [str(-100 - j) for j in range(extra_real)]
    return [list(checks.split_complex(t)) for t in reals] + [["-5", "3"]]


def self_test(workload: str, seed: int) -> list:
    """Failures of the harness itself: a seeded generator that is not
    deterministic, or a check that accepts a zero moved by 1e-6."""
    errors = []
    first = workloads.generate(workload, seed)
    if json.dumps(first) != json.dumps(workloads.generate(workload, seed)):
        errors.append("task generation is not deterministic")
    other = workloads.generate(workload, seed + 1)
    if sorted(t["check"] for t in first) != sorted(t["check"] for t in other):
        errors.append("the seed changed which checks run")

    ref = checks.ref
    shown = ref.ZEROS["mathieu-2"][8][0]
    task = {"check": ["zeros", "mathieu-2", 8]}
    lead = ref.WHILL_STRONG_LEADING_REAL
    whill = {"check": ["whill", 89]}
    d2 = {"check": ["d2", "mathieu-2i", 3]}
    zero = ref.D2_ZEROS["mathieu-2i"][3]

    def d2_output(b):
        return json.dumps({"estimate": "0.5", "midpoint": "0.5",
                           "zero_search": {"B": b, "d2": "1e-20"}})

    cases = [
        (task, _zeros_output(shown), _zeros_output([_shifted(shown[3])]
                                                   + shown[:3] + shown[4:])),
        (whill, _whill_output(lead, 15),
         _whill_output([_shifted(lead[0])] + lead[1:], 15)),
        (d2, d2_output(zero), d2_output(_shifted(zero))),
    ]
    for case, good, bad in cases:
        if checks.verify(case, good):
            errors.append(f"check {case['check']} rejects its reference: "
                          f"{checks.verify(case, good)}")
        if not checks.verify(case, bad):
            errors.append(f"check {case['check']} accepts a zero moved "
                          "by 1e-6")
    return errors


# -- machine tags ----------------------------------------------------------------

def machine_tags(backend: str) -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath_backend": backend, "cpu_model": model}


def compare_with_baseline(workload, metrics, tags):
    path = HERE / "baseline.json"
    if not path.exists():
        return
    base = json.loads(path.read_text())
    if base["tags"]["mpmath_backend"] != tags["mpmath_backend"]:
        print(f"baseline: not compared (mpmath backend "
              f"{tags['mpmath_backend']}, baseline "
              f"{base['tags']['mpmath_backend']})")
        return
    for name, value in metrics.items():
        ref_value = base.get("medians", {}).get(workload, {}).get(name)
        if ref_value:
            print(f"baseline: {name} {value['value'] / ref_value:.3f} x "
                  f"the recorded median {ref_value:.6g}")


# -- main ------------------------------------------------------------------------

def setup_sample(res) -> dict:
    """A worker's set-up time, raw and at reference speed: scaled by
    the kernel burst the worker ran right after set-up (speed.py)."""
    return {"raw_s": res["setup_s"],
            "ref_s": res["setup_s"] * speed.REF_KERNEL_S
            / res["setup_kernel_s"]}


def measure(args):
    """(untraced passes, set-up times of every timed worker).  The
    set-up-only workers run half before and half after the passes, so
    their median samples the machine across the whole run."""
    def probes(n):
        return [setup_sample(run_worker(args.workload, args.seed,
                                        "--setup-only"))
                for _ in range(n)]

    run_worker(args.workload, args.seed, "--setup-only")   # warm-up, untimed
    setups = probes(SETUP_PROBES // 2)
    passes = []
    t_start = time.perf_counter()
    while True:
        res = run_worker(args.workload, args.seed)
        passes.append(res)
        setups.append(setup_sample(res))
        elapsed = time.perf_counter() - t_start
        typical = elapsed / len(passes)
        if elapsed + typical > args.seconds:
            break
    return passes, setups + probes(SETUP_PROBES - SETUP_PROBES // 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    default="tables")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "heunzeros" / "cli.py").is_file():
        print(f"error: no heunzeros source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    errors = self_test(args.workload, args.seed)
    for err in errors:
        print(f"self-test FAILED: {err}", file=sys.stderr)
    if errors:
        return 1

    if args.trace:
        plain = run_worker(args.workload, args.seed)
        traced = run_worker(args.workload, args.seed, "--trace")
        passes, setups = [plain, traced], [setup_sample(plain)]
    else:
        passes, setups = measure(args)

    STATE.mkdir(parents=True, exist_ok=True)
    (STATE / f"passes-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"setups": setups, "passes": passes}))
    tasks = [t for p in passes for t in p["tasks"]]
    failed = sum(1 for t in tasks if t["failures"])
    for t in tasks:
        for msg in t["failures"]:
            print(f"FAILED {t['id']}: {msg}")
    digests = {run_digest(p["tasks"]) for p in passes}
    deterministic = len(digests) == 1
    if not deterministic:
        print(f"NONDETERMINISTIC: passes gave digests {sorted(digests)}")
    digest = sorted(digests)[0]
    earlier = check_recorded_digest(args.workload, args.seed, digest)
    if earlier is not None:
        deterministic = False
        print(f"NONDETERMINISTIC: digest {digest}, an earlier run of the "
              f"same code and seed gave {earlier}")

    tags = machine_tags(passes[0]["backend"])
    print("machine: " + ", ".join(f"{k}={v}" for k, v in tags.items()))
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} "
          f"pass(es), {len(tasks)} tasks, {failed} failed "
          f"(failed_frac {failed / len(tasks):.4g}), digest {digest}")

    if args.trace:
        import layers

        metrics = layers.per_layer_metrics(args.workload, passes[0],
                                           passes[1])
        layers.report(args.workload, passes[1], metrics, STATE, args.seed)
    else:
        metrics = end_to_end(passes, setups)
        compare_with_baseline(args.workload, metrics, tags)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and deterministic,
                      "attempted": len(tasks), "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end(passes, setups) -> dict:
    """The metrics BENCHMARK.json declares.  Times are at the reference
    machine speed of speed.py; the raw times are printed beside them."""
    seconds = [t["seconds"] for p in passes for t in p["tasks"]]
    p = tail_percentile(len(passes[0]["tasks"]))
    print("pass walls at reference speed: "
          + ", ".join(f"{p_['wall_s']:.3f}" for p_ in passes)
          + "; raw: " + ", ".join(f"{p_['wall_raw_s']:.3f}" for p_ in passes)
          + " s; speed samples: " + ", ".join(
              f"{p_['kernel_samples']} (median {p_['kernel_median_s']:.4g} s)"
              for p_ in passes))
    print(f"setup_s: median of {len(setups)} worker start-ups; raw median "
          f"{statistics.median(s_['raw_s'] for s_ in setups):.6g} s")
    print(f"task_s_p50 = {statistics.median(seconds):.6g} s "
          f"(median of {len(seconds)} task times)")
    print(f"task_s_tail = {nearest_rank(seconds, p):.6g} s (p{p} of "
          f"{len(seconds)} task times"
          + (", the maximum: fewer than 20 tasks per pass)" if p == 100
             else ")"))

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "setup_s": metric(statistics.median(s_["ref_s"] for s_ in setups), "s"),
        "wall_s": metric(statistics.median(p_["wall_s"] for p_ in passes),
                         "s"),
        "peak_rss_mb": metric(
            statistics.median(p_["maxrss_kb"] for p_ in passes) / 1024, "MB"),
    }


if __name__ == "__main__":
    sys.exit(main())
