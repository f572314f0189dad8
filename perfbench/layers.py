"""Per-layer metrics from one traced pass (see README.md for which
end-to-end metric each should move, on which workload).

Self time is reported as a share of the traced pass's wall time, so a
layer's numbers compare across workloads of different length; the
seconds are printed and written to the trace summary file.
"""

import json

# span names whose calls and self share are reported
FUNCTIONS = (
    "cli.main",
    "tracking.solve_zeros",
    "tracking.convergence_report",
    "tracking.match_zeros",
    "tracking.d2_sequence",
    "tracking.d2_closed_form_s0",
    "tracking.d2_zero_search",
    "rootfind.find_all_roots",
    "rootfind.newton_polygon_seeds",
    "recurrence.build_family.exact",
    "recurrence.build_family.bigfloat",
    "recurrence.eval_sequence",
    "families.recurrence_coeffs",
    "perturbation.perturbative_seeds",
    "perturbation.zero_estimate",
    "oracle.d2_by_midpoint_matching",
    "oracle.series_solution",
)

# predictions made when the benchmark was defined: (workload, metric)
ZERO_CALLS = (
    ("d2-hunt", "rootfind.find_all_roots.calls"),
    ("whill-strong", "perturbation.perturbative_seeds.calls"),
    ("tables", "recurrence.eval_sequence.calls"),
    ("whill-strong", "recurrence.eval_sequence.calls"),
)
LARGEST_SHARE = (("whill-strong", "rootfind.find_all_roots"),)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(workload, plain, traced) -> dict:
    functions = traced["trace"]["functions"]
    counts = traced["trace"]["counts"]
    wall = traced["wall_raw_s"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def fn(name):
        return functions.get(name, {"calls": 0, "self_s": 0.0})

    for name in FUNCTIONS:
        if not name.startswith("recurrence.build_family."):
            put(f"{name}.calls", fn(name)["calls"], "count")
        put(f"{name}.self_share", fn(name)["self_s"] / wall, "fraction")

    degrees = counts.get("rootfind.find_all_roots.degree_sum", 0)
    put("rootfind.find_all_roots.degree_sum", degrees, "count")
    put("rootfind.find_all_roots.converged_ratio",
        _ratio(counts.get("rootfind.find_all_roots.converged", 0), degrees),
        "fraction")
    put("recurrence.build_family.calls",
        fn("recurrence.build_family.exact")["calls"]
        + fn("recurrence.build_family.bigfloat")["calls"], "count")
    put("recurrence.build_family.degree_sum",
        counts.get("recurrence.build_family.degree_sum", 0), "count")
    put("recurrence.eval_sequence.terms",
        counts.get("recurrence.eval_sequence.terms", 0), "count")
    search = "tracking.d2_zero_search"
    put(f"{search}.iterations", counts.get(f"{search}.iterations", 0),
        "count")
    put(f"{search}.K_used_max", counts.get(f"{search}.K_used_max", 0),
        "count")
    put(f"{search}.useful_ratio",
        _ratio(counts.get(f"{search}.useful", 0),
               counts.get(f"{search}.d2_sequence_made", 0)), "fraction")
    attributed = sum(f["self_s"] for f in functions.values())
    put("trace.overhead_ratio", wall / plain["wall_raw_s"], "ratio")
    put("trace.unattributed_s", wall - attributed, "s")
    return metrics


def report(workload, traced, metrics, state_dir, seed):
    """Print the per-function table and the predictions; write the
    trace summary next to the digests."""
    functions = traced["trace"]["functions"]
    wall = traced["wall_raw_s"]
    print(f"traced pass: {wall:.3f} s")
    print(f"{'self_s':>9} {'share':>6} {'calls':>8}  function")
    for name, f in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"]):
        if not f["calls"]:
            continue
        print(f"{f['self_s']:9.3f} {f['self_s'] / wall:6.1%} "
              f"{f['calls']:8d}  {name}")
    for wl, name in ZERO_CALLS:
        if wl == workload:
            ok = metrics[name]["value"] == 0
            print(f"prediction {name} = 0: {'holds' if ok else 'VIOLATED'}")
    for wl, name in LARGEST_SHARE:
        if wl == workload:
            top = max(functions, key=lambda n: functions[n]["self_s"])
            print(f"prediction {name} has the largest self share: "
                  f"{'holds' if top == name else f'VIOLATED ({top})'}")
    state_dir.mkdir(parents=True, exist_ok=True)
    path = state_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"wall_s": wall, **traced["trace"]},
                               indent=1, sort_keys=True))
    print(f"trace summary written to {path}")
