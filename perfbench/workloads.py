"""The benchmark's task lists, generated from a seed.

A task is a plain JSON-able dict:

    id      unique name within the workload
    kind    "cli": heunzeros.cli.main(argv) with stdout captured
            "solve": tracking.solve_zeros on the Whittaker-Hill s = -20
            spec at degree `m`
    argv    CLI arguments (cli tasks)
    m       degree (solve tasks)
    check   what checks.verify compares the output against

The seed sets the task order and the d2-hunt start offsets.  It never
changes which tasks run or which reference checks apply.
"""

import random
from decimal import Decimal, localcontext
from fractions import Fraction

WORKLOADS = ("tables", "whill-strong", "d2-hunt")

LAME = ["--family", "lame", "--n", "2"]
MATHIEU = ["--family", "mathieu"]
WHILL_SMALL_S = ["--family", "cheun", "--gamma", "1/2", "--delta", "1/2",
                 "--alpha", "5", "--s=-1/100"]

# (id, argv, check); every command runs with --format json
TABLES = [
    ("readme-poly", ["poly", "--family", "rcheun", "--gamma", "1/2",
                     "--delta", "1/2", "--s", "0", "--m", "3"],
     ["poly"]),
    ("readme-zeros", ["zeros"] + MATHIEU + ["--q", "2", "--m", "8"],
     ["zeros", "mathieu-2", 8]),
    ("readme-table", ["table"] + LAME + ["--s", "1/2", "--m", "8,30",
                                         "--k-max", "3"],
     ["table", "lame-1/2"]),
    ("track-mathieu-2", ["track"] + MATHIEU + ["--q", "2", "--m", "30,40"],
     ["track", "mathieu-2"]),
    ("table-lame-1/100", ["table"] + LAME + ["--s", "1/100", "--m", "4,8,30",
                                             "--k-max", "3"],
     ["table", "lame-1/100"]),
    ("table-lame-1/2", ["table"] + LAME + ["--s", "1/2", "--m", "4,8,30,40",
                                           "--k-max", "3"],
     ["table", "lame-1/2"]),
    ("table-mathieu-2", ["table"] + MATHIEU + ["--q", "2", "--m", "8,30",
                                               "--k-max", "5"],
     ["table", "mathieu-2"]),
    ("table-mathieu-2i", ["table"] + MATHIEU + ["--q", "2i", "--m", "8,30",
                                                "--k-max", "5"],
     ["table", "mathieu-2i"]),
    ("table-mathieu-i", ["table"] + MATHIEU + ["--q", "i", "--m", "8,30",
                                               "--k-max", "5"],
     ["table", "mathieu-i"]),
    ("table-whill--1/100", ["table"] + WHILL_SMALL_S + ["--m", "8,30",
                                                       "--k-max", "5"],
     ["table", "whill--1/100"]),
    ("track-lame-1/100", ["track"] + LAME + ["--s", "1/100", "--m", "30,40"],
     ["track", "lame-1/100"]),
    ("track-mathieu-2i", ["track"] + MATHIEU + ["--q", "2i", "--m", "30,40"],
     ["track", "mathieu-2i"]),
    # decimal input: big-float build and solve, checked against the exact
    # s = 1/2 tables
    ("track-lame-5e-1", ["track"] + LAME + ["--s", "5e-1", "--m", "30,40"],
     ["track", "lame-1/2"]),
]

WHILL_STRONG_DEGREES = (16, 19, 50, 89, 100)

# d2-hunt families, built by _d2_family
D2_FAMILIES = ("lame-1/100", "mathieu-2", "mathieu-2i", "rcheun-s0")
D2_GRID = range(8)
EDGE_S = ("9/10", "19/20")
EDGE_K = (0, 2, 5)
EDGE_FLAGS = ["--family", "heun", "--gamma", "1/2", "--delta", "1/2",
              "--alpha", "3/2", "--beta=-1"]
# estimate index m: the order-2 coefficients are m-stable for k <= m - 2
ESTIMATE_M = 39
OFFSET_SCALE = Fraction(1, 1000)
# At q = 2i the two lowest zeros have left the grid (-0.54 + 0.53i and
# -0.54 + 1.47i against estimates -0.5 + i and -0.58 + i), so their
# estimates are no start for a local search: from there the secant lands
# on whichever zero it meets, or stops where d2 is not small.  These two
# start, as scripts/d2_zero_hunt.py does, at the stabilized degree-40
# polynomial zero.
POLYNOMIAL_STARTS = {
    ("mathieu-2i", 0): (Fraction("-0.540639581222"), Fraction("0.533126695957")),
    ("mathieu-2i", 1): (Fraction("-0.540639581222"), Fraction("1.46687330404")),
}


def _d2_family(name):
    from heunzeros.families import (FamilyKind, LameParams, MathieuParams,
                                    RecurrenceSpec, from_lame, from_mathieu)

    if name == "lame-1/100":
        return (from_lame(LameParams(n=2, s="1/100"))[0],
                LAME + ["--s", "1/100"])
    if name == "mathieu-2":
        return from_mathieu(MathieuParams(q=2))[0], MATHIEU + ["--q", "2"]
    if name == "mathieu-2i":
        return from_mathieu(MathieuParams(q="2i"))[0], MATHIEU + ["--q", "2i"]
    return (RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2",
                           delta="1/2", s=0),
            ["--family", "rcheun", "--gamma", "1/2", "--delta", "1/2",
             "--s", "0"])


def _decimal(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 20
        return format(Decimal(x.numerator) / Decimal(x.denominator), "f")


def _start_point(spec, k, rng=None, base=None) -> str:
    """The order-2 zero estimate (or `base`, an exact (re, im) pair),
    moved along the real axis by 1e-3 (1 + |Re|) in a seeded direction
    when a generator is given."""
    if base is None:
        from heunzeros.perturbation import zero_estimate

        est = zero_estimate(spec, k, ESTIMATE_M, 2)
        base = (est.re, est.im)
    re, im = base
    if rng is not None:
        re += rng.choice((-1, 1)) * OFFSET_SCALE * (1 + abs(re))
    text = _decimal(re)
    if im:
        im_text = _decimal(im)
        text += im_text + "i" if im_text.startswith("-") else f"+{im_text}i"
    return text


def _d2_tasks(rng):
    tasks = []
    for name in D2_FAMILIES:
        spec, flags = _d2_family(name)
        for k in D2_GRID:
            b0 = _start_point(spec, k, rng, POLYNOMIAL_STARTS.get((name, k)))
            tasks.append({
                "id": f"d2-{name}-k{k}",
                "kind": "cli",
                "argv": ["d2"] + flags + [f"--B={b0}", "--K", "400",
                                          "--search", "--midpoint",
                                          "--format", "json"],
                "check": ["d2", name, k],
            })
    from heunzeros.families import FamilyKind, RecurrenceSpec

    # The near-edge tasks start at the estimate itself.  From a shifted
    # start the search can stop right after doubling K, on a zero of the
    # coarser estimate: at s = 9/10, k = 2 it then returns -2.378627287
    # instead of -2.378627359 (see D2_EDGE_ZEROS in reference.py).
    for s in EDGE_S:
        spec = RecurrenceSpec(kind=FamilyKind.HEUN, gamma="1/2", delta="1/2",
                              alpha="3/2", beta="-1", s=s)
        for k in EDGE_K:
            b0 = _start_point(spec, k)
            tasks.append({
                "id": f"d2-edge-{s}-k{k}",
                "kind": "cli",
                "argv": ["d2"] + EDGE_FLAGS + ["--s", s, f"--B={b0}",
                                               "--K", "400", "--search",
                                               "--format", "json"],
                "check": ["d2-edge", s, k],
            })
    return tasks


def generate(workload: str, seed: int) -> list:
    """The workload's task list in its seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        tasks = [{"id": tid, "kind": "cli", "argv": argv + ["--format", "json"],
                  "check": check} for tid, argv, check in TABLES]
    elif workload == "whill-strong":
        tasks = [{"id": f"whill-s-20-m{m}", "kind": "solve", "m": m,
                  "check": ["whill", m]} for m in WHILL_STRONG_DEGREES]
    elif workload == "d2-hunt":
        tasks = _d2_tasks(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(tasks)
    return tasks
