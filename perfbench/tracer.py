"""Spans around the calls into each layer, recorded from outside the
package.

The tracer replaces each public layer function at every binding a
caller can reach: `tracking` does `from .recurrence import build_family`,
so wrapping `recurrence.build_family` alone would miss those calls.
install() therefore rebinds every attribute of every loaded heunzeros
module that is the original function object.  Spans stay in memory as
flat arrays (name, start, end, parent) and are reduced to per-function
call counts and self times (span minus the spans of its direct
children) when the pass ends.
"""

import sys
import time
from array import array
from collections import defaultdict

# (module, function): the layers' public entry points, named by the
# module that defines them
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("tracking", "solve_zeros"),
    ("tracking", "convergence_report"),
    ("tracking", "match_zeros"),
    ("tracking", "d2_sequence"),
    ("tracking", "d2_closed_form_s0"),
    ("tracking", "d2_zero_search"),
    ("rootfind", "find_all_roots"),
    ("rootfind", "newton_polygon_seeds"),
    ("recurrence", "build_family"),
    ("recurrence", "eval_sequence"),
    ("families", "recurrence_coeffs"),
    ("perturbation", "perturbative_seeds"),
    ("perturbation", "zero_estimate"),
    ("oracle", "d2_by_midpoint_matching"),
    ("oracle", "series_solution"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _after_find_all_roots(tracer, idx, args, kwargs, zs):
    tracer.counts["rootfind.find_all_roots.degree_sum"] += zs.degree
    tracer.counts["rootfind.find_all_roots.converged"] += sum(zs.converged)


def _after_build_family(tracer, idx, args, kwargs, fam):
    # exact (Gaussian-rational) and big-float builds are separate layers
    tracer.rename(idx, f"recurrence.build_family.{fam.field.kind}")
    tracer.counts["recurrence.build_family.degree_sum"] += fam.m_max


def _after_eval_sequence(tracer, idx, args, kwargs, seq):
    tracer.counts["recurrence.eval_sequence.terms"] += _arg(args, kwargs,
                                                            2, "K")


def _after_d2_zero_search(tracer, idx, args, kwargs, res):
    # the secant keeps one d2_sequence per evaluation point: the two
    # starting points plus one per iteration
    tracer.counts["tracking.d2_zero_search.iterations"] += res.iterations
    tracer.counts["tracking.d2_zero_search.useful"] += res.iterations + 2
    key = "tracking.d2_zero_search.K_used_max"
    tracer.counts[key] = max(tracer.counts[key], res.K_used)


AFTER = {
    "rootfind.find_all_roots": _after_find_all_roots,
    "recurrence.build_family": _after_build_family,
    "recurrence.eval_sequence": _after_eval_sequence,
    "tracking.d2_zero_search": _after_d2_zero_search,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def rename(self, idx, name):
        self.name_of[idx] = self._id(name)

    def wrap(self, name, fn):
        nid = self._id(name)
        after = AFTER.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [mod for name, mod in sys.modules.items()
                   if name == "heunzeros" or name.startswith("heunzeros.")]
        for module, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"heunzeros.{module}"], attr)
            wrapper = self.wrap(f"{module}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the
        counters and the d2_sequence calls made inside d2_zero_search."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        search = self._ids.get("tracking.d2_zero_search")
        seq = self._ids.get("tracking.d2_sequence")
        made = 0
        for i in range(n):
            rec = out[self.names[self.name_of[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            if self.name_of[i] == seq and p >= 0 and self.name_of[p] == search:
                made += 1
        counts = dict(self.counts)
        counts["tracking.d2_zero_search.d2_sequence_made"] = made
        return {"functions": out, "counts": counts}
