"""Spans around mml's public functions, recorded from the benchmark's own code.

``Tracer.install`` replaces every public function defined in one of the
layer modules by a wrapper that records a span (name, start, end, parent,
and the op that caused it). The replacement is made in every mml namespace
that binds the function and in module-level dicts, because ``mml.verify``
and ``mml.cli`` import ``first_visit_table``, ``t_large``, ``run_all`` and
others by name and ``mml.verify.SUITES`` holds the suite functions. It also
counts ``numpy.linalg.solve`` calls against the innermost open span.

The tracer keeps one span stack, so it traces single-threaded calls only;
the workloads run with ``workers=1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np
from mml.verify import SUITE_ORDER

import reference

LAYERS = ("chain", "hitting", "simulate", "bounds", "verify", "report", "cli")


class Span:
    __slots__ = ("name", "layer", "parent", "op", "start", "end", "solves", "counts",
                 "child_s", "total_solves")

    def __init__(self, name, parent, op):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.op = op
        self.solves = 0
        self.counts = None
        self.child_s = 0.0
        self.total_solves = 0

    @property
    def s(self) -> float:
        return self.end - self.start


def _first_visit_counts(a, table):
    return {"trial_steps": a["trials"] * a["n"], "m": table.shape[1],
            # uniforms drawn (trials x n float64) plus the returned table
            "bytes_computed": 8 * a["trials"] * a["n"] + table.nbytes,
            "call": (a["chain"], a["n"], a["trials"], a["master_seed"], a["pi"])}


def _hitting_samples_counts(a, N):
    return {"steps": int(np.minimum(N, a["cap"]).sum()), "cap_hits": int((N > a["cap"]).sum())}


# What the benchmark counts at each boundary, from the call's arguments and result.
OBSERVERS = {
    "simulate.first_visit_table": _first_visit_counts,
    "simulate.hitting_time_samples": _hitting_samples_counts,
    "simulate.occupancy_frequencies": lambda a, r: {"steps": a["n"]},
    "hitting.t_large": lambda a, r: {"pi": np.array(a["pi"].pi), "epsilon": a["epsilon"]},
    "report.render_reports_csv": lambda a, r: {"rows": len(a["reports"]),
                                               "bytes": len(r.encode("utf-8"))},
}
OBSERVERS.update({
    f"verify.suite_{suite}": lambda a, r: {"checks": len(r[0]), "violations": len(r[1].violations)}
    for suite in SUITE_ORDER
})


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self._undo = []

    def _wrap(self, name, fn):
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observer else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if observer:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = observer(bound.arguments, result)
            return result

        return traced

    def _set(self, container, key, value):
        self._undo.append((container, key, container[key]))
        container[key] = value

    def install(self):
        modules = [importlib.import_module(f"mml.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))

        def swap(container):
            for key, value in list(container.items()):
                hit = wrapped.get(id(value))
                if hit and hit[0] is value:
                    self._set(container, key, hit[1])

        for ns in (importlib.import_module("mml"), *modules):
            swap(vars(ns))
            for key, value in list(vars(ns).items()):
                if isinstance(value, dict) and not key.startswith("__"):
                    swap(value)

        solve, stack = np.linalg.solve, self.stack

        @functools.wraps(solve)
        def counting_solve(*args, **kwargs):
            if stack:
                stack[-1].solves += 1
            return solve(*args, **kwargs)

        self._set(vars(np.linalg), "solve", counting_solve)

    def uninstall(self):
        while self._undo:
            container, key, value = self._undo.pop()
            container[key] = value

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and solves."""
        for span in self.spans:
            span.child_s, span.total_solves = 0.0, 0
        for span in reversed(self.spans):  # children were recorded after their parents
            span.total_solves += span.solves
            if span.parent is not None:
                span.parent.child_s += span.s
                span.parent.total_solves += span.total_solves
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "solves": 0})
        for span in self.spans:
            row = table[span.name]
            row["calls"] += 1
            row["s"] += span.s
            row["self_s"] += span.s - span.child_s
            row["solves"] += span.total_solves
        return dict(table)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics that spans and counts give; the caller adds the rest."""
        table = self.aggregate()
        counts = defaultdict(list)
        for span in self.spans:
            if span.counts is not None:
                counts[span.name].append(span.counts)

        def row(name):
            return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "solves": 0})

        def total(name, key):
            return sum(c[key] for c in counts[name])

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(r["self_s"] for n, r in table.items()
                                         if n.split(".", 1)[0] == layer)
        out["bounds.s"] = sum(span.s for span in self.spans
                              if span.layer == "bounds" and not _has_ancestor(span, "bounds"))

        fvt = "simulate.first_visit_table"
        out[f"{fvt}.calls"] = row(fvt)["calls"]
        out[f"{fvt}.s"] = row(fvt)["s"]
        out[f"{fvt}.trial_steps"] = total(fvt, "trial_steps")
        out[f"{fvt}.steps_per_s"] = _ratio(out[f"{fvt}.trial_steps"], out[f"{fvt}.s"])
        out[f"{fvt}.bytes_computed"] = total(fvt, "bytes_computed")

        hts = "simulate.hitting_time_samples"
        out[f"{hts}.s"] = row(hts)["s"]
        out[f"{hts}.steps"] = total(hts, "steps")
        out[f"{hts}.cap_hits"] = total(hts, "cap_hits")
        out["simulate.sample_missing_mass.s"] = row("simulate.sample_missing_mass")["s"]
        occ = "simulate.occupancy_frequencies"
        out[f"{occ}.s"] = row(occ)["s"]
        out[f"{occ}.steps_per_s"] = _ratio(total(occ, "steps"), out[f"{occ}.s"])

        tl = "hitting.t_large"
        out[f"{tl}.calls"] = row(tl)["calls"]
        out[f"{tl}.s"] = row(tl)["s"]
        out[f"{tl}.solves"] = row(tl)["solves"]
        minimal = sum(reference.minimal_sets(c["pi"], c["epsilon"]).size for c in counts[tl])
        out[f"{tl}.useful_ratio"] = _ratio(minimal, out[f"{tl}.solves"])
        for name in ("hitting.hitting_table", "chain.stationary"):
            out[f"{name}.calls"] = row(name)["calls"]
            out[f"{name}.s"] = row(name)["s"]

        out["verify.violations"] = 0
        for suite in SUITE_ORDER:
            name = f"verify.suite_{suite}"
            out[f"verify.{suite}.s"] = row(name)["s"]
            out[f"verify.{suite}.self_s"] = row(name)["self_s"]
            out[f"verify.{suite}.checks"] = total(name, "checks")
            out["verify.violations"] += total(name, "violations")

        rr = "report.render_reports_csv"
        out[f"{rr}.s"] = row(rr)["s"]
        out[f"{rr}.rows"] = total(rr, "rows")
        out[f"{rr}.bytes"] = total(rr, "bytes")
        out["cli.main.self_s"] = row("cli.main")["self_s"]
        out["trace.spans"] = len(self.spans)
        return out

    def largest_first_visit_call(self):
        """Arguments of the traced first_visit_table call with the most work, or None."""
        calls = [s.counts for s in self.spans
                 if s.name == "simulate.first_visit_table" and s.counts is not None]
        if not calls:
            return None
        return max(calls, key=lambda c: c["trial_steps"] * c["m"])["call"]


def _has_ancestor(span, layer) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.layer == layer:
            return True
        parent = parent.parent
    return False


def _ratio(a, b) -> float:
    return a / b if b else 0.0
