"""Spans around the public functions of the sunada modules, installed from outside.

The tracer rebinds every module attribute that refers to a traced function,
so a call through any imported name (``sunada.is_sunada_triple``,
``sunada.search.is_sunada_triple``, ...) is recorded, and it wraps
``FiniteGroup.conjugacy_classes`` on the class.  ``remove`` restores the
originals.  Spans are kept in memory as (id, parent id, name, phase, start,
end); a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute, span name).  "Class.method" wraps a method on its class.
TRACED = (
    ("sunada.algebra", "generate_group", "algebra.generate_group"),
    ("sunada.algebra", "FiniteGroup.conjugacy_classes", "algebra.conjugacy_classes"),
    ("sunada.algebra", "conjugacy_classes", "algebra.conjugacy_classes"),
    ("sunada.gassmann", "subgroup_generate", "gassmann.subgroup_generate"),
    ("sunada.gassmann", "subgroup_from_members", "gassmann.subgroup_from_members"),
    ("sunada.gassmann", "class_intersection_profile", "gassmann.class_intersection_profile"),
    ("sunada.gassmann", "are_conjugate_subgroups", "gassmann.are_conjugate_subgroups"),
    ("sunada.gassmann", "is_sunada_triple", "gassmann.is_sunada_triple"),
    ("sunada.search", "enumerate_subgroups", "search.enumerate_subgroups"),
    ("sunada.search", "simultaneous_conjugator", "search.simultaneous_conjugator"),
    ("sunada.search", "find_sunada_pairs", "search.find_sunada_pairs"),
    ("sunada.covering", "covering_report", "covering.covering_report"),
    ("sunada.covering", "smoothness", "covering.smoothness"),
    ("sunada.covering", "cone_points", "covering.cone_points"),
    ("sunada.schreier", "coset_table", "schreier.coset_table"),
    ("sunada.schreier", "schreier_graph", "schreier.schreier_graph"),
    ("sunada.schreier", "graph_isomorphic", "schreier.graph_isomorphic"),
    ("sunada.spectra", "adjacency_matrix", "spectra.adjacency_matrix"),
    ("sunada.spectra", "eigenvalues_symmetric", "spectra.eigenvalues_symmetric"),
    ("sunada.specfile", "load_text", "specfile.load_text"),
    ("sunada.specfile", "document_from_catalog", "specfile.document_from_catalog"),
    ("sunada.catalog", "catalog_entry", "catalog.catalog_entry"),
    ("sunada.cli", "run", "cli.run"),
)

SELF_TIMES = sorted({name for _, _, name in TRACED})
CALL_COUNTS = ("gassmann.are_conjugate_subgroups", "gassmann.is_sunada_triple",
               "search.simultaneous_conjugator")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._patches: list[tuple[object, str, object]] = []
        self._class_groups: weakref.WeakSet = weakref.WeakSet()
        # Counters read from a traced call's result: span name -> (args, result) -> None.
        self._counters = {
            "algebra.generate_group":
                lambda args, group: self.count("algebra.group_order", group.order),
            "algebra.conjugacy_classes": self._count_classes,
            "gassmann.are_conjugate_subgroups":
                lambda args, witness: self.count("gassmann.conjugator_found", witness is not None),
            "search.enumerate_subgroups":
                lambda args, subgroups: self.count("search.subgroups_found", len(subgroups)),
            "search.find_sunada_pairs":
                lambda args, pairs: self.count("search.pairs_kept", len(pairs)),
            "schreier.coset_table":
                lambda args, table: self.count("schreier.cosets", table.count),
            "spectra.adjacency_matrix":
                lambda args, matrix: self.count("spectra.dimension", matrix.dimension),
        }

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        sid = len(self.spans)
        span = [sid, self._stack[-1] if self._stack else -1, name, self.phase, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(sid)
        span[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self._counts[self.phase][key] += amount

    def _count_classes(self, args, classes) -> None:
        """Classes of each group instance, counted once however often asked."""
        group = args[0]
        if group not in self._class_groups:
            self._class_groups.add(group)
            self.count("algebra.classes", len(classes))

    def _wrap(self, name: str, fn):
        tracer, counter = self, self._counters.get(name)

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under every name that refers to it."""
        for module_name, attr, name in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, method, self._wrap(name, vars(owner)[method]))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "sunada":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def phase_totals(self) -> dict[str, dict[str, float]]:
        """Per phase: self time and call count of every span name, the
        counters, and the is_sunada_triple calls made inside a search."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, parent, name, phase, start, end in self.spans:
            totals[phase][name + ".self_s"] += (end - start) - child_time[sid]
            totals[phase][name + ".calls"] += 1
            if name == "gassmann.is_sunada_triple" and self._inside(parent, "search.find_sunada_pairs"):
                totals[phase]["search.sunada_checks"] += 1
        for phase, counts in self._counts.items():
            for key, value in counts.items():
                totals[phase][key] += value
        return totals

    def _inside(self, sid: int, name: str) -> bool:
        while sid >= 0:
            if self.spans[sid][2] == name:
                return True
            sid = self.spans[sid][1]
        return False

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def span_cost(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare
    no-op, the fastest of a few rounds, on a tracer of its own."""

    def noop():
        return None

    best = float("inf")
    for _ in range(rounds):
        wrapped = Tracer()._wrap("calibration", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return best


def layer_metrics(totals: dict[str, dict[str, float]], pass_phases: list[str]) -> dict[str, float]:
    """Set-up phase plus the median pass, for every per-layer metric."""
    setup = totals.get("setup", {})
    keys = set(setup).union(*(totals.get(p, {}) for p in pass_phases))
    merged = {key: setup.get(key, 0.0) + statistics.median(
        totals.get(p, {}).get(key, 0.0) for p in pass_phases) for key in keys}
    out = {name + ".self_s": merged.get(name + ".self_s", 0.0) for name in SELF_TIMES}
    for name in CALL_COUNTS:
        out[name + ".calls"] = merged.get(name + ".calls", 0.0)
    for key in ("algebra.group_order", "algebra.classes", "search.subgroups_found",
                "search.pairs_kept", "schreier.cosets", "spectra.dimension"):
        out[key] = merged.get(key, 0.0)
    calls = merged.get("gassmann.are_conjugate_subgroups.calls", 0.0)
    out["gassmann.conjugator_found_ratio"] = (
        merged.get("gassmann.conjugator_found", 0.0) / calls if calls else 0.0)
    checks = merged.get("search.sunada_checks", 0.0)
    out["search.kept_ratio"] = merged.get("search.pairs_kept", 0.0) / checks if checks else 0.0
    return out
