"""The three workloads: their operations, inputs and correctness checks.

Checks compare parsed fields (verdicts, genus, chi_orb, cone points, vertex
counts, spectra within 1e-9, pair counts), never output bytes, so an additive
output field is not counted as a failure.  Every operation either passes all
its checks or counts once in ``failed``.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import NamedTuple

from gauge import INTERPRETER, LOOP, Gauge
from groups import CATALOG, CATALOG_ENTRIES, PSL, Expected, psl_document

SPECTRUM_TOL = 1e-9


class Timing(NamedTuple):
    """One timed operation: ``seconds`` at reference speed when the tally has
    a gauge (see gauge.py), else equal to ``wall``."""

    label: str
    seconds: float
    wall: float


@dataclass
class Tally:
    """Operations attempted and failed; ``tracer`` wraps each one in a span,
    and ``gauge`` times each one against a reference job (gauge.py)."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    tracer: object = None
    gauge: object = None

    def fail(self, label: str, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(f"{label}: {problem}")

    def skip(self, label: str, count: int) -> None:
        """Count operations that could not run because their input failed."""
        self.attempted += count
        self.fail(label, f"{count} operations skipped", count)

    def op(self, label: str, fn, check) -> tuple[Timing, object]:
        """Time fn(), then run check(result), which returns a problem or None.

        Returns (timing, result); result is None when fn raised.
        """
        self.attempted += 1
        call = fn if self.tracer is None else partial(self.tracer.call,
                                                      "bench." + label.split()[0], fn)
        start = time.perf_counter()
        try:
            if self.gauge is None:
                result = call()
                wall = seconds = time.perf_counter() - start
            else:
                result, wall, seconds = self.gauge.timed(call)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(label, f"raised {exc!r}")
            wall = time.perf_counter() - start
            return Timing(label, wall, wall), None
        try:
            problem = check(result)
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            problem = f"unreadable result: {exc!r}"
        if problem:
            self.fail(label, problem)
        return Timing(label, seconds, wall), result


@dataclass
class PassTimes:
    """The timed operations of one pass, and the set-up timed inside it."""

    ops: list[Timing]
    setup: list[Timing] = field(default_factory=list)

    @property
    def pass_s(self) -> float:
        return sum(t.seconds for t in self.ops)


def median_sum(timings: list[Timing], wall: bool = False) -> float:
    """Sum over labels of the label's median time: one pass (or one set-up)
    with every operation at its median.  A slow spell that hits different
    operations in different passes inflates every pass sum, but not the
    operations' medians."""
    by_label: dict[str, list[float]] = {}
    for t in timings:
        by_label.setdefault(t.label, []).append(t.wall if wall else t.seconds)
    return sum(statistics.median(ts) for ts in by_label.values())


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what} is {got!r}, expected {want!r}"


def _first(*problems: str | None) -> str | None:
    return next((p for p in problems if p), None)


# -- checks on parsed fields, shared by library objects and CLI JSON ---------

def check_verdict(exp: Expected, gassmann, conjugator, sunada, order, indices, classes):
    return _first(_mismatch("gassmann", gassmann, True),
                  _mismatch("conjugator", conjugator, None),
                  _mismatch("is_sunada_triple", sunada, True),
                  _mismatch("group order", order, exp.group_order),
                  _mismatch("indices", list(indices), [exp.index, exp.index]),
                  _mismatch("class count", classes, exp.classes))


def check_covering(exp: Expected, index, chi_orb, genus, cones, smooth):
    return _first(_mismatch("index", index, exp.index),
                  _mismatch("chi_orb", chi_orb, exp.chi_orb),
                  _mismatch("genus", genus, exp.genus),
                  _mismatch("cone points", frozenset(cones), exp.cone_points),
                  _mismatch("smooth", smooth, exp.smooth))


def check_spectrum(exp: Expected, eigenvalues, degree: int, other=None):
    """Dimension, the top eigenvalue 2 * (number of labels) of a regular
    Schreier graph, and agreement with the other subgroup's spectrum."""
    values = sorted(eigenvalues)
    problem = _first(_mismatch("dimension", len(values), exp.index),
                     None if abs(values[-1] - degree) <= SPECTRUM_TOL
                     else f"top eigenvalue {values[-1]!r}, expected {degree}")
    if problem or other is None:
        return problem
    if len(other) != len(values) or any(abs(x - y) > SPECTRUM_TOL
                                        for x, y in zip(sorted(other), values)):
        return "spectra of U and V differ"
    return None


def _library_covering(exp: Expected, report):
    return check_covering(exp, report.index, report.chi_orb, report.genus,
                          [(c.label, c.order, c.multiplicity) for c in report.cone_points],
                          report.smooth)


def _library_pairs(want: int, order: int, pairs):
    if len(pairs) != want:
        return f"{len(pairs)} pairs, expected {want}"
    for u, v, report in pairs:
        if not report.is_sunada_triple or u.order != order or v.order != order:
            return "a returned pair is not a Sunada pair of the target order"
    return None


# -- verify-psl --------------------------------------------------------------

class VerifyPsl:
    """Load each PSL document and run the whole verify pipeline on the cold group.

    Set-up is the loads inside each pass; cmd_p50_s is the ``verify`` of
    Perlis' pair, is_sunada_triple on a freshly loaded PSL(3,2).
    """

    setup_every = 0
    subprocesses = False
    cmd_label = "is_sunada_triple PSL(3,2)"

    def __init__(self, sunada, seed: int, tmp: Path):
        self.sunada = sunada
        self.texts = {name: json.dumps(psl_document(name, seed)) for name in PSL}

    def run_pass(self, tally: Tally) -> PassTimes:
        s = self.sunada
        loads, times = [], []
        for name, text in self.texts.items():
            exp = PSL[name].expected
            label = f"load {name}"
            t, spec = tally.op(label, lambda: s.load_text(text),
                               lambda spec: _first(
                                   _mismatch("group order", spec.group.order, exp.group_order),
                                   _mismatch("subgroup orders",
                                             [len(spec.subgroups["U"]), len(spec.subgroups["V"])],
                                             [exp.subgroup_order] * 2)))
            loads.append(t)
            if spec is None:
                tally.skip(f"analysis {name}", 8)
                continue
            g, u, v = spec.group, spec.subgroups["U"], spec.subgroups["V"]
            labels = [(n, spec.named_elements[n]) for n in spec.generator_names]
            ops = [
                (f"is_sunada_triple {name}", lambda: s.is_sunada_triple(g, u, v),
                 lambda r: check_verdict(exp, r.gassmann, r.conjugator, r.is_sunada_triple,
                                         r.group_order, (r.index_u, r.index_v),
                                         len(r.class_sizes))),
                (f"covering_report {name} U", lambda: s.covering_report(g, u, spec.polygon),
                 lambda r: _library_covering(exp, r)),
                (f"covering_report {name} V", lambda: s.covering_report(g, v, spec.polygon),
                 lambda r: _library_covering(exp, r)),
            ]
            for label, fn, check in ops:
                times.append(tally.op(label, fn, check)[0])
            graphs = []
            for key, sub in (("U", u), ("V", v)):
                label = f"schreier_graph {name} {key}"
                t, graph = tally.op(label, lambda: s.schreier_graph(g, sub, labels),
                                    lambda gr: _first(_mismatch("vertices", gr.vertex_count, exp.index),
                                                      _mismatch("labels", gr.labels, ("a", "b"))))
                times.append(t)
                graphs.append(graph)
            gu, gv = graphs
            for mode, present in (("direct", False), ("reversed", True)):
                label = f"graph_isomorphic {name} {mode}"
                times.append(tally.op(
                    label, lambda: s.graph_isomorphic(gu, gv, mode),
                    lambda phi: _mismatch(f"{mode} isomorphism found", phi is not None, present))[0])

            def spectra():
                su = s.eigenvalues_symmetric(s.adjacency_matrix(gu))
                sv = s.eigenvalues_symmetric(s.adjacency_matrix(gv))
                return su, sv, s.spectra_equal(su, sv)

            label = f"spectra {name}"
            times.append(tally.op(
                label, spectra,
                lambda r: _first(_mismatch("spectra_equal", r[2], True),
                                 check_spectrum(exp, r[1].eigenvalues, 4, r[0].eigenvalues)))[0])
        return PassTimes(times, loads)


# -- search-ladder -----------------------------------------------------------

# (document, subgroup order, smooth quotients only, expected pair count)
LADDER = (
    ("genus2", 8, True, 4),
    ("genus3", 4, False, 2),
    ("genus3", 8, False, 3),
    ("orbifold-h", 4, False, 3),
    ("PSL(3,2)", 4, False, 2),
    ("PSL(3,2)", 12, False, 2),
    ("PSL(3,2)", 24, False, 2),
    ("PSL(2,11)", 12, False, 0),
)


class SearchLadder:
    """find_sunada_pairs on groups loaded and warmed once.

    A set-up loads the five groups (catalog entries through their documents)
    and computes their classes.  It is repeated before every
    ``setup_every``-th pass to sample its time; the passes use the groups of
    the first set-up, so their Cayley rows stay warm.  cmd_p50_s is the
    longest call, PSL(2,11) order 12, where the conjugator scans compare the
    55 conjugate A4s pairwise.
    """

    setup_every = 2
    subprocesses = False
    cmd_label = "find_sunada_pairs PSL(2,11) order 12"

    def __init__(self, sunada, seed: int, tmp: Path):
        self.sunada = sunada
        self.texts = {name: json.dumps(psl_document(name, seed)) for name in PSL}
        self.specs = {}

    def setup(self, tally: Tally) -> list[Timing]:
        s = self.sunada
        loaders = [(name, lambda name=name: s.load_text(json.dumps(
                        s.document_from_catalog(s.catalog_entry(name)))), CATALOG[name][3])
                   for name in CATALOG_ENTRIES]
        loaders += [(name, lambda name=name: s.load_text(self.texts[name]), PSL[name].expected)
                    for name in PSL]
        times = []
        for name, load, exp in loaders:
            def warm(load=load):
                spec = load()
                return spec, spec.group.conjugacy_classes()

            label = f"load {name}"
            t, loaded = tally.op(label, warm, lambda r, exp=exp: _first(
                _mismatch("group order", r[0].group.order, exp.group_order),
                _mismatch("class count", len(r[1]), exp.classes)))
            times.append(t)
            if loaded is not None:
                self.specs.setdefault(name, loaded[0])
        return times

    def run_pass(self, tally: Tally) -> PassTimes:
        s = self.sunada
        times = []
        for name, order, smooth, want in LADDER:
            label = f"find_sunada_pairs {name} order {order}"
            spec = self.specs.get(name)
            if spec is None:
                tally.skip(label, 1)
                continue
            config = s.SearchConfig(order=order, require_smooth=spec.polygon if smooth else None)
            times.append(tally.op(label, lambda: s.find_sunada_pairs(spec.group, config),
                                  lambda pairs: _library_pairs(want, order, pairs))[0])
        return PassTimes(times)


# -- cli-catalog -------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]
    stdin: Path | None
    check: object  # (exit code, output text) -> problem or None


def _dot_counts(text: str) -> tuple[int, int]:
    lines = [line.strip() for line in text.splitlines()]
    arcs = sum(1 for line in lines if "->" in line)
    vertices = sum(1 for line in lines if line.startswith("v") and line.endswith(";")
                   and "->" not in line)
    return vertices, arcs


def cli_commands(name: str, tmp: Path, spectra: dict) -> list[Command]:
    """The eight commands of one catalog entry, in pass order.

    ``catalog`` writes the document to a file that the other commands read;
    ``spectra`` carries U's eigenvalues to the check of V's.
    """
    (u, v), search_args, pairs, exp = CATALOG[name]
    doc = tmp / f"{name}.json"
    labels = 3  # every catalog document labels its generators a, b and c

    def exit_ok(check):
        return lambda code, text: (f"exit code {code}" if code != 0 else check(text))

    def catalog_check(_text):
        body = json.loads(doc.read_text(encoding="utf-8"))
        return _mismatch("subgroup names", sorted(body["subgroups"]), sorted((u, v)))

    def verify_check(text):
        d = json.loads(text)
        return check_verdict(exp, d["gassmann"], d["conjugator"], d["is_sunada_triple"],
                             d["group_order"], d["indices"], len(d["classes"]))

    def report_check(text):
        d = json.loads(text)
        chi = Fraction(d["chi_orb"]["num"], d["chi_orb"]["den"])
        return check_covering(exp, d["index"], chi, d["genus"],
                              [(c["label"], c["order"], c["multiplicity"])
                               for c in d["cone_points"]], d["smooth"])

    def graph_check(text):
        vertices, arcs = _dot_counts(text)
        return _first(_mismatch("vertices", vertices, exp.index),
                      _mismatch("arcs", arcs, exp.index * labels))

    def spectrum_check(key):
        def check(text):
            d = json.loads(text)
            spectra[key] = d["eigenvalues"]
            return _first(_mismatch("dimension", d["dimension"], exp.index),
                          check_spectrum(exp, d["eigenvalues"], 2 * labels,
                                         spectra.get("U") if key == "V" else None))
        return check

    def search_check(text):
        order = int(search_args[1])
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
        if len(lines) != pairs:
            return f"{len(lines)} pairs, expected {pairs}"
        if any(not p["report"]["is_sunada_triple"] or len(p["u"]) != order or len(p["v"]) != order
               for p in lines):
            return "a returned pair is not a Sunada pair of the target order"
        return None

    f = str(doc)
    return [
        Command(f"catalog {name}", ["catalog", name, "--out", f], None, exit_ok(catalog_check)),
        Command(f"verify {name}", ["verify", "-", "--U", u, "--V", v], doc, exit_ok(verify_check)),
        Command(f"report {name} {u}", ["report", f, "--U", u], None, exit_ok(report_check)),
        Command(f"report {name} {v}", ["report", f, "--U", v], None, exit_ok(report_check)),
        Command(f"graph {name}", ["graph", f, "--U", u, "--format", "dot"], None,
                exit_ok(graph_check)),
        Command(f"spectrum {name} {u}", ["spectrum", f, "--U", u], None,
                exit_ok(spectrum_check("U"))),
        Command(f"spectrum {name} {v}", ["spectrum", f, "--U", v], None,
                exit_ok(spectrum_check("V"))),
        Command(f"search {name}", ["search", f] + search_args, None, exit_ok(search_check)),
    ]


def cli_entry_order(seed: int) -> list[str]:
    """The seed fixes the order in which a pass visits the catalog entries."""
    return random.Random(f"cli-catalog/{seed}").sample(CATALOG_ENTRIES, len(CATALOG_ENTRIES))


class CliCatalog:
    """cli-catalog: the 24 commands of a pass, each run by ``execute(command)``,
    which returns (exit code, output text).

    The benchmark runs every command as a subprocess, and before every pass
    samples set-up with IMPORT_PROBES runs of ``import_probe``, a subprocess
    that only imports the package and returns its exit code.  The traced run
    executes commands with ``run_in_process``, where the wrappers can see
    inside each one, and has no import probe.
    """

    IMPORT_PROBES = 8
    cmd_label = None  # cmd_p50_s is the median over every command

    def __init__(self, entries: list[str], tmp: Path, execute, import_probe=None):
        self.entries = entries
        self.tmp = tmp
        self.execute = execute
        self.import_probe = import_probe
        self.setup_every = 1 if import_probe else 0
        self.subprocesses = import_probe is not None

    def setup(self, tally: Tally) -> list[Timing]:
        return [tally.op("import sunada", self.import_probe,
                         lambda code: _mismatch("exit code", code, 0))[0]
                for _ in range(self.IMPORT_PROBES)]

    def run_pass(self, tally: Tally) -> PassTimes:
        times = []
        for name in self.entries:
            for cmd in cli_commands(name, self.tmp, {}):
                times.append(tally.op(cmd.label, lambda cmd=cmd: self.execute(cmd),
                                      lambda r, cmd=cmd: cmd.check(*r))[0])
        return PassTimes(times)


def run_in_process(sunada, tmp: Path, cmd: Command) -> tuple[int, str]:
    """Run one command through ``sunada.cli.run`` in this process, output to a file."""
    out = tmp / "out.txt"
    saved = sys.stdin
    try:
        if cmd.stdin is not None:
            sys.stdin = open(cmd.stdin, encoding="utf-8")
        code = sunada.cli.run(cmd.argv + ["--out", str(out)]
                              if "--out" not in cmd.argv else cmd.argv)
    finally:
        if sys.stdin is not saved:
            sys.stdin.close()
            sys.stdin = saved
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    out.unlink(missing_ok=True)
    return code, text


def layer_probe(sunada, tally: Tally, tmp: Path) -> None:
    """One small call into every traced function: the genus2 command list run
    in-process, the cyclic subgroup <a>, and graph isomorphism in both modes
    on its Schreier graphs.
    It runs in the traced set-up, so each per-layer metric of every workload
    is measured rather than absent."""
    CliCatalog(["genus2"], tmp, partial(run_in_process, sunada, tmp)).run_pass(tally)
    spec = sunada.load_text((tmp / "genus2.json").read_text(encoding="utf-8"))
    tally.op("subgroup_generate genus2", lambda: sunada.subgroup_generate(
        spec.group, [spec.named_elements["a"]]), lambda sub: _mismatch("order of <a>", sub.order, 3))
    labels = [(n, spec.named_elements[n]) for n in spec.generator_names]
    gu, gv = (sunada.schreier_graph(spec.group, spec.subgroups[k], labels) for k in ("U", "V"))
    for mode in ("direct", "reversed"):
        # The genus2 coset graphs are isomorphic in neither mode.
        tally.op(f"graph_isomorphic genus2 {mode}", lambda: sunada.graph_isomorphic(gu, gv, mode),
                 lambda phi: _mismatch(f"{mode} isomorphism found", phi is not None, False))


# Workloads run inside the worker process: (sunada, seed, tmp) -> workload.
IN_PROCESS = {
    "verify-psl": VerifyPsl,
    "search-ladder": SearchLadder,
    "cli-catalog": lambda sunada, seed, tmp: CliCatalog(
        cli_entry_order(seed), tmp, partial(run_in_process, sunada, tmp)),
}
MIN_PASSES = 3


def measure(workload, tally: Tally, seconds: float) -> dict:
    """Run passes until ``seconds`` have passed (at least MIN_PASSES), with a
    set-up before every ``setup_every``-th pass, so that set-up is sampled
    throughout the run.  Garbage from earlier work is collected before each
    set-up and pass, outside the timings.  Every operation is timed against
    the gauge.  Reports the metrics in seconds at reference speed, the same
    in wall seconds, and their sample counts."""
    tally.gauge = Gauge(INTERPRETER if workload.subprocesses else LOOP)
    setups, passes = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        if workload.setup_every and len(passes) % workload.setup_every == 0:
            gc.collect()
            setups += workload.setup(tally)
        gc.collect()
        passes.append(workload.run_pass(tally))
        setups += passes[-1].setup
    ops = [op for p in passes for op in p.ops]
    cmd = [t for t in ops if workload.cmd_label in (None, t.label)]

    def metrics(wall: bool) -> dict:
        return {"setup_s": median_sum(setups, wall),
                "pass_s": median_sum(ops, wall),
                "cmd_p50_s": statistics.median(t.wall if wall else t.seconds for t in cmd)}

    return {
        "metrics": metrics(wall=False),
        "wall": metrics(wall=True),
        "reference_s": statistics.median(tally.gauge.readings),
        "samples": {"setup_s": len(setups), "pass_s": len(passes), "cmd_p50_s": len(cmd)},
        "pass_times": [p.pass_s for p in passes],
    }
