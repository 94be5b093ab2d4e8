"""One in-process benchmark run, in a fresh process so its peak RSS is its own.

Started by run.py with the same arguments; prints one JSON object as its last
line of standard output.  Untraced, it times set-up and passes against the
speed gauge.  Traced, it runs the layer probe, the workload's set-up and its
passes under the tracer, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads


def load_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    sunada = importlib.import_module("sunada")
    if not Path(sunada.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"perfbench: imported sunada from {sunada.__file__}, not from {root / 'src'}")
    return sunada


def traced(sunada, workload, tally: workloads.Tally, seconds: float, tmp: Path,
           spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    tally.tracer = tracer
    try:
        workloads.layer_probe(sunada, tally, tmp)
        if workload.setup_every:
            workload.setup(tally)
        passes = []
        start = time.perf_counter()
        while len(passes) < workloads.MIN_PASSES or time.perf_counter() - start < seconds:
            tracer.phase = f"pass{len(passes)}"
            gc.collect()
            passes.append(workload.run_pass(tally).pass_s)
    finally:
        tally.tracer = None
        tracer.remove()
    tracer.write_spans(spans_path)
    phases = [f"pass{i}" for i in range(len(passes))]
    spans_per_pass = statistics.median(
        sum(1 for span in tracer.spans if span[3] == phase) for phase in phases)
    span_cost = tracing.span_cost()
    metrics = tracing.layer_metrics(tracer.phase_totals(), phases)
    metrics["trace.pass_s"] = statistics.median(passes)
    metrics["trace.overhead_s"] = spans_per_pass * span_cost
    return {"metrics": metrics,
            "samples": {"traced_passes": len(passes), "spans": len(tracer.spans),
                        "spans_per_pass": spans_per_pass, "span_cost_s": span_cost},
            "pass_times": passes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.IN_PROCESS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    sunada = load_package(root)
    if args.trace or args.workload == "cli-catalog":
        importlib.import_module("sunada.cli")
    tally = workloads.Tally()
    workload = workloads.IN_PROCESS[args.workload](sunada, args.seed, args.tmp)
    if args.trace:
        result = traced(sunada, workload, tally, args.seconds, args.tmp, args.spans)
    else:
        result = workloads.measure(workload, tally, args.seconds)
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
