"""Benchmark entry point: one run of one workload, result as a JSON last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the package in ``src/``.
Workloads (closed loop, one client, one operation at a time):

* ``cli-catalog``: 24 ``python -m sunada`` subprocesses per pass over the
  three catalog entries.
* ``verify-psl``: the verify pipeline on freshly loaded PSL(3,2) and
  PSL(2,11) documents.
* ``search-ladder``: ``find_sunada_pairs`` over eight (group, order) rungs on
  groups loaded and warmed once per set-up.

With ``--trace 0`` it reports the end-to-end metrics (setup_s, pass_s,
cmd_p50_s, peak_rss_mb), the timings in seconds at reference speed (see
gauge.py); with ``--trace 1`` the per-layer metrics of a traced run.  Every operation's output is checked; ``failed / attempted`` is the
failure fraction.  Scratch files go to ``.perfbench_tmp/`` and the spans of a
traced run to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-catalog", "verify-psl", "search-ladder")
IMPORT_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB"}


def package_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdin: Path | None, stdout: Path) -> tuple[int, float, float]:
    """Run argv to completion in the checkout; returns (exit code, wall seconds, peak RSS MB)."""
    with open(stdout, "w", encoding="utf-8") as out, \
            open(stdin if stdin else os.devnull, encoding="utf-8") as inp:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=inp, stdout=out, cwd=ROOT, env=package_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def import_profile(tmp: Path) -> dict[str, float]:
    """cli.import_s and cli.import_numpy_s from ``-X importtime`` (median of probes)."""
    samples: dict[str, list[float]] = {"cli.import_s": [], "cli.import_numpy_s": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sunada"],
                              cwd=ROOT, env=package_env(), capture_output=True, text=True,
                              check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        samples["cli.import_s"].append(cumulative["sunada"])
        samples["cli.import_numpy_s"].append(cumulative.get("numpy", 0.0))
    return {key: statistics.median(values) for key, values in samples.items()}


class SubprocessCli:
    """Runs cli-catalog commands as ``python -m sunada`` subprocesses of this
    process and keeps the largest peak RSS among them."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.peak_rss_mb = 0.0

    def execute(self, cmd: workloads.Command) -> tuple[int, str]:
        out = self.tmp / "out.txt"
        code, _, rss = spawn([sys.executable, "-m", "sunada"] + cmd.argv, cmd.stdin, out)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, out.read_text(encoding="utf-8")

    def import_probe(self) -> int:
        return spawn([sys.executable, "-c", "import sunada"], None, self.tmp / "import.txt")[0]


def run_cli_catalog(seed: int, seconds: float, tmp: Path) -> dict:
    tally = workloads.Tally()
    cli = SubprocessCli(tmp)
    cli.import_probe()  # the first import may write bytecode caches
    workload = workloads.CliCatalog(workloads.cli_entry_order(seed), tmp, cli.execute,
                                    cli.import_probe)
    result = workloads.measure(workload, tally, seconds)
    result["metrics"]["peak_rss_mb"] = cli.peak_rss_mb
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    return result


def run_worker(args, tmp: Path) -> dict:
    """In-process run in a fresh child; adds the child's peak RSS."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", str(tmp), "--spans", str(out_dir / f"spans-{args.workload}.jsonl")]
    code, _, rss = spawn(argv, None, tmp / "worker.txt")
    lines = (tmp / "worker.txt").read_text(encoding="utf-8").splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"worker exited with {code}")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = rss
    return result


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "sunada" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.workload == "cli-catalog" and not args.trace:
            result = run_cli_catalog(args.seed, args.seconds, tmp)
        else:
            result = run_worker(args, tmp)
        if args.trace:
            result["metrics"].update(import_profile(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    for error in result["errors"]:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    units = {name: END_TO_END_UNITS.get(name) or layer_unit(name) for name in result["metrics"]}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "samples": result["samples"],
                      "wall": result.get("wall"), "reference_s": result.get("reference_s"),
                      "pass_times": [round(t, 4) for t in result["pass_times"]],
                      "fail_frac": failed / attempted if attempted else 1.0}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(result["metrics"].items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
