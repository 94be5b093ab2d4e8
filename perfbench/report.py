"""Run every workload once and print each end-to-end metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

For each workload this runs ``perfbench/run.py`` in a subprocess, one after
another, and prints setup_s, pass_s, cmd_p50_s, peak_rss_mb and fail_frac
(failed operations over attempted ones), or the per-layer metrics with
``--trace 1``.  Exits 1 if any run reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed with exit code {proc.returncode}")
            ok = False
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload} (seed {args.seed}, samples {info['samples']})")
        for name, metric in result["metrics"].items():
            print(f"  {name:44s} {metric['value']:14.6f} {metric['unit']}")
        print(f"  {'fail_frac':44s} {info['fail_frac']:14.6f} "
              f"({result['failed']} of {result['attempted']} operations)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
