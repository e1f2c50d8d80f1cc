#!/usr/bin/env python3
"""Steadiness test of the benchmark itself.

    python3 perfbench/steadiness.py [--seed N] [--seconds S]

Runs every workload twice in its short form (--short) and asserts that
  * the exact metrics (simulated results) are identical between the runs, and
  * every end-to-end host-time metric of the second run is within the bound
    BENCHMARK.json gives it of the first run's value, either way. setup_s is
    reported but not asserted: a short set-up (0.2 ms for gemm_layers) moves
    by more than its bound between single runs, which is why it is bounded
    on the median of many runs only.
Then runs each workload once traced and reports unattributed_frac, the share
of traced wall time that no per-layer span covers. Exits 1 on any failure.

On a shared host whose speed shifts by up to 1.5x for minutes at a time, a
host-time check can fail when such a shift falls between the two runs; the
exact-metric check cannot.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One short run: the last stdout line and the per-run report."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--short",
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}-short.json")
    with open(report, encoding="utf-8") as f:
        return line, json.load(f)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=manifest["default_seed"])
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args()

    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        (line_a, report_a), (line_b, report_b) = (
            run(workload, args.seed, args.seconds, 0) for _ in range(2)
        )
        for line in (line_a, line_b):
            if not line["correct"] or line["failed"]:
                failures.append(f"{workload}: {line['failed']} failed iterations")
        if report_a["exact"] != report_b["exact"]:
            failures.append(f"{workload}: exact metrics differ between runs")
        print(f"{workload}: {len(report_a['exact'])} exact metrics, identical: "
              f"{report_a['exact'] == report_b['exact']}")
        for metric in bench["end_to_end"]:
            a = line_a["metrics"][metric["name"]]["value"]
            b = line_b["metrics"][metric["name"]]["value"]
            change = abs(b - a) / a
            if metric["name"] == "setup_s":
                verdict = "not asserted"
            elif change <= metric["bound"]:
                verdict = "ok"
            else:
                verdict = "FAIL"
                failures.append(f"{workload}: {metric['name']} moved by {change:.3f}")
            print(f"  {metric['name']:<16} {a:>14.6g} {b:>14.6g} {metric['unit']:<6} "
                  f"moved {change:.3f} (bound {metric['bound']}) {verdict}")
        traced, _ = run(workload, args.seed, args.seconds, 1)
        print(f"  unattributed_frac {traced['metrics']['unattributed_frac']['value']:.6f}")
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
