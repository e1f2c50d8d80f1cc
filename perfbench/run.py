#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--short]

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default: .bench_build at the checkout root). Cargo's output goes to stderr;
the benchmark's stdout ends with one JSON line: correct, attempted, failed,
metrics. Per-run reports are written to perfbench/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "usystolic-perfbench")
    run = subprocess.run([exe, *sys.argv[1:], "--out", os.path.join(HERE, "out")])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
