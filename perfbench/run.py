#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy_fleet --seed 1 --seconds 50 --trace 0

The build goes to .bench_build/perfbench (Release, incremental). Build
output goes to stderr. The binary prints its metric table and writes its
result file; the last line of stdout is then the result as one JSON object
with the keys correct, attempted, failed and metrics. The exit code is the
benchmark's: non-zero when the build fails or an output check fails, and
no result line is printed when the build or the run fails.

The full pool is sized by RFP_THREADS, as everywhere in the repository
(unset: the hardware thread count). The result file records RFP_THREADS
and the pool size it resolved to.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace == "1" else "result"
    result = RESULTS / f"{args.workload}-seed{args.seed}-{kind}.json"
    result.unlink(missing_ok=True)
    sys.stdout.flush()
    code = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out-dir", str(RESULTS), "--result", str(result),
         "--commit", commit()],
        cwd=ROOT).returncode
    if not result.exists():
        return code or 1
    full = json.loads(result.read_text())
    print(json.dumps({key: full[key]
                      for key in ("correct", "attempted", "failed")} | {
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in full["metrics"].items()}}))
    return code


if __name__ == "__main__":
    sys.exit(main())
