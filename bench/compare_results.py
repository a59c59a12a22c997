#!/usr/bin/env python3
"""Compares two sets of perfbench result files, seed by seed.

Usage (from the repository root):

    python3 bench/compare_results.py <parent-dir> <change-dir>

Each directory holds `<workload>-seed<n>-result.json` files as written by
`python3 perfbench/run.py ... --trace 0`. For every workload it prints each
side's operations attempted and failed, summed over its runs, and the
failed share. For every end-to-end metric that BENCHMARK.json names, it
prints each side's median and quartiles, the parent's interquartile range
as a share of its median, the median change, the number of seeds where
the change is better, naming the others (pairs are matched by seed; ties
count as not better; seeds present on only one side count for the
quartiles but not for the wins), and a verdict against the metric's
`bound`:

- worse (failed share rose): the change fails a larger share of its
  operations than the parent, whatever its metrics;
- gain: the change is better at >= 9/10 of the paired seeds and its
  median is better by more than the parent's IQR share;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unresolved: the parent's IQR share exceeds the bound, and not every
  run of the change is better than every run of the parent;
- within bound: otherwise.

A last line per workload says whether `output_digest` matched at every
paired seed.

Each workload also prints each side's provenance: the `git_commit`,
`kernel_level` and `hardware_concurrency` values its runs record. It
warns when the two sides share a commit (a change measured before it
was committed records its parent's), or when their kernel levels or
core counts differ. A warning leaves the exit status alone. Standard
library only.
"""

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-result\.json$")


def load(directory):
    """{workload: {seed: result}} for the result files in directory."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        match = NAME.match(path.name)
        if match:
            runs.setdefault(match["workload"], {})[int(match["seed"])] = (
                json.loads(path.read_text()))
    return runs


def quartiles(values):
    """(q1, median, q3); the median repeats for fewer than two values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def failures(runs):
    """(attempted, failed, failed share) summed over the runs."""
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    return attempted, failed, failed / attempted if attempted else 0.0


PROVENANCE = ("git_commit", "kernel_level", "hardware_concurrency")


def provenance(runs):
    """{key: sorted distinct values} of PROVENANCE over the runs."""
    return {key: sorted({str(r.get("provenance", {}).get(key))
                         for r in runs.values()})
            for key in PROVENANCE}


def provenance_warnings(before, after):
    """Lines warning about a shared commit or a differing level or host."""
    warnings = []
    shared = sorted(set(before["git_commit"]) & set(after["git_commit"]))
    if shared:
        warnings.append("both sides carry commit " + ", ".join(shared))
    for key in PROVENANCE[1:]:
        if before[key] != after[key]:
            warnings.append(f"{key} differs: parent {', '.join(before[key])}"
                            f", change {', '.join(after[key])}")
    return warnings


def verdict(old, new, wins, paired, spread, delta, sign, bound,
            failed_old, failed_new):
    """The metric's verdict; see the module docstring. failed_old and
    failed_new are the two sides' failed shares."""
    if failed_new > failed_old:
        return "worse (failed share rose)"
    if paired and wins >= 0.9 * paired and sign * delta > spread:
        return "gain"
    if sign * delta < -bound:
        return "worse"
    every_run_better = (min(new) > max(old) if sign > 0
                        else max(new) < min(old))
    if spread > bound and not every_run_better:
        return "unresolved"
    return "within bound"


def compare(parent, change, metrics):
    for workload in sorted(set(parent) | set(change)):
        before = parent.get(workload, {})
        after = change.get(workload, {})
        paired = sorted(set(before) & set(after))
        print(f"{workload}: parent {len(before)} runs, change {len(after)} "
              f"runs, {len(paired)} paired seeds")
        shares = {}
        for side, runs in (("parent", before), ("change", after)):
            attempted, failed, shares[side] = failures(runs)
            print(f"  {side}: {attempted} attempted, {failed} failed, "
                  f"failed share {shares[side]:.3g}")
        if not before or not after:
            continue
        origin = {"parent": provenance(before), "change": provenance(after)}
        for side, values in origin.items():
            print(f"  {side}: " + "; ".join(
                f"{key} {', '.join(values[key])}" for key in PROVENANCE))
        for line in provenance_warnings(origin["parent"], origin["change"]):
            print(f"  WARNING: {line}")
        print(f"  {'metric':<22} {'parent q1 / median / q3':>29} "
              f"{'change q1 / median / q3':>29} {'IQR/med':>8} "
              f"{'delta':>8} {'wins':>6}  verdict")
        for metric in metrics:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            old = [r["metrics"][name]["value"] for r in before.values()]
            new = [r["metrics"][name]["value"] for r in after.values()]
            oq, nq = quartiles(old), quartiles(new)
            spread = (oq[2] - oq[0]) / oq[1] if oq[1] else float("nan")
            delta = (nq[1] - oq[1]) / oq[1] if oq[1] else float("nan")
            gain = {s: sign * (after[s]["metrics"][name]["value"] -
                               before[s]["metrics"][name]["value"])
                    for s in paired}
            wins = sum(g > 0 for g in gain.values())
            others = [str(s) for s, g in gain.items() if g <= 0]
            call = verdict(old, new, wins, len(paired), spread, delta, sign,
                           metric["bound"], shares["parent"], shares["change"])
            print(f"  {name:<22} "
                  + " ".join(f"{v:>9.4g}" for v in oq + nq)
                  + f" {spread:>8.3f} {delta:>+8.3f} {wins:>3}/{len(paired)}"
                  + f"  {call}"
                  + (f"  (not better at seeds {', '.join(others)})"
                     if others else ""))
        digests = [(s, before[s]["notes"].get("output_digest"),
                    after[s]["notes"].get("output_digest")) for s in paired]
        differing = [f"seed {s}: {a} -> {b}" for s, a, b in digests if a != b]
        print("  output_digest: " + (
            f"identical at all {len(paired)} paired seeds" if not differing
            else "DIFFERS at " + ", ".join(differing)))


def main():
    if len(sys.argv) != 3:
        print("usage: compare_results.py <parent-dir> <change-dir>",
              file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    compare(load(sys.argv[1]), load(sys.argv[2]), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
