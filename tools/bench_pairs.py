#!/usr/bin/env python3
"""Alternating pairs of one perfbench workload: a parent checkout against this one.

    python3 tools/bench_pairs.py --parent CHECKOUT --workload jump_dump --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once from the parent checkout
(P) and once from this checkout (C), one process at a time, each for
BENCHMARK.json's ``run_seconds``; odd pairs run P first and even pairs C
first.  Each side runs its own ``perfbench/`` on its
own ``src/``, so the two checkouts should hold the same benchmark.

Prints a markdown table: each pair's end-to-end metrics as P / C, then their
medians with the change/parent ratio, the number of pairs in which C was
better (by the metric's direction in BENCHMARK.json; ties count for neither)
and the distance between the quartiles of P's runs.  A run that fails or
reports ``correct: false`` is named on standard error, and its pair is left
out of the table.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_bench(root: Path, workload: str, seconds: float) -> dict | None:
    """The metrics one perfbench run of ``root`` reports, or None if it failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        tail = (proc.stderr.strip().splitlines() or lines or ["no output"])[-1]
        print(f"failed: {root} exited {proc.returncode}: {tail}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(spec: dict, parent: list, change: list) -> str:
    """One metric's median cell: P / C medians, ratio, C's wins, P's IQR."""
    p, c = statistics.median(parent), statistics.median(change)
    sign = -1 if spec["better"] == "lower" else 1
    wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (p, p, p)
    return (f"{p:.4g} / {c:.4g} (C/P {c / p:.3f}, C {spec['better']} "
            f"{wins}/{len(parent)}, P IQR {q3 - q1:.3g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="source checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py in {args.parent}")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"P": args.parent.resolve(), "C": REPO}

    print("| workload | pair (first) | " + " | ".join(f"{m} P / C" for m in metrics) + " |")
    print("|---|---|" + "---|" * len(metrics), flush=True)
    parent, change = [], []
    for i in range(1, args.pairs + 1):
        order = "PC" if i % 2 else "CP"
        got = {side: run_bench(sides[side], args.workload, spec["run_seconds"])
               for side in order}
        if got["P"] is None or got["C"] is None:
            continue
        parent.append(got["P"])
        change.append(got["C"])
        print(f"| {args.workload} | {i} ({order[0]}) | " + " | ".join(
            f"{got['P'][m]:.4g} / {got['C'][m]:.4g}" for m in metrics) + " |", flush=True)
    if not parent:
        print("bench_pairs: no pair completed", file=sys.stderr)
        return 1
    print(f"| {args.workload} | median | " + " | ".join(
        summary(metrics[m], [r[m] for r in parent], [r[m] for r in change])
        for m in metrics) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
