"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs N [--seconds S] [--seed K]

runs ``perfbench/run.py --workload W --seconds S --trace 0`` in PARENT and in
CHANGE, each from its own root, N times each.  Pair i runs both with seed
K + i, and the side that runs first alternates from pair to pair, so that a
drift of the machine's speed falls on both sides alike.  It prints each
pair's end-to-end metrics, then per metric the pairs the change won (ties
count for neither side), both medians and the parent's quartiles with their
spread.  Whether a metric is better lower or higher is read from PARENT's
BENCHMARK.json (lower if it does not name the metric).  It exits 1 if a run
fails or reports itself not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The metrics (name -> value) of one untraced run in the checkout root."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: perfbench/run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: the run is not correct ({result['failed']} of "
                           f"{result['attempted']} commands failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def better_lower(root: str) -> dict:
    """metric name -> True if lower is better, from root's BENCHMARK.json."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            declared = json.load(f).get("end_to_end", [])
    except FileNotFoundError:
        return {}
    return {m["name"]: m.get("better", "lower") == "lower" for m in declared}


def summary(name: str, parent: list, change: list, lower: bool) -> str:
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
    else:
        q1 = q3 = parent[0]
    rel = (med_c - med_p) / med_p * 100.0 if med_p else float("nan")
    return (f"{name}: change better in {wins}/{len(parent)} pairs; median parent "
            f"{med_p:.6g} -> change {med_c:.6g} ({rel:+.1f} %); parent quartiles "
            f"{q1:.6g} .. {q3:.6g} (spread {q3 - q1:.3g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    values: dict = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {side: run_once(sides[side], args.workload, args.seed + i, args.seconds)
                   for side in order}
            for side in order:
                values[side].append(got[side])
            cells = "  ".join(f"{name} {got['parent'][name]:.6g} -> {got['change'][name]:.6g}"
                              for name in got["parent"])
            print(f"pair {i + 1} (seed {args.seed + i}, {order[0]} first): {cells}", flush=True)
    except RuntimeError as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        return 1

    lower = better_lower(sides["parent"])
    for name in values["parent"][0]:
        parent = [v[name] for v in values["parent"]]
        change = [v[name] for v in values["change"]]
        print(summary(name, parent, change, lower.get(name, True)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
