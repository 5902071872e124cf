"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs N [--seconds S] [--seed K]

runs ``perfbench/run.py --workload W --seconds S --trace 0`` in PARENT and in
CHANGE, each from its own root, N times each.  Pair i runs both with seed
K + i, and the side that runs first alternates from pair to pair, so that a
drift of the machine's speed falls on both sides alike.  It prints each
pair's end-to-end metrics, then per metric the pairs the change won (ties
count for neither side), both medians, the parent's quartiles with their
spread (the IQR) and a verdict:

  gain        the change wins at least 9/10 of the pairs and its median is
              better than the parent's by more than the IQR
  regression  the change's median is worse than the parent's by more than
              the bound (relative to the parent's median)
  unresolved  neither, and the IQR is wider than the bound, unless every
              run of the change reads better than every run of the parent
  flat        otherwise

Then, as diagnostics with no verdict, each side's medians over the pairs
of the raw pass_s and kernel_s that a run's record
(perfbench/out/results-W-seed<seed>-trace0.json) keeps: the pass's and the
calibration kernel's own times, whose ratio pass_rel is.  A pass_rel that
moves while pass_s stays is a move of the kernel's time (or of the heap
layout), not of the pass's work.  Each pair's line carries them too.

Whether a metric is better lower or higher, and its bound, are read from
PARENT's BENCHMARK.json (lower and no bound if it does not name the metric;
without a bound a metric is a gain or flat).  It exits 1 if a run fails or
reports itself not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Optional


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


RAW = ("pass_s", "kernel_s")     # the run record's timings printed without a verdict


def raw_medians(root: str, workload: str, seed: int) -> dict:
    """name -> the median the run record of the untraced run with this seed in
    the checkout root keeps, for each raw timing in RAW."""
    record = os.path.join(root, "perfbench", "out",
                          f"results-{workload}-seed{seed}-trace0.json")
    try:
        with open(record) as f:
            stats = json.load(f)["stats"]
    except FileNotFoundError:
        raise RuntimeError(f"{root}: no run record {record}") from None
    return {name: stats[name]["median"] for name in RAW}


def declared(root: str) -> dict:
    """metric name -> (True if lower is better, its relative bound or None),
    from root's BENCHMARK.json."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            metrics = json.load(f).get("end_to_end", [])
    except FileNotFoundError:
        return {}
    return {m["name"]: (m.get("better", "lower") == "lower", m.get("bound")) for m in metrics}


def summary(name: str, parent: list, change: list, lower: bool,
            bound: Optional[float] = None) -> str:
    sign = 1.0 if lower else -1.0      # sign * (p - c) > 0: the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
    else:
        q1 = q3 = parent[0]
    iqr = q3 - q1
    every_run_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if wins >= 0.9 * len(parent) and sign * (med_p - med_c) > iqr:
        verdict = "gain"
    elif bound is not None and sign * (med_c - med_p) > bound * abs(med_p):
        verdict = "regression"
    elif bound is not None and iqr > bound * abs(med_p) and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "flat"
    rel = (med_c - med_p) / med_p * 100.0 if med_p else float("nan")
    return (f"{name}: change better in {wins}/{len(parent)} pairs; median parent "
            f"{med_p:.6g} -> change {med_c:.6g} ({rel:+.1f} %); parent quartiles "
            f"{q1:.6g} .. {q3:.6g} (spread {iqr:.3g}); {verdict}")


def diagnostic(name: str, parent: list, change: list) -> str:
    """Both sides' medians of a raw timing, with no verdict."""
    med_p, med_c = statistics.median(parent), statistics.median(change)
    rel = (med_c - med_p) / med_p * 100.0 if med_p else float("nan")
    return (f"{name} (raw, no verdict): median parent {med_p:.6g} -> change {med_c:.6g} "
            f"({rel:+.1f} %)")


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
    raws: dict = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got, raw = {}, {}
            for side in order:
                got[side] = run_once(sides[side], args.workload, args.seed + i, args.seconds)
                raw[side] = raw_medians(sides[side], args.workload, args.seed + i)
                values[side].append(got[side])
                raws[side].append(raw[side])
            cells = "  ".join(f"{name} {got['parent'][name]:.6g} -> {got['change'][name]:.6g}"
                              for name in got["parent"])
            cells += "  " + "  ".join(f"raw {name} {raw['parent'][name]:.6g} -> "
                                      f"{raw['change'][name]:.6g}" for name in RAW)
            print(f"pair {i + 1} (seed {args.seed + i}, {order[0]} first): {cells}", flush=True)
    except RuntimeError as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        return 1

    metrics = declared(sides["parent"])
    for name in values["parent"][0]:
        parent = [v[name] for v in values["parent"]]
        change = [v[name] for v in values["change"]]
        print(summary(name, parent, change, *metrics.get(name, (True, None))))
    for name in RAW:
        print(diagnostic(name, [r[name] for r in raws["parent"]],
                         [r[name] for r in raws["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
