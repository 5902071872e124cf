#!/usr/bin/env python3
"""sbenflow benchmark: run a workload through the CLI, check its outputs and
report end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

    python3 perfbench/run.py --workload tg-recover-16 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --seed 1              # every workload, one process each

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of a run (every
metric with its median, quartiles, minimum and sample count, each check with its
bound, the correctness co-outputs and the run metadata) goes to
``perfbench/out/results-<workload>-seed<seed>-trace<t>.json``; a traced run
also writes its spans to ``perfbench/out/spans-<workload>-seed<seed>.npz``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread (set before numpy is imported): the program's hot loops are
# element-wise numpy, and one thread keeps timings steadier on a small shared
# machine.
BLAS_THREADS = 1
# at least three set-ups, and passes to check reproducibility against
MIN_PASSES = 3

# name -> (unit, better).  Other tenants of a shared machine slow it by up to
# 3x, for seconds to minutes at a time, so times are gated relative to a fixed
# numpy kernel run just before and after them, which slows down with them:
# pass_rel is a pass's wall time divided by the kernel's, and setup_s is a
# set-up's wall time at the kernel's nominal speed.  Each is the median over
# the run.  Wall times (setup_wall_s, pass_s and per command) are printed and
# recorded.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_rel": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# grid size -> (steps of the calibration kernel, its nominal time: a constant
# within the range it took in runs on a 2-core x86-64 machine, 12-33 ms)
CALIBRATION = {16: (1000, 0.032), 64: (400, 0.020), 128: (130, 0.013)}

PER_LAYER = {
    "solvers.cg.calls": ("count", "lower"),
    "solvers.cg.matvecs": ("count", "lower"),
    "solvers.cg.matvecs_per_call": ("matvecs/call", "lower"),
    "solvers.cg.self_s": ("s", "lower"),
    "solvers.cg.failures": ("count", "lower"),
    "dissipation.solve_k.calls": ("count", "lower"),
    "dissipation.solve_k.self_s": ("s", "lower"),
    "dissipation.apply_k.calls": ("count", "lower"),
    "dissipation.apply_k.self_s": ("s", "lower"),
    "dissipation.phi.self_s": ("s", "lower"),
    "sben.leray.calls": ("count", "lower"),
    "sben.leray.self_s": ("s", "lower"),
    "sben.leray.shortcut_frac": ("frac", "higher"),
    "sben.assemble.calls": ("count", "lower"),
    "sben.assemble.self_s": ("s", "lower"),
    "sben.gradient.calls": ("count", "lower"),
    "sben.gradient.self_s": ("s", "lower"),
    "sben.pressures.self_s": ("s", "lower"),
    "sben.trial_paths": ("count", "lower"),
    "sben.minimize.iterations": ("count", "lower"),
    "sben.minimize.trials_per_iter": ("trials/iter", "lower"),
    "oracle.steps": ("count", "lower"),
    "oracle.step.self_s": ("s", "lower"),
    "fields.calls": ("count", "lower"),
    "fields.self_s": ("s", "lower"),
    "fieldio.save.self_s": ("s", "lower"),
    "fieldio.load.self_s": ("s", "lower"),
    "fieldio.bytes_written": ("B", "lower"),
    "fieldio.bytes_read": ("B", "lower"),
    "balance.states_built": ("count", "lower"),
    "balance.states.self_s": ("s", "lower"),
    "balance.eos.calls": ("count", "lower"),
    "gravitation.calls": ("count", "lower"),
    "gravitation.self_s": ("s", "lower"),
    "config.load.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def import_program():
    """Put the checkout's ``src/`` first on the path and import the CLI; exit
    non-zero, printing no result, when the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "sbenflow", "cli.py")):
        sys.exit(f"benchmark: no sbenflow sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from sbenflow import cli
    return cli


# --- statistics -------------------------------------------------------------------

def summary(values: list) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": values[0],
            "n": len(values)}


def calibration_s(nx: int) -> float:
    """Wall time of a fixed numpy kernel: stencil updates of a vector field on
    the workload's grid, the program's kind of work.  It measures how fast the
    machine runs right now, independent of the program."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 3 * nx * nx).reshape(3, nx, nx)
    start = time.perf_counter()
    for _ in range(CALIBRATION[nx][0]):
        a = a + 1e-3 * (np.roll(a, 1, axis=1) - np.roll(a, -1, axis=1))
    return time.perf_counter() - start


def layer_metrics(counts, self_time) -> dict:
    """Per-layer numbers of one traced pass, named as in ``PER_LAYER``."""
    from tracer import (BYTES_READ, BYTES_WRITTEN, CG_FAILURES, ITERATIONS,
                        LERAY_SHORTCUTS, MATVECS)
    cg, leray, iters = counts["solvers.cg"], counts["sben.leray"], counts[ITERATIONS]
    return {
        "solvers.cg.calls": cg,
        "solvers.cg.matvecs": counts[MATVECS],
        "solvers.cg.matvecs_per_call": counts[MATVECS] / cg if cg else 0.0,
        "solvers.cg.self_s": self_time["solvers.cg"],
        "solvers.cg.failures": counts[CG_FAILURES],
        "dissipation.solve_k.calls": counts["dissipation.solve_k"],
        "dissipation.solve_k.self_s": self_time["dissipation.solve_k"],
        "dissipation.apply_k.calls": counts["dissipation.apply_k"],
        "dissipation.apply_k.self_s": self_time["dissipation.apply_k"],
        "dissipation.phi.self_s": self_time["dissipation.phi"],
        "sben.leray.calls": leray,
        "sben.leray.self_s": self_time["sben.leray"],
        "sben.leray.shortcut_frac": counts[LERAY_SHORTCUTS] / leray if leray else 0.0,
        "sben.assemble.calls": counts["sben.assemble"],
        "sben.assemble.self_s": self_time["sben.assemble"],
        "sben.gradient.calls": counts["sben.gradient"],
        "sben.gradient.self_s": self_time["sben.gradient"],
        "sben.pressures.self_s": self_time["sben.pressures"],
        "sben.trial_paths": counts["sben.with_velocities"],
        "sben.minimize.iterations": iters,
        "sben.minimize.trials_per_iter":
            counts["sben.with_velocities"] / iters if iters else 0.0,
        "oracle.steps": counts["oracle.step"],
        "oracle.step.self_s": self_time["oracle.step"],
        "fields.calls": counts["fields"],
        "fields.self_s": self_time["fields"],
        "fieldio.save.self_s": self_time["fieldio.save"],
        "fieldio.load.self_s": self_time["fieldio.load"],
        "fieldio.bytes_written": counts[BYTES_WRITTEN],
        "fieldio.bytes_read": counts[BYTES_READ],
        "balance.states_built": counts["balance.states"],
        "balance.states.self_s": self_time["balance.states"],
        "balance.eos.calls": counts["balance.eos"],
        "gravitation.calls": counts["gravitation"],
        "gravitation.self_s": self_time["gravitation"],
        "config.load.self_s": self_time["config.load"],
        "cli.self_s": self_time["cli"],
    }


# --- metadata -----------------------------------------------------------------------

def git_revision():
    """Commit of the checkout; None when it is not a repository (git does not
    look above the checkout) or git is missing."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    total += sum(1 for _ in f)
    return total


def metadata() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines(),
        "machine": platform.machine(),
    }


# --- one workload ---------------------------------------------------------------------

class Runner:
    def __init__(self, cli, name: str, seed: int):
        from workloads import WORKLOADS
        self.cli = cli
        self.seed = seed
        self.factory = WORKLOADS[name]
        self.work = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
        self.out = os.path.join(self.work, "out")
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.checks: dict = {}      # (command, check name) -> worst Check seen
        self.co_outputs: dict = {}
        self.command_times: dict = {}
        self.setup_times: list = []
        self.inputs = None

    def setup(self) -> float:
        """Build the inputs afresh; returns its wall time.  It runs before
        every pass, so that the set-up samples spread over the run like the
        passes do."""
        previous = self.inputs
        self.inputs = os.path.join(self.work, f"inputs{len(self.setup_times)}")
        os.makedirs(self.inputs)
        start = time.perf_counter()
        self.workload = self.factory(self.seed, self.inputs, self.out)
        self.setup_times.append(time.perf_counter() - start)
        if previous is not None:
            shutil.rmtree(previous)
        return self.setup_times[-1]

    def run_pass(self) -> float:
        """Run every command once; returns the summed command wall time."""
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        total = 0.0
        for cmd in self.workload.commands:
            self.attempted += 1
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(cmd.argv)
                error = None if code == 0 else f"exit code {code}"
            except Exception as exc:  # a traceback is a failed command, not a dead run
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            total += elapsed
            self.command_times.setdefault(cmd.kind, []).append((elapsed, cmd.units))
            if error is None:
                error = self.check(cmd)
            if error is not None:
                self.failed += 1
                self.failures.append(f"{cmd.kind}: {error}")
        return total

    def check(self, cmd):
        from workloads import output_digest
        try:
            checks, co = cmd.check()
            digest = output_digest(cmd.out)
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        for c in checks:
            key = (cmd.kind, c.name)
            old = self.checks.get(key)
            if old is None or (c.value < old.value if c.at_least else c.value > old.value) \
                    or not c.passed:
                self.checks[key] = c
        self.co_outputs.update({k: v for k, v in co.items() if k not in self.co_outputs})
        first = self.digests.setdefault(cmd.kind, digest)
        bad = [c.line() for c in checks if not c.passed]
        if digest != first:
            bad.append("outputs differ from the first pass of this seed")
        return "; ".join(bad) or None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def measure(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(cli, name, seed)
    try:
        if trace:
            body = traced_passes(runner, seconds, name, seed)
        else:
            body = timed_passes(runner, seconds)
    finally:
        runner.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = {"setup_wall_s": summary(runner.setup_times), **body.pop("stats")}
    if not trace:
        stats["peak_rss_mb"] = summary([peak_mb])
    for kind, samples in runner.command_times.items():
        key = {"reference": "reference_steps_per_s",
               "evaluate": "evaluate_intervals_per_s"}.get(kind)
        if key:
            stats[key] = summary([units / t for t, units in samples])
        else:
            stats[f"{kind}_s"] = summary([t for t, _ in samples])
    return {
        "workload": name, "why": runner.workload.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "metadata": metadata(), "stats": stats,
        "checks": [{"command": k[0], "name": c.name, "value": c.value, "bound": c.bound,
                    "op": ">=" if c.at_least else "<=", "passed": c.passed}
                   for k, c in runner.checks.items()],
        "co_outputs": runner.co_outputs,
        "attempted": runner.attempted, "failed": runner.failed,
        "fail_frac": runner.failed / max(runner.attempted, 1),
        "failures": runner.failures, **body,
    }


def timed_passes(runner: Runner, seconds: float) -> dict:
    """Set-up and pass in turn, each between two runs of the calibration
    kernel (the first set-up has only the one after it)."""
    setups, passes, relative, kernels = [], [], [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        setup = runner.setup()
        nx = runner.workload.nx
        ready = calibration_s(nx)
        before = kernels[-1] if kernels else ready
        setups.append(CALIBRATION[nx][1] * setup / (0.5 * (before + ready)))
        passes.append(runner.run_pass())
        kernels += [ready, calibration_s(nx)]
        relative.append(passes[-1] / (0.5 * (ready + kernels[-1])))
        lap = time.perf_counter() - lap
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + lap > seconds:
            break
    return {"stats": {"setup_s": summary(setups), "pass_s": summary(passes),
                      "pass_rel": summary(relative), "kernel_s": summary(kernels)}}


def traced_passes(runner: Runner, seconds: float, name: str, seed: int) -> dict:
    """Untraced and traced passes in turn; per-layer numbers from the traced
    ones, tracing overhead from the pair."""
    from tracer import Tracer
    tracer = Tracer()
    plain, traced, layers, counts = [], [], [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        runner.setup()
        plain.append(runner.run_pass())
        tracer.reset()
        with tracer:
            traced.append(runner.run_pass())
        layers.append(layer_metrics(tracer.counts, tracer.self_time))
        counts.append(dict(tracer.counts))
        lap = time.perf_counter() - lap
        if len(traced) >= MIN_PASSES and time.perf_counter() - start + lap > seconds:
            break
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{name}-seed{seed}.npz")
    tracer.write(spans_file)
    stats = {key: summary([m[key] for m in layers]) for key in layers[0]}
    stats["trace.overhead_frac"] = summary(
        [t / p - 1.0 for t, p in zip(traced, plain)])
    stats["pass_s"] = summary(plain)
    stats["traced_pass_s"] = summary(traced)
    return {"stats": stats, "counts_repeat": all(c == counts[0] for c in counts),
            "spans": len(tracer.span_name), "spans_file": os.path.relpath(spans_file, ROOT)}


# --- reporting -------------------------------------------------------------------------

UNITS = {**{k: v[0] for k, v in END_TO_END.items()}, **{k: v[0] for k, v in PER_LAYER.items()},
         "setup_wall_s": "s", "kernel_s": "s", "pass_s": "s", "reference_steps_per_s": "1/s", "evaluate_intervals_per_s": "1/s",
         "minimize_s": "s", "traced_pass_s": "s"}


def report(record: dict) -> dict:
    """Print the run for a reader and return the result line."""
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['why']}")
    for key, s in record["stats"].items():
        print(f"  {key:32s} {s['median']:.6g} {UNITS.get(key, '')}  (median of {s['n']}; "
              f"quartiles {s['q1']:.6g} .. {s['q3']:.6g}; min {s['min']:.6g})")
    print(f"  {'fail_frac':32s} {record['fail_frac']:.6g}  "
          f"({record['failed']} of {record['attempted']} commands failed)")
    for c in record["checks"]:
        verdict = "PASS" if c["passed"] else "FAIL"
        print(f"  check {c['command']}: {c['name']} = {c['value']:.6e} "
              f"{c['op']} {c['bound']:g}  {verdict}")
    for key, value in record["co_outputs"].items():
        print(f"  co-output {key} = {value!r}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record["trace"]:
        print(f"  {record['spans']} spans written to {record['spans_file']}; "
              f"counts repeat across traced passes: {record['counts_repeat']}")
        names = PER_LAYER
    else:
        names = END_TO_END
    correct = record["failed"] == 0 and record.get("counts_repeat", True)
    return {"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {k: {"value": record["stats"][k]["median"], "unit": unit}
                        for k, (unit, _) in names.items()}}


def run_all(args) -> dict:
    """Every workload in a process of its own, so that memory peaks and
    caches do not carry over."""
    from workloads import WORKLOADS
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            result["correct"] = False
            continue
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="workload name (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    cli = import_program()
    from workloads import WORKLOADS
    if args.workload is None:
        result = run_all(args)
    else:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        record = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace))
        result = report(record)
        record["result"] = result
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"results-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        print(f"  record written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
