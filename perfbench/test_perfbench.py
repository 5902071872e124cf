"""Self-tests of the benchmark on a tiny case (8^2 grid, 2 intervals).

    python3 -m pytest perfbench -q

The traced counts must equal counts derived by hand from the program's call
structure, every traced function must be replaced under every name it is
imported by, tracing must not change a single output byte, and
``BENCHMARK.json`` must name the metrics and workloads the benchmark reports.
"""

import contextlib
import io
import json
import math
import os
import sys
from collections import Counter, defaultdict

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from sbenflow import checks, cli, dissipation, oracle, sben  # noqa: E402
from sbenflow.fieldio import load_path_archive, save_path_archive  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import (BYTES_READ, BYTES_WRITTEN, ITERATIONS, LERAY_SHORTCUTS,  # noqa: E402
                    Tracer)
from workloads import WHY, WORKLOADS, _noisy, output_digest  # noqa: E402

N = 2        # intervals
N_REF = 8    # RK2 steps of the reference run
MAX_ITER = 25


@pytest.fixture
def config(tmp_path):
    raw = {
        "grid": {"nx": 8, "ny": 8, "lx": 2 * math.pi, "ly": 2 * math.pi},
        "eos": {"kind": "incompressible", "rho0": 1.0},
        "viscosity": {"mu": 0.1},
        "gravitation": {"preset": "zero"},
        "time": {"t_final": 0.1, "n_intervals": N, "n_ref": N_REF},
        "case": {"id": "taylor_green", "parameters": {"nu": 0.1, "amplitude": 1.0}},
        # tolerances out of reach: the minimizer runs MAX_ITER iterations,
        # one of them a restart
        "minimizer": {"max_iter": MAX_ITER, "tol_pi_rel": 1e-30, "tol_grad_rel": 1e-30},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


def _noisy_start(ref_dir, start_dir):
    ref = load_path_archive(ref_dir)
    start = ref.with_velocities(_noisy(ref.states, np.random.default_rng(0), kmax=2,
                                       share=0.10))
    save_path_archive(start_dir, start)


def _sizes(directory, names):
    return sum(os.path.getsize(os.path.join(directory, n)) for n in names)


def test_every_name_of_a_traced_function_is_replaced():
    originals = {(m, f): getattr(sys.modules[f"sbenflow.{m}"], f)
                 for m, table in tracing.FUNCTIONS.items() for f in table}
    modules = tracing._sbenflow_modules()
    with Tracer():
        for module in modules:
            for attr, value in vars(module).items():
                assert not any(value is fn for fn in originals.values()), \
                    f"{module.__name__}.{attr} bypasses its span"
        for owner, name, home in ((sben, "solve_k", "dissipation"),
                                  (checks, "solve_k", "dissipation"),
                                  (oracle, "leray_project", "sben"),
                                  (sben, "conjugate_gradient", "solvers"),
                                  (dissipation, "conjugate_gradient", "solvers")):
            assert getattr(owner, name) is not originals[(home, name)]
    assert sben.solve_k is originals[("dissipation", "solve_k")]
    assert cli.main is originals[("cli", "main")]


def test_traced_counts_match_hand_derived_counts(tmp_path, config):
    ref, ev = str(tmp_path / "ref"), str(tmp_path / "eval")
    start, mo = str(tmp_path / "start"), str(tmp_path / "min")
    tracer = Tracer()

    with tracer:
        _cli("reference", "--config", config, "--out", ref)
    c = tracer.counts
    assert c["cli"] == 1 and c["config.load"] == 1
    assert c["oracle.step"] == N_REF
    # the initial projection, then two stage projections and a final one per step
    assert c["sben.leray"] == 1 + 3 * N_REF
    # initial state and its projection, then per step the new state and its
    # clock-snapped copy
    assert c["balance.states"] == 2 + 2 * N_REF
    # archive, grid sidecar and one CSV per slice
    assert c["fieldio.save"] == 2 + (N + 1)
    assert c[BYTES_WRITTEN] == _sizes(ref, [n for n in os.listdir(ref) if n != "manifest.json"])

    tracer.reset()
    with tracer:
        _cli("evaluate", "--config", config, "--archive", ref, "--out", ev)
    c = tracer.counts
    # the interval core runs twice per interval: in the assembly and again in
    # multiplier_pressures; each run solves K once and evaluates phi twice
    assert c["dissipation.solve_k"] == 2 * N
    assert c["dissipation.phi"] == 4 * N
    # one projection per interval core plus one per recovered pressure
    assert c["sben.leray"] == 3 * N
    assert c["solvers.cg"] == c["dissipation.solve_k"] + c["sben.leray"] - c[LERAY_SHORTCUTS]
    assert c["sben.assemble"] == 1
    assert c["sben.pressures"] == 2
    assert c["balance.states"] == N + 1
    assert c["fieldio.load"] == 2 + (N + 1)
    assert c[BYTES_READ] == _sizes(ref, [n for n in os.listdir(ref) if n != "manifest.json"])
    assert c["fieldio.save"] == N
    assert c[BYTES_WRITTEN] == _sizes(ev, [f"pressure_{k:04d}.csv" for k in range(N)])
    assert c["oracle.step"] == 0 and c["sben.gradient"] == 0 and c[ITERATIONS] == 0

    _noisy_start(ref, start)
    tracer.reset()
    with tracer:
        _cli("minimize", "--config", config, "--warm-start", start, "--out", mo)
    c = tracer.counts
    with open(os.path.join(mo, "report.json")) as f:
        iterations = json.load(f)["iterations"]
    assert iterations == MAX_ITER
    assert c[ITERATIONS] == iterations
    # every path the minimizer builds (projected start, line-search trials,
    # restart projections) is assembled exactly once
    assert c["sben.assemble"] == c["sben.with_velocities"]
    # the start, each accepted step, and each restart every 20 iterations
    assert c["sben.gradient"] == 1 + iterations + iterations // 20
    assert c["sben.minimize"] == 1 and c["sben.pressures"] == 1


def test_traced_outputs_are_bit_identical_to_untraced(tmp_path, config):
    digests = []
    for traced in (False, True):
        base = tmp_path / f"traced{int(traced)}"
        ref, ev, start, mo = (str(base / d) for d in ("ref", "eval", "start", "min"))
        with Tracer() if traced else contextlib.nullcontext():
            _cli("reference", "--config", config, "--out", ref)
            _cli("evaluate", "--config", config, "--archive", ref, "--out", ev)
        _noisy_start(ref, start)
        with Tracer() if traced else contextlib.nullcontext():
            _cli("minimize", "--config", config, "--warm-start", start, "--out", mo)
        digests.append([output_digest(d) for d in (ref, ev, mo)])
    assert digests[0] == digests[1]


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert list(WHY) == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    layer_names = run.layer_metrics(Counter(), defaultdict(float))
    assert set(layer_names) | {"trace.overhead_frac"} == set(run.PER_LAYER)
