"""The benchmark's workloads: seeded inputs, the CLI commands of one pass, and
the checks on each command's outputs.

Set-up builds a config file (and, where the workload needs one, an input
archive) from the seed; the program receives only those files.  One pass runs
the workload's commands through ``sbenflow.cli.main`` in order.  The checks
read the outputs with the small CSV reader below, not with ``sbenflow``, and
hold each output to an acceptance bound of the test suite.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sbenflow import fields as fd
from sbenflow.balance import IncompressibleEos
from sbenflow.config import load_config
from sbenflow.dissipation import ConjugateSolve
from sbenflow.fieldio import save_path_archive
from sbenflow.fields import Grid2P
from sbenflow.gravitation import Gravitation
from sbenflow.oracle import CaseSpec, reference_path, taylor_green_analytic
from sbenflow.sampling import random_solenoidal
from sbenflow.sben import assemble_pi_incompressible, incompressible_path

TWO_PI = 2.0 * math.pi
INCOMPRESSIBLE = {"kind": "incompressible", "rho0": 1.0}
BAROTROPIC = {"kind": "barotropic_power", "p0": 1.0, "rho0": 1.0, "gamma": 1.4}


@dataclass
class Check:
    """One output check: the measured value next to its bound."""

    name: str
    value: float
    bound: float
    at_least: bool = False  # True: value >= bound passes; False: value <= bound

    def __post_init__(self):
        self.value = float(self.value)

    @property
    def passed(self) -> bool:
        if not math.isfinite(self.value):
            return False
        return self.value >= self.bound if self.at_least else self.value <= self.bound

    def line(self) -> str:
        op = ">=" if self.at_least else "<="
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name} = {self.value:.6e} {op} {self.bound:g}  {verdict}"


@dataclass
class Command:
    """One CLI command of a pass.

    ``units`` is the work it does in its own unit (RK2 steps for reference,
    intervals for evaluate); ``check`` reads the command's outputs and returns
    its checks plus the correctness co-outputs worth recording."""

    kind: str
    argv: list
    out: str
    units: int
    check: Callable[[], tuple]


@dataclass
class Workload:
    name: str
    why: str
    nx: int          # grid size, nx = ny
    commands: list


# --- reading outputs ------------------------------------------------------------

def read_csv_field(path: str) -> np.ndarray:
    """Components of one ``i,j,c0[,c1..]`` field file, shape (n_comp, nx, ny)."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    i, j = rows[:, 0].astype(int), rows[:, 1].astype(int)
    data = np.zeros((rows.shape[1] - 2, i.max() + 1, j.max() + 1))
    data[:, i, j] = rows[:, 2:].T
    return data


def read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def output_digest(directory: str) -> str:
    """Hash of every output file.  ``report.json`` and ``report.txt`` carry the
    command's own wall time, the one field that is a measurement; it is left
    out, every other byte counts."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name == "report.json":
            table = read_json(path)
            table.pop("wall_time", None)
            content = json.dumps(table, sort_keys=True).encode()
        else:
            with open(path, "rb") as f:
                content = f.read()
            if name == "report.txt":
                content = b"\n".join(line for line in content.split(b"\n")
                                     if not line.startswith(b"wall time"))
        h.update(name.encode() + b"\0" + content + b"\0")
    return h.hexdigest()


def _finite_report(report: dict) -> Check:
    values = [report["total_pi"], report["dissipation_integral"]]
    for key in ("phi", "phi_star", "pairing", "gap"):
        values.extend(report[key])
    bad = sum(not math.isfinite(v) for v in values)
    return Check("non-finite report entries", float(bad), 0.0)


def _slice_count(archive: str, expected: int) -> Check:
    n = len(read_json(os.path.join(archive, "manifest.json"))["slices"])
    return Check(f"archive slices - {expected}", float(abs(n - expected)), 0.0)


# --- set-up helpers ---------------------------------------------------------------

def _write_config(work: str, nx: int, eos: dict, mu: float, t_final: float,
                  n_intervals: int, n_ref: int, case: str, params: dict, seed: int,
                  minimizer: dict | None = None) -> str:
    raw = {
        "grid": {"nx": nx, "ny": nx, "lx": TWO_PI, "ly": TWO_PI},
        "eos": eos,
        "viscosity": {"mu": mu},
        "gravitation": {"preset": "zero"},
        "time": {"t_final": t_final, "n_intervals": n_intervals, "n_ref": n_ref},
        "case": {"id": case, "parameters": params},
        "seed": seed,
    }
    if minimizer is not None:
        raw["minimizer"] = minimizer
    path = os.path.join(work, "config.json")
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    # the program's own loader: a config it rejects fails the set-up, not a pass
    load_config(path)
    return path


def _noisy(states, rng, kmax: int, share: float):
    """Free slices plus divergence-free noise at ``share`` of each slice's L2
    norm (the recipe of acceptance criterion 5)."""
    grid = states[0].grid
    out = []
    for s in states[1:]:
        noise = random_solenoidal(grid, rng, kmax=kmax)
        level = share * math.sqrt(fd.inner(s.v, s.v) / fd.inner(noise, noise))
        out.append(s.v + level * noise)
    return out


# --- workloads --------------------------------------------------------------------

def tg_pipeline_128(seed: int, work: str, out: str) -> Workload:
    rng = np.random.default_rng(seed)
    amplitude = 1.0 + 0.1 * (rng.random() - 0.5)
    n_intervals, n_ref = 4, 80
    config = _write_config(work, 128, INCOMPRESSIBLE, 0.05, 0.125, n_intervals, n_ref,
                           "taylor_green", {"nu": 0.05, "amplitude": amplitude}, seed)
    ref, ev = os.path.join(out, "ref"), os.path.join(out, "eval")

    def check_evaluate():
        report = read_json(os.path.join(ev, "report.json"))
        ratio = report["total_pi"] / report["dissipation_integral"]
        checks = [_finite_report(report), Check("Pi / int(phi)", ratio, 1e-3)]
        return checks, {"reference_path_functional": report["total_pi"],
                        "reference_path_dissipation_integral": report["dissipation_integral"]}

    return Workload("tg-pipeline-128", WHY["tg-pipeline-128"], 128, [
        Command("reference", ["reference", "--config", config, "--out", ref], ref, n_ref,
                lambda: ([_slice_count(ref, n_intervals + 1)], {})),
        Command("evaluate", ["evaluate", "--config", config, "--archive", ref, "--out", ev],
                ev, n_intervals, check_evaluate),
    ])


def tg_evaluate_noisy_64(seed: int, work: str, out: str) -> Workload:
    rng = np.random.default_rng(seed)
    grid = Grid2P(64, 64, TWO_PI, TWO_PI)
    n_intervals, t_final, nu = 8, 0.25, 0.05
    times = [k * t_final / n_intervals for k in range(n_intervals + 1)]
    states = [taylor_green_analytic(t, nu, grid)[0] for t in times]
    noisy = _noisy(states, rng, kmax=15, share=0.10)
    archive = os.path.join(work, "noisy")
    save_path_archive(archive, incompressible_path(grid, IncompressibleEos(1.0), times,
                                                   [states[0].v] + noisy))
    config = _write_config(work, 64, INCOMPRESSIBLE, nu, t_final, n_intervals, n_intervals,
                           "taylor_green", {"nu": nu, "amplitude": 1.0}, seed)
    ev = os.path.join(out, "eval")

    def check_evaluate():
        report = read_json(os.path.join(ev, "report.json"))
        # the scale of acceptance criterion 1: phi + phi* + 1
        worst = min(g / (p + ps + 1.0) for g, p, ps in
                    zip(report["gap"], report["phi"], report["phi_star"]))
        checks = [_finite_report(report),
                  Check("min interval gap / scale", worst, -1e-12, at_least=True)]
        return checks, {"noisy_path_functional": report["total_pi"]}

    return Workload("tg-evaluate-noisy-64", WHY["tg-evaluate-noisy-64"], 64, [
        Command("evaluate", ["evaluate", "--config", config, "--archive", archive, "--out", ev],
                ev, n_intervals, check_evaluate),
    ])


# The number of NCG iterations to the tolerance varies about twofold with the
# noise draw (78 to 165 over seeds 1-10 on a 4-interval path, 4 to 12 s), so a
# seeded draw would measure the draw, not the code: tg-recover-16 always uses
# this one.
RECOVER_NOISE_SEED = 42


def tg_recover_16(seed: int, work: str, out: str) -> Workload:
    rng = np.random.default_rng(RECOVER_NOISE_SEED)
    grid = Grid2P(16, 16, TWO_PI, TWO_PI)
    grav = Gravitation(grid, "zero")
    n_intervals, n_ref, t_final, mu = 2, 16, 0.25, 0.1
    case = CaseSpec("taylor_green", grid, t_final, n_ref, {"nu": mu, "amplitude": 1.0})
    ref = reference_path(case, mu, grav, n_out=n_intervals)
    start = ref.with_velocities(_noisy(ref.states, rng, kmax=3, share=0.10))
    archive = os.path.join(work, "start")
    save_path_archive(archive, start)
    start_pi = assemble_pi_incompressible(start, mu, grav, ConjugateSolve()).total_pi
    reference_v = np.stack([s.v.data for s in ref.states])
    config = _write_config(work, 16, INCOMPRESSIBLE, mu, t_final, n_intervals, n_ref,
                           "taylor_green", {"nu": mu, "amplitude": 1.0}, seed,
                           {"max_iter": 800, "tol_pi_rel": 1e-6, "tol_grad_rel": 1e-9})
    mo = os.path.join(out, "min")

    def check_minimize():
        report = read_json(os.path.join(mo, "report.json"))
        manifest = read_json(os.path.join(mo, "manifest.json"))
        recovered = np.stack([read_csv_field(os.path.join(mo, s["v"]))
                              for s in manifest["slices"]])
        rel_l2 = math.sqrt(((recovered - reference_v) ** 2).sum() / (reference_v ** 2).sum())
        reduction = start_pi / max(report["total_pi"], 1e-300)
        checks = [Check("Pi reduction factor", reduction, 10.0, at_least=True),
                  Check("recovered path L2 error vs reference", rel_l2, 0.05)]
        return checks, {"recovery_rel_l2": rel_l2, "recovery_iterations": report["iterations"],
                        "recovery_start_functional": start_pi,
                        "recovery_final_functional": report["total_pi"]}

    return Workload("tg-recover-16", WHY["tg-recover-16"], 16, [
        Command("minimize", ["minimize", "--config", config, "--warm-start", archive,
                             "--out", mo], mo, 1, check_minimize),
    ])


def cs_pipeline_64(seed: int, work: str, out: str) -> Workload:
    rng = np.random.default_rng(seed)
    amplitude = 0.01 * (1.0 + 0.1 * (rng.random() - 0.5))
    n_intervals, n_ref = 4, 256
    config = _write_config(work, 64, BAROTROPIC, 0.01, 0.25, n_intervals, n_ref,
                           "compressible_smooth",
                           {"gamma": 1.4, "amplitude": amplitude, "p0": 1.0, "rho0": 1.0},
                           seed)
    ref, ev = os.path.join(out, "ref"), os.path.join(out, "eval")

    def check_reference():
        slices = read_json(os.path.join(ref, "manifest.json"))["slices"]
        m0 = read_csv_field(os.path.join(ref, slices[0]["rho"])).sum()
        m1 = read_csv_field(os.path.join(ref, slices[-1]["rho"])).sum()
        return ([_slice_count(ref, n_intervals + 1),
                 Check("relative mass drift", abs(m1 - m0) / m0, 1e-12)], {})

    def check_evaluate():
        report = read_json(os.path.join(ev, "report.json"))
        return [_finite_report(report)], {
            "reference_path_functional": report["total_pi"],
            "reference_path_dissipation_integral": report["dissipation_integral"]}

    return Workload("cs-pipeline-64", WHY["cs-pipeline-64"], 64, [
        Command("reference", ["reference", "--config", config, "--out", ref], ref, n_ref,
                check_reference),
        Command("evaluate", ["evaluate", "--config", config, "--archive", ref, "--out", ev],
                ev, n_intervals, check_evaluate),
    ])


WHY = {
    "tg-pipeline-128": "smooth Taylor-Green reference then evaluate at 128^2: stepping, "
                       "Leray solves and archive I/O; K^-1 converges fast, no minimizer",
    "tg-evaluate-noisy-64": "evaluate on a 64^2 path with broadband solenoidal noise: "
                            "off-manifold, so conjugate K^-1 solves dominate",
    "tg-recover-16": "minimize a noisy 16^2 Taylor-Green path to tolerance: NCG line "
                     "search, adjoint gradient and many tiny solves",
    "cs-pipeline-64": "compressible reference then evaluate at 64^2: the only path "
                      "through the EOS and compressible assembly, no Leray projection",
}

WORKLOADS = {
    "tg-pipeline-128": tg_pipeline_128,
    "tg-evaluate-noisy-64": tg_evaluate_noisy_64,
    "tg-recover-16": tg_recover_16,
    "cs-pipeline-64": cs_pipeline_64,
}
