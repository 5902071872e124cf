"""Run a fixed matrix of sbenflow commands and keep every output byte but the
wall times, so that two checkouts can be compared file by file.

    python3 tools/same_bytes.py OUT

runs, with this checkout's ``src``, for both kinds of fluid under each
gravitation preset on a 16^2 grid: ``reference``, ``evaluate`` on its
archive, a cold-start ``minimize``, ``evaluate`` on its archive and a
``minimize`` warm-started from it (an incompressible one holds pressure
CSVs, so they are read back and written again), and a ``minimize``
warm-started from the reference with seeded noise; then ``evaluate`` and a warm-started
``minimize`` on noisy 32^2 paths of ten intervals of both kinds, which span
three blocks of the functional's time batching, on a noisy 64^2 path of
three intervals, where every block is one slice, and on a noisy incompressible
path of four intervals on an unequal 15x12 grid with an odd side.
Each command writes below OUT/<case>/; its exit code and printed lines go to
OUT/<case>/<command>.log.  The ``wall_time`` entry of ``report.json`` and
the ``wall time`` line of ``report.txt``, the only measurements among the
outputs, are dropped.  Then

    diff -r A B

between the OUTs of two checkouts is empty exactly when they write the same
bytes.  The whole matrix takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import numpy as np  # noqa: E402

from sbenflow import fields as fd  # noqa: E402
from sbenflow.cli import main  # noqa: E402
from sbenflow.fieldio import load_path_archive, save_path_archive  # noqa: E402
from sbenflow.sampling import random_solenoidal  # noqa: E402

TWO_PI = 2.0 * math.pi
FLUIDS = {
    "incompressible": ({"kind": "incompressible", "rho0": 1.3},
                       {"id": "taylor_green", "parameters": {"amplitude": 1.0}}),
    "compressible": ({"kind": "barotropic_power", "p0": 1.0, "rho0": 1.0, "gamma": 1.4},
                     {"id": "compressible_smooth", "parameters": {"amplitude": 0.05}}),
}
GRAVITATION = {
    "zero": {"preset": "zero"},
    "uniform_gravity": {"preset": "uniform_gravity", "parameters": {"g0": 0.5}},
    "rigid_rotation": {"preset": "rigid_rotation", "parameters": {"omega": 0.8}},
}


def _config(directory: str, nx: int, eos: dict, case: dict, gravitation: dict,
            n_intervals: int, n_ref: int, ny: int | None = None) -> str:
    raw = {"grid": {"nx": nx, "ny": nx if ny is None else ny, "lx": TWO_PI, "ly": TWO_PI},
           "eos": eos,
           "viscosity": {"mu": 0.1}, "gravitation": gravitation,
           "time": {"t_final": 0.25, "n_intervals": n_intervals, "n_ref": n_ref},
           "case": case, "minimizer": {"max_iter": 4}, "seed": 1}
    path = os.path.join(directory, "config.json")
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    return path


def _noisy(archive: str, out: str, seed: int, kmax: int):
    """The archive's path with solenoidal noise at a tenth of each free slice's norm."""
    path = load_path_archive(archive)
    rng = np.random.default_rng(seed)
    free = []
    for s in path.states[1:]:
        noise = random_solenoidal(path.grid, rng, kmax=kmax)
        free.append(s.v + 0.1 * math.sqrt(fd.inner(s.v, s.v) / fd.inner(noise, noise)) * noise)
    save_path_archive(out, path.with_velocities(free))


def _run(root: str, directory: str, name: str, argv: list):
    """One CLI command, its exit code and printed lines logged (with OUT for
    root, the output directory); wall times dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    with open(os.path.join(directory, f"{name}.log"), "w") as f:
        f.write(f"exit {code}\n" + out.getvalue().replace(root, "OUT"))
    target = argv[argv.index("--out") + 1]
    report = os.path.join(target, "report.json")
    if os.path.exists(report):
        with open(report) as f:
            table = json.load(f)
        table.pop("wall_time")
        with open(report, "w") as f:
            json.dump(table, f, indent=1)
        text = os.path.join(target, "report.txt")
        with open(text) as f:
            lines = [line for line in f if not line.startswith("wall time")]
        with open(text, "w") as f:
            f.writelines(lines)


def run_matrix(out: str):
    for kind, (eos, case) in FLUIDS.items():
        for preset, gravitation in GRAVITATION.items():
            d = os.path.join(out, f"{kind}-{preset}")
            os.makedirs(d)
            cfg = _config(d, 16, eos, case, gravitation, n_intervals=4, n_ref=16)
            ref, warm = os.path.join(d, "ref"), os.path.join(d, "warm")
            _run(out, d, "reference", ["reference", "--config", cfg, "--out", ref])
            _run(out, d, "evaluate", ["evaluate", "--config", cfg, "--archive", ref,
                                 "--out", os.path.join(d, "eval")])
            cold = os.path.join(d, "min-cold")
            _run(out, d, "minimize-cold", ["minimize", "--config", cfg, "--out", cold])
            # a minimized incompressible archive holds its pressures: read them back
            _run(out, d, "evaluate-cold", ["evaluate", "--config", cfg, "--archive", cold,
                                           "--out", os.path.join(d, "eval-cold")])
            _run(out, d, "minimize-from-cold", ["minimize", "--config", cfg,
                                                "--warm-start", cold,
                                                "--out", os.path.join(d, "min-from-cold")])
            _noisy(ref, warm, seed=3, kmax=3)
            _run(out, d, "minimize-warm", ["minimize", "--config", cfg, "--warm-start", warm,
                                      "--out", os.path.join(d, "min-warm")])
    for name, kind, (nx, ny), preset, n_intervals, n_ref, kmax in (
            ("noisy-32", "incompressible", (32, 32), "rigid_rotation", 10, 40, 8),
            ("noisy-64", "incompressible", (64, 64), "zero", 3, 21, 8),
            ("noisy-15x12", "incompressible", (15, 12), "zero", 4, 16, 5),
            ("noisy-compressible-32", "compressible", (32, 32), "rigid_rotation", 10, 40, 8)):
        eos, case = FLUIDS[kind]
        d = os.path.join(out, name)
        os.makedirs(d)
        cfg = _config(d, nx, eos, case, GRAVITATION[preset], n_intervals, n_ref, ny)
        ref, noisy = os.path.join(d, "ref"), os.path.join(d, "noisy")
        _run(out, d, "reference", ["reference", "--config", cfg, "--out", ref])
        _noisy(ref, noisy, seed=5, kmax=kmax)
        _run(out, d, "evaluate", ["evaluate", "--config", cfg, "--archive", noisy,
                                  "--out", os.path.join(d, "eval")])
        _run(out, d, "minimize-warm", ["minimize", "--config", cfg, "--warm-start", noisy,
                                       "--out", os.path.join(d, "min-warm")])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run_matrix(sys.argv[1])
