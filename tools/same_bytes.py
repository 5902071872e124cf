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

    python3 tools/same_bytes.py OUT --digest FILE

also writes FILE: one sha256 per output file, and the setup that made them
(numpy's version, the machine and numpy's enabled SIMD dispatch targets,
which can change how a kernel rounds).  tools/same_bytes.sha256.json is the
checked-in digest of the current outputs; tests/test_same_bytes.py compares
the matrix with it, so a change that moves an output byte updates it in the
same diff.

    python3 tools/same_bytes.py OUT --against OTHER

runs the matrix into OUT and compares it with OTHER, the OUT of another
checkout or setup: it prints one line per file that differs, with its
largest change, then the files found on one side only, then one summary
line: how many files moved, the largest CSV change and the largest report
change with their files, and every report.json whose iterations differ.
It exits 1 if the trees differ.  A report value (report.json, report.txt, a
log line) moves relative to that report's dissipation integral (a log
without one: relative to the value itself), a CSV value relative to the
field's max |value| in OTHER (inf in the summary when its cells differ);
integers, flags and words must be equal.  A binary copy is named
with its CSV.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
from typing import Optional

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


def setup() -> dict:
    """What the output bits may depend on besides the code."""
    from numpy._core import _multiarray_umath as umath
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def _tree(root: str) -> dict:
    """The bytes of every file below root, by its path relative to root."""
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def digest(out: str) -> dict:
    """sha256 of every file below OUT, by its path relative to OUT."""
    return {p: hashlib.sha256(b).hexdigest() for p, b in sorted(_tree(out).items())}


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")
DISSIPATION = re.compile(r"dissipation integral\s*:?\s*(" + NUMBER.pattern + ")")


def _report_change(new: bytes, old: bytes) -> tuple[float, str]:
    """The largest move of a report.json value, relative to the dissipation
    integral, and a line naming it, then every unequal integer, flag or word."""
    a, b = json.loads(new), json.loads(old)
    scale = abs(b["dissipation_integral"]) or 1.0
    words, worst, name = [], 0.0, None
    for key in sorted(set(a) | set(b)):
        xs, ys, labels = [a.get(key)], [b.get(key)], [key]
        if isinstance(xs[0], list) and isinstance(ys[0], list):
            xs, ys, labels = xs[0], ys[0], [f"{key}[{i}]" for i in range(len(ys[0]))]
            if len(xs) != len(ys):
                words.append(f"{key} has {len(xs)} entries, not {len(ys)}")
                continue
        for label, u, v in zip(labels, xs, ys):
            if isinstance(u, float) and isinstance(v, float):
                if abs(u - v) / scale > worst:
                    worst, name = abs(u - v) / scale, label
            elif u != v or type(u) is not type(v):
                words.append(f"{label} is {u!r}, not {v!r}")
    moved = f"{worst:.2e} of the dissipation integral ({name})" if name else "no value moved"
    return worst, "; ".join([moved] + words)


def _text_change(new: bytes, old: bytes) -> str:
    """The largest move of a number in a text file, or that its words differ."""
    a, b = new.decode(), old.decode()
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return "its words differ"
    found = DISSIPATION.search(b)
    pairs = [(float(u), float(v)) for u, v in zip(NUMBER.findall(a), NUMBER.findall(b))]
    if found:
        scale = abs(float(found.group(1))) or 1.0
        worst = max(abs(u - v) for u, v in pairs) / scale
        return f"{worst:.2e} of the dissipation integral"
    worst = max(abs(u - v) / (abs(v) or 1.0) for u, v in pairs)
    return f"{worst:.2e} of the value itself"


def _csv_change(new: bytes, old: bytes) -> Optional[float]:
    """The largest move of a CSV value, relative to the field's max |value|;
    None if the cells differ."""
    a, b = (np.loadtxt(io.StringIO(t.decode()), delimiter=",", skiprows=1, ndmin=2)
            for t in (new, old))
    if a.shape != b.shape or not np.array_equal(a[:, :2], b[:, :2]):
        return None
    scale = np.abs(b[:, 2:]).max() or 1.0
    return float(np.abs(a[:, 2:] - b[:, 2:]).max() / scale)


def compare(out: str, other: str) -> list[str]:
    """One line per file that differs between the trees OUT and OTHER (see
    the module docstring), then one per file found on one side only, then,
    if any line came before, the summary: how many files moved, the largest
    CSV and report changes, and every report.json whose iterations differ."""
    a, b = _tree(out), _tree(other)
    common = sorted(set(a) & set(b))
    moved = [p for p in common if a[p] != b[p]]
    lines, csv, report, iterations = [], (0.0, "none"), (0.0, "none"), []
    for path in moved:
        if path.endswith(".csv.f8"):
            change = "the binary copy of " + os.path.basename(path)[:-3]
        elif path.endswith(".csv"):
            worst = _csv_change(a[path], b[path])
            if worst is None:
                change, worst = "its cells differ", math.inf
            else:
                change = f"{worst:.2e} of the field's max |value|"
            csv = max(csv, (worst, path))
        elif path.endswith("report.json"):
            worst, change = _report_change(a[path], b[path])
            report = max(report, (worst, path))
            if json.loads(a[path]).get("iterations") != json.loads(b[path]).get("iterations"):
                iterations.append(path)
        else:
            change = _text_change(a[path], b[path])
        lines.append(f"{path}: {change}")
    lines += [f"only in {out}: {p}" for p in sorted(set(a) - set(b))]
    lines += [f"only in {other}: {p}" for p in sorted(set(b) - set(a))]
    if lines:
        lines.append(f"summary: {len(moved)} of {len(common)} files moved; largest CSV "
                     f"change {csv[0]:.2e} of the field's max |value| ({csv[1]}); largest "
                     f"report change {report[0]:.2e} of the dissipation integral ({report[1]}); "
                     f"iterations differ in {', '.join(iterations) or 'no report'}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) not in (2, 4) or (len(sys.argv) == 4
                                       and sys.argv[2] not in ("--digest", "--against")):
        sys.exit(__doc__)
    run_matrix(sys.argv[1])
    if len(sys.argv) == 4 and sys.argv[2] == "--digest":
        with open(sys.argv[3], "w") as f:
            json.dump({"setup": setup(), "files": digest(sys.argv[1])}, f, indent=1)
            f.write("\n")
    elif len(sys.argv) == 4:
        differences = compare(sys.argv[1], sys.argv[3])
        print("\n".join(differences) if differences else "no file differs")
        sys.exit(1 if differences else 0)
