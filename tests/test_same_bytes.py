"""tools/same_bytes.py, the same-bytes check: the matrix gives the same tree
on every run (identical inputs, bit-identical outputs), and that tree is the
one tools/same_bytes.sha256.json records, file by file."""

import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
TOOL = os.path.join(TOOLS, "same_bytes.py")
DIGEST = os.path.join(TOOLS, "same_bytes.sha256.json")


def _tool():
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root):
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """The matrix run twice, each in a fresh process: (OUT, tree) pairs."""
    runs = []
    for name in ("a", "b"):
        out = tmp_path_factory.mktemp(name)
        os.rmdir(out)
        subprocess.run([sys.executable, TOOL, str(out)], check=True)
        runs.append((str(out), _tree(out)))
    return runs


def test_same_bytes_matrix_is_deterministic(matrix):
    (_, tree), (_, again) = matrix
    assert tree == again
    logs = [p for p in tree if p.endswith(".log")]
    assert len(logs) == 6 * 6 + 4 * 3
    assert all(tree[p].startswith(b"exit 0\n") for p in logs)
    reports = [p for p in tree if p.endswith("report.json")]
    assert len(reports) == 6 * 5 + 4 * 2
    assert all("wall_time" not in json.loads(tree[p]) for p in reports)
    # one binary copy beside each CSV an archive's manifest names, none elsewhere
    named = set()
    for p in tree:
        if os.path.basename(p) == "manifest.json":
            manifest = json.loads(tree[p])
            slices = manifest["slices"]
            names = ([entry["v"] for entry in slices] + manifest.get("pressures", [])
                     + [entry["rho"] for entry in slices if "rho" in entry])
            named |= {os.path.join(os.path.dirname(p), name + ".f8") for name in names}
    assert {p for p in tree if p.endswith(".csv.f8")} == named
    # an evaluate's output: its report and its pressures (41 in all), no copy
    evaluated = {os.path.dirname(p) for p in reports} - {os.path.dirname(p) for p in named}
    assert len(evaluated) == 6 * 2 + 4
    outputs = [os.path.basename(p) for p in tree if os.path.dirname(p) in evaluated]
    assert all(re.fullmatch(r"report\.(json|txt)|pressure_\d{4}\.csv", name) for name in outputs)
    assert len(outputs) == 2 * len(evaluated) + 41


def test_same_bytes_matrix_matches_the_digest(matrix):
    # a change that moves an output byte updates the digest in the same diff
    # (python3 tools/same_bytes.py OUT --digest tools/same_bytes.sha256.json)
    tool = _tool()
    with open(DIGEST) as f:
        recorded = json.load(f)
    here = tool.setup()
    if here != recorded["setup"]:
        pytest.skip(f"the digest was made with {recorded['setup']}, this machine has "
                    f"{here}: its bits cannot be compared")
    got = tool.digest(matrix[0][0])
    want = recorded["files"]
    assert sorted(set(want) - set(got)) == [], "files the matrix no longer writes"
    assert sorted(set(got) - set(want)) == [], "files the digest does not hold"
    assert [p for p in want if got[p] != want[p]] == [], "files whose bytes moved"


def test_against_names_each_files_largest_change(tmp_path):
    # two tiny trees: a CSV value moved by one ulp, a report value by 1e-14
    # of the dissipation integral, a copy beside the moved CSV, and a file
    # on each side only
    from sbenflow.fields import Grid2P, ScalarField
    from sbenflow.fieldio import save_scalar
    tool = _tool()
    old, new = tmp_path / "old", tmp_path / "new"
    values = np.linspace(-1.0, 0.5, 16).reshape(4, 4)
    report = {"total_pi": 0.5, "dissipation_integral": 1.0, "phi": [0.5, 0.0],
              "iterations": 3, "converged": True}
    for root, moved in ((old, False), (new, True)):
        os.makedirs(root / "case")
        field = values.copy()
        if moved:
            field[0, 0] = np.nextafter(-1.0, 0.0)
            report["phi"][1] += 1e-14
        save_scalar(str(root / "case" / "p.csv"), ScalarField(Grid2P(4, 4, 1.0, 1.0), field))
        (root / "case" / "p.csv.f8").write_bytes(b"new" if moved else b"old")
        (root / "case" / "report.json").write_text(json.dumps(report))
        (root / "case" / "same.log").write_text("exit 0\n")
        (root / ("extra" if moved else "gone")).write_text("")
    assert tool.compare(str(new), str(old)) == [
        "case/p.csv: 1.11e-16 of the field's max |value|",
        "case/p.csv.f8: the binary copy of p.csv",
        "case/report.json: 1.00e-14 of the dissipation integral (phi[1])",
        f"only in {new}: extra",
        f"only in {old}: gone"]
    report["iterations"], report["converged"] = 4, False
    (new / "case" / "report.json").write_text(json.dumps(report))
    assert tool.compare(str(new), str(old))[2] == (
        "case/report.json: 1.00e-14 of the dissipation integral (phi[1]); "
        "converged is False, not True; iterations is 4, not 3")
    assert tool.compare(str(old), str(old)) == []
