"""tools/same_bytes.py, the same-bytes check between two checkouts, gives
the same tree on every run: identical inputs, bit-identical outputs."""

import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "same_bytes.py")


def _tree(root):
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def test_same_bytes_matrix_is_deterministic(tmp_path):
    trees = []
    for name in ("a", "b"):
        subprocess.run([sys.executable, TOOL, str(tmp_path / name)], check=True)
        trees.append(_tree(tmp_path / name))
    assert trees[0] == trees[1]
    logs = [p for p in trees[0] if p.endswith(".log")]
    assert len(logs) == 6 * 6 + 3 * 3
    assert all(trees[0][p].startswith(b"exit 0\n") for p in logs)
    reports = [p for p in trees[0] if p.endswith("report.json")]
    assert len(reports) == 6 * 5 + 3 * 2
    assert all("wall_time" not in json.loads(trees[0][p]) for p in reports)
