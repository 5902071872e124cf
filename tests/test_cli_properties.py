"""Every command ends in a documented exit on any one-leaf change of a valid config.

Two valid 16^2 configs, one of each kind, have one leaf replaced by a
non-finite, huge, tiny, boolean, string or null value, deleted, or given an
extra sibling key.  check, reference, evaluate and cold- and warm-start
minimize then exit 0, 2, 3 or 4 without raising; an extra key exits 2; and
a report written with exit 0 holds only finite numbers.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sbenflow.cli import main

from conftest import TWO_PI

BASES = {
    "incompressible": {
        "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI},
        "eos": {"kind": "incompressible", "rho0": 1.0},
        "viscosity": {"mu": 0.1},
        "gravitation": {"preset": "rigid_rotation", "parameters": {"omega": 0.8}},
        "time": {"t_final": 0.25, "n_intervals": 2, "n_ref": 4},
        "case": {"id": "taylor_green", "parameters": {"amplitude": 1.0}},
        "minimizer": {"max_iter": 2, "tol_pi_rel": 1e-8, "tol_grad_rel": 1e-6},
        "seed": 3,
    },
    "compressible": {
        "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI},
        "eos": {"kind": "barotropic_power", "p0": 1.0, "rho0": 1.0, "gamma": 1.4},
        "viscosity": {"mu": 0.1},
        "gravitation": {"preset": "uniform_gravity", "parameters": {"g0": 0.5}},
        "time": {"t_final": 0.25, "n_intervals": 2, "n_ref": 8},
        "case": {"id": "compressible_smooth", "parameters": {"amplitude": 0.05}},
        "minimizer": {"max_iter": 3},
        "seed": 3,
    },
}
MUTATIONS = (math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, True, "abc", None,
             "missing", "extra")


def _leaves(node, at=()):
    """The key paths of the scalar values of a JSON object."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, at + (key,))
        else:
            yield at + (key,)


LEAVES = [(kind, leaf) for kind, base in BASES.items() for leaf in _leaves(base)]


def _mutated(kind: str, leaf: tuple, mutation) -> dict:
    raw = json.loads(json.dumps(BASES[kind]))
    parent = raw
    for key in leaf[:-1]:
        parent = parent[key]
    if mutation == "missing":
        del parent[leaf[-1]]
    elif mutation == "extra":
        parent[leaf[-1] + "_extra"] = 1.0
    else:
        parent[leaf[-1]] = mutation
    return raw


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for x in node:
            yield from _numbers(x)
    elif isinstance(node, (int, float)):
        yield node


def _run(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def base_archives(tmp_path_factory):
    """A reference archive of each base config."""
    archives = {}
    for kind, raw in BASES.items():
        work = tmp_path_factory.mktemp(kind)
        (work / "cfg.json").write_text(json.dumps(raw))
        archives[kind] = str(work / "ref")
        assert _run(["reference", "--config", str(work / "cfg.json"),
                     "--out", archives[kind]]) == 0
    return archives


@settings(derandomize=True, max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(LEAVES), st.sampled_from(MUTATIONS))
def test_one_leaf_changed_ends_in_a_documented_exit(base_archives, kind_leaf, mutation):
    kind, leaf = kind_leaf
    with tempfile.TemporaryDirectory() as work:
        cfg = os.path.join(work, "cfg.json")
        with open(cfg, "w") as f:
            json.dump(_mutated(kind, leaf, mutation), f)
        ref = os.path.join(work, "ref")
        codes = {"check": _run(["check", "--config", cfg]),
                 "reference": _run(["reference", "--config", cfg, "--out", ref])}
        archive = ref if codes["reference"] == 0 else base_archives[kind]
        runs = {"evaluate": ["evaluate", "--archive", archive],
                "cold": ["minimize"], "warm": ["minimize", "--warm-start", archive]}
        for name, argv in runs.items():
            out = os.path.join(work, name)
            codes[name] = _run([argv[0], "--config", cfg, *argv[1:], "--out", out])
            if codes[name] == 0:
                with open(os.path.join(out, "report.json")) as f:
                    report = json.load(f)
                assert all(math.isfinite(x) for x in _numbers(report)), (name, report)
        assert set(codes.values()) <= {0, 2, 3, 4}, codes
        if mutation == "extra":
            assert set(codes.values()) == {2}, codes
