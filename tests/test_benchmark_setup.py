"""The benchmark's own inputs pass the program's entry checks.

perfbench/workloads.py writes each workload's config (and, where it needs
one, an input archive) at set-up.  A config rule that rejected them would
fail only at benchmark time; this test builds every set-up, without changing
the workloads, and loads each command's config and input archive the way the
command does.
"""

import importlib.util
import os
import sys

import pytest

from sbenflow.config import load_config
from sbenflow.fieldio import load_path_archive

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_loads(tmp_path, name):
    work, out = tmp_path / "work", tmp_path / "out"
    work.mkdir()
    out.mkdir()
    workload = workloads.WORKLOADS[name](1, str(work), str(out))
    assert workload.commands
    for command in workload.commands:
        config = load_config(_option(command.argv, "--config"))
        archive = _option(command.argv, "--archive") or _option(command.argv, "--warm-start")
        if archive is not None and archive.startswith(str(work)):
            # an input built at set-up, not the output of an earlier command
            load_path_archive(archive, expect_grid=config.grid, expect_eos=config.case.eos)
