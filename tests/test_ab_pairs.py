"""tools/ab_pairs.py: the summary of alternating parent/change pairs."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "ab_pairs.py")


def _tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_counts_wins_by_the_metric_direction():
    tool = _tool()
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [8.0, 12.0, 12.0, 10.0, 7.0]   # lower in pairs 1, 4 and 5, a tie in pair 2
    line = tool.summary("pass_rel", parent, change, lower=True)
    assert "change better in 3/5 pairs" in line
    assert "median parent 11 -> change 10 (-9.1 %)" in line
    # the parent's quartiles, as statistics.quantiles gives them
    assert "parent quartiles 9.5 .. 12.5 (spread 3)" in line
    line = tool.summary("throughput", parent, change, lower=False)
    assert "change better in 1/5 pairs" in line


def test_declared_reads_the_direction_and_bound(tmp_path):
    tool = _tool()
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_rel", "better": "lower", "bound": 0.25},'
        ' {"name": "rate", "better": "higher"}]}')
    assert tool.declared(str(tmp_path)) == {"pass_rel": (True, 0.25), "rate": (False, None)}
    assert tool.declared(str(tmp_path / "missing")) == {}


def _verdict(tool, parent, change, lower=True, bound=0.25):
    return tool.summary("m", parent, change, lower, bound).rsplit("; ", 1)[1]


def test_verdicts():
    tool = _tool()
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]   # IQR 0.25
    # gain: 10/10 pairs won, the median better by 1.0 > IQR; 8/10 is not enough
    assert _verdict(tool, parent, [p - 1.0 for p in parent]) == "gain"
    eight = [p - 1.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    assert _verdict(tool, parent, eight) == "flat"
    # higher is better: the same runs are a gain the other way round
    assert _verdict(tool, parent, [p + 1.0 for p in parent], lower=False) == "gain"
    # regression: the median 30 % worse, beyond the 25 % bound
    assert _verdict(tool, parent, [p * 1.3 for p in parent]) == "regression"
    assert _verdict(tool, parent, [p * 1.2 for p in parent]) == "flat"
    assert _verdict(tool, parent, [p * 1.3 for p in parent], bound=None) == "flat"
    # unresolved: the parent's own spread is wider than the bound
    noisy = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0, 10.0, 10.0]     # IQR 4.5
    assert _verdict(tool, noisy, list(noisy), bound=0.1) == "unresolved"
    assert _verdict(tool, noisy, [5.0, 15.0] + [6.5] * 8, bound=0.1) == "unresolved"
    # unless every run of the change reads better than every run of the
    # parent: better by 4.1, within the IQR, is then no gain but resolved
    assert _verdict(tool, noisy, [5.9] * 10, bound=0.1) == "flat"


def test_raw_medians_read_the_run_record(tmp_path):
    tool = _tool()
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    stats = {"pass_s": {"median": 0.42, "q1": 0.4}, "kernel_s": {"median": 0.031},
             "pass_rel": {"median": 13.5}}
    (out / "results-cs-pipeline-64-seed3-trace0.json").write_text(json.dumps({"stats": stats}))
    assert tool.raw_medians(str(tmp_path), "cs-pipeline-64", 3) == {
        "pass_s": 0.42, "kernel_s": 0.031}
    with pytest.raises(RuntimeError, match="no run record"):
        tool.raw_medians(str(tmp_path), "cs-pipeline-64", 4)


def test_diagnostic_prints_both_medians_and_no_verdict():
    tool = _tool()
    line = tool.diagnostic("pass_s", [1.0, 3.0, 2.0], [2.2, 2.0, 2.4])
    assert line == "pass_s (raw, no verdict): median parent 2 -> change 2.2 (+10.0 %)"
    assert not any(v in line for v in ("gain", "regression", "unresolved", "flat"))
