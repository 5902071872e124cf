"""tools/ab_pairs.py: the summary of alternating parent/change pairs."""

import importlib.util
import os

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


def test_better_lower_reads_the_benchmark_declaration(tmp_path):
    tool = _tool()
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_rel", "better": "lower"},'
        ' {"name": "rate", "better": "higher"}]}')
    assert tool.better_lower(str(tmp_path)) == {"pass_rel": True, "rate": False}
    assert tool.better_lower(str(tmp_path / "missing")) == {}
