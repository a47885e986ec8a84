"""scripts/bench_harness.py's summary of perfbench result lines (no gcc needed)."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_harness.py"
_SPEC = importlib.util.spec_from_file_location("bench_harness", _PATH)
bench_harness = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_harness)


def result_line(work_s: float, mismatches: int = 0, correct: bool = True) -> str:
    """A perfbench result line, as ``perfbench/run.py`` prints it last."""
    return json.dumps({
        "correct": correct,
        "attempted": 40,
        "failed": 0,
        "metrics": {
            "work_s_per_item": {"value": work_s, "unit": "s"},
            "class_mismatches": {"value": mismatches, "unit": "count"},
        },
    })


def test_medians_quartile_distances_and_ratio():
    summary = bench_harness.summarize({
        "baseline": [result_line(v) for v in (14, 10, 12, 11, 13)],
        "head": [result_line(v) for v in (28, 20, 24, 22, 26)],
    })
    work = summary["work_s_per_item"]
    assert work["unit"] == "s"
    assert work["median"] == {"baseline": 12, "head": 24}
    # statistics.quantiles' default method: quartiles 10.5/13.5 and 21/27
    assert work["quartile_distance"] == {"baseline": 3.0, "head": 6.0}
    assert work["ratio"] == 2.0
    assert work["inside_spread"] is False


def test_metric_zero_in_both_trees_has_no_ratio():
    summary = bench_harness.summarize({
        "baseline": [result_line(1.0), result_line(1.1)],
        "head": [result_line(1.0), result_line(1.1)],
    })
    mismatches = summary["class_mismatches"]
    assert mismatches["median"] == {"baseline": 0, "head": 0}
    assert mismatches["ratio"] is None
    assert mismatches["inside_spread"] is None


def test_identical_trees_give_ratio_one_inside_the_spread():
    lines = [result_line(v) for v in (0.9, 1.3, 1.0, 1.2, 1.1)]
    summary = bench_harness.summarize({"baseline": lines, "head": list(lines)})
    work = summary["work_s_per_item"]
    assert work["ratio"] == 1.0
    assert work["quartile_distance"]["baseline"] == work["quartile_distance"]["head"] > 0
    assert work["inside_spread"] is True


@pytest.mark.parametrize("bad", [
    result_line(1.0, correct=False),
    json.dumps({"info": {"workload": "armvm"}}),  # perfbench's line before the result
    "Traceback (most recent call last):",
    "",
])
def test_failed_or_foreign_run_raises(bad):
    with pytest.raises(ValueError):
        bench_harness.summarize({"baseline": [result_line(1.0), bad],
                                 "head": [result_line(1.0), result_line(1.0)]})
