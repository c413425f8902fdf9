"""The statistics of ``tools/bench_pairs.py`` on fixed synthetic values:
medians, quartiles, wins, the claim rule and the bound check, and the
alternating order of a workload's runs.  No benchmark is run."""

import importlib.util
from pathlib import Path

import pytest


def bench_pairs_module():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = bench_pairs_module()
PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


def test_medians_and_quartiles():
    s = TOOL.summarize(PARENT, [x - 0.5 for x in PARENT], "lower", 0.25)
    assert s["median"]["parent"] == pytest.approx(1.45)
    assert s["median"]["change"] == pytest.approx(0.95)
    # Inclusive quartiles: order statistics 2.25 and 6.75 of 0..9.
    assert s["quartiles"]["parent"] == pytest.approx([1.225, 1.675])
    assert s["quartiles"]["change"] == pytest.approx([0.725, 1.175])
    assert s["rel_change"] == pytest.approx(-0.5 / 1.45)
    assert TOOL.quartiles([3.0, 1.0, 2.0, 5.0, 4.0]) == [2.0, 4.0]
    assert TOOL.quartiles([7.0]) == [7.0, 7.0]


@pytest.mark.parametrize("shift, claim", [(0.5, True), (0.44, False), (0.2, False)])
def test_claim_needs_the_medians_apart_by_more_than_the_parent_spread(shift, claim):
    # Ten wins of ten each time; the parent's interquartile range is 0.45.
    s = TOOL.summarize(PARENT, [x - shift for x in PARENT], "lower", 0.25)
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["claim"] is claim


@pytest.mark.parametrize("losses, claim", [(0, True), (1, True), (2, False)])
def test_claim_needs_nine_wins_in_ten(losses, claim):
    change = [x - 1.0 for x in PARENT]
    for i in range(losses):
        change[i] = PARENT[i] + 0.1
    s = TOOL.summarize(PARENT, change, "lower", 0.25)
    assert s["wins"] == 10 - losses
    assert s["claim"] is claim


def test_ties_are_not_wins_and_higher_can_be_better():
    s = TOOL.summarize([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "lower", 0.1)
    assert s["wins"] == 0 and not s["claim"] and s["within_bound"]
    s = TOOL.summarize(PARENT, [x + 1.0 for x in PARENT], "higher", None)
    assert s["wins"] == 10 and s["claim"] and s["within_bound"]
    s = TOOL.summarize(PARENT, [x - 1.0 for x in PARENT], "higher", None)
    assert s["wins"] == 0 and not s["claim"]


@pytest.mark.parametrize("better, factor, within", [
    ("lower", 1.2, True), ("lower", 1.3, False), ("lower", 0.5, True),
    ("higher", 0.8, True), ("higher", 0.7, False), ("higher", 2.0, True)])
def test_bound_limits_how_much_worse_the_change_median_may_be(better, factor, within):
    s = TOOL.summarize(PARENT, [x * factor for x in PARENT], better, 0.25)
    assert s["within_bound"] is within


def test_workload_runs_alternate_and_aggregate(monkeypatch):
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root, seed))
        wall = {"p": 1.0, "c": 0.8}[root] + seed / 100
        return {"correct": root == "p" or seed != 3, "attempted": 4,
                "failed": 1 if root == "c" else 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    monkeypatch.setattr(TOOL, "run_once", fake_run)
    w = TOOL.bench_workload({"parent": "p", "change": "c"}, "ref30", [1, 2, 3, 4], 1.0,
                            [{"name": "wall_s", "unit": "s", "better": "lower",
                              "bound": 0.25}])
    assert calls == [("p", 1), ("c", 1), ("c", 2), ("p", 2), ("p", 3), ("c", 3),
                     ("c", 4), ("p", 4)]
    assert w["first"] == ["parent", "change", "parent", "change"]
    assert w["correct"] == {"parent": True, "change": False}
    assert w["attempted"] == {"parent": 16, "change": 16}
    assert w["failed"] == {"parent": 0, "change": 4}
    m = w["metrics"]["wall_s"]
    assert m["parent"] == pytest.approx([1.01, 1.02, 1.03, 1.04])
    assert m["wins"] == 4 and m["claim"] and m["within_bound"]
    assert "| `ref30` | `wall_s` | 1.025" in TOOL.table({"workloads": {"ref30": w}})
