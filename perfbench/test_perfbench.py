"""Smoke tests for the benchmark itself, at a tiny input size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as runner  # noqa: E402
import workloads  # noqa: E402

SMOKE = {
    "sweep-all12": lambda: workloads.SweepAll12(5, batches=2, per_type=1),
    "suggest-wide": lambda: workloads.SuggestWide(5, per_type=2),
    "eval-study": lambda: workloads.EvalStudy(5, sizes=(20, 30)),
}


@pytest.fixture(scope="module")
def records():
    """For each workload: one untraced and two traced runs of one call each."""
    work = HERE / "_work" / "smoke"
    out = {}
    try:
        for name, make in SMOKE.items():
            for label, trace in (("plain", False), ("traced", True), ("traced-again", True)):
                wl = make()
                wl.prefix_calls = 1
                out[name, label] = (wl, workloads.run(wl, 1e-6, trace, work / name / label,
                                                      None))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def test_every_benchmark_workload_is_known_and_smoke_tested():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["name"] in workloads.WORKLOADS
        assert w["name"] in SMOKE


@pytest.mark.parametrize("name", SMOKE)
def test_every_benchmark_metric_is_emitted_with_its_unit(records, name):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for label, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        line = runner.result_line(records[name, label][1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        for m in spec[section]:
            emitted = line["metrics"][m["name"]]
            assert emitted["unit"] == m["unit"]
            assert isinstance(emitted["value"], (int, float))
        assert len(line["metrics"]) == len(spec[section])


@pytest.mark.parametrize("name", SMOKE)
def test_traced_and_untraced_runs_give_identical_outputs(records, name):
    wl, plain = records[name, "plain"]
    traced = records[name, "traced"][1]
    assert [wl.comparable(o) for o in plain["outputs"]] == \
        [wl.comparable(o) for o in traced["outputs"]]


@pytest.mark.parametrize("name", SMOKE)
def test_traced_counts_repeat_exactly(records, name):
    first, again = records[name, "traced"][1], records[name, "traced-again"][1]
    counts = [m for m in workloads.PER_LAYER if m.endswith((".calls", ".distinct"))]
    assert {m: first["layers"][m] for m in counts} == {m: again["layers"][m] for m in counts}


# Span names each workload must reach (calls > 0), and ones it must not.
REACHED = {
    "sweep-all12": ["kernel.kmul.calls", "projection.project_cascade.calls",
                    "realroots.count_real_roots.calls", "probio.parse_problem.calls"],
    "suggest-wide": ["kernel.kmul.calls", "projection.mccallum_project.calls",
                     "polys.resultant.calls", "probio.parse_problem.calls"],
    "eval-study": [],
}
NOT_REACHED = {
    "sweep-all12": [],
    "suggest-wide": ["projection.project_cascade.calls", "realroots.count_real_roots.calls"],
    "eval-study": ["kernel.kmul.calls", "polys.resultant.calls", "probio.parse_problem.calls"],
}
BUSY = {
    "sweep-all12": [f"heuristics.{h.value}.busy_s" for h in workloads.HeuristicId]
    + ["generator.generate_corpus.self_s", "harness.run_sweep.self_s"],
    "suggest-wide": [f"heuristics.{h.value}.busy_s" for h in workloads.SUGGEST_HEURISTICS]
    + ["generator.generate_corpus.self_s"],
    "eval-study": ["harness.CostTable.load.self_s", "harness.read_choices.self_s",
                   "harness.compute_savings.self_s", "harness.write_savings.self_s"],
}


@pytest.mark.parametrize("name", SMOKE)
def test_tracer_sees_the_layers_each_workload_reaches(records, name):
    layers = records[name, "traced"][1]["layers"]
    assert all(layers[m] > 0 for m in REACHED[name] + BUSY[name])
    assert all(layers[m] == 0 for m in NOT_REACHED[name])
