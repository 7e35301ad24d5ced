"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

Run from the repository root.  The workloads are shrunk so the suite takes
seconds; the full-size workloads run only through perfbench/run.py.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package(ROOT)

import spans  # noqa: E402
import workloads  # noqa: E402

from singlet_lhv import montecarlo  # noqa: E402


def small_bulk():
    # Three chunks per run: two full and one partial.
    w = workloads.BulkRun(pairs=2 * montecarlo.DEFAULT_CHUNK_SIZE + 5, seeded_rounds=1)
    w.setup(run.WORKERS)
    return w


def package_bindings():
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "singlet_lhv" or name.startswith("singlet_lhv.")
        for key, value in vars(module).items()
    }


def test_wrappers_are_removed_after_a_traced_run():
    before = package_bindings()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert montecarlo.run is not before[("singlet_lhv.montecarlo", "run")]
    metrics, attempts, recorded = run.measure_traced(small_bulk(), seed=3, seconds=0.0, others=())
    after = package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert attempts.failed == 0 and recorded
    assert metrics["montecarlo.chunks_per_run"] == 3


def span(sid, start, end, parent=None):
    return spans.Span(sid, f"s{sid}", start, end, parent, 0, 0)


def test_self_time_subtracts_the_union_of_children():
    parent = span(0, 0.0, 10.0)
    children = [
        span(1, 1.0, 3.0, 0),
        span(2, 2.0, 5.0, 0),    # overlaps the first: [1, 5] counts once
        span(3, 8.0, 12.0, 0),   # clipped to the parent's end: [8, 10]
        span(4, 4.0, 4.5, 0),    # inside an interval already covered
    ]
    assert spans.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 2.0)
    assert spans.self_time(parent, []) == 10.0


def test_layer_metrics_on_synthetic_spans():
    recorded = [
        spans.Span(0, "montecarlo.run", 0.0, 1.0, None, 1, 0, {"n": 8, "workers": 2}),
        spans.Span(1, "montecarlo.chunk", 0.1, 0.5, 0, 2, 0, {"n": 4}),
        spans.Span(2, "montecarlo.chunk", 0.2, 0.6, 0, 3, 0, {"n": 4}),
    ]
    out = spans.layer_metrics(recorded, {0})
    assert out["montecarlo.run.self_ms_per_call"] == pytest.approx(500.0)
    assert out["montecarlo.run.worker_busy_frac"] == pytest.approx(0.8 / 2.0)
    assert out["montecarlo.chunks_per_run"] == 2
    assert out["montecarlo.pairs_per_chunk"] == 4


def test_a_different_seed_changes_the_inputs():
    for w in workloads.all_workloads().values():
        assert w.inputs(1) == w.inputs(1), w.name
        assert w.inputs(1) != w.inputs(2), w.name


def test_exact_counts_repeat_between_two_traced_runs():
    first, _, _ = run.measure_traced(small_bulk(), seed=5, seconds=0.0, others=())
    second, _, _ = run.measure_traced(small_bulk(), seed=5, seconds=0.0, others=())
    counts = [name for name in spans.COUNT_METRICS if name in first]
    assert "model.measure_many.elems_per_op" in counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_tail_is_the_highest_sample_with_ten_above():
    value, percentile, n = run.tail([float(i) for i in range(21)])
    assert (value, percentile, n) == (10.0, 50.0, 21)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


class ThreeInputs:
    def inputs(self, seed):
        return ["a", "b", "c"]


def test_the_loop_finishes_the_first_pass_then_cycles_to_min_ops():
    results, first_pass, _ = run.run_ops(ThreeInputs(), 1, 0.0, 0, str.upper)
    assert (results, first_pass) == (["A", "B", "C"], 3)
    results, _, _ = run.run_ops(ThreeInputs(), 1, 0.0, 5, str.upper)
    assert results == ["A", "B", "C", "A", "B"]


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        spans.LAYER_METRICS
    )
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.all_workloads())
