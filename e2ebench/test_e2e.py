"""Self-test of the benchmark harness; not part of the tier-1 suite.

Run from the repository root (about 20 s on 2 cores)::

    python3 -m pytest e2ebench/test_e2e.py -q

Every workload runs at toy size through the same code paths as the real
benchmark: set-up, the untraced pass, the correctness checks and the
traced pass.
"""

from __future__ import annotations

import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TOY = {
    "fleet-long": {"scales": 4, "horizon": 2.0},
    "sweep-short": {"scales": 2},
    "scalar-apps": {"apps": ("temp_alarm",)},
    "service-mixed": {"traced_requests": 20},
}


def _toy(name, tmp_path):
    (tmp_path / "tmp").mkdir()
    env = run.child_env(tmp_path)
    return workloads.WORKLOADS[name](0, tmp_path, env, **TOY[name]), env


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert SPEC["paths"] == ["e2ebench"]


def test_untraced_pass_prints_every_end_to_end_metric(tmp_path):
    workload, env = _toy("fleet-long", tmp_path)
    record = run.run_workload(workload, seconds=0.2, trace=0, env=env)
    assert record["correct"], record["problems"]
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in record["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_at_toy_size(name, tmp_path):
    workload, env = _toy(name, tmp_path)
    record = run.run_workload(workload, seconds=0.5, trace=1, env=env)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0
    assert record["missing_targets"] == []
    metrics = {key: metric["value"] for key, metric in record["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.coverage_frac"] >= 0.9
    assert metrics["cache.get.calls"] > 0
    if name == "fleet-long":
        # 4 scales x 2 systems, 40 steps each.
        assert metrics["vec.device_steps"] == 320
        assert metrics["plan.cohorts"] == 1
    if name == "sweep-short":
        assert metrics["plan.cohorts"] == 8
        assert metrics["vec.compile_operating_segments.s"] > 0
    if name == "scalar-apps":
        assert metrics["power.segments"] > 0 and metrics["apps.run.s"] > 0
        assert metrics["vec.launches"] == 0
    if name == "service-mixed":
        assert metrics["service.from_payload.s"] > 0
        assert metrics["service.hit_latency_p50_s"] > 0
        assert metrics["vec.launches"] > 0 and metrics["power.segments"] > 0


def _span(name, start, end, span_id, parent, role="harness", pid=1):
    return {
        "name": name, "start": start, "end": end, "id": span_id,
        "parent": parent, "role": role, "pid": pid, "request": "",
    }


def test_union_and_self_time_on_a_synthetic_tree():
    assert spans.union_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert spans.union_ns([(3, 3), (1, 2)]) == 1
    assert spans.union_ns([]) == 0
    tree = [
        _span("round", 0, 100, "1.1", ""),
        _span("plan", 0, 10, "1.2", "1.1"),
        _span("parallel.map_tasks", 10, 90, "1.3", "1.1"),
        # Overlapping children of one span count once.
        _span("a", 12, 40, "1.4", "1.3"),
        _span("b", 30, 50, "1.5", "1.3"),
        _span("task", 20, 50, "2.1", "", role="worker", pid=2),
        _span("kernel", 25, 45, "2.2", "2.1", role="worker", pid=2),
        _span("task", 40, 80, "3.1", "", role="worker", pid=3),
    ]
    own = spans.self_times(tree)
    assert own == {
        "1.1": 10, "1.2": 10, "1.3": 42, "1.4": 28, "1.5": 20,
        "2.1": 10, "2.2": 20, "3.1": 40,
    }
    table = spans.layer_table(tree, jobs=2)
    assert table["round_ns"] == 100
    assert table["tasks"] == 2
    assert table["dispatch_ns"] == 80 - 60
    assert table["busy_frac"] == pytest.approx((30 + 40) / (80 * 2))
    assert table["coverage"] == pytest.approx((10 + 42 + 28 + 20) / 100)
    assert table["rows"][("parallel.map_tasks", "harness")]["wait_ns"] == 60


def test_overlapping_pool_calls_count_each_task_once():
    tree = [
        _span("round", 0, 100, "1.1", ""),
        _span("parallel.run_task", 0, 50, "1.2", "", role="server"),
        _span("parallel.run_task", 20, 70, "1.3", "", role="server"),
        _span("task", 10, 60, "2.1", "", role="worker", pid=2),
    ]
    table = spans.layer_table(tree, jobs=2)
    assert table["busy_frac"] == pytest.approx(50 / (70 * 2))
    assert table["dispatch_ns"] == 70 - 50


def test_compare_verdicts():
    assert compare.verdict(100, 120, "lower", 0.1) == "worse"
    assert compare.verdict(100, 105, "lower", 0.1) == "within"
    assert compare.verdict(100, 80, "lower", 0.1) == "better"
    assert compare.verdict(100, 120, "higher", 0.1) == "better"
    assert compare.verdict(100, 80, "higher", 0.1) == "worse"
    assert compare.verdict(100, 200, "lower", 0.1, noise=0.2) == "unresolved"
    assert compare.verdict(100, 200, "lower", 0.1, noise=None) == "unresolved"


def test_compare_requires_counts_and_digests_to_repeat():
    def result(jobs_per_s, digest, tasks, coalesced):
        end_to_end = {
            m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]
        }
        end_to_end["jobs_per_s"]["value"] = jobs_per_s
        layers = {m["name"]: {"value": 0, "unit": m["unit"]} for m in SPEC["per_layer"]}
        layers["parallel.tasks"]["value"] = tasks
        layers["service.coalesced"]["value"] = coalesced
        return {
            "fleet-long": {
                "trace0": {"metrics": end_to_end, "digest": digest, "spread": {}},
                "trace1": {"metrics": layers, "digest": digest},
            }
        }

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "jobs_per_s")
    rows = compare.compare(
        result(100.0, "aa", 2, 1), result(100.0 * (1 - 2 * bound), "ab", 3, 5), SPEC
    )
    readings = {(row[0], row[1]): row[4] for row in rows}
    assert readings[("jobs_per_s", "fleet-long")] == "worse"
    assert readings[("setup_s", "fleet-long")] == "within"
    assert readings[("digest.trace0", "fleet-long")] == "mismatch"
    assert readings[("parallel.tasks", "fleet-long")] == "mismatch"
    assert ("service.coalesced", "fleet-long") not in readings
