"""Unit contract of the campaign bookkeeping: the dependency book the
job service drives, the post-run report ``run_all`` prints, and the
campaign's retry and error contract its resume relies on."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.dag import DependencyBook, build_report

#: a -> {b, c} -> d plus a free-floating e.
DIAMOND = [
    ("a", ()),
    ("b", ("a",)),
    ("c", ("a",)),
    ("d", ("b", "c")),
    ("e", ()),
]


# ---------------------------------------------------------------------------
# The dependency book
# ---------------------------------------------------------------------------


def _book(nodes) -> DependencyBook:
    book = DependencyBook()
    for node, preds in nodes:
        book.add(node, preds)
    return book


def test_book_releases_on_the_last_predecessor():
    book = _book([("a", ()), ("b", ()), ("d", ("a", "b"))])
    assert book.waiting_on("d") == {"a", "b"}
    assert book.succeed("a").ready == ()
    assert book.waiting_on("d") == {"b"}
    assert book.succeed("b").ready == ("d",)
    assert book.waiting_on("d") == frozenset()
    # A node added after its predecessors succeeded is ready at once.
    assert book.add("e", ("a", "a")).ready == ("e",)


def test_book_failure_cascades_depth_first_in_insertion_order():
    """Each blocked node names the direct predecessor that reached it
    first: d is blocked via b, the successor a registered first."""
    book = _book(DIAMOND)
    assert book.fail("a").blocked == (("b", "a"), ("d", "b"), ("c", "a"))
    # A late dependent of a blocked node is blocked on arrival.
    assert book.add("z", ("e", "d")).blocked == (("z", "d"),)


def test_book_rejects_unknown_predecessors_and_early_settles():
    book = _book([("a", ())])
    with pytest.raises(ConfigurationError, match="unknown node"):
        book.add("b", ("ghost",))
    book.add("b", ("a",))
    with pytest.raises(ConfigurationError, match="not ready"):
        book.succeed("b")  # still waiting on a


def test_book_forget_drops_a_node():
    book = _book([("a", ())])
    book.succeed("a")
    book.forget("a")
    with pytest.raises(ConfigurationError, match="unknown node"):
        book.add("b", ("a",))


def test_failed_task_blocks_descendants_but_not_independents():
    book = _book(DIAMOND)
    assert {node for node, _ in book.fail("a").blocked} == {"b", "c", "d"}
    for blocked in ("b", "c", "d"):
        assert book.waiting_on(blocked) == frozenset()
        with pytest.raises(ConfigurationError, match="not ready"):
            book.succeed(blocked)  # blocked, never run
    # The independent node neither waits nor is blocked.
    assert book.succeed("e").ready == ()
    assert book.add("f", ("e",)).ready == ("f",)


# ---------------------------------------------------------------------------
# The campaign's error contract (serial path; the pool path is
# differential-tested in test_dag_resume.py)
# ---------------------------------------------------------------------------


def _tiny_suite(monkeypatch, job_ids):
    """Point ``run_all`` at a registry of instant, independent experiments."""
    from repro.experiments import run_all
    from repro.experiments.registry import Experiment, ExperimentRegistry

    registry = ExperimentRegistry()
    registry._catalogue_loaded = True  # keep the real catalogue out
    for job_id in job_ids:
        registry.register(
            Experiment(
                job_id=job_id,
                title=job_id.upper(),
                runner=lambda seed, scale, tag=job_id: f"ran:{tag}\n",
            )
        )
    monkeypatch.setattr(run_all, "_REGISTRY", registry)
    monkeypatch.setattr(run_all, "get_experiment", registry.get)
    return run_all


def _campaign_output(run_all, tmp_path, name, **kwargs):
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run_all.main(jobs=1, cache_dir=tmp_path / name, **kwargs)
    return buffer.getvalue()


def _tables(output):
    """The printed experiment sections, without timing lines."""
    return output.split("## ", 1)[1].split("Execution summary")[0]


def test_run_dag_chaos_retry_contract(monkeypatch, tmp_path):
    """A chaos-killed experiment under a sufficient retry budget prints
    the same table as a clean campaign, and telemetry counts the retry."""
    import json

    from repro.experiments.parallel import RetryPolicy
    from repro.faults.inject import WorkerChaos

    run_all = _tiny_suite(monkeypatch, ["a", "b"])
    retry = RetryPolicy(max_attempts=3, base_delay=0.0)
    clean = _campaign_output(run_all, tmp_path, "clean", retry=retry)
    metrics = tmp_path / "metrics.jsonl"
    chaotic = _campaign_output(
        run_all,
        tmp_path,
        "chaos",
        retry=retry,
        chaos=WorkerChaos(seed=7, probability=1.0, max_crashes=1, only_label="b"),
        metrics_out=metrics,
    )
    assert "ran:a" in clean and "ran:b" in clean
    assert "[FAILED]" not in chaotic
    assert _tables(chaotic) == _tables(clean)
    records = {
        record["name"]: record
        for record in map(json.loads, metrics.read_text().splitlines())
    }
    assert records["campaign.retries"]["value"] == 1


def test_run_dag_rejects_bad_on_error(monkeypatch, tmp_path):
    """A bad mode is refused before anything runs, a warm cache included."""
    run_all = _tiny_suite(monkeypatch, ["a"])
    _campaign_output(run_all, tmp_path, "cache")
    ran = []
    monkeypatch.setattr(run_all, "_run_job", lambda *args: ran.append(args))
    with pytest.raises(ConfigurationError, match="on_error"):
        _campaign_output(run_all, tmp_path, "cache", on_error="explode")
    assert ran == []


def test_on_error_raise_aborts_after_checkpointing_finished_tasks():
    from repro.experiments.parallel import WorkerPool

    completions = []
    ran = []

    def fn(node):
        ran.append(node)
        if node == "b":
            raise RuntimeError("boom")
        return node

    with WorkerPool(jobs=1) as pool:
        with pytest.raises(RuntimeError, match="boom"):
            pool.map_tasks(
                fn,
                [(n,) for n in "abc"],
                labels=list("abc"),
                on_error="raise",
                on_complete=lambda node, result, timing: completions.append(node),
            )
    assert completions == ["a"]
    assert ran == ["a", "b"]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_critical_path_weighs_recorded_seconds():
    tasks = [node for node, _ in DIAMOND]
    report = build_report(tasks, {"a": 1.0, "b": 5.0, "c": 1.0, "d": 5.0})
    # The tasks are independent: the longest one, the first of equals.
    assert report.critical_path == ("b",)
    assert report.critical_seconds == pytest.approx(5.0)
    # Unrecorded tasks weigh zero: a partially-run campaign still reports.
    report = build_report(tasks, {"e": 3.0})
    assert report.critical_path == ("e",)
    assert report.critical_seconds == pytest.approx(3.0)
    assert report.timed_tasks == 1


def test_build_report_utilization_and_suggestion():
    tasks = [node for node, _ in DIAMOND]
    seconds = {"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0, "e": 4.0}
    report = build_report(tasks, seconds, jobs=2)
    assert report.tasks == 5 and report.timed_tasks == 5
    assert report.total_seconds == pytest.approx(12.0)
    assert report.critical_path == ("e",)
    assert report.critical_seconds == pytest.approx(4.0)
    # ceil(12 / 4) == 3: more than three workers cannot help.
    assert report.suggested_jobs == 3
    # Greedy list schedule in task order: w0 runs a, c, e; w1 runs b, d.
    assert report.worker_busy == pytest.approx((8.0, 4.0))
    assert report.makespan == pytest.approx(8.0)
    text = report.format()
    assert "critical path: e (4.0s, 33% of task time)" in text
    assert "utilization (jobs=2, makespan 8.0s): w0=100% w1=50%" in text
    assert "suggested --jobs: 3" in text
