"""Unit contract of the DAG campaign layer: graph validation, the
dependency book, the dependency-aware dispatcher, checkpoint framing, and the post-run
report — plus the registry face of ``after``."""

import pytest

from repro.errors import CheckpointError, ConfigurationError, DagError
from repro.experiments.dag import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CampaignDag,
    CampaignState,
    CheckpointStore,
    CompletedTask,
    DependencyBook,
    build_report,
    decode_state,
    encode_state,
    report_from_state,
    run_dag,
)


def _diamond() -> CampaignDag:
    """a -> {b, c} -> d plus a free-floating e."""
    return CampaignDag(
        [
            ("a", ()),
            ("b", ("a",)),
            ("c", ("a",)),
            ("d", ("b", "c")),
            ("e", ()),
        ]
    )


# ---------------------------------------------------------------------------
# Graph validation
# ---------------------------------------------------------------------------


def test_levels_respect_dependencies_and_declaration_order():
    dag = _diamond()
    assert dag.levels() == [["a", "e"], ["b", "c"], ["d"]]
    order = dag.order()
    for node in dag.nodes:
        for pred in dag.predecessors(node):
            assert order.index(pred) < order.index(node)


def test_duplicate_task_id_raises():
    with pytest.raises(DagError, match="duplicate campaign task id 'a'"):
        CampaignDag([("a", ()), ("a", ())])


def test_unknown_predecessor_raises_with_known_tasks_listed():
    with pytest.raises(DagError, match="unknown predecessor"):
        CampaignDag([("a", ("ghost",))])


@pytest.mark.parametrize(
    "nodes",
    [
        [("a", ("a",))],
        [("a", ("b",)), ("b", ("a",))],
        [("a", ("c",)), ("b", ("a",)), ("c", ("b",))],
    ],
)
def test_cycles_raise(nodes):
    with pytest.raises(DagError, match="cycle"):
        CampaignDag(nodes)


def test_critical_path_weighs_recorded_seconds():
    dag = _diamond()
    path, total = dag.critical_path(
        {"a": 1.0, "b": 5.0, "c": 1.0, "d": 2.0, "e": 3.0}
    )
    assert path == ["a", "b", "d"]
    assert total == pytest.approx(8.0)
    # Unrecorded tasks weigh zero: a partially-run campaign still reports.
    path, total = dag.critical_path({"e": 3.0})
    assert path == ["e"]
    assert total == pytest.approx(3.0)


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
    dag = _diamond()
    book = _book([(node, dag.predecessors(node)) for node in dag.nodes])
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


# ---------------------------------------------------------------------------
# The dispatcher (serial path; the pool path is differential-tested in
# test_dag_resume.py)
# ---------------------------------------------------------------------------


def _record_runner(log):
    def fn(node):
        log.append(node)
        return f"ran:{node}"

    return fn


def test_run_dag_runs_everything_in_dependency_order():
    dag = _diamond()
    log = []
    results = run_dag(
        dag, _record_runner(log), {n: (n,) for n in dag.nodes}
    )
    assert set(log) == set(dag.nodes)
    for node in dag.nodes:
        for pred in dag.predecessors(node):
            assert log.index(pred) < log.index(node)
    assert results == {n: f"ran:{n}" for n in dag.nodes}


def test_run_dag_skips_completed_and_rejects_unknown_completed():
    dag = _diamond()
    log = []
    results = run_dag(
        dag,
        _record_runner(log),
        {n: (n,) for n in dag.nodes if n not in ("a", "b")},
        completed=("a", "b"),
    )
    assert "a" not in log and "b" not in log
    assert set(results) == {"c", "d", "e"}
    with pytest.raises(ConfigurationError, match="not campaign tasks"):
        run_dag(dag, _record_runner([]), {}, completed=("ghost",))


def test_run_dag_requires_args_for_every_pending_task():
    dag = _diamond()
    with pytest.raises(ConfigurationError, match="no arguments declared"):
        run_dag(dag, _record_runner([]), {"a": ("a",)})


def test_failed_task_blocks_descendants_but_not_independents():
    from repro.experiments.parallel import TaskError

    dag = _diamond()
    log = []

    def fn(node):
        if node == "a":
            raise RuntimeError("boom")
        log.append(node)
        return node

    results = run_dag(dag, fn, {n: (n,) for n in dag.nodes})
    assert isinstance(results["a"], TaskError)
    assert results["a"].attempts == 1
    for blocked in ("b", "c", "d"):
        assert isinstance(results[blocked], TaskError)
        assert results[blocked].attempts == 0  # blocked, never attempted
        assert "predecessor 'a' failed" in results[blocked].error
    assert results["e"] == "e"
    assert log == ["e"]


def test_on_error_raise_aborts_after_checkpointing_finished_tasks():
    completions = []

    def fn(node):
        if node == "b":
            raise RuntimeError("boom")
        return node

    dag = CampaignDag([("a", ()), ("b", ("a",)), ("c", ("b",))])
    with pytest.raises(RuntimeError, match="boom"):
        run_dag(
            dag,
            fn,
            {n: (n,) for n in dag.nodes},
            on_error="raise",
            on_complete=lambda node, result, timing: completions.append(node),
        )
    assert completions == ["a"]


def test_run_dag_chaos_retry_contract():
    """A chaos-killed attempt under a sufficient retry budget finishes
    with the same result as a clean run, and telemetry counts the retry."""
    from repro.experiments.parallel import RetryPolicy
    from repro.faults.inject import WorkerChaos
    from repro.observability.telemetry import Telemetry

    dag = CampaignDag([("a", ()), ("b", ("a",))])
    chaos = WorkerChaos(seed=7, probability=1.0, max_crashes=1, only_label="b")
    telemetry = Telemetry()
    results = run_dag(
        dag,
        lambda node: f"ran:{node}",
        {n: (n,) for n in dag.nodes},
        retry=RetryPolicy(max_attempts=3, base_delay=0.0),
        chaos=chaos,
        telemetry=telemetry,
    )
    assert results == {"a": "ran:a", "b": "ran:b"}
    assert telemetry.metrics.snapshot()["campaign.retries"]["value"] == 1


def test_run_dag_rejects_bad_on_error():
    dag = CampaignDag([("a", ())])
    with pytest.raises(ConfigurationError, match="on_error"):
        run_dag(dag, lambda n: n, {"a": ("a",)}, on_error="explode")


# ---------------------------------------------------------------------------
# Checkpoint framing
# ---------------------------------------------------------------------------


def _state() -> CampaignState:
    state = CampaignState(
        campaign={
            "name": "unit",
            "seed": 3,
            "nodes": {"a": {"after": [], "key": "k" * 64}},
        }
    )
    state.record(CompletedTask(node="a", key="k" * 64, seconds=1.5, seq=0))
    return state


def test_checkpoint_round_trips_and_is_canonical():
    state = _state()
    raw = encode_state(state)
    assert raw.startswith(CHECKPOINT_MAGIC)
    decoded = decode_state(raw)
    assert decoded.to_dict() == state.to_dict()
    # Canonical: encoding the decode reproduces identical bytes.
    assert encode_state(decoded) == raw


def test_future_checkpoint_version_is_rejected():
    data = _state().to_dict()
    data["version"] = CHECKPOINT_VERSION + 1
    with pytest.raises(CheckpointError, match="refusing to guess"):
        CampaignState.from_dict(data)


def test_malformed_completed_record_is_a_checkpoint_error():
    data = _state().to_dict()
    data["completed"] = [{"node": "a"}]  # no key
    with pytest.raises(CheckpointError, match="malformed completed-task"):
        CampaignState.from_dict(data)


def test_store_save_load_clear(tmp_path):
    store = CheckpointStore(tmp_path / "c.ckpt")
    assert store.load() is None
    store.save(_state())
    loaded = store.load()
    assert loaded is not None and loaded.completed[0].node == "a"
    assert not list(tmp_path.glob("*.tmp"))  # atomic write left no litter
    store.clear()
    assert store.load() is None


def test_corrupt_checkpoint_is_quarantined_not_trusted(tmp_path):
    from repro.observability.telemetry import Telemetry

    store = CheckpointStore(tmp_path / "c.ckpt")
    store.save(_state())
    raw = bytearray(store.path.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    store.path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        store.load()
    telemetry = Telemetry()
    assert store.load_or_quarantine(telemetry) is None
    assert not store.path.exists()  # deleted: next run starts fresh
    snapshot = telemetry.metrics.snapshot()
    assert snapshot["campaign.checkpoint_quarantined"]["value"] == 1


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_build_report_utilization_and_suggestion():
    dag = _diamond()
    seconds = {"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0, "e": 2.0}
    report = build_report(dag, seconds, jobs=2)
    assert report.tasks == 5 and report.timed_tasks == 5
    assert report.total_seconds == pytest.approx(10.0)
    assert report.critical_seconds == pytest.approx(6.0)
    assert list(report.critical_path) in (["a", "b", "d"], ["a", "c", "d"])
    # ceil(10 / 6) == 2: more than two workers cannot help this shape.
    assert report.suggested_jobs == 2
    assert len(report.worker_busy) == 2
    assert sum(report.worker_busy) == pytest.approx(10.0)
    assert report.makespan >= report.critical_seconds
    text = report.format()
    assert "critical path" in text and "suggested --jobs: 2" in text


def test_report_from_state_needs_no_registry():
    state = CampaignState(
        campaign={
            "name": "x",
            "nodes": {
                "a": {"after": [], "key": "k1"},
                "b": {"after": ["a"], "key": "k2"},
            },
        }
    )
    state.record(CompletedTask(node="a", key="k1", seconds=1.0, seq=0))
    state.record(CompletedTask(node="b", key="k2", seconds=2.0, seq=1))
    report = report_from_state(state, jobs=1)
    assert list(report.critical_path) == ["a", "b"]
    assert report.critical_seconds == pytest.approx(3.0)
    with pytest.raises(CheckpointError, match="no campaign tasks"):
        report_from_state(CampaignState(campaign={}))


# ---------------------------------------------------------------------------
# The registry face
# ---------------------------------------------------------------------------


def test_suite_dependencies_build_a_valid_dag():
    """The real catalogue's ``after`` declarations must always form a
    valid DAG over suite members — this is the guard that makes a bad
    declaration a test failure, not a stranded campaign."""
    from repro.experiments.registry import REGISTRY

    suite = REGISTRY.suite()
    # Every declared predecessor must name a suite member — the
    # subset-pruning in from_experiments never fires on the catalogue,
    # so a typo'd id shows up here instead of being silently dropped.
    members = {exp.job_id for exp in suite}
    for exp in suite:
        assert set(exp.after) <= members, (
            f"{exp.job_id} declares non-suite predecessor(s) "
            f"{sorted(set(exp.after) - members)}"
        )
    dag = CampaignDag.from_experiments(suite)
    assert "ablation" in dag.nodes
    assert "power-sweep" in dag.predecessors("ablation")
    assert "power-sweep" in dag.predecessors("fleet")


def test_from_experiments_prunes_predecessors_outside_the_campaign():
    """A subset suite (filtered registry, single-experiment run) drops
    edges to absent predecessors instead of refusing to run."""
    from repro.experiments.registry import get_experiment

    fleet = get_experiment("fleet")
    assert fleet.after  # declares power-sweep in the full catalogue
    dag = CampaignDag.from_experiments([fleet])
    assert dag.predecessors("fleet") == ()


def test_experiment_after_never_joins_cache_params():
    """Scheduling metadata stays out of result keys: the params dict an
    experiment hashes is identical with and without ``after``."""
    import dataclasses

    from repro.experiments.registry import get_experiment

    exp = get_experiment("ablation")
    assert exp.after == ("power-sweep",)
    stripped = dataclasses.replace(exp, after=())
    assert exp.params(0, 1.0) == stripped.params(0, 1.0)
    assert exp.spec_hash(0, 1.0) == stripped.spec_hash(0, 1.0)
