"""Chaos-resume differential suite: a campaign killed at *any* task
boundary and rerun over its cache must end bit-identical to one clean
serial run.

The fixture registry forms a real diamond-plus-tail DAG::

    prep --+--> abl ----> report
           +--> fleet
    sweep -+

``WorkerChaos(only_label=...)`` is the surgical strike: with
``on_error="raise"`` and a one-attempt retry budget the campaign aborts
deterministically at the chosen node, after checkpointing everything
that finished.  Bit-identity is asserted over the result-cache *files*
(name and bytes), not stdout — the cache is the artifact replays serve.
"""

import contextlib
import io
import os

import pytest

from repro.errors import InjectedWorkerCrash
from repro.experiments import run_all
from repro.experiments.dag import CampaignDag, CheckpointStore, run_dag
from repro.experiments.parallel import RetryPolicy, WorkerPool
from repro.experiments.registry import Experiment, ExperimentRegistry
from repro.faults.inject import WorkerChaos

#: The serial dispatch order run_dag derives from the fixture DAG.
ORDER = ("prep", "sweep", "abl", "fleet", "report")

EDGES = {
    "prep": (),
    "sweep": (),
    "abl": ("prep",),
    "fleet": ("prep", "sweep"),
    "report": ("abl",),
}


def _fast_runner(tag):
    def runner(seed, scale):
        return f"{tag}: seed={seed} scale={scale}\n"

    return runner


@pytest.fixture
def dag_registry(monkeypatch):
    """Five tiny experiments wired into the diamond-plus-tail DAG."""
    registry = ExperimentRegistry()
    registry._catalogue_loaded = True  # keep the real catalogue out
    for job_id in ORDER:
        registry.register(
            Experiment(
                job_id=job_id,
                title=job_id.capitalize(),
                runner=_fast_runner(job_id),
                uses_seed=True,
                uses_scale=True,
                after=EDGES[job_id],
            )
        )
    monkeypatch.setattr(run_all, "_REGISTRY", registry)
    # jobs=1 keeps execution in-process, so the patched lookup is the
    # one the "workers" use.
    monkeypatch.setattr(run_all, "get_experiment", registry.get)
    return registry


def _run(cache_root, **kwargs):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run_all.main(seed=0, scale=0.05, jobs=1, cache_dir=cache_root, **kwargs)
    return buffer.getvalue()


def _cache_bytes(root):
    """Cache artifact fingerprint: {file name: exact bytes} per pack."""
    return {path.name: path.read_bytes() for path in root.glob("packs/*.pack")}


def _kill(node):
    """Chaos that deterministically kills every attempt of one node."""
    return WorkerChaos(seed=7, probability=1.0, max_crashes=99, only_label=node)


_FAST_RETRY = dict(retry=RetryPolicy(max_attempts=1, base_delay=0.0))


def test_order_matches_fixture(dag_registry):
    dag = CampaignDag.from_experiments(dag_registry.suite())
    assert tuple(dag.order()) == ORDER


@pytest.mark.parametrize("kill", ORDER)
def test_kill_at_every_task_boundary_then_resume_is_bit_identical(
    dag_registry, tmp_path, kill
):
    clean_root = tmp_path / "clean"
    chaos_root = tmp_path / "chaos"

    clean_out = _run(clean_root)
    assert "[FAILED]" not in clean_out and "[BLOCKED]" not in clean_out

    with pytest.raises(InjectedWorkerCrash):
        _run(chaos_root, chaos=_kill(kill), on_error="raise", **_FAST_RETRY)

    # Everything dispatched before the kill is checkpointed and cached.
    finished_before = ORDER.index(kill)
    assert (chaos_root / "campaign.ckpt").exists()
    assert len(_cache_bytes(chaos_root)) == finished_before

    resumed = _run(chaos_root)
    assert resumed.count("[cache hit]") == finished_before
    assert "[FAILED]" not in resumed and "[BLOCKED]" not in resumed

    assert _cache_bytes(chaos_root) == _cache_bytes(clean_root)


@pytest.mark.parametrize("kill", ORDER)
def test_rerun_after_kill_reports_every_task_timed(dag_registry, tmp_path, kill):
    """A plain rerun carries the recorded timings of the tasks that
    finished before the kill into its report and its own record."""
    root = tmp_path / "chaos"
    with pytest.raises(InjectedWorkerCrash):
        _run(root, chaos=_kill(kill), on_error="raise", **_FAST_RETRY)

    rerun = _run(root)
    assert f"tasks: {len(ORDER)} ({len(ORDER)} timed)" in rerun

    seconds = {
        task.node: task.seconds
        for task in CheckpointStore(root / "campaign.ckpt").load().completed
    }
    assert set(seconds) == set(ORDER)
    for node in ORDER[: ORDER.index(kill)]:
        assert seconds[node] > 0.0


def test_double_resume_is_bit_identical(dag_registry, tmp_path):
    clean_root = tmp_path / "clean"
    chaos_root = tmp_path / "chaos"
    _run(clean_root)

    with pytest.raises(InjectedWorkerCrash):
        _run(chaos_root, chaos=_kill("abl"), on_error="raise", **_FAST_RETRY)

    # The first rerun runs into a *different* kill further down the DAG.
    with pytest.raises(InjectedWorkerCrash):
        _run(
            chaos_root,
            chaos=_kill("report"),
            on_error="raise",
            **_FAST_RETRY,
        )

    second = _run(chaos_root)
    assert second.count("[cache hit]") == len(ORDER) - 1
    assert _cache_bytes(chaos_root) == _cache_bytes(clean_root)


def test_captured_failure_blocks_descendants_then_resume_completes(
    dag_registry, tmp_path
):
    clean_root = tmp_path / "clean"
    chaos_root = tmp_path / "chaos"
    _run(clean_root)

    out = _run(chaos_root, chaos=_kill("prep"), **_FAST_RETRY)
    assert out.count("[FAILED]") == 1
    # prep's transitive descendants — abl, fleet, report — never ran.
    assert out.count("[BLOCKED]") == 3
    assert "1 experiment(s) FAILED" in out and "3 experiment(s) BLOCKED" in out

    resumed = _run(chaos_root)
    assert resumed.count("[cache hit]") == 1  # only sweep finished
    assert "[FAILED]" not in resumed and "[BLOCKED]" not in resumed
    assert _cache_bytes(chaos_root) == _cache_bytes(clean_root)


def test_resume_reruns_evicted_cache_entries(dag_registry, tmp_path):
    """A recorded completion whose cached payload vanished is re-run,
    never wrongly skipped — and regenerates identical bytes."""
    root = tmp_path / "cache"
    _run(root)

    state = CheckpointStore(root / "campaign.ckpt").load()
    fleet_key = state.campaign["nodes"]["fleet"]["key"]
    (victim,) = (
        path
        for path in root.glob("packs/*.pack")
        if fleet_key.encode() in path.read_bytes()
    )
    original = victim.read_bytes()
    victim.unlink()

    resumed = _run(root)
    assert resumed.count("[cache hit]") == len(ORDER) - 1
    assert victim.read_bytes() == original


def test_resume_ignores_checkpoint_from_different_inputs(dag_registry, tmp_path):
    """Changing seed changes every result key, so nothing is served
    from the cache and no seed-0 timing is carried into the record."""
    root = tmp_path / "cache"
    _run(root)
    store = CheckpointStore(root / "campaign.ckpt")
    seed0 = {task.key: task.seconds for task in store.load().completed}

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run_all.main(seed=1, scale=0.05, jobs=1, cache_dir=root)
    assert buffer.getvalue().count("[cache hit]") == 0

    seed1 = store.load().completed
    assert len(seed1) == len(ORDER)
    assert all(task.source == "ran" for task in seed1)
    assert not {task.key for task in seed1} & set(seed0)


# ---------------------------------------------------------------------------
# Pool-path differential: the threaded dispatcher under chaos + retry
# must produce exactly the serial results.  CI runs this leg with
# REPRO_DAG_TEST_JOBS=2.
# ---------------------------------------------------------------------------


def _pool_node(tag):
    return f"pool:{tag}"


def test_pool_dispatch_under_chaos_matches_serial():
    dag = CampaignDag(
        [
            ("n0", ()),
            ("n1", ("n0",)),
            ("n2", ("n0",)),
            ("n3", ("n1", "n2")),
            ("n4", ()),
            ("n5", ("n4",)),
        ]
    )
    args = {node: (node,) for node in dag.nodes}
    serial = run_dag(dag, _pool_node, args)

    jobs = int(os.environ.get("REPRO_DAG_TEST_JOBS", "2"))
    pool = WorkerPool(jobs)
    try:
        pooled = run_dag(
            dag,
            _pool_node,
            args,
            pool=pool,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            chaos=WorkerChaos(seed=11, probability=0.5, max_crashes=1),
        )
    finally:
        pool.shutdown()
    assert pooled == serial
