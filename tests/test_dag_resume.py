"""Chaos-resume differential suite: a campaign killed at *any* task
boundary and rerun over its cache must end bit-identical to one clean
serial run.

The fixture registry holds five independent experiments, which
``run_all`` dispatches as one flat map in registry order.
``WorkerChaos(only_label=...)`` is the surgical strike: with
``on_error="raise"`` and a one-attempt retry budget the campaign aborts
deterministically at the chosen node, after caching everything that
finished.  Bit-identity is asserted over the result-cache entries, not
stdout — the cache is the artifact replays serve.  Each entry also
holds the wall-clock seconds of the task that computed it, so the
comparison is per key and byte-exact on ``(stdout, snapshot)``, not
over whole pack files.
"""

import contextlib
import io
import math
import os
import pickle

import pytest

from repro.errors import InjectedWorkerCrash
from repro.experiments import run_all
from repro.experiments.cache import ResultCache, _parse_pack, result_key
from repro.experiments.dag import build_report
from repro.experiments.parallel import ParallelReport, RetryPolicy, WorkerPool
from repro.experiments.registry import Experiment, ExperimentRegistry
from repro.faults.inject import WorkerChaos

#: The fixture registry's order, which a serial campaign dispatches in.
ORDER = ("prep", "sweep", "abl", "fleet", "report")


def _fast_runner(tag):
    def runner(seed, scale):
        return f"{tag}: seed={seed} scale={scale}\n"

    return runner


@pytest.fixture
def dag_registry(monkeypatch):
    """Five tiny independent experiments, registered in ``ORDER``."""
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
            )
        )
    monkeypatch.setattr(run_all, "_REGISTRY", registry)
    # jobs=1 keeps execution in-process, so the patched lookup is the
    # one the "workers" use.
    monkeypatch.setattr(run_all, "get_experiment", registry.get)
    return registry


def _run(cache_root, seed=0, jobs=1, **kwargs):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run_all.main(
            seed=seed, scale=0.05, jobs=jobs, cache_dir=cache_root, **kwargs
        )
    return buffer.getvalue()


def _keys(registry, seed=0):
    """Each fixture node's result key, computed as ``run_all`` does."""
    return {
        job.job_id: result_key(
            job.job_id,
            job.params(seed, 0.05),
            spec_hash=job.spec_hash(seed, 0.05),
        )
        for job in registry.suite()
    }


def _entries(root):
    """Every cache entry under *root*, read through a fresh
    :class:`ResultCache`: ``{key: (stdout, snapshot, seconds, attempts)}``
    with ``seconds`` one float per task."""
    keys = set()
    for path in root.glob("packs/*.pack"):
        keys.update(_parse_pack(path.read_bytes()))
    cache = ResultCache(root=root)
    return {key: cache.get(key) for key in keys}


def _assert_timing(entry):
    """One finite float >= 0 per task (each fixture node is one task)."""
    _, _, seconds, attempts = entry
    (took,) = seconds
    assert isinstance(took, float) and math.isfinite(took)
    assert took >= 0.0
    assert type(attempts) is int and attempts >= 1


def _assert_same_results(root, reference):
    """Resume == clean: the same keys in as many packs, byte-equal
    ``(stdout, snapshot)`` per key, and well-formed timing fields."""
    got, want = _entries(root), _entries(reference)
    assert set(got) == set(want)
    assert len(list(root.glob("packs/*.pack"))) == len(
        list(reference.glob("packs/*.pack"))
    )
    for key, entry in got.items():
        assert pickle.dumps(entry[:2]) == pickle.dumps(want[key][:2])
        _assert_timing(entry)
        _assert_timing(want[key])


def _record_dispatch(monkeypatch):
    """The job ids ``run_all`` dispatches from now on, in order."""
    dispatched = []
    run_job = run_all._run_job

    def record(job_id, *args):
        dispatched.append(job_id)
        return run_job(job_id, *args)

    monkeypatch.setattr(run_all, "_run_job", record)
    return dispatched


def _kill(node):
    """Chaos that deterministically kills every attempt of one node."""
    return WorkerChaos(seed=7, probability=1.0, max_crashes=99, only_label=node)


_FAST_RETRY = dict(retry=RetryPolicy(max_attempts=1, base_delay=0.0))


def test_order_matches_fixture(dag_registry, tmp_path, monkeypatch):
    dispatched = _record_dispatch(monkeypatch)
    _run(tmp_path / "cache")
    assert tuple(dispatched) == ORDER


@pytest.mark.parametrize("kill", ORDER)
def test_kill_at_every_task_boundary_then_resume_is_bit_identical(
    dag_registry, tmp_path, kill
):
    clean_root = tmp_path / "clean"
    chaos_root = tmp_path / "chaos"

    clean_out = _run(clean_root)
    assert "[FAILED]" not in clean_out

    with pytest.raises(InjectedWorkerCrash):
        _run(chaos_root, chaos=_kill(kill), on_error="raise", **_FAST_RETRY)

    # Everything dispatched before the kill is cached.
    finished_before = ORDER.index(kill)
    assert len(_entries(chaos_root)) == finished_before

    resumed = _run(chaos_root)
    assert resumed.count("[cache hit]") == finished_before
    assert "[FAILED]" not in resumed

    _assert_same_results(chaos_root, clean_root)


@pytest.mark.parametrize("kill", ORDER)
def test_rerun_after_kill_reports_every_task_timed(dag_registry, tmp_path, kill):
    """A plain rerun reports the timings the cache entries of the tasks
    that finished before the kill carry, and caches its own."""
    root = tmp_path / "chaos"
    with pytest.raises(InjectedWorkerCrash):
        _run(root, chaos=_kill(kill), on_error="raise", **_FAST_RETRY)

    rerun = _run(root)
    assert f"tasks: {len(ORDER)} ({len(ORDER)} timed)" in rerun

    entries = _entries(root)
    keys = _keys(dag_registry)
    assert set(entries) == set(keys.values())
    seconds = {node: entries[key][2][0] for node, key in keys.items()}
    for node in ORDER[: ORDER.index(kill)]:
        assert seconds[node] > 0.0


def test_full_cache_rerun_reports_every_task_timed(dag_registry, tmp_path):
    """The timings ride the cache entries, so a full cache reports every
    task timed with no record file beside it."""
    root = tmp_path / "cache"
    _run(root)
    (root / "campaign.ckpt").unlink(missing_ok=True)

    rerun = _run(root)
    assert rerun.count("[cache hit]") == len(ORDER)
    assert f"tasks: {len(ORDER)} ({len(ORDER)} timed)" in rerun


def test_warm_rerun_is_the_offline_report(dag_registry, tmp_path, monkeypatch):
    """Over a full cache ``run-all --jobs N`` starts no pool and prints
    the report its entries' timings give at N workers."""
    root = tmp_path / "cache"
    _run(root)

    def no_pool(*args, **kwargs):
        raise AssertionError("a warm rerun must not build a WorkerPool")

    monkeypatch.setattr(run_all, "WorkerPool", no_pool)
    warm = _run(root, jobs=4)
    assert warm.count("[cache hit]") == len(ORDER)
    assert "utilization (jobs=4" in warm

    entries = _entries(root)
    seconds = {
        node: entries[key][2][0] for node, key in _keys(dag_registry).items()
    }
    assert build_report(list(ORDER), seconds, jobs=4).format() in warm


def test_double_resume_is_bit_identical(dag_registry, tmp_path):
    clean_root = tmp_path / "clean"
    chaos_root = tmp_path / "chaos"
    _run(clean_root)

    with pytest.raises(InjectedWorkerCrash):
        _run(chaos_root, chaos=_kill("abl"), on_error="raise", **_FAST_RETRY)

    # The first rerun runs into a *different* kill further down the order.
    with pytest.raises(InjectedWorkerCrash):
        _run(
            chaos_root,
            chaos=_kill("report"),
            on_error="raise",
            **_FAST_RETRY,
        )

    second = _run(chaos_root)
    assert second.count("[cache hit]") == len(ORDER) - 1
    _assert_same_results(chaos_root, clean_root)


def test_captured_failure_runs_the_others_then_rerun_executes_only_it(
    dag_registry, tmp_path, monkeypatch
):
    clean_root = tmp_path / "clean"
    chaos_root = tmp_path / "chaos"
    _run(clean_root)

    out = _run(chaos_root, chaos=_kill("prep"), **_FAST_RETRY)
    assert out.count("[FAILED]") == 1
    assert "1 experiment(s) FAILED" in out
    # Every other experiment ran and is cached; the failure is not.
    keys = _keys(dag_registry)
    assert set(_entries(chaos_root)) == {
        keys[node] for node in ORDER if node != "prep"
    }

    dispatched = _record_dispatch(monkeypatch)
    resumed = _run(chaos_root)
    assert dispatched == ["prep"]
    assert resumed.count("[cache hit]") == len(ORDER) - 1
    assert "[FAILED]" not in resumed
    _assert_same_results(chaos_root, clean_root)


def test_resume_reruns_evicted_cache_entries(dag_registry, tmp_path):
    """A finished task whose cached payload vanished is re-run, never
    wrongly skipped — and regenerates identical results."""
    root = tmp_path / "cache"
    _run(root)

    fleet_key = _keys(dag_registry)["fleet"]
    (victim,) = (
        path
        for path in root.glob("packs/*.pack")
        if fleet_key in _parse_pack(path.read_bytes())
    )
    original = _entries(root)[fleet_key]
    victim.unlink()

    resumed = _run(root)
    assert resumed.count("[cache hit]") == len(ORDER) - 1
    regenerated = _entries(root)[fleet_key]
    assert pickle.dumps(regenerated[:2]) == pickle.dumps(original[:2])
    _assert_timing(regenerated)


def test_resume_ignores_checkpoint_from_different_inputs(dag_registry, tmp_path):
    """Changing seed changes every result key, so nothing is served
    from the cache and no seed-0 entry or timing is reused."""
    root = tmp_path / "cache"
    _run(root)
    seed0 = set(_entries(root))

    seed1_out = _run(root, seed=1)
    assert seed1_out.count("[cache hit]") == 0
    assert f"tasks: {len(ORDER)} ({len(ORDER)} timed)" in seed1_out

    seed1 = set(_keys(dag_registry, seed=1).values())
    assert len(seed1) == len(ORDER)
    assert not seed1 & seed0
    assert set(_entries(root)) == seed0 | seed1


# ---------------------------------------------------------------------------
# Pool-path differential: the pool's dispatch loop under chaos + retry
# must produce exactly the serial results.  CI runs this leg with
# REPRO_DAG_TEST_JOBS=2.
# ---------------------------------------------------------------------------


def _pool_node(tag):
    return f"pool:{tag}"


def test_pool_dispatch_under_chaos_matches_serial():
    labels = [f"n{i}" for i in range(6)]
    tasks = [(label,) for label in labels]
    with WorkerPool(1) as pool:
        serial = pool.map_tasks(_pool_node, tasks, labels=labels)

    jobs = int(os.environ.get("REPRO_DAG_TEST_JOBS", "2"))
    report = ParallelReport()
    with WorkerPool(jobs) as pool:
        pooled = pool.map_tasks(
            _pool_node,
            tasks,
            labels=labels,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            chaos=WorkerChaos(seed=11, probability=0.5, max_crashes=1),
            report=report,
        )
    assert pooled == serial
    assert report.mode == ("process-pool" if jobs > 1 else "serial")
    assert any(timing.attempts > 1 for timing in report.timings)
