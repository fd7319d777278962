"""Parallel runner determinism and result-cache unit tests.

The methodology requirement: fanning runs out over worker processes
must be *invisible* in the results — byte-identical metrics and trace
counters versus the serial path — and the result cache must hit only
when (experiment id, params, code fingerprint) all match.
"""

import pickle
from functools import partial

import pytest

from repro.apps import APPS
from repro.apps.temp_alarm import build_temp_alarm
from repro.core.builder import SystemKind
from repro.errors import ConfigurationError
from repro.experiments import metrics, run_all
from repro.experiments.cache import (
    PACK_DIR,
    ResultCache,
    code_fingerprint,
    result_key,
)
from repro.experiments.campaign import campaign_runs, campaigns
from repro.experiments.parallel import (
    JOBS_ENV,
    ParallelReport,
    WorkerPool,
    default_jobs,
)
from repro.experiments.registry import Experiment

KINDS = [SystemKind.CONTINUOUS, SystemKind.FIXED, SystemKind.CAPY_P]


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


class TestParallelMap:
    """`WorkerPool.map_tasks` as a parallel map: task order, serial ==
    pool, and the in-process fallbacks."""

    def test_results_in_submission_order(self):
        with WorkerPool(jobs=2) as pool:
            results = pool.map_tasks(_square, [(i,) for i in range(8)])
        assert results == [i * i for i in range(8)]

    def test_serial_and_pool_agree(self):
        tasks = [(i,) for i in range(6)]
        with WorkerPool(jobs=1) as serial, WorkerPool(jobs=2) as pooled:
            assert serial.map_tasks(_square, tasks) == pooled.map_tasks(
                _square, tasks
            )

    def test_single_task_stays_serial(self, monkeypatch):
        """`run_all.dispatch` sizes its pool to ``min(jobs, tasks)``, so
        an experiment with one task runs in-process."""
        report = ParallelReport()
        exp = Experiment("one", "One", lambda seed, scale: f"seed={seed}\n")
        monkeypatch.setattr(run_all, "get_experiment", {"one": exp}.get)
        finished = run_all.dispatch([exp], 3, 1.0, 4, False, report=report)
        assert finished["one"][0] == "seed=3\n"
        assert report.mode == "serial"

    def test_non_picklable_fn_falls_back_to_serial(self):
        report = ParallelReport()
        with WorkerPool(jobs=4) as pool:
            results = pool.map_tasks(
                lambda x: x + 1, [(1,), (2,)], report=report
            )
        assert results == [2, 3]
        assert report.mode == "serial"
        assert report.jobs == 1

    def test_report_timings_carry_labels(self):
        report = ParallelReport()
        with WorkerPool(jobs=1) as pool:
            pool.map_tasks(
                _square, [(1,), (2,)], labels=["a", "b"], report=report
            )
        assert [timing.label for timing in report.timings] == ["a", "b"]
        assert all(timing.seconds >= 0.0 for timing in report.timings)
        assert report.total_task_seconds >= 0.0

    def test_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert default_jobs() == 3
        monkeypatch.setenv(JOBS_ENV, "")
        assert default_jobs() >= 1

    @pytest.mark.parametrize("value", ["not-a-number", "0", "-3", "1.5"])
    def test_jobs_env_rejects_anything_but_a_positive_int(
        self, monkeypatch, value
    ):
        monkeypatch.setenv(JOBS_ENV, value)
        with pytest.raises(ConfigurationError, match=JOBS_ENV):
            default_jobs()

    @pytest.mark.parametrize("jobs", [0, -5, True, 2.0])
    def test_pool_rejects_jobs_that_are_not_a_positive_int(self, jobs):
        with pytest.raises(ConfigurationError, match="jobs must be an int >= 1"):
            WorkerPool(jobs=jobs)


def _metric_dict(campaign, app):
    """App-appropriate metrics, keyed per system."""
    out = {}
    for kind in KINDS:
        instance = campaign[kind]
        if app == "ta":
            out[kind.value] = metrics.ta_accuracy(
                instance, campaign[SystemKind.CONTINUOUS]
            )
        elif app == "grc":
            outcomes = metrics.grc_outcomes(instance)
            out[kind.value] = {
                label: outcomes.fraction(label)
                for label in (
                    metrics.GRC_CORRECT,
                    metrics.GRC_MISCLASSIFIED,
                    metrics.GRC_PROXIMITY_ONLY,
                    metrics.GRC_MISSED,
                )
            }
        else:
            out[kind.value] = metrics.csr_accuracy(instance)
    return out


def _dispatched_traces(runs, jobs):
    """*runs* as one declared-runs experiment on `run_all.dispatch` with
    *jobs* workers; the traces its runner was handed, in order."""
    seen = []

    def runner(seed, scale, traces):
        seen.extend(traces)
        return ""

    exp = Experiment("campaign", "Campaign", runner, runs=lambda seed, scale: runs)
    report = ParallelReport()
    run_all.dispatch([exp], 0, 1.0, jobs, False, report=report)
    assert report.mode == ("process-pool" if jobs > 1 else "serial")
    return seen


class TestCampaignDeterminism:
    """Declared campaign runs give bit-identical traces whether they run
    in-process or as tasks on a 2-worker pool."""

    @pytest.mark.parametrize(
        "app,name,events",
        [("ta", "temp-alarm", 4), ("grc", "grc-fast", 6), ("csr", "csr", 6)],
        ids=["temp-alarm", "grc-fast", "csr"],
    )
    def test_parallel_matches_serial(self, app, name, events):
        # The oracle builds each system directly, in-process; the
        # declared runs rebuild the app's scenario in pool workers.
        direct = partial(APPS[name].build, seed=5, event_count=events)
        points = [(name, APPS[name].scenario(seed=5, event_count=events), KINDS, 60.0)]
        horizon = direct(SystemKind.CONTINUOUS).schedule.horizon + 60.0
        serial = []
        for kind in KINDS:
            instance = direct(kind)
            instance.run(horizon)
            serial.append(instance.trace)
        runs = campaign_runs(points)
        inline = _dispatched_traces(runs, jobs=1)
        fanned = _dispatched_traces(runs, jobs=2)

        ((_, oracle),) = campaigns(points, serial)
        ((_, pooled),) = campaigns(points, fanned)
        assert _metric_dict(pooled, app) == _metric_dict(oracle, app)
        for serial_trace, inline_trace, fanned_trace in zip(serial, inline, fanned):
            assert fanned_trace.counters == serial_trace.counters
            # Byte-identical traces: same events, samples, packets, times.
            assert pickle.dumps(inline_trace) == pickle.dumps(serial_trace)
            assert pickle.dumps(fanned_trace) == pickle.dumps(serial_trace)

    def test_campaign_metadata_preserved(self):
        scenario = APPS["temp-alarm"].scenario(seed=5, event_count=4)
        points = [("ta", scenario, KINDS, 60.0)]
        runs = campaign_runs(points)
        assert [run.label for run in runs] == ["ta/Pwr", "ta/Fixed", "ta/CB-P"]
        # Without traces the runs execute in this process, in order.
        ((_, campaign),) = campaigns(points)
        direct = APPS["temp-alarm"].build(SystemKind.FIXED, seed=5, event_count=4)
        assert list(campaign) == KINDS
        horizon = direct.schedule.horizon + 60.0
        for (schedule, trace), run in zip(campaign.values(), runs):
            assert schedule.events == direct.schedule.events
            assert pickle.dumps(trace) == pickle.dumps(run.fn(*run.args))
            assert max(sample.time for sample in trace.samples) <= horizon

    def test_rejects_a_bare_builder(self):
        """Campaign runs take declared scenarios, not direct builders."""
        builder = partial(build_temp_alarm, seed=5, event_count=4)
        with pytest.raises(ConfigurationError, match="ScenarioSpec"):
            campaign_runs([("ta", builder, KINDS, 60.0)])


class TestResultKey:
    def test_stable_across_param_order(self):
        assert result_key("fig08", {"seed": 1, "scale": 0.5}) == result_key(
            "fig08", {"scale": 0.5, "seed": 1}
        )

    def test_changes_with_params(self):
        assert result_key("fig08", {"seed": 1}) != result_key(
            "fig08", {"seed": 2}
        )

    def test_changes_with_experiment_id(self):
        assert result_key("fig08", {"seed": 1}) != result_key(
            "fig10", {"seed": 1}
        )

    def test_changes_with_code_fingerprint(self):
        """Editing any simulator source must invalidate cached results."""
        assert result_key("fig08", {}, fingerprint="aaa") != result_key(
            "fig08", {}, fingerprint="bbb"
        )

    def test_default_fingerprint_is_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert result_key("fig08", {"seed": 1}) == result_key(
            "fig08", {"seed": 1}
        )


def _only_pack(cache):
    """The one pack a single ``put`` left in *cache*."""
    (path,) = (cache.root / PACK_DIR).glob("*.pack")
    return path


class TestResultCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        key = result_key("exp", {"seed": 1}, fingerprint="f1")
        assert cache.get(key) is None
        cache.put(key, {"table": "rows", "value": 1.25})
        assert cache.get(key) == {"table": "rows", "value": 1.25}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert len(cache) == 1

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        cache.put(result_key("exp", {"seed": 1}, fingerprint="f1"), "one")
        assert cache.get(result_key("exp", {"seed": 2}, fingerprint="f1")) is None

    def test_code_change_invalidates(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        cache.put(result_key("exp", {"seed": 1}, fingerprint="f1"), "one")
        assert cache.get(result_key("exp", {"seed": 1}, fingerprint="f2")) is None
        assert cache.get(result_key("exp", {"seed": 1}, fingerprint="f1")) == "one"

    def test_disabled_cache_never_hits(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        key = result_key("exp", {}, fingerprint="f1")
        cache.put(key, "payload")
        cache.enabled = False
        assert cache.get(key) is None
        cache.put(key, "other")  # no-op while disabled
        cache.enabled = True
        assert cache.get(key) == "payload"

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        for seed in range(3):
            cache.put(result_key("exp", {"seed": seed}, fingerprint="f"), seed)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.get(result_key("exp", {"seed": 0}, fingerprint="f")) is None

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        key = result_key("exp", {}, fingerprint="f1")
        cache.put(key, "payload")
        _only_pack(cache).write_bytes(b"\x00not a pickle")
        assert cache.get(key) is None

    def test_corrupt_entry_is_counted_and_quarantined(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        key = result_key("exp", {}, fingerprint="f1")
        cache.put(key, "payload")
        path = _only_pack(cache)
        path.write_bytes(b"\x80\x04garbage")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert cache.stats.as_dict()["corrupt"] == 1
        # The bad file is removed, so the next miss is a plain miss.
        assert not path.exists()
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 2

    def test_truncated_entry_is_corrupt(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        key = result_key("exp", {}, fingerprint="f1")
        cache.put(key, ("text", {"metrics": {}}))
        path = _only_pack(cache)
        path.write_bytes(path.read_bytes()[:5])  # simulate a torn write
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_missing_entry_is_not_corrupt(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        assert cache.get(result_key("exp", {}, fingerprint="f1")) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 0

    def test_corrupt_entry_reports_telemetry(self, tmp_path):
        from repro.observability import Telemetry

        telemetry = Telemetry()
        cache = ResultCache(root=tmp_path / "cache", telemetry=telemetry)
        key = result_key("exp", {}, fingerprint="f1")
        cache.put(key, "payload")
        _only_pack(cache).write_bytes(b"\x00junk")
        assert cache.get(key) is None
        assert telemetry.metrics.counter("cache.corrupt_entries").value == 1.0


def _boom(x):
    """Module-level failing task for retry-path tests."""
    raise ValueError(f"boom {x}")


class TestWorkerPool:
    """The persistent pool behind the job service (repro.service)."""

    def test_serial_mode_runs_inline(self):
        from repro.experiments.parallel import WorkerPool

        with WorkerPool(jobs=1) as pool:
            assert pool.mode == "serial"
            result, timing = pool.run_task(_square, (7,))
            assert result == 49
            assert timing.attempts == 1
            assert pool.tasks_run == 1

    def test_pool_mode_round_trips_through_processes(self):
        from repro.experiments.parallel import WorkerPool

        with WorkerPool(jobs=2) as pool:
            assert pool.mode == "process-pool"
            results = [pool.run_task(_square, (i,))[0] for i in range(4)]
        assert results == [0, 1, 4, 9]

    def test_shutdown_is_idempotent(self):
        from repro.experiments.parallel import WorkerPool

        pool = WorkerPool(jobs=2)
        pool.run_task(_square, (2,))
        pool.shutdown()
        pool.shutdown()  # second join must be a no-op, not a hang/crash
        pool.close()
        assert pool.closed

    def test_context_exit_after_explicit_shutdown(self):
        from repro.experiments.parallel import WorkerPool

        with WorkerPool(jobs=1) as pool:
            pool.run_task(_square, (3,))
            pool.shutdown()  # `with` unwind shuts down again: fine

    def test_concurrent_shutdown_single_join(self):
        import threading

        from repro.experiments.parallel import WorkerPool

        pool = WorkerPool(jobs=2)
        pool.run_task(_square, (5,))
        threads = [
            threading.Thread(target=pool.shutdown) for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert pool.closed

    def test_use_after_shutdown_raises(self):
        from repro.errors import ConfigurationError
        from repro.experiments.parallel import WorkerPool

        pool = WorkerPool(jobs=1)
        pool.shutdown()
        with pytest.raises(ConfigurationError, match="shut down"):
            pool.run_task(_square, (1,))

    def test_chaos_and_retry_through_the_pool(self):
        from repro.experiments.parallel import RetryPolicy, WorkerPool
        from repro.faults.inject import WorkerChaos

        chaos = WorkerChaos(seed=5, probability=1.0, max_crashes=2)
        with WorkerPool(jobs=1) as pool:
            result, timing = pool.run_task(
                _square,
                (6,),
                label="chaotic",
                retry=RetryPolicy(max_attempts=4, base_delay=0.0),
                chaos=chaos,
            )
        assert result == 36
        assert timing.attempts == 3  # budget of 2 injected crashes

    def test_exhausted_retries_raise_last_error(self):
        from repro.experiments.parallel import RetryPolicy, WorkerPool
        from repro.observability import Telemetry

        telemetry = Telemetry()
        with WorkerPool(jobs=1) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.run_task(
                    _boom,
                    (1,),
                    retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                    telemetry=telemetry,
                )
        assert telemetry.metrics.counter("campaign.retries").value == 1
        assert telemetry.metrics.counter("campaign.gave_up").value == 1

    def test_non_picklable_task_falls_back_inline(self):
        from repro.experiments.parallel import WorkerPool

        with WorkerPool(jobs=2) as pool:
            result, _ = pool.run_task(lambda x: x + 1, (41,))
        assert result == 42


class TestWorkerPoolMapTasks:
    """`map_tasks` on the persistent executor — the execution primitive
    of `run_all` and the campaign planner."""

    def test_results_in_submission_order(self):
        from repro.experiments.parallel import WorkerPool

        with WorkerPool(jobs=2) as pool:
            results = pool.map_tasks(_square, [(i,) for i in range(8)])
        assert results == [i * i for i in range(8)]

    def test_serial_and_pool_paths_agree(self):
        from repro.experiments.parallel import WorkerPool

        tasks = [(i,) for i in range(6)]
        with WorkerPool(jobs=1) as serial, WorkerPool(jobs=2) as pooled:
            assert serial.map_tasks(_square, tasks) == pooled.map_tasks(
                _square, tasks
            )

    def test_each_task_is_pickled_once(self, monkeypatch):
        """The parent pickles each task once, and that is what ships:
        retried attempts resend the same bytes."""
        from repro.experiments.parallel import RetryPolicy, WorkerPool
        from repro.faults.inject import WorkerChaos

        calls = []
        real_dumps = pickle.dumps

        def counting(obj, *args, **kwargs):
            calls.append(obj)
            return real_dumps(obj, *args, **kwargs)

        tasks = [(i,) for i in range(5)]
        chaos = WorkerChaos(seed=5, probability=1.0, max_crashes=1)
        with WorkerPool(jobs=2) as pool:
            monkeypatch.setattr(pickle, "dumps", counting)
            results = pool.map_tasks(
                _square,
                tasks,
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                chaos=chaos,
            )
            monkeypatch.undo()
        assert results == [i * i for i in range(5)]
        assert len(calls) == len(tasks)

    def test_counts_toward_tasks_run_and_pool_survives(self):
        from repro.experiments.parallel import WorkerPool

        with WorkerPool(jobs=1) as pool:
            pool.map_tasks(_square, [(1,), (2,)])
            assert pool.tasks_run == 2
            # The pool is reusable for further campaigns and singles.
            pool.map_tasks(_square, [(3,)])
            result, _ = pool.run_task(_square, (4,))
            assert result == 16
            assert pool.tasks_run == 4

    def test_chaos_and_retry_are_deterministic(self):
        from repro.experiments.parallel import RetryPolicy, WorkerPool
        from repro.faults.inject import WorkerChaos

        tasks = [(i,) for i in range(4)]
        retry = RetryPolicy(max_attempts=4, base_delay=0.0)
        chaos = WorkerChaos(seed=5, probability=1.0, max_crashes=2)
        with WorkerPool(jobs=1) as pool:
            clean = pool.map_tasks(_square, tasks)
            chaotic = pool.map_tasks(_square, tasks, retry=retry, chaos=chaos)
        assert chaotic == clean

    def test_capture_returns_task_errors_in_place(self):
        from repro.experiments.parallel import RetryPolicy, TaskError, WorkerPool

        with WorkerPool(jobs=1) as pool:
            results = pool.map_tasks(
                _boom,
                [(1,), (2,)],
                labels=["a", "b"],
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                on_error="capture",
            )
        assert all(isinstance(r, TaskError) for r in results)
        assert [r.label for r in results] == ["a", "b"]
        assert all(r.attempts == 2 for r in results)

    def test_shutdown_pool_rejects_map_tasks(self):
        from repro.errors import ConfigurationError
        from repro.experiments.parallel import WorkerPool

        pool = WorkerPool(jobs=1)
        pool.shutdown()
        with pytest.raises(ConfigurationError, match="shut down"):
            pool.map_tasks(_square, [(1,)])

    def test_invalid_on_error_rejected(self):
        from repro.errors import ConfigurationError
        from repro.experiments.parallel import WorkerPool

        with WorkerPool(jobs=1) as pool:
            with pytest.raises(ConfigurationError, match="on_error"):
                pool.map_tasks(_square, [(1,)], on_error="ignore")


def _die(*_):
    """Kill the worker process running this task, as an OOM kill would."""
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


def _die_once(marker):
    """Kill the worker on the first call; later calls return 'survived'."""
    import os

    if not os.path.exists(marker):
        open(marker, "w").close()
        _die()
    return "survived"


def _square_unless_three(x):
    if x == 3:
        raise ValueError("three is cursed")
    return x * x


def _fail_at_root(node):
    if node == "a":
        raise RuntimeError("root failed")
    return node


class TestOneDispatcher:
    """`map_tasks` and `run_task` share one dispatch loop: same results,
    same error rows, same counters."""

    def test_killed_worker_does_not_break_the_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments.parallel import WorkerPool

        with WorkerPool(jobs=2) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.run_task(_die, ())
            result, _ = pool.run_task(_square, (4,))
            assert result == 16
            assert pool.map_tasks(_square, [(i,) for i in range(4)]) == [
                0,
                1,
                4,
                9,
            ]

    def test_killed_worker_is_a_retried_attempt(self, tmp_path):
        from repro.experiments.parallel import RetryPolicy, WorkerPool

        with WorkerPool(jobs=2) as pool:
            result, timing = pool.run_task(
                _die_once,
                (str(tmp_path / "died"),),
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            )
        assert result == "survived"
        assert timing.attempts == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_tasks_run_counts_dispatched_tasks_only(self, jobs):
        """One count per task, not per attempt: a failing task retried
        twice counts once, and a task never dispatched (after a
        ``"raise"`` abort in-process) not at all."""
        from repro.experiments.parallel import RetryPolicy, TaskError, WorkerPool

        tasks = [(n,) for n in "abc"]
        retry = RetryPolicy(max_attempts=3, base_delay=0.0)
        with WorkerPool(jobs=jobs) as pool:
            results = pool.map_tasks(
                _fail_at_root, tasks, retry=retry, on_error="capture"
            )
            assert pool.tasks_run == 3
            if jobs == 1:
                with pytest.raises(RuntimeError, match="root failed"):
                    pool.map_tasks(_fail_at_root, tasks, retry=retry)
                assert pool.tasks_run == 4
        assert isinstance(results[0], TaskError)
        assert results[0].attempts == 3
        assert results[1:] == ["b", "c"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_three_faces_agree_under_chaos_and_capture(self, jobs):
        from repro.experiments.parallel import (
            RetryPolicy,
            TaskError,
            WorkerPool,
        )
        from repro.faults.inject import WorkerChaos
        from repro.observability import Telemetry

        tasks = [(i,) for i in range(6)]
        labels = [f"t{i}" for i in range(6)]
        contract = dict(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            # Kills t0 and t5 twice and t2 once before they succeed.
            chaos=WorkerChaos(seed=0, probability=0.5, max_crashes=2),
        )

        def rows(results):
            return [
                (r.label, r.attempts) if isinstance(r, TaskError) else r
                for r in results
            ]

        def counters(telemetry):
            snapshot = telemetry.metrics.snapshot()
            return {
                name: snapshot.get(name, {}).get("value", 0)
                for name in ("campaign.retries", "campaign.gave_up")
            }

        faces = {}
        with WorkerPool(jobs=jobs) as pool:
            telemetry = Telemetry()
            faces["map_tasks"] = (
                pool.map_tasks(
                    _square_unless_three,
                    tasks,
                    labels=labels,
                    on_error="capture",
                    telemetry=telemetry,
                    **contract,
                ),
                counters(telemetry),
            )
            telemetry = Telemetry()
            singles = []
            for label, args in zip(labels, tasks):
                try:
                    singles.append(
                        pool.run_task(
                            _square_unless_three,
                            args,
                            label=label,
                            telemetry=telemetry,
                            **contract,
                        )[0]
                    )
                except ValueError as error:
                    singles.append(TaskError(label, repr(error), 3))
            faces["run_task"] = (singles, counters(telemetry))
            assert pool.tasks_run == 2 * len(tasks)

        reference = faces["map_tasks"]
        assert rows(reference[0]) == [0, 1, 4, ("t3", 3), 16, 25]
        assert reference[1]["campaign.gave_up"] == 1
        assert reference[1]["campaign.retries"] == 5 + 2  # chaos + t3's
        for name, (results, seen) in faces.items():
            assert rows(results) == rows(reference[0]), name
            assert seen == reference[1], name

    def test_single_task_on_a_pool_runs_in_a_worker(self):
        import os

        from repro.experiments.parallel import WorkerPool

        report = ParallelReport()
        with WorkerPool(jobs=2) as pool:
            [pid] = pool.map_tasks(os.getpid, [()], report=report)
            single_pid, _ = pool.run_task(os.getpid, ())
        assert report.mode == "process-pool"
        assert pid != os.getpid()
        assert single_pid != os.getpid()

    def test_tasks_run_survives_concurrent_callers(self):
        import sys
        import threading

        from repro.experiments.parallel import WorkerPool

        pool = WorkerPool(jobs=1)
        calls_per_thread = 200

        def hammer():
            for i in range(calls_per_thread):
                pool.run_task(_square, (i,))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert pool.tasks_run == 8 * calls_per_thread
