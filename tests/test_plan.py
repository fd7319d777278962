"""Campaign batching planner: partition rules, bit-identity, keys.

The planner's one non-negotiable invariant is that batch composition is
invisible: a job's payload and cache key are byte-identical whether it
runs solo, in a cohort batch, through the service, or under worker
chaos with retries.  These tests pin that invariant from every side.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from pathlib import Path

import pytest

from repro.apps.temp_alarm import MODE_SENSE, scenario
from repro.errors import ConfigurationError, InjectedWorkerCrash
from repro.experiments.cache import PACK_DIR, ResultCache
from repro.experiments.parallel import RetryPolicy, TaskError, WorkerPool
from repro.experiments.plan import (
    DEFAULT_VEC_HORIZON,
    CampaignJob,
    _launch_groups,
    _shards,
    execute_plan,
    job_result_key,
    plan_campaign,
    run_fleet_batch,
)
from repro.faults.inject import WorkerChaos
from repro.observability import Telemetry
from repro.spec import canonical_json
from repro.vec import FIXED_BANK_MODE

GOLDEN_FAULTS = Path(__file__).parent / "golden" / "faults"


def _scenario_json(seed: int = 0) -> str:
    return canonical_json(scenario(seed=seed))


def _vec_jobs(count: int = 4, horizon: float = 60.0):
    """A small (power scale x system) grid of vec campaign jobs."""
    scenario_json = _scenario_json()
    systems = (("Fixed", FIXED_BANK_MODE), ("CB-P", MODE_SENSE))
    jobs = []
    for i in range(count):
        system, mode = systems[i % 2]
        jobs.append(
            CampaignJob(
                label=f"j{i}",
                scenario_json=scenario_json,
                system=system,
                horizon=horizon,
                backend="vec",
                mode=mode,
                power_scale=0.5 + 0.5 * (i // 2),
            )
        )
    return jobs


class TestPlanCampaign:
    def test_partitions_cohorts_and_stragglers(self):
        jobs = _vec_jobs(4)
        scalar = CampaignJob(
            label="scalar", scenario_json=_scenario_json(), horizon=60.0
        )
        faulted = dataclasses.replace(
            jobs[0],
            label="faulted",
            faults_json=(GOLDEN_FAULTS / "blackout.json").read_text(),
        )
        telemetry = Telemetry()
        plan = plan_campaign(jobs + [scalar, faulted], telemetry=telemetry)

        assert len(plan.cohorts) == 1
        assert [i for i, _ in plan.cohorts[0].jobs] == [0, 1, 2, 3]
        assert [s.index for s in plan.stragglers] == [4, 5]
        assert [s.slug for s in plan.stragglers] == ["backend-scalar", "faults"]

        stats = plan.stats()
        assert stats == {
            "jobs": 6,
            "cohorts": 1,
            "batched_jobs": 4,
            "straggler_jobs": 2,
            "batched_fraction": 4 / 6,
            "straggler_reasons": {"backend-scalar": 1, "faults": 1},
        }
        counters = telemetry.metrics
        assert counters.counter("plan.jobs").value == 6
        assert counters.counter("plan.batched_jobs").value == 4
        assert counters.counter("plan.straggler_jobs").value == 2
        assert counters.counter("plan.straggler_reason.faults").value == 1
        assert counters.gauge("plan.batched_fraction").value == 4 / 6

    def test_cohorts_split_by_resolved_horizon(self):
        jobs = _vec_jobs(2, horizon=60.0) + [
            dataclasses.replace(job, label=job.label + "b", horizon=120.0)
            for job in _vec_jobs(2)
        ]
        plan = plan_campaign(jobs)
        assert len(plan.cohorts) == 2
        assert [c.horizon for c in plan.cohorts] == [60.0, 120.0]
        assert plan.stats()["batched_fraction"] == 1.0

    def test_default_horizon_resolves(self):
        job = dataclasses.replace(_vec_jobs(1)[0], horizon=None)
        assert job.vec_horizon == DEFAULT_VEC_HORIZON
        plan = plan_campaign([job])
        assert plan.cohorts[0].horizon == DEFAULT_VEC_HORIZON

    def test_rejected_vec_job_downgrades_to_scalar_key(self):
        faulted = dataclasses.replace(
            _vec_jobs(1)[0],
            faults_json=(GOLDEN_FAULTS / "blackout.json").read_text(),
        )
        plan = plan_campaign([faulted])
        (straggler,) = plan.stragglers
        assert straggler.job.backend == "scalar"
        assert "fault" in straggler.reason
        # The downgraded job keys exactly as the same work requested
        # scalar up front: key and payload stay coherent with how it ran.
        assert job_result_key(straggler.job) == job_result_key(
            dataclasses.replace(faulted, backend="scalar")
        )

    def test_capability_checks_run_once_per_distinct_scenario(self, monkeypatch):
        import repro.vec

        checked = []
        real = repro.vec.check_scenario

        def counting(scenario, schedule=None):
            checked.append(scenario.name)
            return real(scenario, schedule)

        monkeypatch.setattr(repro.vec, "check_scenario", counting)
        other = _scenario_json(seed=1)
        broken = CampaignJob(
            label="broken", scenario_json='{"name": 1}', backend="vec"
        )
        jobs = _vec_jobs(4) + [
            dataclasses.replace(job, scenario_json=other) for job in _vec_jobs(4)
        ] + [broken, dataclasses.replace(broken, label="broken-too")]
        plan = plan_campaign(jobs)
        assert len(checked) == 2
        assert plan.batched_jobs == 8
        # A spec error is never memoized: each job raises and reports
        # its own.
        assert [(s.index, s.slug) for s in plan.stragglers] == [
            (8, "spec-error"), (9, "spec-error"),
        ]


class TestBitIdentity:
    def test_batch_equals_solo(self):
        jobs = _vec_jobs(4)
        assert run_fleet_batch(jobs) == [
            run_fleet_batch((job,))[0] for job in jobs
        ]

    def test_batch_equals_solo_with_telemetry_snapshots(self):
        jobs = _vec_jobs(4)
        batched = run_fleet_batch(jobs, collect=True)
        solo = [run_fleet_batch((job,), collect=True)[0] for job in jobs]
        assert batched == solo
        assert batched[0]["telemetry"] is not None

    def test_ragged_batch_equals_solo(self):
        # Three horizons (one of them zero steps) and a replay trace in
        # one launch: each job equals its own batch of one.
        jobs = [
            dataclasses.replace(job, horizon=horizon)
            for job, horizon in zip(_vec_jobs(4), (60.0, 0.01, 17.35, 60.0))
        ] + [
            dataclasses.replace(
                job, label=f"r{i}", horizon=horizon,
                scenario_json=_replay_scenario_json(),
            )
            for i, (job, horizon) in enumerate(zip(_vec_jobs(2), (25.0, 45.0)))
        ]
        batched = run_fleet_batch(jobs, collect=True)
        assert [p["counters"]["steps"] for p in batched] == [
            1200, 0, 347, 1200, 500, 900
        ]
        assert batched == [
            run_fleet_batch((job,), collect=True)[0] for job in jobs
        ]

    def test_execute_plan_routes_agree(self):
        plan = plan_campaign(_vec_jobs(4))
        batched = execute_plan(plan, jobs=1)
        solo = execute_plan(plan, jobs=1, shard_size=1)
        assert batched.results == solo.results
        assert batched.keys == solo.keys

    def test_mixed_plan_keeps_original_job_order(self):
        jobs = _vec_jobs(2)
        scalar = CampaignJob(
            label="scalar", scenario_json=_scenario_json(), horizon=60.0
        )
        mixed = [jobs[0], scalar, jobs[1]]
        executed = execute_plan(plan_campaign(mixed), jobs=1)
        # vec payloads carry per-device fleet columns, scalar payloads a
        # full trace — each job got its own backend's payload, in order.
        assert [("fleet" in r, "trace" in r) for r in executed.results] == [
            (True, False),
            (False, True),
            (True, False),
        ]
        assert executed.results[0] == run_fleet_batch((jobs[0],))[0]
        assert executed.results[2] == run_fleet_batch((jobs[1],))[0]


class TestResultKeys:
    def test_service_request_interop(self):
        from repro.service.jobs import JobRequest

        scenario_json = _scenario_json()
        for backend in ("scalar", "vec"):
            request = JobRequest(
                scenario_json=scenario_json,
                system="CB-P",
                horizon=120.0,
                backend=backend,
            )
            job = CampaignJob.from_request(request)
            assert job_result_key(job) == request.result_key()

    def test_vec_knobs_join_key_only_when_non_default(self):
        base = _vec_jobs(1)[0]
        default_knobs = dataclasses.replace(
            base, mode=None, power_scale=1.0, initial_voltage=0.0
        )
        from repro.service.jobs import JobRequest

        request = JobRequest(
            scenario_json=base.scenario_json,
            system=base.system,
            horizon=base.horizon,
            backend="vec",
        )
        assert job_result_key(default_knobs) == request.result_key()
        assert job_result_key(base) != job_result_key(default_knobs)

    def test_label_does_not_affect_key(self):
        job = _vec_jobs(1)[0]
        assert job_result_key(job) == job_result_key(
            dataclasses.replace(job, label="renamed")
        )


class TestExecutePlan:
    def test_cache_round_trip(self, tmp_cache):
        jobs = _vec_jobs(4)
        plan = plan_campaign(jobs)
        first = execute_plan(plan, cache=tmp_cache, jobs=1)
        assert first.cached == [False] * 4

        telemetry = Telemetry()
        second = execute_plan(
            plan_campaign(jobs), cache=tmp_cache, jobs=1, telemetry=telemetry
        )
        assert second.cached == [True] * 4
        assert second.results == first.results
        assert telemetry.metrics.counter("plan.cache_hits").value == 4

    def test_each_scenario_parses_once_per_call(self, monkeypatch):
        import repro.spec

        parsed = []
        real = repro.spec.load_scenario

        def counting(text):
            parsed.append(text)
            return real(text)

        monkeypatch.setattr(repro.spec, "load_scenario", counting)
        other = _scenario_json(seed=1)
        jobs = _vec_jobs(4) + [
            dataclasses.replace(job, label=f"other{i}", scenario_json=other)
            for i, job in enumerate(_vec_jobs(4))
        ]
        plan = plan_campaign(jobs)
        assert len(parsed) == 2
        # One shard holds all 8 jobs: the key loop and the batch each
        # parse the two scenario texts once.
        result = execute_plan(plan, jobs=1)
        assert len(parsed) == 6
        assert result.keys == [job_result_key(job) for job in jobs]

    def test_request_key_parses_once(self, monkeypatch):
        import repro.spec
        from repro.service.jobs import JobRequest

        parsed = []
        real = repro.spec.load_scenario

        def counting(text):
            parsed.append(text)
            return real(text)

        request = JobRequest(scenario_json=_scenario_json(), backend="vec")
        monkeypatch.setattr(repro.spec, "load_scenario", counting)
        request.result_key()
        assert len(parsed) == 1

    def test_cached_payloads_serve_the_service_guard(self, tmp_cache):
        # The service accepts a cached payload only if it looks like a
        # job result; planner payloads must pass that shape check.
        executed = execute_plan(
            plan_campaign(_vec_jobs(2)), cache=tmp_cache, jobs=1
        )
        for key in executed.keys:
            cached = tmp_cache.get(key)
            assert isinstance(cached, dict) and "summary" in cached
            json.dumps(cached)  # HTTP-serialisable end to end

    def test_chaos_with_budget_is_bit_identical_to_clean(self):
        jobs = _vec_jobs(4)
        clean = execute_plan(plan_campaign(jobs), jobs=1)
        chaotic = execute_plan(
            plan_campaign(jobs),
            jobs=1,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
            chaos=WorkerChaos(seed=7, probability=1.0, max_crashes=2),
        )
        assert chaotic.results == clean.results

    def test_chaos_past_budget_captures_task_errors(self):
        jobs = _vec_jobs(2)
        telemetry = Telemetry()
        executed = execute_plan(
            plan_campaign(jobs),
            jobs=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            chaos=WorkerChaos(seed=7, probability=1.0, max_crashes=5),
            on_error="capture",
            telemetry=telemetry,
        )
        assert all(isinstance(r, TaskError) for r in executed.results)
        assert telemetry.metrics.counter("campaign.gave_up").value >= 1

    def test_run_fleet_batch_rejects_mixed_cohorts(self):
        # Horizons may differ within one launch; the dt may not.
        jobs = _vec_jobs(1) + [
            dataclasses.replace(_vec_jobs(1)[0], label="other", dt=0.1)
        ]
        with pytest.raises(ConfigurationError, match="one launch shares one dt"):
            run_fleet_batch(jobs)
        with pytest.raises(ConfigurationError, match="vec jobs only"):
            run_fleet_batch(
                (CampaignJob(label="s", scenario_json=_scenario_json()),)
            )

    def test_one_launch_per_dt_and_trace_across_horizons(self):
        jobs = (
            _vec_jobs(2, horizon=30.0)
            + _vec_jobs(2, horizon=60.0)
            + [dataclasses.replace(job, dt=0.1) for job in _vec_jobs(2)]
            + [
                dataclasses.replace(
                    job, horizon=horizon, scenario_json=_replay_scenario_json()
                )
                for job, horizon in zip(_vec_jobs(2), (30.0, 60.0))
            ]
        )
        telemetry = Telemetry()
        plan = plan_campaign(jobs)
        assert len(plan.cohorts) == 5
        executed = execute_plan(plan, jobs=1, telemetry=telemetry)
        # Static at dt 0.05 (two horizons), static at dt 0.1, replayed.
        assert telemetry.metrics.counter("plan.shards").value == 3
        assert executed.results == [
            run_fleet_batch((job,))[0] for job in jobs
        ]

    def test_shards_split_device_steps_evenly(self):
        def sizes(groups, size=None):
            return [
                (g, s, len(shard))
                for g, s, shard in _shards(groups, workers=2, size=size)
            ]

        # One 900 s job beside 2,000 10 s jobs: equal device-steps put
        # the long job with the first ~955 short ones.
        short = dataclasses.replace(_vec_jobs(1)[0], horizon=10.0)
        long = dataclasses.replace(short, horizon=900.0)
        jobs = list(enumerate([long] + [short] * 2000))
        shards = _shards([jobs], workers=2, size=None)
        steps = [
            sum(job.vec_steps for _, job in shard) for _, _, shard in shards
        ]
        assert len(shards) == 2 and sum(len(s) for *_, s in shards) == len(jobs)
        assert abs(steps[0] - steps[1]) <= 200
        # Equal jobs split as evenly as before, and never into more
        # shards than jobs.
        even = list(enumerate(_vec_jobs(6)))
        assert sizes([even]) == [(0, 0, 3), (0, 1, 3)]
        assert sizes([even[:1]]) == [(0, 0, 1)]
        assert sizes([even], size=4) == [(0, 0, 4), (0, 1, 2)]
        # Groups no larger than a worker's share stay whole; a run that
        # crosses a group boundary becomes one shard per group.
        assert sizes([even[:2]] * 4) == [(0, 0, 2), (1, 0, 2), (2, 1, 2), (3, 1, 2)]
        assert sizes([even[:2]] * 3) == [(0, 0, 2), (1, 0, 1), (1, 1, 1), (2, 1, 2)]
        assert sizes([even[:3], even[:1]], size=2) == [(0, 0, 2), (0, 1, 1), (1, 0, 1)]

    def test_worker_pool_runs_consecutive_plans(self):
        jobs = _vec_jobs(4)
        serial = execute_plan(plan_campaign(jobs), jobs=1)
        with WorkerPool(jobs=2) as pool:
            first = execute_plan(plan_campaign(jobs), pool=pool)
            second = execute_plan(plan_campaign(jobs), pool=pool)
            assert pool.tasks_run >= 2
        assert first.results == serial.results
        assert second.results == serial.results

    @pytest.mark.parametrize(
        "knob,value",
        [
            ("shard_size", -1),
            ("shard_size", 0),
            ("shard_size", True),
            ("jobs", 0),
            ("jobs", -2),
            ("jobs", True),
        ],
    )
    def test_rejects_counts_that_are_not_a_positive_int(self, knob, value):
        """A shard size or worker count below 1 (or a bool) fails closed
        before anything runs, not with a ``None`` per job."""
        with pytest.raises(ConfigurationError, match=f"{knob} must be an int >= 1"):
            execute_plan(plan_campaign(_vec_jobs(2)), **{knob: value})


def _replay_scenario_json() -> str:
    """The TempAlarm scenario under an inline hold-replay irradiance trace."""
    doc = json.loads(_scenario_json())
    doc["platform"]["harvester"]["irradiance"] = {
        "kind": "replay",
        "samples": [[0.0, 24.0], [20.0, 6.0], [40.0, 18.0]],
    }
    return json.dumps(doc)


def _mixed_jobs():
    """Vec cohorts (static and replay trace) plus scalar stragglers,
    two of which share one label."""
    faults = (GOLDEN_FAULTS / "blackout.json").read_text()
    replayed = [
        dataclasses.replace(
            job, label=f"r{i}", scenario_json=_replay_scenario_json()
        )
        for i, job in enumerate(_vec_jobs(2))
    ]
    scalar = [
        CampaignJob(label="dup", scenario_json=_scenario_json(), horizon=30.0),
        CampaignJob(
            label="dup", scenario_json=_scenario_json(seed=1), horizon=30.0,
            faults_json=faults,
        ),
    ]
    return _vec_jobs(4) + replayed + scalar


def _ragged_jobs():
    """Six static vec jobs over two horizons (launch group g0, in job
    order, so its shard of two jobs 2 and 3 mixes them), then two
    replayed jobs over two horizons (g1)."""
    return [
        dataclasses.replace(job, horizon=30.0 + 15.0 * (i // 3))
        for i, job in enumerate(_vec_jobs(6))
    ] + [
        dataclasses.replace(
            job, label=f"r{i}", horizon=30.0 + 15.0 * i,
            scenario_json=_replay_scenario_json(),
        )
        for i, job in enumerate(_vec_jobs(2))
    ]


_KILL_WORKERS = sorted({1, int(os.environ.get("REPRO_DAG_TEST_JOBS", "2"))})


def _files(root, pattern):
    return sorted(root.rglob(pattern))


class TestPackPublish:
    """Each completed vec shard publishes one pack; each straggler
    publishes a one-entry pack."""

    def test_keys_equal_job_result_key_on_mixed_campaign(self):
        jobs = _mixed_jobs()
        plan = plan_campaign(jobs)
        assert len(plan.cohorts) == 2 and len(plan.stragglers) == 2
        assert execute_plan(plan, jobs=1).keys == [job_result_key(j) for j in jobs]

    def test_stragglers_sharing_a_label_get_their_own_tasks(self, tmp_cache):
        jobs = _mixed_jobs()
        executed = execute_plan(
            plan_campaign(jobs),
            cache=tmp_cache,
            jobs=1,
            chaos=WorkerChaos(
                seed=7, probability=1.0, max_crashes=99,
                only_label="plan:straggler:7:dup",
            ),
        )
        assert isinstance(executed.results[7], TaskError)
        assert isinstance(executed.results[6], dict)
        assert tmp_cache.get(executed.keys[6]) == executed.results[6]
        assert tmp_cache.get(executed.keys[7]) is None

    def test_cold_run_packs_shards_and_warm_rerun_hits_identical_bytes(
        self, tmp_path
    ):
        jobs = _mixed_jobs()
        root = tmp_path / "cache"
        first = execute_plan(
            plan_campaign(jobs), cache=ResultCache(root=root), jobs=1,
            shard_size=2,
        )
        # 3 shards (4 static jobs, 2 replayed) -> 3 packs; 2 stragglers
        # -> 2 one-entry packs.
        assert len(_files(root / PACK_DIR, "*.pack")) == 5
        assert not _files(root, "*.pkl")

        second = execute_plan(
            plan_campaign(jobs), cache=ResultCache(root=root), jobs=1
        )
        assert second.cached == [True] * len(jobs)
        assert [pickle.dumps(r) for r in second.results] == [
            pickle.dumps(r) for r in first.results
        ]

    @pytest.mark.parametrize(
        "make_jobs",
        [
            pytest.param(lambda: _vec_jobs(4), id="vec-shard"),
            pytest.param(
                lambda: [
                    CampaignJob(
                        label="solo", scenario_json=_scenario_json(), horizon=20.0
                    )
                ],
                id="scalar-straggler",
            ),
        ],
    )
    def test_unwritable_cache_keeps_results_and_counts_errors(
        self, tmp_path, make_jobs
    ):
        """A cache write that fails with OSError (here the cache root
        sits under a regular file) loses the entry, not the result."""
        jobs = make_jobs()
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        telemetry = Telemetry()
        executed = execute_plan(
            plan_campaign(jobs),
            cache=ResultCache(root=blocker / "c"),
            jobs=1,
            telemetry=telemetry,
        )
        assert executed.results == execute_plan(plan_campaign(jobs), jobs=1).results
        assert all(isinstance(result, dict) for result in executed.results)
        assert telemetry.metrics.counter("plan.cache_put_errors").value == 1

    @pytest.mark.parametrize(
        "workers, make_jobs",
        [
            pytest.param(workers, make_jobs, id=f"{variant}{workers}")
            for variant, make_jobs in (
                ("", lambda: _vec_jobs(6)),
                ("ragged-", _ragged_jobs),
            )
            for workers in _KILL_WORKERS
        ],
    )
    def test_kill_mid_campaign_keeps_finished_shards(
        self, tmp_path, workers, make_jobs
    ):
        jobs = make_jobs()
        root = tmp_path / "cache"
        mixed = [
            shard
            for _, _, shard in _shards(
                _launch_groups(plan_campaign(jobs).cohorts), workers, 2
            )
            if len({job.vec_horizon for _, job in shard}) > 1
        ]
        assert bool(mixed) == (make_jobs is _ragged_jobs)
        clean = execute_plan(plan_campaign(jobs), jobs=1)
        kill = WorkerChaos(
            seed=7, probability=1.0, max_crashes=99, only_label="plan:g0:s2"
        )
        with WorkerPool(jobs=workers) as pool:
            with pytest.raises(InjectedWorkerCrash):
                execute_plan(
                    plan_campaign(jobs), cache=ResultCache(root=root),
                    pool=pool, shard_size=2, chaos=kill, on_error="raise",
                )
            packs = _files(root / PACK_DIR, "*.pack")
            resumed = execute_plan(
                plan_campaign(jobs), cache=ResultCache(root=root), pool=pool,
                shard_size=2,
            )

        # In-process, shards s0 and s1 finish before g0:s2 is killed.  On
        # a pool, s2 waits for a free worker, so at least one shard has
        # finished and been published when the abort lands.
        hit_shards = [resumed.cached[i] for i in range(0, len(jobs), 2)]
        assert resumed.cached == [hit for hit in hit_shards for _ in (0, 1)]
        assert hit_shards[2] is False
        assert len(packs) == sum(hit_shards)
        assert len(packs) == 2 if workers == 1 else len(packs) >= 1
        assert not _files(root, "*.pkl")
        assert resumed.results == clean.results

        rerun = execute_plan(
            plan_campaign(jobs), cache=ResultCache(root=root), jobs=1
        )
        assert rerun.cached == [True] * len(jobs)
