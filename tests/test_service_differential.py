"""Service differential tests: a batch window never changes a result.

Whatever a window-drained burst shares — a kernel launch, a cohort, a
coalesced leader, a cache entry — every job's final state and result
payload must equal a solo :func:`~repro.service.runner.run_scenario_job`
of the same request.  Covered: random bursts with and without a window
(a property test), replay traces of different content and synthetic
piecewise traces in one window, mixed horizons in one window, a
window batch on a forked pool, and bursts with ``after`` edges and
repeated keys, where each result key also runs at most once.
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.app import ServiceConfig
from repro.service.runner import run_scenario_job
from tests.test_service import (
    asgi_request,
    run_app,
    scenario_dict,
    submit,
    vec_payload,
    wait_done,
)


def _solo(app, job_id: str) -> dict:
    """The job's request run alone, as JSON (what ``/result`` serves)."""
    request = app.jobs[job_id].request
    payload = run_scenario_job(
        request.scenario_json,
        system=request.system,
        horizon=request.horizon,
        faults_json=request.faults_json,
        backend=request.backend,
        collect=True,
    )
    return json.loads(json.dumps(payload))


async def _submit_all(app, payloads) -> list:
    ids = []
    for payload in payloads:
        status, _, body = await submit(app, payload)
        assert status in (200, 202), body
        ids.append(json.loads(body)["job_id"])
    return ids


async def _assert_solo_identical(app, ids) -> None:
    for job_id in ids:
        final = await wait_done(app, job_id)
        assert final["state"] == "done", final
        status, _, body = await asgi_request(
            app, "GET", f"/v1/jobs/{job_id}/result"
        )
        assert status == 200
        assert json.loads(body)["result"] == _solo(app, job_id)


def _counter(app, name: str) -> float:
    return app.telemetry.metrics.counter(name).value


def _with_irradiance(seed: int, trace: dict) -> dict:
    payload = vec_payload(seed=seed)
    payload["scenario"]["platform"]["harvester"]["irradiance"] = trace
    return payload


def _submission(kind: str, horizon: float, seed: int) -> dict:
    if kind == "vec":
        return vec_payload(seed=seed, horizon=horizon)
    return {"scenario": scenario_dict(seed=seed), "horizon": horizon}


_submissions = st.lists(
    st.tuples(
        st.sampled_from(["scalar", "vec"]),
        st.sampled_from([30.0, 60.0]),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=4,
)


_dependent_submissions = st.lists(
    st.tuples(
        st.sampled_from(["scalar", "vec"]),
        st.integers(min_value=0, max_value=2),
        # Indices of earlier jobs this one waits on (taken modulo its
        # position, so every edge points back into the burst).
        st.lists(st.integers(min_value=0, max_value=5), max_size=2),
    ),
    min_size=2,
    max_size=6,
)


class TestBatchWindowDifferential:
    @settings(max_examples=8, deadline=None)
    @given(draws=_submissions, repeats=st.integers(min_value=0, max_value=2))
    def test_window_and_no_window_equal_solo_runs(self, draws, repeats):
        # Repeating a prefix forces duplicates: coalesced followers and
        # cache hits must settle to the same payload as their leader.
        burst = [_submission(*draw) for draw in draws + draws[:repeats]]

        async def body(app):
            await _assert_solo_identical(app, await _submit_all(app, burst))

        for window in (0.25, 0.0):
            with tempfile.TemporaryDirectory() as cache_dir:
                run_app(
                    body,
                    ServiceConfig(
                        jobs=1,
                        cache_dir=Path(cache_dir),
                        batch_window=window,
                    ),
                )

    def test_traced_vec_jobs_in_one_window(self, tmp_path):
        burst = [
            _with_irradiance(
                1, {"kind": "replay", "samples": [[0.0, 24.0], [9.0, 3.0]]}
            ),
            _with_irradiance(
                2, {"kind": "replay", "samples": [[0.0, 12.0], [14.0, 6.0]]}
            ),
            _with_irradiance(
                3,
                {"kind": "piecewise", "breakpoints": [[10.0, 2.0]], "initial": 24.0},
            ),
            _with_irradiance(
                4,
                {"kind": "piecewise", "breakpoints": [[17.0, 5.0]], "initial": 8.0},
            ),
        ]

        async def body(app):
            await _assert_solo_identical(app, await _submit_all(app, burst))
            # Each replay trace is a cohort of its own; the piecewise
            # pair (no replay content) shares one launch.
            assert _counter(app, "plan.cohorts") == 3
            assert _counter(app, "service.jobs_batched") == 2

        run_app(
            body,
            ServiceConfig(
                jobs=1, cache_dir=tmp_path / "cache", batch_window=0.25
            ),
        )

    def test_mixed_horizons_in_one_window(self, tmp_path):
        # Three horizons, static and traced, in one window: each cohort
        # runs on its own, so the 10 s pair never waits on the 120 s
        # job, and each job equals its solo run.
        burst = [
            vec_payload(seed=1, horizon=10.0),
            _with_irradiance(
                2, {"kind": "replay", "samples": [[0.0, 24.0], [15.0, 3.0]]}
            ),
            vec_payload(seed=3, horizon=120.0),
            vec_payload(seed=4, horizon=10.0),
        ]
        burst[1]["horizon"] = 20.0

        async def body(app):
            await _assert_solo_identical(app, await _submit_all(app, burst))
            assert _counter(app, "plan.cohorts") == 3
            assert _counter(app, "service.jobs_batched") == 2
            assert app.pool.tasks_run == 3

        run_app(
            body,
            ServiceConfig(
                jobs=1, cache_dir=tmp_path / "cache", batch_window=0.25
            ),
        )

    def test_window_batch_on_a_forked_pool(self, tmp_path):
        burst = [vec_payload(seed=seed) for seed in range(4)]
        burst.append({"scenario": scenario_dict(seed=5)})

        async def body(app):
            await _assert_solo_identical(app, await _submit_all(app, burst))
            assert app.pool.mode == "process-pool"
            assert _counter(app, "service.jobs_batched") >= 2

        run_app(
            body,
            ServiceConfig(
                jobs=2, cache_dir=tmp_path / "cache", batch_window=0.25
            ),
        )

    @settings(max_examples=8, deadline=None)
    @given(draws=_dependent_submissions)
    def test_dependents_and_repeats_run_each_key_once(self, draws):
        # Few seeds, so keys repeat: a released dependent meets its key
        # cached, in flight or absent, exactly as a fresh submit can.
        async def body(app):
            ids = []
            for position, (kind, seed, picks) in enumerate(draws):
                payload = _submission(kind, 30.0, seed)
                if position:
                    payload["after"] = sorted(
                        {ids[pick % position] for pick in picks}
                    )
                ids.extend(await _submit_all(app, [payload]))
            await _assert_solo_identical(app, ids)
            runs = Counter(
                app.jobs[job_id].status.result_key
                for job_id in ids
                if any(e["event"] == "running" for e in app.jobs[job_id].events)
            )
            assert max(runs.values()) <= 1, runs

        for window in (0.25, 0.0):
            with tempfile.TemporaryDirectory() as cache_dir:
                run_app(
                    body,
                    ServiceConfig(
                        jobs=1,
                        cache_dir=Path(cache_dir),
                        batch_window=window,
                    ),
                )
