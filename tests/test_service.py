"""Unit tests for the job service: wire format, quotas, ASGI behaviour.

Everything here drives :class:`repro.service.app.ServiceApp` directly as
an ASGI callable — no sockets, no threads — so admission control
(429/503/400) and the cache-hit fast path are tested deterministically.
The live-socket behaviour (real HTTP, byte-identical differential, chaos
soak) lives in ``tests/test_service_http.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.apps import temp_alarm
from repro.errors import ConfigurationError, SpecError
from repro.experiments.parallel import RetryPolicy
from repro.experiments.plan import DEFAULT_VEC_DT
from repro.faults.inject import WorkerChaos
from repro.service.app import ServiceApp, ServiceConfig
from repro.service.jobs import JOB_STATES, MAX_JOB_STEPS, JobRequest
from repro.service.quota import QuotaRegistry, TokenBucket
from repro.spec import canonical_json


def scenario_dict(seed: int = 0, events: int = 3) -> dict:
    return json.loads(
        canonical_json(temp_alarm.scenario(seed=seed, event_count=events))
    )


# ---------------------------------------------------------------------------
# ASGI harness: call the app in-process, return (status, headers, body)
# ---------------------------------------------------------------------------


async def asgi_request(app, method, path, body=b"", headers=()):
    messages = []
    delivered = {"done": False}

    async def receive():
        if delivered["done"]:
            await asyncio.sleep(3600)
        delivered["done"] = True
        return {"type": "http.request", "body": body, "more_body": False}

    async def send(message):
        messages.append(message)

    scope = {
        "type": "http",
        "method": method,
        "path": path,
        "query_string": b"",
        "headers": [
            (name.encode(), value.encode()) for name, value in headers
        ],
        "client": ("127.0.0.1", 40000),
    }
    await app(scope, receive, send)
    start = messages[0]
    assert start["type"] == "http.response.start"
    payload = b"".join(
        message.get("body", b"")
        for message in messages[1:]
        if message["type"] == "http.response.body"
    )
    header_map = {
        name.decode(): value.decode() for name, value in start["headers"]
    }
    return start["status"], header_map, payload


async def submit(app, payload, client="tester"):
    return await asgi_request(
        app,
        "POST",
        "/v1/jobs",
        body=json.dumps(payload).encode(),
        headers=[("x-client-id", client)],
    )


async def wait_done(app, job_id, timeout=60.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        status, _, body = await asgi_request(app, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        data = json.loads(body)
        if data["state"] in ("done", "failed"):
            return data
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"job {job_id} stuck in {data['state']!r}")
        await asyncio.sleep(0.01)


def run_app(coro_factory, config=None):
    """Run one async test body against a started app, with teardown."""

    async def main():
        app = ServiceApp(config)
        await app.startup()
        try:
            return await coro_factory(app)
        finally:
            await app.shutdown()

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


class TestJobRequest:
    def test_bare_scenario_equals_envelope(self):
        data = scenario_dict()
        bare = JobRequest.from_payload(data)
        wrapped = JobRequest.from_payload({"scenario": data})
        assert bare == wrapped
        assert bare.result_key() == wrapped.result_key()

    def test_envelope_fields_change_the_key(self):
        data = scenario_dict()
        base = JobRequest.from_payload({"scenario": data})
        system = JobRequest.from_payload({"scenario": data, "system": "Fixed"})
        horizon = JobRequest.from_payload({"scenario": data, "horizon": 120})
        keys = {base.result_key(), system.result_key(), horizon.result_key()}
        assert len(keys) == 3

    def test_unknown_envelope_field_rejected(self):
        with pytest.raises(SpecError, match="unknown job field"):
            JobRequest.from_payload(
                {"scenario": scenario_dict(), "sytem": "Fixed"}
            )

    def test_bad_horizon_rejected(self):
        for horizon in (0, -5, float("nan"), True, "600"):
            with pytest.raises(SpecError):
                JobRequest.from_payload(
                    {"scenario": scenario_dict(), "horizon": horizon}
                )

    def test_horizon_within_the_step_budget(self):
        at_budget = MAX_JOB_STEPS * DEFAULT_VEC_DT
        for backend in ("scalar", "vec"):
            request = JobRequest.from_payload(
                {"scenario": scenario_dict(), "horizon": at_budget,
                 "backend": backend}
            )
            assert request.horizon == at_budget
            for horizon in (at_budget + DEFAULT_VEC_DT, 1e308):
                with pytest.raises(
                    SpecError, match=f"step budget of {MAX_JOB_STEPS}"
                ):
                    JobRequest.from_payload(
                        {"scenario": scenario_dict(), "backend": backend,
                         "horizon": horizon}
                    )

    def test_scenario_span_within_the_step_budget(self):
        """A scenario's own span is bounded at the edge, before any rig
        is built: its workload horizon and its event schedule."""
        from repro.apps import APPS

        for app in APPS.values():
            JobRequest.from_payload(json.loads(canonical_json(app.scenario())))
        budget = MAX_JOB_STEPS * DEFAULT_VEC_DT
        at_budget = scenario_dict()
        at_budget["workload"].update(
            event_count=1, mean_interarrival=budget, horizon=budget
        )
        JobRequest.from_payload(at_budget)
        for workload in (
            {"mean_interarrival": 1e9},
            {"mean_interarrival": 1e5},
            {"event_count": 2, "mean_interarrival": budget},
            {"horizon": budget + DEFAULT_VEC_DT},
            {"horizon": 1e308},
        ):
            data = scenario_dict()
            data["workload"].update(workload)
            with pytest.raises(SpecError, match="MAX_JOB_STEPS"):
                JobRequest.from_payload({"scenario": data, "horizon": 60})

    def test_scenario_span_counts_the_apps_default_event_count(self):
        data = scenario_dict()
        del data["workload"]["event_count"]
        data["workload"]["mean_interarrival"] = 5_000.0  # x 50 events
        with pytest.raises(SpecError, match="event_count x mean_interarrival"):
            JobRequest.from_payload(data)

    @pytest.mark.parametrize(
        "field, value",
        [("mean_interarrival", "abc"), ("event_count", None), ("horizon", [1])],
    )
    def test_non_numeric_workload_value_rejected(self, field, value):
        """A workload value the app builder cannot parse is a SpecError
        (a 400 over HTTP) naming the field, not a worker-side crash."""
        data = scenario_dict()
        data["workload"][field] = value
        with pytest.raises(SpecError, match=f"workload field '{field}'") as error:
            JobRequest.from_payload(data)
        assert repr(value) in str(error.value)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="unknown backend"):
            JobRequest.from_payload(
                {"scenario": scenario_dict(), "backend": "cuda"}
            )

    def test_non_object_payload_rejected(self):
        with pytest.raises(SpecError):
            JobRequest.from_payload([1, 2, 3])

    def test_request_is_picklable(self):
        import pickle

        request = JobRequest.from_payload(scenario_dict())
        assert pickle.loads(pickle.dumps(request)) == request

    def test_job_states_order(self):
        assert JOB_STATES == ("queued", "running", "done", "failed")


# ---------------------------------------------------------------------------
# Quotas (injected clock: zero sleeps)
# ---------------------------------------------------------------------------


class TestQuota:
    def test_bucket_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, capacity=2.0)
        assert bucket.take(0.0) == (True, 0.0)
        assert bucket.take(0.0) == (True, 0.0)
        allowed, retry_after = bucket.take(0.0)
        assert not allowed and retry_after == pytest.approx(1.0)
        assert bucket.take(1.0) == (True, 0.0)  # one token accrued

    def test_registry_is_per_client(self):
        clock = {"now": 0.0}
        quotas = QuotaRegistry(rate=1.0, burst=1.0, clock=lambda: clock["now"])
        assert quotas.allow("a")[0]
        assert not quotas.allow("a")[0]
        assert quotas.allow("b")[0]  # a's exhaustion does not touch b
        clock["now"] = 1.0
        assert quotas.allow("a")[0]

    def test_rate_zero_disables(self):
        quotas = QuotaRegistry(rate=0.0, burst=0.0)
        assert not quotas.enabled
        for _ in range(100):
            assert quotas.allow("flood") == (True, 0.0)

    def test_fractional_burst_rejected(self):
        with pytest.raises(ConfigurationError):
            QuotaRegistry(rate=5.0, burst=0.5)

    @pytest.mark.parametrize(
        "rate, burst",
        [
            (float("nan"), 64.0),
            (float("inf"), 64.0),
            (-float("inf"), 64.0),
            (32.0, float("nan")),
            (32.0, float("inf")),
            (0.0, float("nan")),
        ],
    )
    def test_non_finite_rate_or_burst_rejected(self, rate, burst):
        """A NaN rate would read as disabled (``nan > 0`` is false): it
        must fail loudly instead of switching quotas off."""
        with pytest.raises(ConfigurationError, match="finite"):
            QuotaRegistry(rate=rate, burst=burst)


# ---------------------------------------------------------------------------
# Service behaviour (direct ASGI)
# ---------------------------------------------------------------------------


class TestServiceApp:
    def test_submit_poll_result_roundtrip(self, tmp_path):
        async def body(app):
            status, headers, payload = await submit(app, scenario_dict())
            assert status == 202
            assert "x-request-id" in headers
            data = json.loads(payload)
            assert data["state"] == "queued" and not data["cached"]
            final = await wait_done(app, data["job_id"])
            assert final["state"] == "done"
            status, _, payload = await asgi_request(
                app, "GET", f"/v1/jobs/{data['job_id']}/result"
            )
            assert status == 200
            result = json.loads(payload)
            assert result["result"]["summary"].startswith("TempAlarm on ")
            assert result["cached"] is False
            return app.pool.tasks_run

        tasks_run = run_app(
            body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache")
        )
        assert tasks_run == 1

    def test_repeat_submission_served_from_cache_without_pool(self, tmp_path):
        async def body(app):
            data = scenario_dict()
            status, _, payload = await submit(app, data)
            first = json.loads(payload)
            await wait_done(app, first["job_id"])
            ran_before = app.pool.tasks_run

            status, _, payload = await submit(app, data)
            assert status == 200  # completed instantly, not 202
            hit = json.loads(payload)
            assert hit["state"] == "done" and hit["cached"] is True
            assert hit["result_key"] == first["result_key"]
            assert app.pool.tasks_run == ran_before  # pool untouched

            status, _, payload = await asgi_request(
                app, "GET", f"/v1/jobs/{hit['job_id']}/result"
            )
            assert status == 200
            assert json.loads(payload)["cached"] is True
            assert app.telemetry.metrics.counter("service.cache_hits").value == 1

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_str_cache_dir_is_accepted(self, tmp_path):
        cache_dir = str(tmp_path / "cache")

        async def body(app):
            status, _, payload = await submit(app, scenario_dict())
            assert status == 202
            job_id = json.loads(payload)["job_id"]
            assert (await wait_done(app, job_id))["state"] == "done"
            status, _, _ = await asgi_request(
                app, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 200
            status, _, payload = await submit(app, scenario_dict())
            assert status == 200 and json.loads(payload)["cached"] is True

        run_app(body, ServiceConfig(jobs=1, cache_dir=cache_dir))
        assert len(list((tmp_path / "cache" / "packs").glob("*.pack"))) == 1
        assert not list((tmp_path / "cache").glob("*.pkl"))

    def test_invalid_spec_rejected_at_edge(self, tmp_path):
        async def body(app):
            status, _, payload = await submit(app, {"scenario": {"bogus": 1}})
            assert status == 400
            assert app.pool.tasks_run == 0
            status, _, payload = await asgi_request(
                app, "POST", "/v1/jobs", body=b"not json at all"
            )
            assert status == 400
            assert b"JSON" in payload

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_horizon_over_the_step_budget_is_a_400(self, tmp_path):
        async def body(app):
            status, _, payload = await submit(
                app, vec_payload(horizon=1e12)
            )
            assert status == 400
            error = json.loads(payload)["error"]
            assert f"step budget of {MAX_JOB_STEPS} steps" in error
            assert app.pool.tasks_run == 0 and not app.jobs

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_quota_exhaustion_gets_429_with_retry_after(self, tmp_path):
        clock = {"now": 0.0}

        async def body(app):
            app.quotas = QuotaRegistry(
                rate=1.0, burst=2.0, clock=lambda: clock["now"]
            )
            data = scenario_dict()
            for _ in range(2):
                status, _, _ = await submit(app, data, client="greedy")
                assert status in (200, 202)
            status, headers, payload = await submit(app, data, client="greedy")
            assert status == 429
            assert float(headers["retry-after"]) >= 1
            assert json.loads(payload)["retry_after"] > 0
            # Another client is unaffected.
            status, _, _ = await submit(app, data, client="patient")
            assert status in (200, 202)
            counter = app.telemetry.metrics.counter("service.rejected_quota")
            assert counter.value == 1

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_full_queue_gets_503(self, tmp_path):
        async def body(app):
            # No workers drain the queue in this test: replace it before
            # the lazy startup path can, so depth is fully deterministic.
            app._queue = asyncio.Queue(maxsize=1)
            status, _, _ = await submit(app, scenario_dict(seed=1))
            assert status == 202
            status, headers, payload = await submit(app, scenario_dict(seed=2))
            assert status == 503
            assert headers["retry-after"] == "1"
            assert json.loads(payload)["queue_limit"] == 1
            counter = app.telemetry.metrics.counter("service.rejected_queue")
            assert counter.value == 1

        async def main():
            app = ServiceApp(
                ServiceConfig(
                    jobs=1, queue_limit=1, cache_dir=tmp_path / "cache"
                )
            )
            try:
                await body(app)
            finally:
                app.pool.shutdown()

        asyncio.run(main())

    def test_refused_submit_issues_no_job_id(self, tmp_path):
        async def body(app):
            # No workers, as in test_full_queue_gets_503.
            app._queue = asyncio.Queue(maxsize=1)
            status, _, payload = await submit(app, scenario_dict(seed=1))
            assert (status, json.loads(payload)["job_id"]) == (202, "job-1")
            status, _, _ = await submit(app, scenario_dict(seed=2))
            assert status == 503
            # The refused submit was never handed an id: polling it is
            # an unknown job, not an evicted one.
            status, _, payload = await asgi_request(app, "GET", "/v1/jobs/job-2")
            assert status == 404
            assert json.loads(payload)["error"] == "unknown job 'job-2'"
            # The next admitted submit (here coalesced onto job-1) gets it.
            status, _, payload = await submit(app, scenario_dict(seed=1))
            assert (status, json.loads(payload)["job_id"]) == (202, "job-2")
            # An issued id gone from the store answers 410, naming no TTL
            # when none is set.
            del app.jobs["job-1"]
            status, _, payload = await asgi_request(app, "GET", "/v1/jobs/job-1")
            assert status == 410
            assert json.loads(payload)["error"] == "job 'job-1' was evicted"

        async def main():
            app = ServiceApp(
                ServiceConfig(
                    jobs=1, queue_limit=1, cache_dir=tmp_path / "cache"
                )
            )
            try:
                await body(app)
            finally:
                app.pool.shutdown()

        asyncio.run(main())

    def test_unknown_routes(self, tmp_path):
        async def body(app):
            status, _, _ = await asgi_request(app, "GET", "/v1/jobs/job-999")
            assert status == 404
            status, _, _ = await asgi_request(app, "GET", "/nope")
            assert status == 404
            status, _, _ = await asgi_request(app, "DELETE", "/v1/jobs")
            assert status == 405

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_result_conflict_while_pending(self, tmp_path):
        async def body(app):
            app._queue = asyncio.Queue(maxsize=4)  # no workers: stays queued
            _, _, payload = await submit(app, scenario_dict())
            job_id = json.loads(payload)["job_id"]
            status, _, payload = await asgi_request(
                app, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 409
            assert json.loads(payload)["state"] == "queued"

        async def main():
            app = ServiceApp(ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))
            try:
                await body(app)
            finally:
                app.pool.shutdown()

        asyncio.run(main())

    def test_stream_is_jsonl_and_settles(self, tmp_path):
        async def body(app):
            _, _, payload = await submit(app, scenario_dict())
            job_id = json.loads(payload)["job_id"]
            await wait_done(app, job_id)
            status, headers, payload = await asgi_request(
                app, "GET", f"/v1/jobs/{job_id}/stream"
            )
            assert status == 200
            assert headers["content-type"] == "application/x-ndjson"
            records = [
                json.loads(line) for line in payload.decode().splitlines()
            ]
            events = [r["event"] for r in records if "event" in r]
            assert events[0] == "queued" and events[-1] == "done"
            # Terminal metric records ride the same stream (telemetry
            # plane schema: name/kind/value scoped by job id).
            metrics = [r for r in records if "event" not in r]
            assert metrics and all(r["scope"] == job_id for r in metrics)

        run_app(
            body,
            ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"),
        )

    def test_health_reports_capabilities(self, tmp_path):
        async def body(app):
            status, _, payload = await asgi_request(app, "GET", "/v1/health")
            assert status == 200
            health = json.loads(payload)
            import repro

            assert health["status"] == "ok"
            assert health["api_version"] == repro.__api_version__
            assert health["version"] == repro.__version__
            assert "scalar" in health["backends"]
            assert health["queue"]["limit"] == 16
            assert health["pool"]["mode"] == "serial"

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(jobs=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_limit=0)

    def test_failed_cache_put_keeps_the_worker_alive(self, tmp_path):
        async def body(app):
            real_put = app.cache.put
            calls = []

            def put_once_failing(key, payload):
                calls.append(key)
                if len(calls) == 1:
                    raise OSError(28, "No space left on device")
                return real_put(key, payload)

            app.cache.put = put_once_failing
            _, _, first = await submit(app, scenario_dict())
            first_id = json.loads(first)["job_id"]
            final = await wait_done(app, first_id, timeout=20.0)
            assert final["state"] == "done"
            status, _, payload = await asgi_request(
                app, "GET", f"/v1/jobs/{first_id}/result"
            )
            assert status == 200
            computed = json.loads(payload)["result"]
            counter = app.telemetry.metrics.counter("service.cache_put_errors")
            assert counter.value == 1
            # Uncached, so an identical resubmit computes again — and
            # settles instead of attaching to a stranded leader.
            _, _, again = await submit(app, scenario_dict())
            again_id = json.loads(again)["job_id"]
            assert (await wait_done(app, again_id, timeout=20.0))["state"] == "done"
            status, _, payload = await asgi_request(
                app, "GET", f"/v1/jobs/{again_id}/result"
            )
            assert json.loads(payload)["result"] == computed
            # The single worker still serves fresh work.
            _, _, fresh = await submit(app, scenario_dict(seed=9))
            fresh_id = json.loads(fresh)["job_id"]
            assert (await wait_done(app, fresh_id, timeout=20.0))["state"] == "done"

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_unexpected_error_fails_the_group_not_the_worker(
        self, tmp_path, monkeypatch
    ):
        import repro.service.app as app_module

        real_plan = app_module.plan_campaign
        calls = []

        def plan_once_failing(jobs, telemetry=None):
            calls.append(len(jobs))
            if len(calls) == 1:
                raise RuntimeError("planner exploded")
            return real_plan(jobs, telemetry=telemetry)

        monkeypatch.setattr(app_module, "plan_campaign", plan_once_failing)

        async def body(app):
            _, _, first = await submit(app, scenario_dict())
            final = await wait_done(app, json.loads(first)["job_id"], timeout=20.0)
            assert final["state"] == "failed"
            assert "planner exploded" in final["detail"]
            # The key is released and the single worker is still alive.
            _, _, again = await submit(app, scenario_dict())
            final = await wait_done(app, json.loads(again)["job_id"], timeout=20.0)
            assert final["state"] == "done"

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))


# ---------------------------------------------------------------------------
# Job store TTL / eviction
# ---------------------------------------------------------------------------


class TestJobTTL:
    def test_terminal_jobs_evict_and_answer_410(self, tmp_path):
        async def body(app):
            _, _, payload = await submit(app, scenario_dict())
            job_id = json.loads(payload)["job_id"]
            await wait_done(app, job_id)

            finished_at = app.jobs[job_id].status.finished_at
            # Synthetic clock: advance past the TTL without sleeping.
            assert app._evict_expired(now=finished_at + 4.9) == 0
            assert app._evict_expired(now=finished_at + 5.0) == 1
            counter = app.telemetry.metrics.counter("service.jobs_evicted")
            assert counter.value == 1

            for suffix in ("", "/result", "/stream"):
                status, _, payload = await asgi_request(
                    app, "GET", f"/v1/jobs/{job_id}{suffix}"
                )
                assert status == 410
                assert json.loads(payload)["error"] == (
                    f"job {job_id!r} was evicted after job_ttl=5 s"
                )
            # Ids never issued still answer 404, not 410.
            status, _, _ = await asgi_request(app, "GET", "/v1/jobs/job-999")
            assert status == 404
            status, _, _ = await asgi_request(app, "GET", "/v1/jobs/bogus")
            assert status == 404

        run_app(
            body,
            ServiceConfig(jobs=1, cache_dir=tmp_path / "cache", job_ttl=5.0),
        )

    def test_pending_jobs_never_evict(self, tmp_path):
        import time as time_module

        async def main():
            app = ServiceApp(
                ServiceConfig(
                    jobs=1, cache_dir=tmp_path / "cache", job_ttl=0.001
                )
            )
            app._queue = asyncio.Queue(maxsize=4)  # no workers: stays queued
            try:
                _, _, payload = await submit(app, scenario_dict())
                job_id = json.loads(payload)["job_id"]
                assert (
                    app._evict_expired(now=time_module.time() + 1000.0) == 0
                )
                assert job_id in app.jobs
            finally:
                app.pool.shutdown()

        asyncio.run(main())

    def test_ttl_and_window_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(job_ttl=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(job_ttl=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(batch_window=-0.1)
        assert ServiceConfig(job_ttl=None).job_ttl is None

    @pytest.mark.parametrize(
        "knobs",
        [
            {"batch_window": float("inf")},
            {"batch_window": float("nan")},
            {"job_ttl": float("inf")},
            {"job_ttl": float("nan")},
        ],
        ids=lambda knobs: "-".join(f"{k}={v}" for k, v in knobs.items()),
    )
    def test_non_finite_ttl_and_window_rejected(self, knobs):
        """An infinite window would linger forever and never run a job;
        a NaN slips past every ordered comparison."""
        with pytest.raises(ConfigurationError, match="finite"):
            ServiceConfig(**knobs)

    def test_config_has_no_collect_knob(self):
        """Served jobs always carry telemetry; there is no switch."""
        with pytest.raises(TypeError):
            ServiceConfig(collect=False)


# ---------------------------------------------------------------------------
# In-flight coalescing
# ---------------------------------------------------------------------------


class TestCoalescing:
    def test_duplicate_inflight_submit_attaches_to_leader(self, tmp_path):
        async def main():
            app = ServiceApp(
                ServiceConfig(jobs=1, cache_dir=tmp_path / "cache")
            )
            app._queue = asyncio.Queue(maxsize=4)  # no workers: manual drain
            try:
                _, _, first = await submit(app, scenario_dict())
                leader_id = json.loads(first)["job_id"]
                status, _, second = await submit(app, scenario_dict())
                assert status == 202
                follower = json.loads(second)
                assert follower["job_id"] != leader_id
                assert follower["result_key"] == json.loads(first)["result_key"]
                counter = app.telemetry.metrics.counter(
                    "service.jobs_coalesced"
                )
                assert counter.value == 1
                assert app._queue.qsize() == 1  # only the leader queued

                await app._execute([await app._queue.get()])
                # One task ran; both jobs settled with the same payload.
                assert app.pool.tasks_run == 1
                results = []
                for job_id in (leader_id, follower["job_id"]):
                    status, _, payload = await asgi_request(
                        app, "GET", f"/v1/jobs/{job_id}/result"
                    )
                    assert status == 200
                    results.append(json.loads(payload))
                assert results[0]["result"] == results[1]["result"]
                assert results[1]["job_id"] == follower["job_id"]
                # The key is free again: a later submit is a cache hit,
                # not a new leader.
                status, _, payload = await submit(app, scenario_dict())
                assert status == 200 and json.loads(payload)["cached"]
            finally:
                app.pool.shutdown()

        asyncio.run(main())

    def test_failed_leader_fails_followers(self, tmp_path):
        async def main():
            app = ServiceApp(
                ServiceConfig(
                    jobs=1,
                    cache_dir=tmp_path / "cache",
                    retry=RetryPolicy(max_attempts=1, base_delay=0.0),
                    chaos=WorkerChaos(seed=7, probability=1.0, max_crashes=9),
                )
            )
            app._queue = asyncio.Queue(maxsize=4)
            try:
                _, _, first = await submit(app, scenario_dict())
                _, _, second = await submit(app, scenario_dict())
                await app._execute([await app._queue.get()])
                for payload in (first, second):
                    job_id = json.loads(payload)["job_id"]
                    assert app.jobs[job_id].status.state == "failed"
            finally:
                app.pool.shutdown()

        asyncio.run(main())


# ---------------------------------------------------------------------------
# Vec jobs and the batch window
# ---------------------------------------------------------------------------


def vec_payload(seed: int = 0, horizon: float = 30.0) -> dict:
    return {
        "scenario": scenario_dict(seed=seed),
        "backend": "vec",
        "horizon": horizon,
    }


class TestVecJobs:
    def test_vec_submit_roundtrip_and_cache_hit(self, tmp_path):
        async def body(app):
            _, _, payload = await submit(app, vec_payload())
            job_id = json.loads(payload)["job_id"]
            await wait_done(app, job_id)
            status, _, payload = await asgi_request(
                app, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 200
            result = json.loads(payload)["result"]
            assert result["backend"] == "vec"
            assert "fleet" in result
            assert "(vec fleet)" in result["summary"]
            # The planner-shaped payload passes the cache-hit guard.
            status, _, payload = await submit(app, vec_payload())
            assert status == 200
            assert json.loads(payload)["cached"] is True

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_window_partitions_by_backend_and_horizon(self, tmp_path):
        from repro.service.runner import run_scenario_job

        async def main():
            app = ServiceApp(
                ServiceConfig(
                    jobs=1, cache_dir=tmp_path / "cache", batch_window=0.25
                )
            )
            app._queue = asyncio.Queue(maxsize=8)  # no workers: manual drain
            try:
                ids = []
                for payload in (
                    vec_payload(seed=1),
                    {"scenario": scenario_dict(seed=3)},
                    vec_payload(seed=2),
                    vec_payload(seed=4, horizon=60.0),
                ):
                    _, _, body = await submit(app, payload)
                    ids.append(json.loads(body)["job_id"])
                group = [app._queue.get_nowait() for _ in ids]
                await app._execute(group)

                def counter(name):
                    return app.telemetry.metrics.counter(name).value

                # The h30 vec pair shares one launch; the h60 vec job is
                # a cohort of its own; the scalar job is a straggler.
                assert counter("service.jobs_batched") == 2
                assert counter("plan.cohorts") == 2
                assert counter("plan.straggler_jobs") == 1
                assert app.pool.tasks_run == 3
                for job_id in ids:
                    request = app.jobs[job_id].request
                    solo = run_scenario_job(
                        request.scenario_json,
                        horizon=request.horizon,
                        backend=request.backend,
                        collect=True,
                    )
                    assert app.jobs[job_id].status.state == "done"
                    assert app.jobs[job_id].result.payload == solo
            finally:
                app.pool.shutdown()

        asyncio.run(main())

    def test_batch_window_coalesces_queued_vec_jobs(self, tmp_path):
        async def body(app):
            _, _, first = await submit(app, vec_payload(seed=1))
            _, _, second = await submit(app, vec_payload(seed=2))
            ids = [json.loads(first)["job_id"], json.loads(second)["job_id"]]
            finals = [await wait_done(app, job_id) for job_id in ids]
            assert all(final["state"] == "done" for final in finals)
            counter = app.telemetry.metrics.counter("service.jobs_batched")
            assert counter.value == 2
            # Batched payloads are byte-identical to solo execution.
            from repro.service.runner import run_scenario_job

            for job_id, seed in zip(ids, (1, 2)):
                status, _, payload = await asgi_request(
                    app, "GET", f"/v1/jobs/{job_id}/result"
                )
                assert status == 200
                solo = run_scenario_job(
                    app.jobs[job_id].request.scenario_json,
                    horizon=30.0,
                    backend="vec",
                    collect=True,
                )
                assert json.loads(payload)["result"] == json.loads(
                    json.dumps(solo)
                )

        run_app(
            body,
            ServiceConfig(
                jobs=1, cache_dir=tmp_path / "cache", batch_window=0.25
            ),
        )


# ---------------------------------------------------------------------------
# Job dependencies: the `after` envelope field
# ---------------------------------------------------------------------------


class TestJobDependencies:
    def test_after_never_joins_the_result_key(self):
        data = scenario_dict()
        plain = JobRequest.from_payload({"scenario": data})
        ordered = JobRequest.from_payload(
            {"scenario": data, "after": ["job-00000001"]}
        )
        assert ordered.after == ("job-00000001",)
        assert plain.result_key() == ordered.result_key()

    @pytest.mark.parametrize(
        "after", ["job-1", [1], [""], [None], {"a": 1}]
    )
    def test_malformed_after_rejected(self, after):
        with pytest.raises(SpecError, match="'after' must be a list"):
            JobRequest.from_payload(
                {"scenario": scenario_dict(), "after": after}
            )

    def test_unknown_predecessor_is_a_400(self, tmp_path):
        async def body(app):
            status, _, payload = await submit(
                app, {"scenario": scenario_dict(), "after": ["job-99999999"]}
            )
            assert status == 400
            assert "'after' references" in json.loads(payload)["error"]

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_dependent_job_completes_after_predecessor(self, tmp_path):
        """A chain A <- B <- C lands every member `done` with results
        byte-identical to independent submissions of the same specs."""
        from repro.service.runner import run_scenario_job

        async def body(app):
            ids = []
            for seed in (1, 2, 3):
                status, _, payload = await submit(
                    app,
                    {
                        "scenario": scenario_dict(seed=seed),
                        "after": ids[-1:],
                    },
                )
                assert status == 202
                ids.append(json.loads(payload)["job_id"])
            finals = [await wait_done(app, job_id) for job_id in ids]
            assert [f["state"] for f in finals] == ["done"] * 3
            for job_id in ids:
                status, _, payload = await asgi_request(
                    app, "GET", f"/v1/jobs/{job_id}/result"
                )
                assert status == 200
                solo = run_scenario_job(
                    app.jobs[job_id].request.scenario_json, collect=True
                )
                assert json.loads(payload)["result"] == json.loads(
                    json.dumps(solo)
                )

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_failed_predecessor_fails_dependents_transitively(self, tmp_path):
        """Chaos kills every attempt of A; B (after A) and C (after B)
        must fail with a blocked-by detail, never execute."""

        async def body(app):
            ids = []
            for seed in (1, 2, 3):
                status, _, payload = await submit(
                    app,
                    {
                        "scenario": scenario_dict(seed=seed),
                        "after": ids[-1:],
                    },
                )
                assert status == 202
                ids.append(json.loads(payload)["job_id"])
            finals = [await wait_done(app, job_id) for job_id in ids]
            assert [f["state"] for f in finals] == ["failed"] * 3
            # A failed on its own; B and C were blocked, not executed.
            for final, predecessor in zip(finals[1:], ids):
                assert f"predecessor {predecessor} failed" in final["detail"]
            blocked = app.telemetry.metrics.counter("service.jobs_blocked")
            assert blocked.value == 2

        run_app(
            body,
            ServiceConfig(
                jobs=1,
                cache_dir=tmp_path / "cache",
                retry=RetryPolicy(max_attempts=1, base_delay=0.0),
                chaos=WorkerChaos(seed=7, probability=1.0, max_crashes=99),
            ),
        )

    # Submits never yield to the event loop, so a job submitted just
    # before its dependent is still queued when the dependent arrives.

    @staticmethod
    async def _submit(app, payload):
        status, _, body = await submit(app, payload)
        return status, json.loads(body)

    @staticmethod
    async def _events(app, job_id):
        """The job's stream events in order (metric records dropped)."""
        status, _, payload = await asgi_request(
            app, "GET", f"/v1/jobs/{job_id}/stream"
        )
        assert status == 200
        records = [json.loads(line) for line in payload.decode().splitlines()]
        return [record for record in records if "event" in record]

    @staticmethod
    def _kill_only(seed):
        """Retry/chaos knobs that fail every attempt of the job with
        *seed*'s scenario and leave every other job clean."""
        key = JobRequest.from_payload({"scenario": scenario_dict(seed=seed)})
        return dict(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            chaos=WorkerChaos(
                seed=7,
                probability=1.0,
                max_crashes=99,
                only_label=f"service:{key.result_key()[:12]}",
            ),
        )

    def test_repeated_after_id_runs_the_dependent_once(self, tmp_path):
        """`"after": [A, A]` names A once: J is released once, queued
        once and run once."""

        async def body(app):
            _, a = await self._submit(app, {"scenario": scenario_dict(seed=1)})
            a = a["job_id"]
            status, j = await self._submit(
                app, {"scenario": scenario_dict(seed=2), "after": [a, a]}
            )
            assert status == 202 and j["waiting_on"] == [a]
            assert (await wait_done(app, j["job_id"]))["state"] == "done"
            await app._queue.join()
            events = await self._events(app, j["job_id"])
            assert [e["event"] for e in events] == [
                "waiting", "queued", "running", "done",
            ]
            assert app.pool.tasks_run == 2
            released = app.telemetry.metrics.counter("service.jobs_released")
            assert released.value == 1

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_submit_after_failed_predecessor_is_blocked_at_once(
        self, tmp_path
    ):
        async def body(app):
            _, a = await self._submit(app, {"scenario": scenario_dict(seed=1)})
            a = a["job_id"]
            assert (await wait_done(app, a))["state"] == "failed"
            ran = app.pool.tasks_run
            status, j = await self._submit(
                app, {"scenario": scenario_dict(seed=2), "after": [a]}
            )
            assert status == 202
            assert j["state"] == "failed"
            assert j["detail"] == f"predecessor {a} failed"
            events = await self._events(app, j["job_id"])
            assert [(e["event"], e.get("blocked_by")) for e in events] == [
                ("failed", a)
            ]
            assert app.pool.tasks_run == ran

        run_app(
            body,
            ServiceConfig(
                jobs=1, cache_dir=tmp_path / "cache", **self._kill_only(1)
            ),
        )

    def test_diamond_blocks_each_descendant_once_via_first_successor(
        self, tmp_path
    ):
        """A <- {B, C} <- D with A killed: three blocked jobs, and D's
        detail names B, the successor A registered first."""

        async def body(app):
            ids = {}
            for name, seed, after in (
                ("A", 1, []), ("B", 2, ["A"]), ("C", 3, ["A"]),
                ("D", 4, ["B", "C"]),
            ):
                status, data = await self._submit(
                    app,
                    {
                        "scenario": scenario_dict(seed=seed),
                        "after": [ids[pred] for pred in after],
                    },
                )
                assert status == 202
                ids[name] = data["job_id"]
            finals = {name: await wait_done(app, i) for name, i in ids.items()}
            assert {f["state"] for f in finals.values()} == {"failed"}
            assert finals["D"]["detail"] == f"predecessor {ids['B']} failed"
            events = await self._events(app, ids["D"])
            assert events[-1]["blocked_by"] == ids["B"]
            blocked = app.telemetry.metrics.counter("service.jobs_blocked")
            assert blocked.value == 3
            assert app.pool.tasks_run == 1

        run_app(
            body,
            ServiceConfig(
                jobs=1, cache_dir=tmp_path / "cache", **self._kill_only(1)
            ),
        )

    def test_two_predecessors_release_on_the_last(self, tmp_path):
        async def body(app):
            ids = []
            for seed in (1, 2):
                _, data = await self._submit(
                    app, {"scenario": scenario_dict(seed=seed)}
                )
                ids.append(data["job_id"])
            _, j = await self._submit(
                app, {"scenario": scenario_dict(seed=3), "after": ids}
            )
            assert (await wait_done(app, j["job_id"]))["state"] == "done"
            waiting, queued = (await self._events(app, j["job_id"]))[:2]
            assert (waiting["event"], waiting["on"]) == ("waiting", ids)
            assert (queued["event"], queued["released_by"]) == (
                "queued", ids[1],
            )

        run_app(body, ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))

    def test_cached_dependent_never_waits(self, tmp_path):
        """A cache hit completes at submit whatever its predecessor is
        doing: still queued, or already failed."""

        async def body(app):
            hit = {"scenario": scenario_dict(seed=2)}
            _, first = await self._submit(app, hit)
            assert (await wait_done(app, first["job_id"]))["state"] == "done"
            _, a = await self._submit(app, {"scenario": scenario_dict(seed=1)})
            a = a["job_id"]
            for predecessor_state in ("queued", "failed"):
                assert app.jobs[a].status.state == predecessor_state
                status, j = await self._submit(app, dict(hit, after=[a]))
                assert status == 200
                assert (j["state"], j["cached"]) == ("done", True)
                await wait_done(app, a)

        run_app(
            body,
            ServiceConfig(
                jobs=1, cache_dir=tmp_path / "cache", **self._kill_only(1)
            ),
        )

    def test_coalesced_follower_settles_its_dependents(self, tmp_path):
        """A follower named in `after` releases its dependents when its
        leader succeeds, and blocks them when its leader fails."""

        async def body(app):
            followers, dependents = [], []
            for seed in (2, 1):  # seed 1's leader is killed
                leader = {"scenario": scenario_dict(seed=seed)}
                await self._submit(app, leader)
                status, follower = await self._submit(app, leader)
                assert status == 202
                followers.append(follower["job_id"])
                _, dependent = await self._submit(
                    app,
                    {
                        "scenario": scenario_dict(seed=seed + 10),
                        "after": followers[-1:],
                    },
                )
                dependents.append(dependent["job_id"])
            finals = [await wait_done(app, j) for j in dependents]
            assert [f["state"] for f in finals] == ["done", "failed"]
            released, blocked = [
                await self._events(app, j) for j in dependents
            ]
            assert [e["event"] for e in released] == [
                "waiting", "queued", "running", "done",
            ]
            assert released[1]["released_by"] == followers[0]
            assert [e["event"] for e in blocked] == ["waiting", "failed"]
            assert blocked[1]["blocked_by"] == followers[1]
            assert finals[1]["detail"] == f"predecessor {followers[1]} failed"

        run_app(
            body,
            ServiceConfig(
                jobs=1, cache_dir=tmp_path / "cache", **self._kill_only(1)
            ),
        )

    # A released dependent is admitted like a fresh submit: its key may
    # be cached, in flight, or neither.  These apps have no workers, so
    # each test drains the queue itself and every release lands at a
    # known point.

    @staticmethod
    def _run_drained(body, tmp_path):
        async def main():
            app = ServiceApp(ServiceConfig(jobs=1, cache_dir=tmp_path / "cache"))
            app._queue = asyncio.Queue(maxsize=4)
            try:
                await body(app)
            finally:
                app.pool.shutdown()

        asyncio.run(main())

    @staticmethod
    async def _drain(app):
        while not app._queue.empty():
            await app._execute([app._queue.get_nowait()])

    def test_released_dependent_coalesces_onto_a_queued_job(self, tmp_path):
        """A, then P after A, then L with P's key: P is released while L
        is queued, so it settles with L and its key runs once."""

        async def body(app):
            _, a = await self._submit(app, {"scenario": scenario_dict(seed=1)})
            a = a["job_id"]
            _, p = await self._submit(
                app, {"scenario": scenario_dict(seed=2), "after": [a]}
            )
            _, l = await self._submit(app, {"scenario": scenario_dict(seed=2)})
            await self._drain(app)
            assert app.pool.tasks_run == 2
            events = await self._events(app, p["job_id"])
            assert [e["event"] for e in events] == [
                "waiting", "coalesced", "done",
            ]
            assert (events[1]["leader"], events[1]["released_by"]) == (
                l["job_id"], a,
            )
            assert events[2]["coalesced_with"] == l["job_id"]
            assert app.jobs[p["job_id"]].result.payload == (
                app.jobs[l["job_id"]].result.payload
            )
            released = app.telemetry.metrics.counter("service.jobs_released")
            assert released.value == 1

        self._run_drained(body, tmp_path)

    def test_submit_coalesces_onto_a_released_dependent(self, tmp_path):
        """P is released and queued before L, with P's key, is
        submitted: L settles with P, which leads its key."""

        async def body(app):
            _, a = await self._submit(app, {"scenario": scenario_dict(seed=1)})
            a = a["job_id"]
            _, p = await self._submit(
                app, {"scenario": scenario_dict(seed=2), "after": [a]}
            )
            await app._execute([app._queue.get_nowait()])
            status, l = await self._submit(
                app, {"scenario": scenario_dict(seed=2)}
            )
            assert status == 202
            await self._drain(app)
            assert app.pool.tasks_run == 2
            events = await self._events(app, p["job_id"])
            assert [(e["event"], e.get("released_by")) for e in events] == [
                ("waiting", None), ("queued", a), ("running", None),
                ("done", None),
            ]
            follower = await self._events(app, l["job_id"])
            assert [e["event"] for e in follower] == ["coalesced", "done"]
            assert follower[0]["leader"] == p["job_id"]
            assert follower[1]["coalesced_with"] == p["job_id"]

        self._run_drained(body, tmp_path)

    def test_released_dependent_with_a_cached_key_runs_nothing(self, tmp_path):
        """L runs P's key while P waits on A: released, P is a cache hit."""

        async def body(app):
            await self._submit(app, {"scenario": scenario_dict(seed=2)})
            _, a = await self._submit(app, {"scenario": scenario_dict(seed=1)})
            a = a["job_id"]
            _, p = await self._submit(
                app, {"scenario": scenario_dict(seed=2), "after": [a]}
            )
            assert p["waiting_on"] == [a]
            await self._drain(app)
            assert app.pool.tasks_run == 2
            final = await wait_done(app, p["job_id"])
            assert (final["state"], final["cached"]) == ("done", True)
            events = await self._events(app, p["job_id"])
            assert [e["event"] for e in events] == ["waiting", "done"]
            assert (events[1]["cached"], events[1]["released_by"]) == (True, a)
            hits = app.telemetry.metrics.counter("service.cache_hits")
            assert hits.value == 1

        self._run_drained(body, tmp_path)
