"""Simulation-as-a-service: the asyncio job service as an ASGI app.

One long-lived process replaces a CLI invocation per run: the result
cache, the worker pool, and the telemetry plane stay warm across
requests.  The app is a standard ASGI-3 callable (any ASGI server can
host it; :mod:`repro.service.http` is the zero-dependency stdlib one),
with these endpoints under ``/v1``:

========================  =================================================
``GET  /v1/health``       liveness + capability matrix (``repro info`` as
                          JSON: API version, backends, queue/pool/quota)
``POST /v1/jobs``         submit canonical ScenarioSpec(+FaultScheduleSpec)
                          JSON; validated and hashed at the edge; cache
                          hits complete instantly, misses are queued
``GET  /v1/jobs/{id}``    poll status
``GET  /v1/jobs/{id}/result``  fetch the completed payload
``GET  /v1/jobs/{id}/stream``  live progress + metrics as JSONL, straight
                          off the Telemetry plane
========================  =================================================

Degradation is graceful and explicit: a client over its token-bucket
quota gets **429** with ``Retry-After``; a full job queue gets **503**;
invalid specs get **400** before touching any shared resource.  Every
response carries an ``X-Request-Id`` for trace correlation, and the
service's own telemetry (request counters, latency histogram, cache
hits) is visible through the health endpoint and the CLI's
``--metrics-out``.

The job store is bounded and duplicate-free: terminal jobs expire after
``job_ttl`` seconds (polling an evicted id answers **410 Gone**), and a
submit whose result key matches a job still in flight attaches to it
instead of queueing duplicate work.  Every dequeued job runs through the
campaign planner (:mod:`repro.experiments.plan`); with
``batch_window > 0`` a worker lingers briefly after each dequeue so the
planner's cohorts can coalesce queued vec-compatible jobs into shared
fleet batches, whose per-job payloads are byte-identical to solo
execution.

Submissions may form a DAG: ``"after": ["job-1", ...]`` parks a job
until the named predecessors settle (unknown ids are a 400 at the
edge; a failed predecessor fails the dependent with the blocking id in
its detail, transitively).  ``after`` is scheduling metadata only — it
never joins the result key, so a dependent still serves from cache
instantly when its own inputs were computed before.

Jobs execute on a persistent :class:`~repro.experiments.parallel.WorkerPool`
under the campaign layer's :class:`RetryPolicy`, and — because serving
must be chaos-testable like everything else here — an armed
:class:`~repro.faults.inject.WorkerChaos` kills worker attempts
deterministically while results stay byte-identical to an undisturbed
run.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SpecError
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import RetryPolicy, WorkerPool
from repro.experiments.plan import (
    CampaignJob,
    cached_payload,
    plan_campaign,
    run_plan_task,
)
from repro.faults.inject import WorkerChaos
from repro.observability.telemetry import Telemetry
from repro.service.jobs import JobRequest, JobResult, JobStatus

#: The frozen public API generation this service speaks.
API_VERSION = "v1"


@dataclass
class ServiceConfig:
    """Knobs for one service instance (CLI flags map 1:1 onto these)."""

    jobs: int = 1
    queue_limit: int = 16
    quota_rate: float = 32.0
    quota_burst: float = 64.0
    #: Result-cache directory (a ``str`` is converted to a ``Path``).
    cache_dir: Optional[Path] = None
    use_cache: bool = True
    retry: Optional[RetryPolicy] = None
    chaos: Optional[WorkerChaos] = None
    #: Seconds a terminal (done/failed) job stays pollable before the
    #: store evicts it; ``None`` keeps every job forever (the pre-TTL
    #: behaviour).  Evicted ids answer 410 Gone, not 404.
    job_ttl: Optional[float] = None
    #: Seconds a worker lingers after dequeuing a job to coalesce other
    #: queued vec-compatible jobs into shared fleet batches (the campaign
    #: planner's cohorts); ``0`` executes strictly one job per dequeue.
    batch_window: float = 0.0

    def __post_init__(self) -> None:
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.job_ttl is not None and not (
            math.isfinite(self.job_ttl) and self.job_ttl > 0
        ):
            raise ConfigurationError(
                f"job_ttl must be finite and > 0 seconds (or None), "
                f"got {self.job_ttl}"
            )
        if not (math.isfinite(self.batch_window) and self.batch_window >= 0):
            raise ConfigurationError(
                f"batch_window must be finite and >= 0 seconds, "
                f"got {self.batch_window}"
            )


@dataclass
class _Job:
    """Internal record: request + status + stream buffer."""

    request: JobRequest
    status: JobStatus
    result: Optional[JobResult] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    changed: Optional[asyncio.Condition] = None
    #: Coalesced duplicates: jobs with this job's result key submitted
    #: while it was still in flight.  They settle when this job does.
    followers: List["_Job"] = field(default_factory=list)
    #: Predecessor job ids still outstanding; the job queues only once
    #: this drains (the app's ``_waiting`` index is the reverse edge).
    waiting_on: set = field(default_factory=set)

    async def emit(self, event: str, **fields: Any) -> None:
        record: Dict[str, Any] = {
            "seq": len(self.events),
            "job_id": self.status.job_id,
            "event": event,
        }
        record.update(fields)
        async with self.changed:
            self.events.append(record)
            self.changed.notify_all()


class ServiceApp:
    """The ASGI callable plus the job store and worker loop behind it."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        from repro.service.quota import QuotaRegistry

        self.config = config if config is not None else ServiceConfig()
        self.quotas = QuotaRegistry(
            rate=self.config.quota_rate, burst=self.config.quota_burst
        )
        cache_kwargs = (
            {"root": self.config.cache_dir}
            if self.config.cache_dir is not None
            else {}
        )
        self.cache = ResultCache(**cache_kwargs)
        self.cache.enabled = self.config.use_cache
        self.pool = WorkerPool(jobs=self.config.jobs)
        self.telemetry = Telemetry()
        self.jobs: Dict[str, _Job] = {}
        self.started_at = time.time()
        #: result_key -> job_id of the in-flight leader for that key;
        #: duplicate submissions attach to it instead of queueing.
        self._inflight: Dict[str, str] = {}
        #: predecessor job_id -> jobs parked until it settles.
        self._waiting: Dict[str, List[_Job]] = {}
        #: Highest job sequence number ever issued; ids at or below it
        #: that are missing from the store were evicted (410, not 404).
        self._last_job_seq = 0
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def startup(self) -> None:
        """Create the queue and worker tasks on the running loop."""
        if self._queue is not None:
            return
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._workers = [
            asyncio.get_running_loop().create_task(self._worker_loop())
            for _ in range(self.config.jobs)
        ]

    async def shutdown(self) -> None:
        """Stop workers and release the pool (idempotent, like the pool)."""
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers = []
        self._queue = None
        self.pool.shutdown()

    async def _worker_loop(self) -> None:
        assert self._queue is not None
        while True:
            group: List[_Job] = [await self._queue.get()]
            window = self.config.batch_window
            if window > 0.0:
                # Linger briefly so the planner can coalesce queued
                # compatible jobs into shared fleet batches.
                deadline = time.monotonic() + window
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        break
                    try:
                        group.append(
                            await asyncio.wait_for(self._queue.get(), remaining)
                        )
                    except asyncio.TimeoutError:
                        break
            try:
                await self._execute(group)
            except Exception as error:
                # Nothing may end a worker: fail what the group left
                # unsettled, so its followers and dependents still wake.
                await self._fail(
                    [
                        job
                        for job in group
                        if job.status.state in ("queued", "running")
                    ],
                    error,
                )
            finally:
                for _ in group:
                    self._queue.task_done()

    async def _execute(self, group: List[_Job]) -> None:
        """Run dequeued jobs as the campaign planner partitions them.

        :func:`plan_campaign` splits *group* exactly as it splits a
        campaign; each cohort and each straggler then runs as ONE pool
        task of :func:`run_plan_task`, in order of first submission, and
        every job in it settles from that task.  Payloads are
        byte-identical to solo execution however the group was split.
        """
        plan = plan_campaign(
            [
                CampaignJob.from_request(job.request, label=job.status.job_id)
                for job in group
            ],
            telemetry=self.telemetry,
        )
        units = [
            ("batch", [i for i, _ in cohort.jobs], tuple(j for _, j in cohort.jobs))
            for cohort in plan.cohorts
        ] + [
            ("solo", [straggler.index], (straggler.job,))
            for straggler in plan.stragglers
        ]
        for kind, indices, tasks in sorted(units, key=lambda unit: unit[1][0]):
            jobs = [group[index] for index in indices]
            batched = {"batched": len(jobs)} if len(jobs) > 1 else {}
            for job in jobs:
                job.status.state = "running"
                await job.emit("running", **batched)
            label = (
                f"service:batch:{len(jobs)}"
                if batched
                else f"service:{jobs[0].status.result_key[:12]}"
            )
            try:
                payloads, timing = await asyncio.to_thread(
                    self.pool.run_task,
                    run_plan_task,
                    # collect=True: every payload carries its telemetry.
                    (kind, tasks, True),
                    label,
                    self.config.retry,
                    self.config.chaos,
                    self.telemetry,
                )
            except Exception as error:
                await self._fail(jobs, error)
                continue
            if batched:
                self.telemetry.inc("service.jobs_batched", len(jobs))
            self.telemetry.observe("service.job_seconds", timing.seconds)
            done = batched or {"seconds": round(timing.seconds, 6)}
            for job, payload in zip(jobs, payloads):
                try:
                    self.cache.put(job.status.result_key, payload)
                except OSError:
                    # The result stands; only its cache entry is lost.
                    self.telemetry.inc("service.cache_put_errors")
                job.status.attempts = timing.attempts
                job.result = JobResult(
                    job_id=job.status.job_id,
                    result_key=job.status.result_key,
                    cached=False,
                    payload=payload,
                )
                job.status.state = "done"
                job.status.finished_at = time.time()
                self.telemetry.inc("service.jobs_completed")
                await job.emit("done", attempts=timing.attempts, **done)
                await self._settle(job)

    async def _fail(self, jobs: List[_Job], error: Exception) -> None:
        """Fail *jobs* with *error*, settling each one."""
        for job in jobs:
            job.status.state = "failed"
            job.status.detail = repr(error)
            job.status.finished_at = time.time()
            self.telemetry.inc("service.jobs_failed")
            await job.emit("failed", error=repr(error))
            await self._settle(job)

    async def _settle(self, job: _Job) -> None:
        """Propagate a terminal job to its coalesced followers and
        release (or fail) anything parked on it."""
        if self._inflight.get(job.status.result_key) == job.status.job_id:
            del self._inflight[job.status.result_key]
        followers, job.followers = job.followers, []
        for follower in followers:
            follower.status.state = job.status.state
            follower.status.detail = job.status.detail
            follower.status.attempts = job.status.attempts
            follower.status.finished_at = job.status.finished_at
            if job.result is not None:
                follower.result = JobResult(
                    job_id=follower.status.job_id,
                    result_key=follower.status.result_key,
                    cached=False,
                    payload=job.result.payload,
                )
                await follower.emit("done", coalesced_with=job.status.job_id)
            else:
                await follower.emit(
                    "failed", error=job.status.detail,
                    coalesced_with=job.status.job_id,
                )
            await self._on_terminal(follower)
        await self._on_terminal(job)

    async def _on_terminal(self, job: _Job) -> None:
        """Wake the jobs parked on *job*: queue the ready, fail the
        blocked (transitively, via their own ``_settle``)."""
        dependents = self._waiting.pop(job.status.job_id, [])
        for dep in dependents:
            dep.waiting_on.discard(job.status.job_id)
            if dep.status.state != "queued":
                # Already failed through another predecessor.
                continue
            if job.status.state == "failed":
                dep.waiting_on.clear()
                dep.status.state = "failed"
                dep.status.detail = f"predecessor {job.status.job_id} failed"
                dep.status.finished_at = time.time()
                dep.status.waiting_on = ()
                self.telemetry.inc("service.jobs_blocked")
                await dep.emit(
                    "failed", error=dep.status.detail,
                    blocked_by=job.status.job_id,
                )
                await self._settle(dep)
                continue
            if dep.waiting_on:
                dep.status.waiting_on = tuple(sorted(dep.waiting_on))
                continue
            dep.status.waiting_on = ()
            assert self._queue is not None
            try:
                self._queue.put_nowait(dep)
            except asyncio.QueueFull:
                # Parked jobs never reserved queue capacity; degrade the
                # same way an over-full submit would, but per job.
                dep.status.state = "failed"
                dep.status.detail = "job queue full when dependencies released"
                dep.status.finished_at = time.time()
                self.telemetry.inc("service.rejected_queue")
                await dep.emit("failed", error=dep.status.detail)
                await self._settle(dep)
                continue
            self.telemetry.inc("service.jobs_released")
            await dep.emit("queued", released_by=job.status.job_id)

    def _was_issued(self, job_id: str) -> bool:
        """Whether an id missing from the store was once a real job.

        Ids are sequential (``job-1`` …), so any well-formed id at or
        below the highest issued sequence must have existed — and, being
        absent now, was evicted.  Keeps 410-vs-404 precise without an
        unbounded evicted-id set.
        """
        if not job_id.startswith("job-"):
            return False
        try:
            seq = int(job_id[4:])
        except ValueError:
            return False
        return 1 <= seq <= self._last_job_seq

    def _evict_expired(self, now: Optional[float] = None) -> int:
        """Drop terminal jobs older than the TTL; count what went.

        *now* is injectable so tests can advance time synthetically.
        Returns the number of evicted jobs (also counted on
        ``service.jobs_evicted``).
        """
        ttl = self.config.job_ttl
        if ttl is None:
            return 0
        if now is None:
            now = time.time()
        expired = [
            job_id
            for job_id, job in self.jobs.items()
            if job.status.state in ("done", "failed")
            and job.status.finished_at is not None
            and now - job.status.finished_at >= ttl
        ]
        for job_id in expired:
            del self.jobs[job_id]
        if expired:
            self.telemetry.inc("service.jobs_evicted", len(expired))
        return len(expired)

    # ------------------------------------------------------------------
    # ASGI surface
    # ------------------------------------------------------------------

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            return
        await self.startup()  # lazily, for servers without lifespan
        started = time.perf_counter()
        request_id = self._request_id(scope)
        self.telemetry.inc("service.requests")
        try:
            await self._dispatch(scope, receive, send, request_id)
        finally:
            self.telemetry.observe(
                "service.request_seconds", time.perf_counter() - started
            )

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await self.startup()
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await self.shutdown()
                await send({"type": "lifespan.shutdown.complete"})
                return

    def _request_id(self, scope) -> str:
        for name, value in scope.get("headers") or ():
            if name == b"x-request-id":
                return value.decode("latin-1")[:64]
        return f"req-{next(self._requests)}"

    def _client_id(self, scope) -> str:
        for name, value in scope.get("headers") or ():
            if name == b"x-client-id":
                return value.decode("latin-1")[:64]
        client = scope.get("client")
        return client[0] if client else "anonymous"

    async def _dispatch(self, scope, receive, send, request_id: str) -> None:
        path = scope.get("path", "/")
        method = scope.get("method", "GET").upper()
        parts = [part for part in path.split("/") if part]
        self._evict_expired()

        if parts == ["v1", "health"] and method == "GET":
            await self._send_json(send, 200, self.health(), request_id)
            return
        if parts == ["v1", "jobs"] and method == "POST":
            await self._submit(scope, receive, send, request_id)
            return
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            job = self.jobs.get(parts[2])
            if job is None:
                if self._was_issued(parts[2]):
                    await self._send_json(
                        send,
                        410,
                        {
                            "error": f"job {parts[2]!r} evicted after "
                            f"job_ttl={self.config.job_ttl}s"
                        },
                        request_id,
                    )
                    return
                await self._send_json(
                    send, 404, {"error": f"unknown job {parts[2]!r}"}, request_id
                )
                return
            if len(parts) == 3 and method == "GET":
                await self._send_json(send, 200, job.status.to_dict(), request_id)
                return
            if parts[3:] == ["result"] and method == "GET":
                await self._result(job, send, request_id)
                return
            if parts[3:] == ["stream"] and method == "GET":
                await self._stream(job, send, request_id)
                return
        await self._send_json(
            send,
            405 if parts[:2] in (["v1", "jobs"], ["v1", "health"]) else 404,
            {"error": f"no route for {method} {path}"},
            request_id,
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness + capabilities (the JSON twin of ``repro info``)."""
        import repro

        try:
            from repro.vec import vec_capabilities

            vec: Any = vec_capabilities()
        except ImportError:  # pragma: no cover - numpy-less deployments
            vec = "unavailable (numpy not installed)"
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.status.state] = states.get(job.status.state, 0) + 1
        return {
            "status": "ok",
            "api_version": API_VERSION,
            "version": repro.__version__,
            "backends": {
                "scalar": "full simulation engine (all apps, faults, experiments)",
                "vec": vec,
            },
            "queue": {
                "depth": self._queue.qsize() if self._queue is not None else 0,
                "limit": self.config.queue_limit,
                "waiting": sum(
                    1 for job in self.jobs.values() if job.waiting_on
                ),
            },
            "pool": {"jobs": self.pool.jobs, "mode": self.pool.mode},
            "quota": self.quotas.snapshot(),
            "cache": self.cache.stats.as_dict(),
            "jobs": states,
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }

    async def _submit(self, scope, receive, send, request_id: str) -> None:
        allowed, retry_after = self.quotas.allow(self._client_id(scope))
        if not allowed:
            self.telemetry.inc("service.rejected_quota")
            await self._send_json(
                send,
                429,
                {"error": "quota exceeded", "retry_after": round(retry_after, 3)},
                request_id,
                extra_headers=[(b"retry-after", str(max(1, int(retry_after + 0.999))).encode())],
            )
            return

        body = await self._read_body(receive)
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            request = JobRequest.from_payload(payload)
            key = request.result_key()
        except SpecError as error:
            self.telemetry.inc("service.rejected_invalid")
            await self._send_json(send, 400, {"error": str(error)}, request_id)
            return
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self.telemetry.inc("service.rejected_invalid")
            await self._send_json(
                send, 400, {"error": f"body is not valid JSON: {error}"}, request_id
            )
            return

        # Dependency edges are validated at the edge like everything
        # else: every id in "after" must name a job the store still
        # knows (evicted ids get a distinct message).
        predecessors: List[_Job] = []
        for pred_id in request.after:
            pred = self.jobs.get(pred_id)
            if pred is None:
                hint = (
                    "evicted" if self._was_issued(pred_id) else "unknown"
                )
                self.telemetry.inc("service.rejected_invalid")
                await self._send_json(
                    send,
                    400,
                    {"error": f"'after' references {hint} job {pred_id!r}"},
                    request_id,
                )
                return
            predecessors.append(pred)

        seq = next(self._ids)
        self._last_job_seq = seq
        job_id = f"job-{seq}"
        status = JobStatus(
            job_id=job_id,
            result_key=key,
            submitted_at=time.time(),
        )
        job = _Job(request=request, status=status, changed=asyncio.Condition())
        cached = cached_payload(self.cache, key)
        if cached is not None:
            # Served entirely at the edge: the worker pool is untouched.
            status.state = "done"
            status.cached = True
            status.finished_at = status.submitted_at
            job.result = JobResult(
                job_id=job_id, result_key=key, cached=True, payload=cached
            )
            self.jobs[job_id] = job
            self.telemetry.inc("service.cache_hits")
            await job.emit("done", cached=True)
            await self._send_json(send, 200, status.to_dict(), request_id)
            return

        failed_pred = next(
            (p for p in predecessors if p.status.state == "failed"), None
        )
        if failed_pred is not None:
            status.state = "failed"
            status.detail = f"predecessor {failed_pred.status.job_id} failed"
            status.finished_at = status.submitted_at
            self.jobs[job_id] = job
            self.telemetry.inc("service.jobs_blocked")
            await job.emit(
                "failed", error=status.detail,
                blocked_by=failed_pred.status.job_id,
            )
            await self._send_json(send, 202, status.to_dict(), request_id)
            return

        pending_preds = [
            p for p in predecessors if p.status.state in ("queued", "running")
        ]
        if pending_preds:
            # Park: the job holds no queue slot and no worker until its
            # last outstanding predecessor settles.
            job.waiting_on = {p.status.job_id for p in pending_preds}
            status.waiting_on = tuple(sorted(job.waiting_on))
            for pred in pending_preds:
                self._waiting.setdefault(pred.status.job_id, []).append(job)
            self.jobs[job_id] = job
            self.telemetry.inc("service.jobs_waiting")
            await job.emit("waiting", on=sorted(job.waiting_on))
            await self._send_json(send, 202, status.to_dict(), request_id)
            return

        leader_id = self._inflight.get(key)
        leader = self.jobs.get(leader_id) if leader_id is not None else None
        if leader is not None and leader.status.state in ("queued", "running"):
            # Identical work is already in flight: attach to it instead
            # of queueing a duplicate.  The follower settles (result,
            # state, events) when the leader does.
            status.state = leader.status.state
            leader.followers.append(job)
            self.jobs[job_id] = job
            self.telemetry.inc("service.jobs_coalesced")
            await job.emit("coalesced", leader=leader.status.job_id)
            await self._send_json(send, 202, status.to_dict(), request_id)
            return

        assert self._queue is not None
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.telemetry.inc("service.rejected_queue")
            await self._send_json(
                send,
                503,
                {
                    "error": "job queue full",
                    "queue_limit": self.config.queue_limit,
                },
                request_id,
                extra_headers=[(b"retry-after", b"1")],
            )
            return
        self.jobs[job_id] = job
        self._inflight[key] = job_id
        self.telemetry.inc("service.jobs_queued")
        await job.emit("queued")
        await self._send_json(send, 202, status.to_dict(), request_id)

    async def _result(self, job: _Job, send, request_id: str) -> None:
        if job.status.state == "failed":
            await self._send_json(
                send,
                500,
                {"error": job.status.detail, "job_id": job.status.job_id},
                request_id,
            )
            return
        if job.result is None:
            await self._send_json(
                send,
                409,
                {
                    "error": f"job {job.status.job_id} is {job.status.state}",
                    "state": job.status.state,
                },
                request_id,
            )
            return
        await self._send_json(send, 200, job.result.to_dict(), request_id)

    async def _stream(self, job: _Job, send, request_id: str) -> None:
        """Progress + metrics as JSONL, tailing until the job settles."""
        await send(
            {
                "type": "http.response.start",
                "status": 200,
                "headers": [
                    (b"content-type", b"application/x-ndjson"),
                    (b"x-request-id", request_id.encode("latin-1")),
                ],
            }
        )
        sent = 0
        while True:
            async with job.changed:
                while sent >= len(job.events) and job.status.state not in (
                    "done",
                    "failed",
                ):
                    await job.changed.wait()
                fresh = job.events[sent:]
                sent = len(job.events)
                settled = job.status.state in ("done", "failed") and sent == len(
                    job.events
                )
            for record in fresh:
                await send(
                    {
                        "type": "http.response.body",
                        "body": (json.dumps(record, sort_keys=True) + "\n").encode(),
                        "more_body": True,
                    }
                )
            if settled:
                break
        # Terminal: append the job's metric records off the telemetry
        # plane (same JSONL schema as --metrics-out).
        tail = b""
        snapshot = (job.result.payload.get("telemetry") if job.result else None) or {}
        if snapshot:
            replay = Telemetry()
            replay.merge_snapshot(snapshot)
            lines = [
                json.dumps(record, sort_keys=True)
                for record in replay.metric_records(scope=job.status.job_id)
            ]
            if lines:
                tail = ("\n".join(lines) + "\n").encode()
        await send({"type": "http.response.body", "body": tail, "more_body": False})

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    async def _read_body(self, receive) -> bytes:
        chunks: List[bytes] = []
        while True:
            message = await receive()
            if message["type"] != "http.request":  # pragma: no cover
                break
            chunks.append(message.get("body", b""))
            if not message.get("more_body"):
                break
        return b"".join(chunks)

    async def _send_json(
        self,
        send,
        status: int,
        payload: Dict[str, Any],
        request_id: str,
        extra_headers: Optional[List[Tuple[bytes, bytes]]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        headers = [
            (b"content-type", b"application/json"),
            (b"content-length", str(len(body)).encode()),
            (b"x-request-id", request_id.encode("latin-1")),
        ]
        headers.extend(extra_headers or [])
        await send(
            {"type": "http.response.start", "status": status, "headers": headers}
        )
        await send({"type": "http.response.body", "body": body, "more_body": False})
