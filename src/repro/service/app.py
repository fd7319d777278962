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
``job_ttl`` seconds (polling an evicted id answers **410 Gone**), and no
result key is worked on twice at once.  Every job is admitted one way,
whether it was just submitted or was just released by its last
predecessor: a cached key completes at once, a key still in flight
coalesces onto the job that leads it (and settles with it), and any
other key queues as its own leader.  Every dequeued job runs through the
campaign planner (:mod:`repro.experiments.plan`); with
``batch_window > 0`` a worker lingers briefly after each dequeue so the
planner's cohorts can coalesce queued vec-compatible jobs into shared
fleet batches, whose per-job payloads are byte-identical to solo
execution.

Submissions may form a DAG: ``"after": ["job-1", ...]`` parks a job
until the named predecessors settle (unknown ids are a 400 at the
edge; a failed predecessor fails the dependent with the blocking id in
its detail, transitively).  The rule is the campaign layer's
:class:`~repro.experiments.dag.DependencyBook`; this app only admits,
fails and reports what it decides.  ``after`` is scheduling metadata
only — it never joins the result key, and a submit reads the cache
before the book, so a dependent still serves from cache instantly when
its own inputs were computed before.

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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SpecError
from repro.experiments.cache import ResultCache
from repro.experiments.dag import DependencyBook
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
        #: result_key -> the jobs in flight for it: the leader that runs,
        #: then the followers that settle with it.
        self._inflight: Dict[str, List[_Job]] = {}
        #: The dependency rule; every stored job is one of its nodes.
        self._book = DependencyBook()
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
                await self._fail(group, error)
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
        A cohort holds one horizon: a job settles only when its task
        ends, so merging horizons as
        :func:`~repro.experiments.plan.execute_plan` does would hold
        each short job until the window's longest one finished.
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
                self.telemetry.inc("service.jobs_completed")
                await self._finish(
                    job, "done", payload=payload, attempts=timing.attempts, **done
                )

    async def _fail(self, jobs: List[_Job], error: Exception) -> None:
        """Fail those of *jobs* not yet settled with *error*."""
        for job in jobs:
            if job.status.state in ("queued", "running"):
                self.telemetry.inc("service.jobs_failed")
                await self._finish(job, "failed", repr(error))

    async def _block(self, job: _Job, via: str) -> None:
        """Fail *job* unrun: its predecessor *via* failed."""
        self.telemetry.inc("service.jobs_blocked")
        await self._finish(job, "failed", f"predecessor {via} failed", blocked_by=via)

    async def _admit(self, job: _Job, released_by: Optional[str] = None) -> bool:
        """Admit *job*: a fresh submit, or a dependent the book released
        when *released_by* settled.  ``False`` means the queue was full.

        Both take one path: a cached key finishes at once, a key in
        flight coalesces onto its leader, and any other key queues as
        its own leader.  A submit enters the book after the cache read,
        so ``after`` never delays a hit; otherwise it waits for its
        predecessors, or is blocked at once if one failed.
        """
        job_id, key = job.status.job_id, job.status.result_key
        hit = cached_payload(self.cache, key)
        released = {} if released_by is None else {"released_by": released_by}
        if released_by is None:
            preds = () if hit is not None else job.request.after
            update = self._book.add(job_id, preds)
            if update.blocked:
                [(_, via)] = update.blocked
                await self._block(job, via)
                return True
            if not update.ready:
                # Park: the job holds no queue slot and no worker until
                # its last outstanding predecessor settles.
                self.telemetry.inc("service.jobs_waiting")
                await job.emit("waiting", on=sorted(self._book.waiting_on(job_id)))
                return True
        if hit is not None:
            self.telemetry.inc("service.cache_hits")
            await self._finish(job, "done", payload=hit, cached=True, **released)
            return True
        flight = self._inflight.get(key)
        if flight is not None:
            # Identical work is in flight: settle with it instead of
            # running it twice.
            job.status.state = flight[0].status.state
            flight.append(job)
            self.telemetry.inc("service.jobs_coalesced")
            await job.emit("coalesced", leader=flight[0].status.job_id, **released)
            return True
        assert self._queue is not None
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.telemetry.inc("service.rejected_queue")
            if released_by is not None:
                # Parked jobs never reserved queue capacity; degrade the
                # way an over-full submit does, but per job.
                await self._finish(
                    job, "failed", "job queue full when dependencies released"
                )
            return False
        self._inflight[key] = [job]
        self.telemetry.inc("service.jobs_queued")
        await job.emit("queued", **released)
        return True

    async def _finish(
        self, job: _Job, state: str, detail: str = "", payload: Any = None, **event: Any
    ) -> None:
        """End *job* in terminal *state* with *detail* (the ``error`` of
        a failure) or *payload* (its result), emit the terminal event
        with *event*'s fields, then settle it.  A blocked job needs no
        settling: the book blocked it."""
        status = job.status
        status.state, status.detail = state, detail
        status.cached = bool(event.get("cached"))
        status.finished_at = time.time()
        if payload is not None:
            job.result = JobResult(
                status.job_id, status.result_key, status.cached, payload
            )
        await job.emit(state, **({"error": detail} if detail else {}), **event)
        if "blocked_by" not in event:
            await self._settle(job)

    async def _settle(self, job: _Job) -> None:
        """Settle terminal *job*: the followers coalesced onto it finish
        with it, then the book's update is applied — the jobs *job*
        blocked fail, and the jobs it released are admitted."""
        status = job.status
        flight = self._inflight.get(status.result_key)
        if flight is not None and flight[0] is job:
            del self._inflight[status.result_key]
            for follower in flight[1:]:
                follower.status.attempts = status.attempts
                await self._finish(
                    follower,
                    status.state,
                    status.detail,
                    job.result.payload if job.result is not None else None,
                    coalesced_with=status.job_id,
                )
        settle = self._book.succeed if status.state == "done" else self._book.fail
        update = settle(status.job_id)
        for dep_id, via in update.blocked:
            await self._block(self.jobs[dep_id], via)
        for dep_id in update.ready:
            if await self._admit(self.jobs[dep_id], released_by=status.job_id):
                self.telemetry.inc("service.jobs_released")

    def _status(self, job: _Job) -> Dict[str, Any]:
        """*job*'s status as answered, ``waiting_on`` read off the book."""
        waiting_on = self._book.waiting_on(job.status.job_id)
        return replace(job.status, waiting_on=tuple(sorted(waiting_on))).to_dict()

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
            self._book.forget(job_id)
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
                await self._send_json(send, 200, self._status(job), request_id)
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
                    1 for job_id in self.jobs if self._book.waiting_on(job_id)
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
            # Dependency edges are validated at the edge like everything
            # else: every id in "after" must name a job the store still
            # knows (evicted ids get a distinct message).
            for pred_id in request.after:
                if pred_id not in self.jobs:
                    hint = "evicted" if self._was_issued(pred_id) else "unknown"
                    raise SpecError(f"'after' references {hint} job {pred_id!r}")
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

        seq = next(self._ids)
        self._last_job_seq = seq
        job_id = f"job-{seq}"
        status = JobStatus(
            job_id=job_id,
            result_key=key,
            submitted_at=time.time(),
        )
        job = _Job(request=request, status=status, changed=asyncio.Condition())
        self.jobs[job_id] = job
        if not await self._admit(job):
            del self.jobs[job_id]
            self._book.forget(job_id)
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
        await self._send_json(
            send, 200 if status.cached else 202, self._status(job), request_id
        )

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
