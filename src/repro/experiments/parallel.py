"""Parallel experiment execution.

Every evaluation artifact re-runs the *same* deterministic simulation
under different power systems or parameter points, so the experiment
layer is embarrassingly parallel: the four :class:`SystemKind` runs of
a campaign, each point of a sweep grid, and each top-level experiment
of ``run_all`` are independent.  This module fans that work out over a
``ProcessPoolExecutor`` while preserving the methodology the paper
depends on:

* **deterministic ordering** — results always come back in submission
  order, regardless of which worker finished first;
* **seed isolation** — workers never share RNG state: each task
  rebuilds its app from the builder (which embeds the seed), so a
  parallel run is bit-identical to a serial one;
* **graceful fallback** — ``REPRO_JOBS=1``, a single-core machine, or
  a non-picklable task quietly degrades to the serial path with the
  same results;
* **timing capture** — each task reports its wall-clock cost so
  ``run_all`` can show where the time went;
* **resilience** — a :class:`RetryPolicy` re-runs failed tasks with
  exponential backoff and deterministic jitter, and ``on_error="capture"``
  degrades a permanently failing task into a :class:`TaskError` row
  instead of aborting the batch.  Paired with
  :class:`~repro.faults.inject.WorkerChaos`, the same machinery becomes
  a chaos harness: injected crashes are deterministic per
  ``(label, attempt)``, and because every task is a pure function of its
  arguments, a crashed-and-retried batch is byte-identical to an
  undisturbed one.

Workers return only the :class:`~repro.sim.trace.Trace` (plain data);
the parent process rebuilds the cheap ``AppInstance`` shell locally and
grafts the worker's trace onto it, so nothing hard-to-pickle (closures,
generators, heaps of callbacks) ever crosses the process boundary.
"""

from __future__ import annotations

import heapq as _heapq
import os
import pickle
import queue as _queue
import threading as _threading
import time as _time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.apps.base import AppInstance
from repro.core.builder import SystemKind
from repro.errors import ConfigurationError
from repro.experiments.campaign import DEFAULT_KINDS, Campaign
from repro.experiments.dag import DependencyBook
from repro.faults.inject import WorkerChaos, _unit_draw
from repro.observability.telemetry import Telemetry, resolve_telemetry
from repro.sim.trace import Trace
from repro.spec import ScenarioBuilder, build_scenario_app

T = TypeVar("T")

#: Environment variable forcing the worker count (1 disables the pool).
JOBS_ENV = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the CPU count."""
    override = os.environ.get(JOBS_ENV)
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _picklable(*objects: Any) -> bool:
    """Whether every object survives pickling (pool transport check)."""
    try:
        for obj in objects:
            pickle.dumps(obj)
        return True
    except Exception:
        return False


@dataclass
class TaskTiming:
    """Wall-clock cost of one parallel task, for reporting.

    ``seconds`` is the cost of the attempt that produced the result (or
    the last attempt, for tasks that gave up); ``attempts`` is how many
    tries that took.
    """

    label: str
    seconds: float
    attempts: int = 1


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    The delay before attempt ``n+1`` is ``base_delay * 2**(n-1)`` capped
    at *max_delay*, scaled by a jitter factor in ``[0.5, 1.0)`` drawn —
    reproducibly — from SHA-256 of ``(seed, label, attempt)``.  Nothing
    about a retried batch depends on wall-clock or global RNG state, so
    retries never perturb results.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0.0 or self.max_delay < 0.0:
            raise ConfigurationError("retry delays must be non-negative")

    def delay(self, label: str, attempt: int) -> float:
        """Backoff before re-running *label* after failed *attempt*."""
        backoff = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        jitter = _unit_draw(self.seed, f"retry:{label}", attempt)
        return backoff * (0.5 + 0.5 * jitter)


@dataclass(frozen=True)
class TaskError:
    """A task that failed every attempt, captured as data.

    With ``on_error="capture"`` the failing task's result slot holds one
    of these instead of aborting the whole batch — ``run_all`` turns it
    into a structured error row.
    """

    label: str
    error: str
    attempts: int

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[error] {self.label} failed after {self.attempts} attempt(s): {self.error}"


@dataclass
class ParallelReport:
    """Per-task timings plus how the batch actually executed."""

    mode: str = "serial"  # "serial" or "process-pool"
    jobs: int = 1
    timings: List[TaskTiming] = field(default_factory=list)

    @property
    def total_task_seconds(self) -> float:
        return sum(timing.seconds for timing in self.timings)


def _attempt_call(
    fn: Callable[..., T],
    args: Tuple[Any, ...],
    chaos: Optional[WorkerChaos],
    label: str,
    attempt: int,
) -> Tuple[T, float]:
    """One timed attempt, with the chaos check inside the worker.

    Module-level so the pool can ship it; the chaos policy travels by
    value (it is a frozen dataclass), and its decision is a pure
    function of ``(seed, label, attempt)``, so parent and worker agree
    on which attempts die without any shared state.
    """
    started = _time.perf_counter()
    if chaos is not None:
        chaos.raise_if_injected(label, attempt)
    result = fn(*args)
    return result, _time.perf_counter() - started


def _run_now(fn: Callable[..., Any], *args: Any) -> Future:
    """Call ``fn(*args)`` in this thread; its outcome as a done future."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as error:
        future.set_exception(error)
    return future


def parallel_map(
    fn: Callable[..., T],
    tasks: Sequence[Tuple[Any, ...]],
    jobs: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    report: Optional[ParallelReport] = None,
    retry: Optional[RetryPolicy] = None,
    chaos: Optional[WorkerChaos] = None,
    on_error: str = "raise",
    telemetry: Optional[Telemetry] = None,
) -> List[Any]:
    """Apply *fn* to each argument tuple, fanning out over processes.

    :meth:`WorkerPool.map_tasks` on a pool of ``min(jobs, len(tasks))``
    workers that lives for this call only: results come back in task
    order, and a single task, ``jobs == 1`` or a non-picklable
    *fn*/*tasks* run in-process with the same results.

    Args:
        fn: a module-level (picklable) callable.
        tasks: one argument tuple per invocation.
        jobs: worker processes; ``None`` uses :func:`default_jobs`.
        labels: optional display labels for the timing report (also the
            retry/chaos identity of each task — keep them stable).
        report: optional :class:`ParallelReport` to fill with timings.
        retry: re-run failed tasks under this policy (default: one
            attempt, no retry).
        chaos: deterministic fault injection — each attempt first asks
            the policy whether to crash (:mod:`repro.faults`).
        on_error: ``"raise"`` re-raises once a task exhausts its
            attempts; ``"capture"`` stores a :class:`TaskError` in that
            task's result slot and keeps going.
        telemetry: sink for ``campaign.retries`` / ``campaign.gave_up``
            counters (``None`` resolves the ambient scope).

    Raises:
        ConfigurationError: for an unknown *on_error* mode.
    """
    jobs = default_jobs() if jobs is None else max(1, jobs)
    with WorkerPool(jobs=min(jobs, len(tasks))) as pool:
        return pool.map_tasks(
            fn,
            tasks,
            labels=labels,
            retry=retry,
            chaos=chaos,
            on_error=on_error,
            telemetry=telemetry,
            report=report,
        )


# ---------------------------------------------------------------------------
# Worker pool: the one dispatcher
# ---------------------------------------------------------------------------

class WorkerPool:
    """A process pool that survives across jobs instead of per call.

    Every way of running tasks — :func:`parallel_map`, :meth:`map_tasks`,
    :meth:`run_task` and :func:`repro.experiments.dag.run_dag` — goes
    through this class's one dispatch loop, so attempts, chaos, backoff,
    ``on_error`` and the retry/give-up counters behave the same on every
    path.  Tasks run in-process iff ``jobs == 1`` or the function, its
    arguments or the chaos policy cannot be pickled; otherwise they run
    on one executor kept alive across calls (pool spin-up would dominate
    a long-lived service's small jobs).

    Teardown is **idempotent**: a pool shared between a request handler
    and a process-exit hook may see ``shutdown`` twice (or
    concurrently), and the second call must be a no-op rather than
    double-joining workers.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, jobs)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = _threading.Lock()
        #: Tasks dispatched over the pool's lifetime: one per task that
        #: started an attempt, however many attempts it took (cache hits
        #: and blocked DAG tasks never reach the pool — the service
        #: tests assert exactly that).
        self.tasks_run = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def mode(self) -> str:
        return "serial" if self.jobs == 1 else "process-pool"

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise ConfigurationError("WorkerPool is shut down")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            return self._executor

    def _discard(self, executor: ProcessPoolExecutor) -> None:
        """Drop a broken *executor* so the next attempt gets fresh workers.

        Only the current executor is swapped out: concurrent callers
        share it, and one of them may already have replaced it.
        """
        with self._lock:
            if self._executor is not executor:
                return
            self._executor = None
        executor.shutdown(wait=False)

    def shutdown(self) -> None:
        """Release the workers.  Safe to call any number of times.

        The executor reference is swapped out under the lock before the
        (blocking) join, so a second caller — another thread, an atexit
        hook, a ``with`` block unwinding after an explicit shutdown —
        observes ``None`` and returns immediately instead of joining
        half-dead worker processes a second time.
        """
        with self._lock:
            if self._closed and self._executor is None:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    #: Alias so the pool can sit wherever an Executor-shaped object is
    #: expected for cleanup.
    close = shutdown

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- execution ------------------------------------------------------

    def run_task(
        self,
        fn: Callable[..., T],
        args: Tuple[Any, ...],
        label: str = "task",
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[WorkerChaos] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> Tuple[T, TaskTiming]:
        """Run one task to completion; its result and timing.

        Blocking; callers that must not block (the asyncio service) wrap
        this in a thread.  *chaos* may kill attempts deterministically
        per ``(label, attempt)``, *retry* re-runs them with backoff, and
        the last error propagates once attempts are exhausted.
        """
        report = ParallelReport()
        [result] = self._dispatch(
            fn, [args], [label], retry, chaos, "raise", telemetry, report
        )
        return result, report.timings[0]

    def map_tasks(
        self,
        fn: Callable[..., T],
        tasks: Sequence[Tuple[Any, ...]],
        labels: Optional[Sequence[str]] = None,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[WorkerChaos] = None,
        on_error: str = "raise",
        telemetry: Optional[Telemetry] = None,
        report: Optional[ParallelReport] = None,
        on_complete: Optional[Callable[[str, Any, TaskTiming], None]] = None,
    ) -> List[Any]:
        """Apply *fn* to each argument tuple; results in task order.

        See :func:`parallel_map` for the meaning of the other arguments.
        *on_complete* is called in this process with ``(label, result,
        timing)`` as each task succeeds, while later tasks may still be
        running; under ``on_error="raise"`` it has seen every task that
        finished before the abort.
        """
        return self._dispatch(
            fn, tasks, labels, retry, chaos, on_error, telemetry, report,
            on_complete=on_complete,
        )

    def _dispatch(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Tuple[Any, ...]],
        labels: Optional[Sequence[str]],
        retry: Optional[RetryPolicy],
        chaos: Optional[WorkerChaos],
        on_error: str,
        telemetry: Optional[Telemetry],
        report: Optional[ParallelReport],
        after: Optional[Sequence[Sequence[int]]] = None,
        on_complete: Optional[Callable[[str, Any, TaskTiming], None]] = None,
    ) -> List[Any]:
        """The dispatch loop every public face shares.

        Runs ``fn(*tasks[i])`` for each position *i*, never before the
        positions in ``after[i]`` succeeded; a task whose predecessor
        failed is not run, and its slot holds a :class:`TaskError` with
        ``attempts=0``.  A :class:`~repro.experiments.dag.DependencyBook`
        keeps that rule; ``after`` must list predecessors at earlier
        positions.  In-process, tasks run one at a time in position
        order, each to its last attempt; on the executor, every ready
        task is in flight at once and completions are handled as they
        land, successes first, so a ``"raise"`` abort still reports
        (via *on_complete*) every task that finished.
        """
        if on_error not in ("raise", "capture"):
            raise ConfigurationError(
                f'on_error must be "raise" or "capture", got {on_error!r}'
            )
        if self._closed:
            raise ConfigurationError("WorkerPool is shut down")
        count = len(tasks)
        if labels is None:
            labels = [str(i) for i in range(count)]
        telemetry = resolve_telemetry(telemetry)
        max_attempts = retry.max_attempts if retry is not None else 1
        inline = self.jobs == 1 or not _picklable(fn, list(tasks), chaos)
        if report is not None:
            report.mode = "serial" if inline else "process-pool"
            report.jobs = 1 if inline else self.jobs

        book = DependencyBook()
        ready: List[int] = []
        for position in range(count):
            ready += book.add(position, after[position] if after else ()).ready
        results: List[Any] = [None] * count
        #: future -> (position, attempt, executor it was submitted to)
        in_flight: Dict[Future, Tuple[int, int, Any]] = {}
        landed: "_queue.SimpleQueue[Future]" = _queue.SimpleQueue()

        def submit(position: int, attempt: int) -> None:
            label = labels[position]
            call = (_attempt_call, fn, tasks[position], chaos, label, attempt)
            executor = None
            if inline:
                future = _run_now(*call)
            else:
                executor = self._ensure_executor()
                try:
                    future = executor.submit(*call)
                except BrokenProcessPool as error:
                    future = Future()
                    future.set_exception(error)
            if attempt == 1:
                with self._lock:  # service threads share the pool
                    self.tasks_run += 1
            in_flight[future] = (position, attempt, executor)
            future.add_done_callback(landed.put)

        while ready or in_flight:
            # In-process, one task at a time in position order;
            # otherwise everything that is ready.
            while ready and not (inline and in_flight):
                submit(_heapq.heappop(ready), 1)
            batch = [landed.get()]
            while not landed.empty():
                batch.append(landed.get())
            batch.sort(
                key=lambda f: (f.exception() is not None, in_flight[f][0])
            )
            for future in batch:
                position, attempt, executor = in_flight.pop(future)
                label = labels[position]
                error = future.exception()
                if error is None:
                    result, seconds = future.result()
                    results[position] = result
                    timing = TaskTiming(label, seconds, attempt)
                    if report is not None:
                        report.timings.append(timing)
                    if on_complete is not None:
                        on_complete(label, result, timing)
                    for successor in book.succeed(position).ready:
                        _heapq.heappush(ready, successor)
                    continue
                if isinstance(error, BrokenProcessPool) and executor:
                    self._discard(executor)
                if attempt < max_attempts:
                    if telemetry.enabled:
                        telemetry.inc("campaign.retries")
                    if retry is not None:
                        _time.sleep(retry.delay(label, attempt))
                    submit(position, attempt + 1)
                    continue
                if telemetry.enabled:
                    telemetry.inc("campaign.gave_up")
                if report is not None:
                    report.timings.append(TaskTiming(label, 0.0, attempt))
                if on_error == "raise":
                    raise error
                results[position] = TaskError(
                    label=label, error=repr(error), attempts=attempt
                )
                # Blocked rows name the failed root, not the direct
                # predecessor the book reports as `via`.
                for descendant, _via in book.fail(position).blocked:
                    results[descendant] = TaskError(
                        label=labels[descendant],
                        error=f"blocked: predecessor {label!r} failed",
                        attempts=0,
                    )
                    if telemetry.enabled:
                        telemetry.inc("campaign.blocked")
        return results


# ---------------------------------------------------------------------------
# Campaign fan-out
# ---------------------------------------------------------------------------

def _run_spec_kind(scenario_json: str, kind_value: str, horizon: float) -> Trace:
    """Worker body: only plain strings cross the process boundary; the
    scenario rebuilds app + system worker-side."""
    instance = build_scenario_app(scenario_json, kind=kind_value)
    instance.run(horizon)
    return instance.trace


def run_campaign_parallel(
    builder: ScenarioBuilder,
    horizon: float,
    kinds: Optional[List[SystemKind]] = None,
    jobs: Optional[int] = None,
    report: Optional[ParallelReport] = None,
) -> Campaign:
    """Run one app's declared scenario under each system kind, fanned out.

    Each :class:`SystemKind` runs in its own worker process, which
    receives only the canonical scenario JSON string and rebuilds the
    app itself; the parent rebuilds the (cheap, un-run) instances
    locally and attaches the workers' traces, so the returned
    :class:`Campaign` is drop-in compatible with every metric helper.
    The scenario embeds the seed/schedule, so every kind replays the
    same ground truth and worker runs are bit-identical to in-process
    ones.

    Raises:
        ConfigurationError: *builder* is not a
            :class:`repro.spec.ScenarioBuilder`.
    """
    if not isinstance(builder, ScenarioBuilder):
        raise ConfigurationError(
            f"run_campaign_parallel takes a repro.spec.ScenarioBuilder, "
            f"got {builder!r}; wrap the app's declared scenario, e.g. "
            f"ScenarioBuilder(temp_alarm.scenario(seed=0))"
        )
    kinds = kinds if kinds is not None else list(DEFAULT_KINDS)
    traces = parallel_map(
        _run_spec_kind,
        [(builder.scenario_json, kind.value, horizon) for kind in kinds],
        jobs=jobs,
        labels=[kind.value for kind in kinds],
        report=report,
    )
    instances: Dict[SystemKind, AppInstance] = {}
    app_name = ""
    for kind, trace in zip(kinds, traces):
        instance = builder(kind)
        _graft_trace(instance, trace)
        instances[kind] = instance
        app_name = instance.name
    return Campaign(app_name=app_name, instances=instances, horizon=horizon)


def _graft_trace(instance: AppInstance, trace: Trace) -> None:
    """Attach a worker-produced trace to a locally-built instance."""
    if trace is instance.trace:
        return  # serial fallback may already share the object
    instance.trace = trace
    executor = instance.executor
    if hasattr(executor, "trace"):
        executor.trace = trace
