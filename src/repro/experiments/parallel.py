"""Parallel experiment execution: the one dispatcher.

Every evaluation artifact re-runs the *same* deterministic simulation
under different power systems or parameter points, so the experiment
layer is embarrassingly parallel: each declared run of a campaign or a
sweep grid, and each experiment of ``run_all`` that declares none, is
independent.  :class:`WorkerPool` fans that work out over a
``ProcessPoolExecutor`` while preserving the methodology the paper
depends on:

* **deterministic ordering** — results always come back in submission
  order, regardless of which worker finished first;
* **seed isolation** — workers never share RNG state: each task
  rebuilds its app from plain arguments (which embed the seed), so a
  pooled run is bit-identical to a serial one;
* **graceful fallback** — ``jobs=1`` or a non-picklable task quietly
  runs in-process with the same results;
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

Tasks take and return plain data — a scenario's JSON, a
:class:`~repro.sim.trace.Trace`, a payload dict — so nothing
hard-to-pickle (closures, generators, heaps of callbacks) ever crosses
the process boundary.
"""

from __future__ import annotations

import os
import pickle
import queue as _queue
import threading as _threading
import time as _time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ConfigurationError
from repro.faults.inject import WorkerChaos, _unit_draw
from repro.observability.telemetry import Telemetry, resolve_telemetry

T = TypeVar("T")

#: Environment variable forcing the worker count (1 disables the pool).
JOBS_ENV = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set (and non-empty), else the CPU
    count.

    Raises:
        ConfigurationError: ``REPRO_JOBS`` is not an int >= 1, the rule
            ``--jobs`` applies too.
    """
    override = os.environ.get(JOBS_ENV)
    if not override:
        return os.cpu_count() or 1
    try:
        jobs = int(override)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigurationError(
            f"{JOBS_ENV} must be an int >= 1, got {override!r}"
        )
    return jobs


def check_count(name: str, value: Any) -> int:
    """*value* if it is an int >= 1 and not a bool.

    Raises:
        ConfigurationError: naming *name*, for anything else.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(f"{name} must be an int >= 1, got {value!r}")
    return value


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


# ---------------------------------------------------------------------------
# Worker pool: the one dispatcher
# ---------------------------------------------------------------------------

class WorkerPool:
    """A process pool that survives across jobs instead of per call.

    Every way of running tasks — :meth:`map_tasks` (``run_all``'s suite
    and the planner's shards) and :meth:`run_task` (the job service) —
    goes through this class's one dispatch loop, so
    attempts, chaos, backoff, ``on_error`` and the retry/give-up
    counters behave the same on every path.  Tasks run in-process iff
    ``jobs == 1`` or the function, its arguments or the chaos policy
    cannot be pickled; otherwise they run on one executor kept alive
    across calls (pool spin-up would dominate a long-lived service's
    small jobs).

    Teardown is **idempotent**: a pool shared between a request handler
    and a process-exit hook may see ``shutdown`` twice (or
    concurrently), and the second call must be a no-op rather than
    double-joining workers.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        """*jobs* worker processes; ``None`` uses :func:`default_jobs`.

        Raises:
            ConfigurationError: *jobs* is not an int >= 1 (or a bool).
        """
        self.jobs = default_jobs() if jobs is None else check_count("jobs", jobs)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = _threading.Lock()
        #: Tasks dispatched over the pool's lifetime: one per task that
        #: started an attempt, however many attempts it took (cache hits
        #: and service jobs blocked by a failed predecessor never reach
        #: the pool — the service tests assert exactly that).
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

        Args:
            fn: a module-level (picklable) callable.
            tasks: one argument tuple per invocation.
            labels: optional display labels for the timing report (also
                the retry/chaos identity of each task — keep them
                stable).
            retry: re-run failed tasks under this policy (default: one
                attempt, no retry).
            chaos: deterministic fault injection — each attempt first
                asks the policy whether to crash (:mod:`repro.faults`).
            on_error: ``"raise"`` re-raises once a task exhausts its
                attempts; ``"capture"`` stores a :class:`TaskError` in
                that task's result slot and keeps going.
            telemetry: sink for ``campaign.retries`` /
                ``campaign.gave_up`` counters (``None`` resolves the
                ambient scope).
            report: optional :class:`ParallelReport` to fill with
                timings.
            on_complete: called in this process with ``(label, result,
                timing)`` as each task succeeds, while later tasks may
                still be running; under ``on_error="raise"`` it has seen
                every task that finished before the abort.

        Raises:
            ConfigurationError: for an unknown *on_error* mode.
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
        on_complete: Optional[Callable[[str, Any, TaskTiming], None]] = None,
    ) -> List[Any]:
        """The dispatch loop every public face shares.

        Runs ``fn(*tasks[i])`` for each position *i*.  In-process, tasks
        run one at a time in position order, each to its last attempt;
        on the executor, every task is in flight at once and completions
        are handled as they land, successes first, so a ``"raise"``
        abort still reports (via *on_complete*) every task that
        finished.
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

        results: List[Any] = [None] * count
        next_position = 0
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

        while next_position < count or in_flight:
            # In-process, one task at a time in position order;
            # otherwise every task at once.
            while next_position < count and not (inline and in_flight):
                submit(next_position, 1)
                next_position += 1
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
        return results
