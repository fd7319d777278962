"""Campaign bookkeeping: the dependency rule and the post-run report.

* :class:`DependencyBook` — when a task may run and what a failed
  predecessor blocks.  The job service drives it for its ``after=``
  edges (:class:`~repro.service.jobs.JobRequest`).
* :class:`DagReport` — the post-run report ``run_all`` prints: the
  critical path (the longest single task, since the suite's
  experiments are independent), a greedy list-schedule's per-worker
  utilization, and the parallelism bound that suggests ``--jobs``.

The task timings the report reads come from the result cache:
``run_all`` stores each task's seconds and attempts in the task's own
cache entry, so a cache-served task reports its timing too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.observability.telemetry import Telemetry, resolve_telemetry

__all__ = [
    "BookUpdate",
    "DependencyBook",
    "DagReport",
    "build_report",
]


# ---------------------------------------------------------------------------
# The dependency book: when a node may run, what a failure blocks
# ---------------------------------------------------------------------------


class BookUpdate(NamedTuple):
    """Nodes now ready, and ``(node, via)`` pairs now blocked: *via* is
    the direct predecessor that failed or was blocked."""

    ready: Tuple[Hashable, ...] = ()
    blocked: Tuple[Tuple[Hashable, Hashable], ...] = ()


class DependencyBook:
    """When a node may run, and what a failure blocks.

    A node is ready once every predecessor has succeeded, and blocked
    (once, never ready) as soon as one fails or is blocked.  Predecessors
    are a set; a failure cascades depth-first over successors in
    insertion order.  A node with no predecessors costs O(1).
    """

    def __init__(self) -> None:
        #: node -> "waiting" | "ready" | "done" | "failed" | "blocked"
        self._state: Dict[Hashable, str] = {}
        #: waiting node -> predecessors that have not succeeded yet
        self._unmet: Dict[Hashable, set] = {}
        self._successors: Dict[Hashable, List[Hashable]] = {}

    def add(self, node: Hashable, preds: Iterable[Hashable] = ()) -> BookUpdate:
        """Register *node* after *preds*.  Blocked on arrival, it names
        the first failed or blocked predecessor in *preds* order.
        Unknown predecessors raise :class:`ConfigurationError`."""
        unmet = [p for p in dict.fromkeys(preds) if self._state.get(p) != "done"]
        unknown = [p for p in unmet if p not in self._state]
        if unknown:
            raise ConfigurationError(f"{node!r} waits on unknown node(s) {unknown}")
        for pred in unmet:
            if self._state[pred] in ("failed", "blocked"):
                self._state[node] = "blocked"
                return BookUpdate(blocked=((node, pred),))
        if not unmet:
            self._state[node] = "ready"
            return BookUpdate(ready=(node,))
        self._state[node] = "waiting"
        self._unmet[node] = set(unmet)
        for pred in unmet:
            self._successors.setdefault(pred, []).append(node)
        return BookUpdate()

    def succeed(self, node: Hashable) -> BookUpdate:
        """Settle ready *node* as done; the successors it released."""
        ready = []
        for succ in self._settle(node, "done"):
            unmet = self._unmet.get(succ)
            if unmet is None:  # forgotten
                continue
            unmet.discard(node)
            if not unmet:
                del self._unmet[succ]
                self._state[succ] = "ready"
                ready.append(succ)
        return BookUpdate(ready=tuple(ready))

    def fail(self, node: Hashable) -> BookUpdate:
        """Settle ready *node* as failed; every descendant it blocked."""
        blocked = []
        stack = [(succ, node) for succ in reversed(self._settle(node, "failed"))]
        while stack:
            succ, via = stack.pop()
            if self._unmet.pop(succ, None) is not None:  # else already out
                self._state[succ] = "blocked"
                blocked.append((succ, via))
                successors = self._successors.pop(succ, ())
                stack.extend((after, succ) for after in reversed(successors))
        return BookUpdate(blocked=tuple(blocked))

    def waiting_on(self, node: Hashable) -> frozenset:
        """The predecessors *node* still waits on (empty unless waiting)."""
        return frozenset(self._unmet.get(node, ()))

    def forget(self, node: Hashable) -> None:
        """Drop *node*, once settled or while nothing waits on it, so a
        long-lived book stays bounded; its id must not come back."""
        for table in (self._state, self._unmet, self._successors):
            table.pop(node, None)

    def _settle(self, node: Hashable, state: str) -> List[Hashable]:
        if self._state.get(node) != "ready":
            raise ConfigurationError(f"cannot settle {node!r}: it is not ready")
        self._state[node] = state
        return self._successors.pop(node, [])


# ---------------------------------------------------------------------------
# Post-run report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DagReport:
    """Critical path, utilization, and the suggested worker count."""

    tasks: int
    timed_tasks: int
    total_seconds: float
    critical_path: Tuple[str, ...]
    critical_seconds: float
    jobs: int
    #: Greedy list-schedule busy seconds per worker (len == jobs).
    worker_busy: Tuple[float, ...]
    #: The greedy schedule's makespan under *jobs* workers.
    makespan: float
    #: ``ceil(total / critical)`` — the classic parallelism bound; more
    #: workers than this cannot shorten the campaign.
    suggested_jobs: int

    def format(self) -> str:
        lines = ["Campaign report"]
        lines.append(
            f"  tasks: {self.tasks} ({self.timed_tasks} timed); "
            f"task time {self.total_seconds:.1f}s"
        )
        if self.critical_path:
            share = (
                self.critical_seconds / self.total_seconds
                if self.total_seconds > 0
                else 0.0
            )
            lines.append(
                f"  critical path: {' -> '.join(self.critical_path)} "
                f"({self.critical_seconds:.1f}s, {share:.0%} of task time)"
            )
        if self.worker_busy and self.makespan > 0:
            utilization = " ".join(
                f"w{i}={busy / self.makespan:.0%}"
                for i, busy in enumerate(self.worker_busy)
            )
            lines.append(
                f"  utilization (jobs={self.jobs}, "
                f"makespan {self.makespan:.1f}s): {utilization}"
            )
        lines.append(f"  suggested --jobs: {self.suggested_jobs}")
        return "\n".join(lines)


def build_report(
    tasks: Sequence[str], seconds: Mapping[str, float], jobs: int = 1
) -> DagReport:
    """The post-run report for one campaign's recorded task times.

    The tasks are independent, so the critical path is the longest
    single task (the first of equals, in *tasks* order).  The
    utilization figures come from replaying the recorded durations, in
    *tasks* order, through a greedy list-schedule (each task starts
    when a worker frees up) — a deterministic model of the dispatcher,
    not a wall-clock measurement, so the report is stable across runs.
    Tasks without a recording weigh zero.
    """
    durations = [float(seconds.get(task, 0.0)) for task in tasks]
    total = sum(durations)
    jobs = max(1, jobs)
    path: Tuple[str, ...] = ()
    critical = 0.0
    if tasks:
        longest = max(range(len(tasks)), key=lambda i: (durations[i], -i))
        path, critical = (tasks[longest],), durations[longest]

    # With no dependencies a worker never idles before its last task,
    # so its busy seconds are also its finish time.
    busy = [0.0] * jobs
    for duration in durations:
        worker = min(range(jobs), key=lambda w: (busy[w], w))
        busy[worker] += duration
    makespan = max(busy)

    if critical > 0.0:
        suggested = max(1, min(len(tasks), math.ceil(total / critical)))
    else:
        suggested = 1
    return DagReport(
        tasks=len(tasks),
        timed_tasks=sum(1 for task in tasks if task in seconds),
        total_seconds=total,
        critical_path=path,
        critical_seconds=critical,
        jobs=jobs,
        worker_busy=tuple(busy),
        makespan=makespan,
        suggested_jobs=suggested,
    )


def emit_report_telemetry(
    report: DagReport, telemetry: Optional[Telemetry] = None
) -> None:
    """Publish the report's headline numbers on the telemetry plane."""
    telemetry = resolve_telemetry(telemetry)
    if not telemetry.enabled:
        return
    telemetry.set_gauge("campaign.total_task_seconds", report.total_seconds)
    telemetry.set_gauge("campaign.critical_path_seconds", report.critical_seconds)
    telemetry.set_gauge("campaign.critical_path_tasks", float(len(report.critical_path)))
    telemetry.set_gauge("campaign.makespan_seconds", report.makespan)
    telemetry.set_gauge("campaign.suggested_jobs", float(report.suggested_jobs))
