"""DAG campaign scheduling: dependencies, dispatch, reports.

``run_all`` historically dispatched a flat job list, so an interrupted
multi-hour campaign restarted from zero and independent chains could
not overlap.  This module turns the campaign into a dependency graph:

* :class:`CampaignDag` — experiments declare predecessors
  (``@experiment(..., after=("power-sweep",))``); the graph is validated
  **at build time** (duplicate ids, unknown predecessors, cycles raise
  :class:`~repro.errors.DagError`, a typed ``SpecError``) so a bad
  declaration can never strand a half-run campaign.
* :class:`DependencyBook` — the one rule for when a task may run and
  what a failed predecessor blocks, driven by campaign dispatch and by
  the job service alike.
* :func:`run_dag` — validates the pending tasks and hands them, with
  their predecessor edges, to the one dispatch loop of
  :class:`~repro.experiments.parallel.WorkerPool` under the established
  RetryPolicy/WorkerChaos contract.
  Every task stays a pure function of its arguments, so a chaos-killed
  run rerun to completion is bit-identical to a clean serial run —
  the property the differential suite pins.
* :class:`DagReport` — the post-run critical-path report: the longest
  dependency chain, a greedy list-schedule's per-worker utilization,
  and the parallelism bound that suggests ``--jobs``.

What a run skips, and the task timings its report reads, both come
from the result cache: ``run_all`` stores each task's seconds and
attempts in the task's own cache entry.

Scheduling metadata never joins a cache key: a task's result depends
only on its own inputs, and ``after`` only constrains *when* it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
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

from repro.errors import ConfigurationError, DagError
from repro.observability.telemetry import Telemetry, resolve_telemetry

__all__ = [
    "BookUpdate",
    "CampaignDag",
    "DependencyBook",
    "DagReport",
    "build_report",
    "run_dag",
]


# ---------------------------------------------------------------------------
# The dependency graph
# ---------------------------------------------------------------------------


class CampaignDag:
    """A validated campaign dependency graph.

    Nodes are task ids in declaration order; edges come from each
    node's ``after`` tuple.  All structural errors — duplicate ids,
    unknown predecessors, cycles — raise :class:`DagError` here, before
    any task is dispatched.
    """

    def __init__(self, nodes: Sequence[Tuple[str, Sequence[str]]]) -> None:
        self._order: List[str] = []
        self._after: Dict[str, Tuple[str, ...]] = {}
        for node, after in nodes:
            if node in self._after:
                raise DagError(f"duplicate campaign task id {node!r}")
            self._order.append(node)
            self._after[node] = tuple(after)
        known = set(self._after)
        for node in self._order:
            unknown = [p for p in self._after[node] if p not in known]
            if unknown:
                raise DagError(
                    f"task {node!r} declares unknown predecessor(s) "
                    f"{unknown}; known tasks: {self._order}"
                )
        self._levels = self._toposort()

    @classmethod
    def from_experiments(cls, experiments: Iterable[Any]) -> "CampaignDag":
        """The graph the registry's ``after`` declarations describe.

        A declared predecessor that is not part of *this* campaign (a
        filtered or subset suite) imposes no ordering and is pruned —
        ``after`` constrains interpretation order within a run, it is
        not an existence requirement.  Typos are still caught: the
        full-catalogue guard in ``tests/test_dag.py`` validates every
        declaration against the registry, where nothing is pruned.
        """
        experiments = list(experiments)
        members = {exp.job_id for exp in experiments}
        return cls(
            [
                (
                    exp.job_id,
                    tuple(p for p in exp.after if p in members),
                )
                for exp in experiments
            ]
        )

    def _toposort(self) -> List[List[str]]:
        """Deterministic topological levels (declaration order within).

        Level k holds every node whose longest predecessor chain has
        length k; a non-empty remainder after the sweep is a cycle.
        """
        level_of: Dict[str, int] = {}
        remaining = list(self._order)
        while remaining:
            placed: List[str] = []
            for node in remaining:
                preds = self._after[node]
                if all(p in level_of for p in preds):
                    level_of[node] = (
                        1 + max((level_of[p] for p in preds), default=-1)
                    )
                    placed.append(node)
            if not placed:
                raise DagError(
                    f"campaign dependency cycle involving {sorted(remaining)}"
                )
            remaining = [n for n in remaining if n not in level_of]
        depth = 1 + max(level_of.values(), default=-1)
        levels: List[List[str]] = [[] for _ in range(depth)]
        for node in self._order:
            levels[level_of[node]].append(node)
        return levels

    # -- queries --------------------------------------------------------

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def predecessors(self, node: str) -> Tuple[str, ...]:
        return self._after[node]

    def levels(self) -> List[List[str]]:
        """Topological levels, declaration order within each."""
        return [list(level) for level in self._levels]

    def order(self) -> List[str]:
        """One deterministic topological order (levels flattened)."""
        return [node for level in self._levels for node in level]

    def critical_path(
        self, seconds: Mapping[str, float]
    ) -> Tuple[List[str], float]:
        """The heaviest dependency chain under the recorded *seconds*.

        Tasks without a recording weigh zero, so a partially-run
        campaign still reports the critical path of what actually ran.
        """
        finish: Dict[str, float] = {}
        via: Dict[str, Optional[str]] = {}
        for node in self.order():
            best_pred: Optional[str] = None
            best = 0.0
            for pred in self._after[node]:
                if finish[pred] > best:
                    best = finish[pred]
                    best_pred = pred
            finish[node] = best + float(seconds.get(node, 0.0))
            via[node] = best_pred
        if not finish:
            return [], 0.0
        tail = max(self._order, key=lambda n: (finish[n], -self._order.index(n)))
        path: List[str] = []
        cursor: Optional[str] = tail
        while cursor is not None:
            path.append(cursor)
            cursor = via[cursor]
        path.reverse()
        return path, finish[tail]


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
# Dependency-aware dispatch
# ---------------------------------------------------------------------------


def run_dag(
    dag: CampaignDag,
    fn: Callable[..., Any],
    args_by_node: Mapping[str, Tuple[Any, ...]],
    pool: Optional[Any] = None,
    retry: Optional[Any] = None,
    chaos: Optional[Any] = None,
    on_error: str = "capture",
    telemetry: Optional[Telemetry] = None,
    report: Optional[Any] = None,
    on_complete: Optional[Callable[[str, Any, Any], None]] = None,
    completed: Iterable[str] = (),
) -> Dict[str, Any]:
    """Run every pending task of *dag*, never before its predecessors.

    The dispatcher keeps the campaign's established resilience
    contract: each attempt may be killed deterministically by *chaos*,
    *retry* re-runs it with backoff, and ``on_error="capture"`` turns a
    permanently failed task into a
    :class:`~repro.experiments.parallel.TaskError` result — and every
    task it transitively blocks into one as well (``attempts=0``, so
    blocked and failed rows are distinguishable).  ``on_error="raise"``
    aborts at the first permanent failure, after harvesting (and
    handing to *on_complete*) any task that already finished.

    Args:
        dag: the validated graph.
        fn: module-level worker body, called as ``fn(*args_by_node[n])``.
        args_by_node: arguments per pending node.
        pool: a :class:`~repro.experiments.parallel.WorkerPool`; with
            ``jobs == 1`` (or unpicklable work) tasks run serially
            in-process with identical results.
        retry / chaos / on_error: the :func:`parallel_map` contract.
        telemetry: sink for ``campaign.retries``/``campaign.gave_up``.
        report: optional :class:`ParallelReport` to fill with timings.
        on_complete: called as ``on_complete(node, result, timing)``
            after each successful task — ``run_all`` caches it there.
        completed: node ids already satisfied (cache-served);
            they are treated as done for dependency purposes and never
            executed.

    Returns:
        ``node -> result`` for every node not in *completed* (results,
        :class:`TaskError` rows for failures, blocked markers).
    """
    from repro.experiments.parallel import WorkerPool

    done = set(completed)
    unknown_done = done - set(dag.nodes)
    if unknown_done:
        raise ConfigurationError(
            f"completed ids {sorted(unknown_done)} are not campaign tasks"
        )
    pending = [node for node in dag.order() if node not in done]
    missing = [node for node in pending if node not in args_by_node]
    if missing:
        raise ConfigurationError(
            f"no arguments declared for pending task(s) {missing}"
        )
    position = {node: i for i, node in enumerate(pending)}
    outputs = (pool if pool is not None else WorkerPool(jobs=1))._dispatch(
        fn,
        [args_by_node[node] for node in pending],
        pending,
        retry,
        chaos,
        on_error,
        telemetry,
        report,
        after=[
            [position[p] for p in dag.predecessors(node) if p not in done]
            for node in pending
        ],
        on_complete=on_complete,
    )
    return dict(zip(pending, outputs))


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
    dag: CampaignDag, seconds: Mapping[str, float], jobs: int = 1
) -> DagReport:
    """The post-run report for one campaign's recorded task times.

    The utilization figures come from replaying the recorded durations
    through a greedy list-schedule (each task starts when its
    predecessors finish and a worker frees up) — a deterministic model
    of the dispatcher, not a wall-clock measurement, so the report is
    stable across runs.
    """
    path, critical = dag.critical_path(seconds)
    total = sum(float(seconds.get(node, 0.0)) for node in dag.nodes)
    jobs = max(1, jobs)

    worker_free = [0.0] * jobs
    busy = [0.0] * jobs
    finish: Dict[str, float] = {}
    for node in dag.order():
        duration = float(seconds.get(node, 0.0))
        ready_at = max(
            (finish[p] for p in dag.predecessors(node)), default=0.0
        )
        worker = min(range(jobs), key=lambda w: (worker_free[w], w))
        start = max(worker_free[worker], ready_at)
        finish[node] = start + duration
        worker_free[worker] = finish[node]
        busy[worker] += duration
    makespan = max(finish.values(), default=0.0)

    if critical > 0.0:
        suggested = max(1, min(len(dag.nodes), math.ceil(total / critical)))
    else:
        suggested = 1
    return DagReport(
        tasks=len(dag.nodes),
        timed_tasks=sum(1 for node in dag.nodes if node in seconds),
        total_seconds=total,
        critical_path=tuple(path),
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
