"""DAG campaign scheduling: dependencies, checkpoints, dispatch, reports.

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
* :class:`CheckpointStore` — a versioned, checksummed campaign record
  persisted next to the result cache after every task completion: each
  task's dependency edges, result key and timing, which the post-run
  report reads.  Which tasks a run skips is the result cache's call
  alone.  The on-disk framing mirrors the result cache's: magic,
  SHA-256 of the body, then a canonical JSON body.  A corrupt or
  future-versioned file is **quarantined** (deleted, counted on
  telemetry) and its timings are lost, nothing more.
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

Scheduling metadata never joins a cache key: a task's result depends
only on its own inputs, and ``after`` only constrains *when* it runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
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

from repro.errors import CheckpointError, ConfigurationError, DagError
from repro.experiments.cache import atomic_publish
from repro.observability.telemetry import Telemetry, resolve_telemetry

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "BookUpdate",
    "CampaignDag",
    "DependencyBook",
    "CompletedTask",
    "CampaignState",
    "CheckpointStore",
    "DagReport",
    "build_report",
    "report_from_state",
    "run_dag",
]

#: On-disk checkpoint framing: MAGIC, then the SHA-256 digest of the
#: body, then the canonical JSON body.  Mirrors the result cache's v3
#: framing so the same corruption guarantees hold: a flipped bit fails
#: the digest check before any byte is interpreted.
CHECKPOINT_MAGIC = b"RDG1"
#: Bump on any incompatible body-schema change.  Loaders reject files
#: from the future instead of guessing.
CHECKPOINT_VERSION = 1
_DIGEST_SIZE = hashlib.sha256().digest_size


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
# Checkpoint state + on-disk store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompletedTask:
    """One finished task as the checkpoint records it."""

    node: str
    key: str
    source: str = "ran"  # "ran" | "cache"
    seconds: float = 0.0
    attempts: int = 1
    seq: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "key": self.key,
            "source": self.source,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "seq": self.seq,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CompletedTask":
        try:
            return cls(
                node=str(data["node"]),
                key=str(data["key"]),
                source=str(data.get("source", "ran")),
                seconds=float(data.get("seconds", 0.0)),
                attempts=int(data.get("attempts", 1)),
                seq=int(data.get("seq", 0)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"malformed completed-task record {data!r}: {error}"
            )


@dataclass
class CampaignState:
    """In-memory twin of one checkpoint file.

    ``campaign`` names the campaign and maps each task to its dependency
    edges and content-addressed result key (``nodes``) — what
    :func:`report_from_state` rebuilds the graph from.  A later run
    carries a recorded task's ``seconds`` forward only when that key
    equals the key it computes, so stale timings (edited code, another
    seed) never reach its report.
    """

    campaign: Dict[str, Any] = field(default_factory=dict)
    completed: List[CompletedTask] = field(default_factory=list)

    def completed_nodes(self) -> Dict[str, CompletedTask]:
        return {task.node: task for task in self.completed}

    def record(self, task: CompletedTask) -> None:
        self.completed.append(task)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": CHECKPOINT_VERSION,
            "campaign": self.campaign,
            "completed": [task.to_dict() for task in self.completed],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignState":
        if not isinstance(data, Mapping):
            raise CheckpointError("checkpoint body must be a JSON object")
        version = data.get("version")
        if not isinstance(version, int) or version < 1:
            raise CheckpointError(
                f"checkpoint version must be a positive int, got {version!r}"
            )
        if version > CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint is format v{version}; this build reads up to "
                f"v{CHECKPOINT_VERSION} — refusing to guess at the schema"
            )
        campaign = data.get("campaign")
        if not isinstance(campaign, Mapping):
            raise CheckpointError("checkpoint 'campaign' must be an object")
        completed = data.get("completed", [])
        if not isinstance(completed, list):
            raise CheckpointError("checkpoint 'completed' must be a list")
        return cls(
            campaign=dict(campaign),
            completed=[CompletedTask.from_dict(entry) for entry in completed],
        )


def encode_state(state: CampaignState) -> bytes:
    """Frame *state* as checkpoint bytes (magic + digest + JSON body)."""
    body = json.dumps(state.to_dict(), sort_keys=True).encode()
    return CHECKPOINT_MAGIC + hashlib.sha256(body).digest() + body


def decode_state(raw: bytes) -> CampaignState:
    """Parse checkpoint bytes; any defect is a :class:`CheckpointError`.

    The digest is verified before a single body byte is interpreted, so
    truncation and bit-flips fail closed rather than yielding a state
    with wrong edges or timings.
    """
    header = len(CHECKPOINT_MAGIC) + _DIGEST_SIZE
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(
            f"bad checkpoint magic {raw[: len(CHECKPOINT_MAGIC)]!r} "
            f"(expected {CHECKPOINT_MAGIC!r})"
        )
    if len(raw) < header:
        raise CheckpointError("checkpoint file truncated inside the header")
    body = raw[header:]
    if hashlib.sha256(body).digest() != raw[len(CHECKPOINT_MAGIC) : header]:
        raise CheckpointError("checkpoint body does not match its checksum")
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        # Unreachable in practice (the digest already matched) unless the
        # writer produced garbage; still a typed error, never a crash.
        raise CheckpointError(f"checkpoint body is not valid JSON: {error}")
    return CampaignState.from_dict(data)


class CheckpointStore:
    """One checkpoint file, written atomically after every completion."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def save(self, state: CampaignState) -> None:
        """Atomically persist *state* through :func:`atomic_publish`.

        A crash mid-write leaves either the previous checkpoint or the
        new one, never a torn file.
        """
        atomic_publish(self.path, (encode_state(state),))

    def load(self) -> Optional[CampaignState]:
        """The stored state, ``None`` if absent; corrupt files raise."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            return None
        return decode_state(raw)

    def load_or_quarantine(
        self, telemetry: Optional[Telemetry] = None
    ) -> Optional[CampaignState]:
        """Load, quarantining corruption as a fresh start.

        A file that fails validation is deleted and counted
        (``campaign.checkpoint_quarantined``); the caller sees ``None``
        — exactly what a missing checkpoint looks like — so corruption
        costs the recorded timings and nothing else.
        """
        try:
            return self.load()
        except CheckpointError:
            resolved = resolve_telemetry(telemetry)
            if resolved.enabled:
                resolved.inc("campaign.checkpoint_quarantined")
            try:
                self.path.unlink()
            except OSError:
                pass
            return None

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


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
    checkpointing, via *on_complete*) any task that already finished.

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
            after each successful task — the checkpoint hook.
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tasks": self.tasks,
            "timed_tasks": self.timed_tasks,
            "total_seconds": self.total_seconds,
            "critical_path": list(self.critical_path),
            "critical_seconds": self.critical_seconds,
            "jobs": self.jobs,
            "worker_busy": list(self.worker_busy),
            "makespan": self.makespan,
            "suggested_jobs": self.suggested_jobs,
        }

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


def report_from_state(state: CampaignState, jobs: int = 1) -> DagReport:
    """Rebuild the report from a checkpoint file's recorded contents.

    The checkpoint stores each task's dependency edges alongside its
    completion record, so ``repro campaign report`` works on the file
    alone — no registry, no re-run.
    """
    nodes = state.campaign.get("nodes")
    if not isinstance(nodes, Mapping) or not nodes:
        raise CheckpointError("checkpoint records no campaign tasks")
    try:
        dag = CampaignDag(
            [
                (str(node), tuple(entry.get("after", ())))
                for node, entry in nodes.items()
            ]
        )
    except (AttributeError, TypeError) as error:
        raise CheckpointError(f"malformed checkpoint task table: {error}")
    seconds = {task.node: task.seconds for task in state.completed}
    return build_report(dag, seconds, jobs=jobs)


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
