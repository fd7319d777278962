"""Spans for the traced pass: wrap public callables, buffer, write, analyse.

:func:`install` replaces each callable in :data:`TARGETS` with a timing
wrapper in every loaded ``repro.*`` module (or class) that holds it.  It
must run before any pool or server process starts: workers are forked,
so they inherit the wrappers.  Each span records its name, start and end
(``perf_counter_ns``, one system-wide monotonic clock, so spans from
different processes compare), pid, span id, parent id and a request id.

Spans stay in memory.  A forked worker appends its buffer to
``spans-<pid>.jsonl`` each time a root span (one task) returns; the
process that installed the tracer writes its buffer on :meth:`flush`.

Self time is a span's duration minus the union of its children's spans
in the same process.  Time a pool call spends while no worker runs one
of its tasks is dispatch: pickling, transfer and queueing.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def _kernel_counts(result: Any) -> Dict[str, float]:
    # FleetKernel.run / run_segments return {"steps", "devices", ...}.
    return {"device_steps": result["steps"] * result["devices"]}


def _engine_counts(result: Any) -> Dict[str, float]:
    metrics = ((result.get("telemetry") or {}).get("metrics")) or {}

    def value(name: str) -> float:
        return float(metrics.get(name, {}).get("value", 0.0))

    return {
        "power_segments": value("power.charge_calls") + value("power.discharge_calls"),
        "reboots": value("kernel.reboots"),
        "reconfigurations": value("reservoir.reconfigurations"),
    }


def _cache_counts(result: Any) -> Dict[str, float]:
    return {"hits": 0.0 if result is None else 1.0}


def _batch_request(args: Sequence[Any]) -> Optional[str]:
    jobs = args[0] if args else ()
    return f"task:{jobs[0].label}" if jobs else None


def _header_request(args: Sequence[Any]) -> Optional[str]:
    # ServiceApp.__call__(self, scope, receive, send)
    for name, value in args[1].get("headers") or ():
        if name == b"x-request-id":
            return value.decode("latin-1")
    return None


#: What the traced pass times: (owner, attribute, span name, counts
#: taken from the return value, request id taken from the arguments).
#: An owner is a module, or ``module:Class`` for a method.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("repro.spec.model", "load_scenario", "spec.load_scenario", None, None),
    ("repro.spec.model", "spec_hash", "spec.spec_hash", None, None),
    ("repro.spec.build", "build_scenario_app", "spec.build_scenario_app", None, None),
    ("repro.experiments.plan", "plan_campaign", "plan.plan_campaign", None, None),
    ("repro.experiments.plan", "execute_plan", "plan.execute_plan", None, None),
    ("repro.experiments.plan", "job_result_key", "plan.job_result_key", None, None),
    ("repro.experiments.plan", "run_fleet_batch", "plan.run_fleet_batch", None, _batch_request),
    ("repro.experiments.cache:ResultCache", "get", "cache.get", _cache_counts, None),
    ("repro.experiments.cache:ResultCache", "put", "cache.put", None, None),
    ("repro.experiments.parallel:WorkerPool", "map_tasks", "parallel.map_tasks", None, None),
    ("repro.experiments.parallel:WorkerPool", "run_task", "parallel.run_task", None, None),
    ("repro.vec.batch", "build_fleet", "vec.build_fleet", None, None),
    ("repro.vec.batch", "compile_operating_segments", "vec.compile_operating_segments", None, None),
    ("repro.vec.kernel:FleetKernel", "run", "vec.kernel", _kernel_counts, None),
    ("repro.vec.kernel:FleetKernel", "run_segments", "vec.kernel", _kernel_counts, None),
    ("repro.apps.base:AppInstance", "run", "apps.run", None, None),
    ("repro.sim.export", "trace_to_dict", "sim.trace_to_dict", None, None),
    ("repro.service.runner", "run_scenario_job", "service.run_scenario_job", _engine_counts, None),
    ("repro.service.jobs:JobRequest", "from_payload", "service.from_payload", None, None),
    ("repro.service.jobs:JobRequest", "result_key", "service.result_key", None, None),
    ("repro.service.app:ServiceApp", "__call__", "service.request", None, _header_request),
)

#: Spans that hand work to pool workers; their time not covered by a
#: worker task span is dispatch.
POOL_CALLS = ("parallel.map_tasks", "parallel.run_task")


class Tracer:
    """In-memory span buffer for one process tree.

    *role* names the installing process (``harness`` or ``server``);
    processes forked from it record as ``worker``.
    """

    def __init__(self, out_dir: Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.role = role
        self.home_pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[str] = contextvars.ContextVar(
            "e2ebench_span", default=""
        )
        self._request: contextvars.ContextVar[str] = contextvars.ContextVar(
            "e2ebench_request", default=""
        )
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._lock = threading.Lock()
        self._current.set("")
        self._request.set("")

    # -- recording ------------------------------------------------------

    def _open(self, request: Optional[str]) -> Tuple[str, str, Any, Any]:
        span_id = f"{os.getpid()}.{next(self._ids)}"
        parent = self._current.get()
        token = self._current.set(span_id)
        request_token = self._request.set(request) if request else None
        return span_id, parent, token, request_token

    def _close(
        self,
        name: str,
        span_id: str,
        parent: str,
        start: int,
        token: Any,
        request_token: Any,
        counts: Optional[Dict[str, float]],
    ) -> None:
        end = time.perf_counter_ns()
        record: Dict[str, Any] = {
            "name": name,
            "start": start,
            "end": end,
            "pid": os.getpid(),
            "id": span_id,
            "parent": parent,
            "request": self._request.get(),
            "role": self.role if os.getpid() == self.home_pid else "worker",
        }
        if counts:
            record["counts"] = counts
        if request_token is not None:
            self._request.reset(request_token)
        self._current.reset(token)
        with self._lock:
            self.spans.append(record)
        if not parent and record["role"] == "worker":
            self.flush()

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None):
        """Record a span around a block of the harness's own code."""
        span_id, parent, token, request_token = self._open(request)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, span_id, parent, start, token, request_token, None)

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts_of: Optional[Callable] = None,
        request_of: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper around *fn* that pickles by *fn*'s name."""
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                request = request_of(args) if request_of is not None else None
                span_id, parent, token, request_token = tracer._open(request)
                start = time.perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(
                        name, span_id, parent, start, token, request_token, None
                    )

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = request_of(args) if request_of is not None else None
            span_id, parent, token, request_token = tracer._open(request)
            start = time.perf_counter_ns()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counts_of is not None:
                    counts = counts_of(result)
                return result
            finally:
                tracer._close(
                    name, span_id, parent, start, token, request_token, counts
                )

        return traced

    def flush(self) -> None:
        """Append this process's buffered spans to its JSONL file."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def install(
    tracer: Tracer, targets: Iterable[tuple] = TARGETS
) -> Callable[[], None]:
    """Replace every target in each loaded ``repro.*`` module holding it.

    A target the code no longer has is skipped and listed in
    ``tracer.missing``, so the traced pass survives refactors.  Returns
    a function that puts the originals back.
    """
    replaced: List[Tuple[Any, str, Any]] = []
    for owner_name, attribute, name, counts_of, request_of in targets:
        module_name, _, class_name = owner_name.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            raw = inspect.getattr_static(owner, attribute)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{owner_name}.{attribute}")
            continue
        if class_name:
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    tracer.wrap(name, raw.__func__, counts_of, request_of)
                )
            else:
                wrapped = tracer.wrap(name, raw, counts_of, request_of)
            replaced.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
            continue
        wrapped = tracer.wrap(name, raw, counts_of, request_of)
        for module_key, module in list(sys.modules.items()):
            if module is None or not (
                module_key == "repro" or module_key.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    replaced.append((module, key, raw))
                    setattr(module, key, wrapped)

    def uninstall() -> None:
        for owner, attribute, original in reversed(replaced):
            setattr(owner, attribute, original)

    return uninstall


def load(out_dir: Path) -> List[Dict[str, Any]]:
    """Every span written under *out_dir*."""
    spans: List[Dict[str, Any]] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def merge(intervals: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Disjoint, sorted intervals covering the same points."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of half-open ``(start, end)`` intervals."""
    return sum(end - start for start, end in merge(intervals))


def clip(
    intervals: Iterable[Tuple[int, int]], windows: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Parts of *intervals* that fall inside any of *windows*."""
    return [
        (max(start, w_start), min(end, w_end))
        for start, end in intervals
        for w_start, w_end in windows
        if min(end, w_end) > max(start, w_start)
    ]


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Span id -> duration minus the union of its same-process children."""
    children: Dict[str, List[Tuple[int, int]]] = {}
    for span in spans:
        if span["parent"]:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result: Dict[str, int] = {}
    for span in spans:
        window = [(span["start"], span["end"])]
        covered = union_ns(clip(children.get(span["id"], ()), window))
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def is_task(span: Dict[str, Any]) -> bool:
    """Whether *span* is one task run by a pool worker."""
    return span["role"] == "worker" and not span["parent"]


def layer_table(spans: Sequence[Dict[str, Any]], jobs: int) -> Dict[str, Any]:
    """Per-layer totals of one traced pass.

    ``rounds`` are the harness's ``round`` spans: their summed duration
    is the round wall every share is taken against.  ``wait`` of a pool
    call is the part of it covered by worker tasks.
    """
    own = self_times(spans)
    rounds = [span for span in spans if span["name"] == "round"]
    round_ns = sum(span["end"] - span["start"] for span in rounds)
    tasks = [(span["start"], span["end"]) for span in spans if is_task(span)]
    rows: Dict[Tuple[str, str], Dict[str, float]] = {}
    for span in spans:
        key = (span["name"], span["role"])
        row = rows.setdefault(key, {"calls": 0, "self_ns": 0, "wait_ns": 0})
        row["calls"] += 1
        row["self_ns"] += own[span["id"]]
        if span["name"] in POOL_CALLS:
            row["wait_ns"] += union_ns(clip(tasks, [(span["start"], span["end"])]))
    # Pool calls overlap when several threads dispatch (the service).
    pool_windows = merge(
        (span["start"], span["end"]) for span in spans if span["name"] in POOL_CALLS
    )
    pool_ns = union_ns(pool_windows)
    busy_ns = sum(end - start for start, end in clip(tasks, pool_windows))
    harness_ns = sum(
        own[span["id"]]
        for span in spans
        if span["role"] == "harness" and span["name"] != "round"
    )
    return {
        "rows": rows,
        "round_ns": round_ns,
        "tasks": len(tasks),
        "pool_ns": pool_ns,
        "dispatch_ns": pool_ns - union_ns(clip(tasks, pool_windows)),
        "busy_frac": busy_ns / (pool_ns * jobs) if pool_ns else 0.0,
        "coverage": harness_ns / round_ns if round_ns else 0.0,
    }


def format_table(table: Dict[str, Any]) -> str:
    """The per-layer table printed after a traced pass."""
    round_ns = table["round_ns"] or 1
    lines = [
        f"{'layer':34s} {'role':8s} {'calls':>7s} {'self s':>9s} "
        f"{'share':>7s} {'wait s':>8s}"
    ]
    ordered = sorted(table["rows"].items(), key=lambda item: -item[1]["self_ns"])
    for (name, role), row in ordered:
        lines.append(
            f"{name:34s} {role:8s} {row['calls']:7d} "
            f"{row['self_ns'] / 1e9:9.4f} {row['self_ns'] / round_ns:7.1%} "
            f"{row['wait_ns'] / 1e9:8.4f}"
        )
    lines.append(
        f"round wall {table['round_ns'] / 1e9:.4f} s; harness layers cover "
        f"{table['coverage']:.1%}; pool dispatch {table['dispatch_ns'] / 1e9:.4f} s "
        f"over {table['tasks']} worker tasks"
    )
    return "\n".join(lines)
