"""Run the complete evaluation suite at paper scale.

Regenerates every figure of the paper's Section 6 plus the Section 5
ablations.  The suite is whatever the experiment registry
(:mod:`repro.experiments.registry`) says it is — experiments
self-register in :mod:`repro.experiments.suite`; this module only
runs them.  The experiments are independent seeded runs, so the suite
is one flat task list on one pool
(:meth:`~repro.experiments.parallel.WorkerPool.map_tasks`), in registry
order: each run an experiment declares (``runs=``) is its own task, and
an experiment that declares none is one task.  Workers return plain
data (a run's :class:`~repro.sim.trace.Trace`, or an experiment's
printed output); when an experiment's last task lands, the parent
formats its output from the run results in declared order
(:func:`dispatch`).  Completed experiments are replayed from the
on-disk result cache (:mod:`repro.experiments.cache`) when neither
their parameters nor the simulator source has changed — a warm-cache
rerun prints every table in seconds.

Resuming is rerunning: every finished experiment's payload is in the
result cache, so a rerun after an interruption serves those from the
cache and dispatches only the rest — bit-identical to an uninterrupted
campaign, which the differential chaos suite pins.  Each cache entry
also holds the seconds of each of the experiment's tasks and the most
attempts one took, so a cache-served experiment reports its timing by
construction.  A cache write that fails (an unwritable cache
directory) costs that entry only: the result is still printed, one
stderr line names the error, and ``suite.cache.put_errors`` counts it.

With ``--metrics-out``/``--trace-out`` each task runs inside a
:func:`~repro.observability.telemetry_scope`; the parent merges each
experiment's task snapshots, then merges those (prefixed
``exp.<job_id>.``) with its own suite-level metrics (per-experiment
timing, cache hit/miss) and dumps canonical JSONL plus a summary table.

The suite degrades gracefully rather than aborting: every task runs
under a :class:`~repro.experiments.parallel.RetryPolicy` (exponential
backoff, deterministic jitter); an experiment with a task that fails
every attempt becomes a structured ``[FAILED]`` row while every other
experiment still runs and is cached.  ``--inject faults.json`` arms a
:mod:`repro.faults` schedule: ``worker_crash`` faults kill worker
attempts deterministically (exercising the retry path — results stay
byte-identical because every task is a pure function of its
arguments), and the schedule's canonical hash joins the cache key so
faulted and clean runs never share entries.

Each run ends with the ``Campaign report`` (critical path — the
longest single task — per-worker utilization, suggested ``--jobs``).
A rerun over a full cache is all hits and starts no pool, so ``repro
run-all --jobs N`` there is the offline report, modelled at N workers.

Run: ``python -m repro.experiments.run_all [--scale S] [--seed N]
[--jobs J | --serial] [--no-cache] [--clear-cache]
[--inject faults.json]
[--metrics-out metrics.jsonl] [--trace-out trace.jsonl]`` — the same
parser as ``repro run-all``, but at paper scale (``--scale 1.0``) by
default.
"""

from __future__ import annotations

import contextlib
import math
import pickle
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache, result_key
from repro.experiments.dag import build_report, emit_report_telemetry
from repro.experiments.parallel import (
    ParallelReport,
    RetryPolicy,
    TaskError,
    TaskTiming,
    WorkerPool,
    check_count,
    default_jobs,
)
from repro.faults import build_injector, fault_schedule_hash, load_fault_schedule
from repro.experiments.registry import Experiment, Run, check_scale, get_experiment
from repro.experiments.registry import REGISTRY as _REGISTRY
from repro.experiments.runner import format_table
from repro.observability.telemetry import Telemetry, telemetry_scope
from repro.observability.tracing import write_jsonl

#: One finished experiment, as its cache entry holds it: (captured
#: stdout, merged telemetry snapshot or None when uninstrumented, the
#: seconds of each of its tasks in declared order, the most attempts
#: one of them took).
Entry = Tuple[str, Optional[Dict[str, object]], Tuple[float, ...], int]


def _run_job(
    job_id: str, run: Optional[Run], seed: int, scale: float, collect: bool
) -> Tuple[Any, Optional[Dict[str, object]]]:
    """Pool worker entry point: one declared *run* of experiment
    *job_id*, or the whole experiment when it declares none (*run* is
    ``None``).  Only plain data crosses processes.

    A run's result comes back pickled: the parent holds the bytes, a
    fraction of the unpickled objects' size, until the experiment's
    last run lands.  When *collect* is set the task runs inside a fresh
    telemetry scope so every instrumented component (engine,
    reservoir, executors) reports into a snapshot the parent can merge.
    """
    with telemetry_scope() if collect else contextlib.nullcontext() as telemetry:
        if run is None:
            result = get_experiment(job_id).runner(seed, scale)
        else:
            result = pickle.dumps(run.fn(*run.args), pickle.HIGHEST_PROTOCOL)
    return result, telemetry.snapshot() if collect else None


def _tasks(exp: Experiment, seed: int, scale: float) -> List[Tuple[str, Optional[Run]]]:
    """What *exp* dispatches, as ``(label, run)``: each declared run,
    or one task (run ``None``) running the whole experiment."""
    if exp.runs is None:
        return [(exp.job_id, None)]
    return [(f"{exp.job_id}:{run.label}", run) for run in exp.runs(seed, scale)]


def dispatch(
    experiments: Sequence[Experiment],
    seed: int,
    scale: float,
    jobs: Optional[int],
    collect: bool,
    on_error: str = "raise",
    on_done: Optional[Callable[[str, Entry], None]] = None,
    **contract: Any,
) -> Dict[str, Union[Entry, TaskError]]:
    """Run *experiments* as one flat task list on one pool.

    Every declared run is one task labelled ``<job_id>:<run label>``;
    an experiment without declared runs is one task labelled with its
    id.  The pool has ``min(jobs, tasks)`` workers (``jobs=None``: the
    ``REPRO_JOBS`` / CPU count), and *on_error* and *contract*
    (``retry``, ``chaos``, ``telemetry``, ``report``) go to
    :meth:`~repro.experiments.parallel.WorkerPool.map_tasks`.  When an
    experiment's last task lands, this process formats its output
    (``runner(seed, scale, results)`` for declared runs, *results* an
    iterator over the run results in declared order), merges its tasks'
    snapshots, drops the run results and calls ``on_done(job_id,
    entry)``.  A runner that raises there fails its experiment as a
    :class:`TaskError` under ``on_error="capture"``.

    Returns:
        Each experiment's :data:`Entry`, or the :class:`TaskError` of
        its first task that failed every attempt, by job id.
    """
    plan = [(exp, *task) for exp in experiments for task in _tasks(exp, seed, scale)]
    position = {label: index for index, (_, label, _) in enumerate(plan)}
    landed: Dict[int, Tuple[Any, Any, TaskTiming]] = {}
    finished: Dict[str, Union[Entry, TaskError]] = {}

    def complete(label: str, result: Tuple[Any, Any], timing: TaskTiming) -> None:
        exp = plan[position[label]][0]
        landed[position[label]] = (*result, timing)
        mine = [index for index, task in enumerate(plan) if task[0] is exp]
        if any(index not in landed for index in mine):
            return
        parts = [landed.pop(index) for index in mine]
        try:
            if exp.runs is None:
                text = parts[0][0]
            else:  # unpickled one at a time, as the runner reaches each
                text = exp.runner(seed, scale, (pickle.loads(part[0]) for part in parts))
        except Exception as error:
            if on_error == "raise":
                raise
            finished[exp.job_id] = TaskError(exp.job_id, repr(error), 1)
            return
        merged = Telemetry()
        for part in parts if collect else ():
            merged.merge_snapshot(part[1])
        snapshot = merged.snapshot() if collect else None
        seconds = tuple(part[2].seconds for part in parts)
        entry = (text, snapshot, seconds, max(part[2].attempts for part in parts))
        finished[exp.job_id] = entry
        if on_done is not None:
            on_done(exp.job_id, entry)

    with WorkerPool(jobs=min(jobs or default_jobs(), len(plan))) as pool:
        results = pool.map_tasks(
            _run_job,
            [(exp.job_id, run, seed, scale, collect) for exp, _, run in plan],
            labels=[label for _, label, _ in plan],
            on_error=on_error,
            on_complete=complete,
            **contract,
        )
    for (exp, _, _), result in zip(plan, results):
        if isinstance(result, TaskError):
            finished.setdefault(exp.job_id, result)
    return {exp.job_id: finished[exp.job_id] for exp in experiments}


def _metric_summary_rows(
    suite: Telemetry, job_ids: List[str]
) -> List[List[str]]:
    """Per-experiment headline counters for the metrics summary table."""
    counters = (
        "kernel.reboots",
        "kernel.power_failures",
        "kernel.checkpoints",
        "kernel.tasks_completed",
        "power.brownouts",
    )
    snapshot = suite.metrics.snapshot()
    rows: List[List[str]] = []
    for job_id in job_ids:
        row = [job_id]
        for metric in counters:
            entry = snapshot.get(f"exp.{job_id}.{metric}")
            row.append(str(int(entry["value"])) if entry else "-")
        rows.append(row)
    return rows


def _usable_payload(payload: object, collect: bool, tasks: int) -> bool:
    """Whether a cached entry can serve this run's collect setting.

    The entry is ``(stdout, snapshot, seconds, attempts)``: ``seconds``
    a tuple of one finite float >= 0 per task the experiment
    dispatches (*tasks*) and ``attempts`` an int >= 1; any other shape
    is a miss, so the experiment reruns.
    """
    if not (isinstance(payload, tuple) and len(payload) == 4):
        return False
    text, snapshot, seconds, attempts = payload
    return (
        isinstance(text, str)
        and (not collect or snapshot is not None)
        and isinstance(seconds, tuple)
        and len(seconds) == tasks
        and all(isinstance(took, float) and 0.0 <= took < math.inf for took in seconds)
        and type(attempts) is int
        and attempts >= 1
    )


def main(
    seed: int = 0,
    scale: float = 1.0,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    clear_cache: bool = False,
    cache_dir: Optional[Path] = None,
    metrics_out: Optional[Path] = None,
    trace_out: Optional[Path] = None,
    inject: Optional[Path] = None,
    retry: Optional[RetryPolicy] = None,
    on_error: str = "capture",
    chaos=None,
) -> None:
    """Run the full suite, replaying cached experiments.

    Args:
        seed: root seed for schedules and noise.
        scale: fraction of the paper's event counts.
        jobs: worker processes (``1`` forces serial; ``None`` uses
            ``REPRO_JOBS`` / the CPU count).  Anything but an int >= 1
            is rejected.
        use_cache: replay unchanged experiments from the result cache.
        clear_cache: drop every cached entry before running.
        cache_dir: cache location override (default ``.repro-cache`` or
            ``REPRO_CACHE_DIR``).
        metrics_out: write suite + per-experiment metrics as JSONL here.
        trace_out: write per-experiment trace records as JSONL here.
        inject: fault schedule JSON (:mod:`repro.faults`); its
            ``worker_crash`` faults drive deterministic chaos and its
            hash joins every cache key.
        retry: retry policy for failed experiments (default: 3 attempts
            with backoff, jitter seeded by *seed*).
        on_error: ``"capture"`` (default) degrades a permanently failed
            experiment into an error row while the others still run;
            ``"raise"`` aborts the campaign at the first permanent
            failure; a rerun serves everything that finished from the
            cache.
        chaos: explicit :class:`~repro.faults.inject.WorkerChaos`
            override for tests (``--inject`` is the user-facing path).
    """
    if jobs is not None:
        check_count("--jobs", jobs)
    check_scale(scale)
    if on_error not in ("raise", "capture"):
        # Checked here too: a warm-cache run dispatches nothing.
        raise ConfigurationError(
            f'on_error must be "raise" or "capture", got {on_error!r}'
        )
    for flag, path in (("--metrics-out", metrics_out), ("--trace-out", trace_out)):
        if path is not None and not Path(path).parent.is_dir():
            raise ConfigurationError(
                f"{flag}: directory {Path(path).parent} does not exist"
            )
    started = time.time()
    jobs = default_jobs() if jobs is None else jobs
    collect = metrics_out is not None or trace_out is not None
    suite_jobs: List[Experiment] = _REGISTRY.suite()
    retry = retry if retry is not None else RetryPolicy(seed=seed)

    fault_hash = None
    if inject is not None:
        schedule = load_fault_schedule(Path(inject))
        chaos = build_injector(schedule).worker_chaos()
        fault_hash = fault_schedule_hash(schedule)
        ignored = len(schedule.sim_faults())
        if ignored:
            print(
                f"[faults] note: {ignored} simulation fault(s) in "
                f"{schedule.name!r} apply to single runs "
                "(`repro run --inject`), not the campaign level; "
                "only worker_crash faults act here"
            )

    cache = ResultCache(**({"root": cache_dir} if cache_dir is not None else {}))
    cache.enabled = use_cache
    if clear_cache:
        removed = cache.clear()
        print(f"[cache] cleared {removed} entries from {cache.root}")

    keys: Dict[str, str] = {
        job.job_id: result_key(
            job.job_id,
            job.params(seed, scale),
            spec_hash=job.spec_hash(seed, scale),
            fault_hash=fault_hash,
        )
        for job in suite_jobs
    }

    print("#" * 70)
    print(
        f"# Capybara evaluation suite (seed={seed}, scale={scale}, "
        f"jobs={jobs}, cache={'on' if use_cache else 'off'}, "
        f"telemetry={'on' if collect else 'off'}"
        + (f", chaos={chaos.mode}x{chaos.max_crashes}" if chaos is not None else "")
        + ")"
    )
    print("#" * 70)

    suite = Telemetry()
    outputs: Dict[str, str] = {}
    snapshots: Dict[str, Optional[Dict[str, object]]] = {}
    sources: Dict[str, str] = {}
    tasks = {job.job_id: _tasks(job, seed, scale) for job in suite_jobs}

    # The result cache alone decides what runs, and a hit carries the
    # seconds of the tasks that computed it into this run's report.
    task_seconds: Dict[str, Tuple[float, ...]] = {}
    attempts_by_id: Dict[str, int] = {}
    pending: List[Experiment] = []
    for job in suite_jobs:
        payload = cache.get(keys[job.job_id])
        if not _usable_payload(payload, collect, len(tasks[job.job_id])):
            pending.append(job)
            continue
        outputs[job.job_id], snapshots[job.job_id], seconds, _ = payload
        sources[job.job_id] = "cache"
        task_seconds[job.job_id] = seconds

    report = ParallelReport()
    seconds_by_id: Dict[str, float] = {}
    if pending:
        def _store(job_id: str, entry: Entry) -> None:
            try:
                cache.put(keys[job_id], entry)
            except OSError as error:
                # The result stands and is printed; only its entry is lost.
                print(f"[cache] could not store {job_id}: {error}", file=sys.stderr)
                suite.inc("suite.cache.put_errors")

        finished = dispatch(
            pending, seed, scale, jobs, collect, on_done=_store, retry=retry,
            chaos=chaos, on_error=on_error, telemetry=suite, report=report,
        )
        for job_id, result in finished.items():
            if isinstance(result, TaskError):
                # Graceful degradation: a permanently failing experiment
                # becomes a structured error row, never a cached entry.
                outputs[job_id], snapshots[job_id] = str(result) + "\n", None
                sources[job_id], attempts_by_id[job_id] = "error", result.attempts
                continue
            outputs[job_id], snapshots[job_id], seconds, attempts = result
            sources[job_id], attempts_by_id[job_id] = "ran", attempts
            task_seconds[job_id], seconds_by_id[job_id] = seconds, sum(seconds)

    # Deterministic presentation order, independent of completion order.
    for job in suite_jobs:
        marker = {"cache": " [cache hit]", "error": " [FAILED]"}.get(
            sources[job.job_id], ""
        )
        print(f"\n## {job.title}{marker}")
        print(outputs[job.job_id], end="" if outputs[job.job_id].endswith("\n") else "\n")

    # Timing / provenance summary.
    rows = [
        [
            job.job_id,
            sources[job.job_id],
            f"{seconds_by_id[job.job_id]:.1f}s" if job.job_id in seconds_by_id else "-",
            str(attempts_by_id.get(job.job_id, "-")),
        ]
        for job in suite_jobs
    ]
    print()
    print(
        format_table(
            ["Experiment", "Source", "Task time", "Attempts"],
            rows,
            title=f"Execution summary ({report.mode}, jobs={report.jobs})",
        )
    )
    hits = sum(1 for source in sources.values() if source == "cache")
    failures = sum(1 for source in sources.values() if source == "error")
    print(
        f"\n[total: {time.time() - started:.0f}s elapsed; "
        f"{hits}/{len(suite_jobs)} experiments from cache; "
        f"task time {report.total_task_seconds:.0f}s"
        + (f"; {failures} experiment(s) FAILED" if failures else "")
        + "]"
    )

    # Post-run report over every task: this run's timings plus the ones
    # cache-served experiments carry.
    dag_report = build_report(
        [label for job in suite_jobs for label, _ in tasks[job.job_id]],
        {
            label: took
            for job_id, seconds in task_seconds.items()
            for (label, _), took in zip(tasks[job_id], seconds)
        },
        jobs=jobs,
    )
    print()
    print(dag_report.format())
    emit_report_telemetry(dag_report, suite)

    if collect:
        _emit_telemetry(
            suite, suite_jobs, snapshots, sources, seconds_by_id, cache,
            jobs, time.time() - started, metrics_out, trace_out,
        )


def _emit_telemetry(
    suite: Telemetry,
    suite_jobs: List[Experiment],
    snapshots: Dict[str, Optional[Dict[str, object]]],
    sources: Dict[str, str],
    seconds_by_id: Dict[str, float],
    cache: ResultCache,
    jobs: int,
    elapsed: float,
    metrics_out: Optional[Path],
    trace_out: Optional[Path],
) -> None:
    """Merge per-experiment snapshots, write JSONL, print the summary.

    *suite* arrives holding the campaign counters the dispatcher
    recorded (``campaign.retries`` / ``campaign.gave_up``) plus the
    report gauges; suite-level gauges and per-experiment snapshots
    merge into it here.
    """
    suite.set_gauge("suite.jobs", jobs)
    suite.set_gauge("suite.wall_seconds", elapsed)
    suite.inc("suite.cache.hits", cache.stats.hits)
    suite.inc("suite.cache.misses", cache.stats.misses)
    suite.inc("suite.cache.stores", cache.stats.stores)
    if cache.stats.corrupt:
        suite.inc("suite.cache.corrupt", cache.stats.corrupt)
    suite.inc(
        "suite.experiments_from_cache",
        sum(1 for source in sources.values() if source == "cache"),
    )
    failed = sum(1 for source in sources.values() if source == "error")
    if failed:
        suite.inc("suite.experiments_failed", failed)
    for job in suite_jobs:
        seconds = seconds_by_id.get(job.job_id)
        if seconds is not None:
            suite.observe("suite.experiment_seconds", seconds)
            suite.set_gauge(f"suite.experiment_seconds.{job.job_id}", seconds)
        snapshot = snapshots.get(job.job_id)
        if snapshot is not None:
            suite.metrics.merge_snapshot(
                snapshot.get("metrics") or {}, prefix=f"exp.{job.job_id}."
            )

    if metrics_out is not None:
        path = write_jsonl(suite.metric_records(scope="suite"), metrics_out)
        print(f"[telemetry] metrics written to {path}")
    if trace_out is not None:
        records: List[Dict[str, object]] = []
        for job in suite_jobs:
            snapshot = snapshots.get(job.job_id)
            for record in (snapshot or {}).get("events") or []:
                tagged = dict(record)
                tagged["experiment"] = job.job_id
                records.append(tagged)
        path = write_jsonl(records, trace_out)
        print(f"[telemetry] {len(records)} trace records written to {path}")

    rows = _metric_summary_rows(suite, [job.job_id for job in suite_jobs])
    print()
    print(
        format_table(
            ["Experiment", "Reboots", "Power fails", "Checkpoints",
             "Tasks done", "Brownouts"],
            rows,
            title="Telemetry summary (per experiment)",
        )
    )


if __name__ == "__main__":
    from repro.cli import main as cli_main

    # One parser for both spellings: this is `repro run-all` at paper
    # scale, and a --scale given on the command line still wins.
    sys.exit(cli_main(["run-all", "--scale", "1.0", *sys.argv[1:]]))
