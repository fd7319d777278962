"""Run the complete evaluation suite at paper scale.

Regenerates every figure of the paper's Section 6 plus the Section 5
ablations.  The suite is whatever the experiment registry
(:mod:`repro.experiments.registry`) says it is — experiments
self-register in :mod:`repro.experiments.suite`; this module only
runs them.  The experiments are independent seeded runs, so the suite
is one flat map over the pending ones, in registry order, on the
worker pool's one dispatch loop
(:meth:`~repro.experiments.parallel.WorkerPool.map_tasks`).  Completed
experiments are replayed from the on-disk result cache
(:mod:`repro.experiments.cache`) when neither their parameters nor the
simulator source has changed — a warm-cache rerun prints every table
in seconds.

Resuming is rerunning: every finished task's payload is in the result
cache, so a rerun after an interruption serves those tasks from the
cache and dispatches only the rest — bit-identical to an uninterrupted
campaign, which the differential chaos suite pins.  Each cache entry
also holds the seconds and attempts of the task that computed it, so a
cache-served task reports its timing by construction.  A cache write
that fails (an unwritable cache directory) costs that entry only: the
result is still printed, one stderr line names the error, and
``suite.cache.put_errors`` counts it.

With ``--metrics-out``/``--trace-out`` each worker job runs inside a
:func:`~repro.observability.telemetry_scope`; the parent merges the
per-experiment snapshots (prefixed ``exp.<job_id>.``) with its own
suite-level metrics (per-experiment timing, cache hit/miss) and dumps
canonical JSONL plus a summary table.

The suite degrades gracefully rather than aborting: every experiment
runs under a :class:`~repro.experiments.parallel.RetryPolicy`
(exponential backoff, deterministic jitter); one that fails every
attempt becomes a structured ``[FAILED]`` row while every other
experiment still runs and is cached.  ``--inject faults.json`` arms a
:mod:`repro.faults` schedule: ``worker_crash`` faults kill worker
attempts deterministically (exercising the retry path — results stay
byte-identical because every task is a pure function of its
arguments), and the schedule's canonical hash joins the cache key so
faulted and clean runs never share entries.

Each run ends with the ``Campaign report`` (critical path — the
longest single experiment — per-worker utilization, suggested
``--jobs``).  A rerun over a full cache is all hits and starts no
pool, so ``repro run-all --jobs N`` there is the offline report,
modelled at N workers.

Run: ``python -m repro.experiments.run_all [--scale S] [--seed N]
[--jobs J | --serial] [--no-cache] [--clear-cache]
[--inject faults.json]
[--metrics-out metrics.jsonl] [--trace-out trace.jsonl]`` — the same
parser as ``repro run-all``, but at paper scale (``--scale 1.0``) by
default.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache, result_key
from repro.experiments.dag import build_report, emit_report_telemetry
from repro.experiments.parallel import (
    ParallelReport,
    RetryPolicy,
    TaskError,
    WorkerPool,
    default_jobs,
)
from repro.faults import build_injector, fault_schedule_hash, load_fault_schedule
from repro.experiments.registry import Experiment, get_experiment
from repro.experiments.registry import REGISTRY as _REGISTRY
from repro.experiments.runner import format_table
from repro.observability.telemetry import Telemetry, telemetry_scope
from repro.observability.tracing import write_jsonl

#: What one experiment task returns: (captured stdout, telemetry
#: snapshot or None when the run was uninstrumented).  Its cache entry
#: appends the task's seconds and attempts.
JobPayload = Tuple[str, Optional[Dict[str, object]]]


def _run_job(job_id: str, seed: int, scale: float, collect: bool) -> JobPayload:
    """Pool worker entry point (only plain data crosses processes).

    When *collect* is set the job runs inside a fresh telemetry scope so
    every instrumented component (engine, reservoir, executors) reports
    into a snapshot the parent can merge.
    """
    exp = get_experiment(job_id)
    if not collect:
        return exp.runner(seed, scale), None
    telemetry = Telemetry()
    with telemetry_scope(telemetry):
        text = exp.runner(seed, scale)
    return text, telemetry.snapshot()


def _metric_summary_rows(
    suite: Telemetry, job_ids: List[str]
) -> List[List[str]]:
    """Per-experiment headline counters for the metrics summary table."""
    counters = (
        ("reboots", "kernel.reboots"),
        ("power fails", "kernel.power_failures"),
        ("checkpoints", "kernel.checkpoints"),
        ("tasks done", "kernel.tasks_completed"),
        ("brownouts", "power.brownouts"),
    )
    snapshot = suite.metrics.snapshot()
    rows: List[List[str]] = []
    for job_id in job_ids:
        row = [job_id]
        for _label, metric in counters:
            entry = snapshot.get(f"exp.{job_id}.{metric}")
            row.append(str(int(entry["value"])) if entry else "-")
        rows.append(row)
    return rows


def _usable_payload(payload: object, collect: bool) -> bool:
    """Whether a cached entry can serve this run's collect setting.

    The entry is ``(stdout, snapshot, seconds, attempts)`` with finite
    ``seconds >= 0`` and an int ``attempts >= 1``; any other shape is a
    miss, so the experiment reruns.
    """
    if not (isinstance(payload, tuple) and len(payload) == 4):
        return False
    text, snapshot, seconds, attempts = payload
    return (
        isinstance(text, str)
        and (not collect or snapshot is not None)
        and isinstance(seconds, float)
        and math.isfinite(seconds)
        and seconds >= 0.0
        and isinstance(attempts, int)
        and not isinstance(attempts, bool)
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
    if jobs is not None and (
        isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1
    ):
        raise ConfigurationError(f"--jobs must be an int >= 1, got {jobs!r}")
    if not (math.isfinite(scale) and scale > 0.0):
        raise ConfigurationError(f"--scale must be finite and > 0, got {scale}")
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

    # The result cache alone decides what runs, and a hit carries the
    # seconds of the run that computed it into this run's report.
    cached_seconds: Dict[str, float] = {}
    pending: List[Experiment] = []
    for job in suite_jobs:
        payload = cache.get(keys[job.job_id])
        if not _usable_payload(payload, collect):
            pending.append(job)
            continue
        outputs[job.job_id], snapshots[job.job_id], seconds, _ = payload
        sources[job.job_id] = "cache"
        cached_seconds[job.job_id] = seconds

    report = ParallelReport()
    if pending:
        def _store(node: str, result: JobPayload, timing) -> None:
            try:
                cache.put(keys[node], (*result, timing.seconds, timing.attempts))
            except OSError as error:
                # The result stands and is printed; only its entry is lost.
                print(f"[cache] could not store {node}: {error}", file=sys.stderr)
                suite.inc("suite.cache.put_errors")

        pool = WorkerPool(jobs=jobs)
        try:
            results = pool.map_tasks(
                _run_job,
                [(job.job_id, seed, scale, collect) for job in pending],
                labels=[job.job_id for job in pending],
                retry=retry,
                chaos=chaos,
                on_error=on_error,
                telemetry=suite,
                report=report,
                on_complete=_store,
            )
        finally:
            pool.shutdown()
        for job, result in zip(pending, results):
            if isinstance(result, TaskError):
                # Graceful degradation: a permanently failing experiment
                # becomes a structured error row, never a cached entry.
                outputs[job.job_id] = str(result) + "\n"
                snapshots[job.job_id] = None
                sources[job.job_id] = "error"
                continue
            text, snapshot = result
            outputs[job.job_id] = text
            snapshots[job.job_id] = snapshot
            sources[job.job_id] = "ran"

    # Deterministic presentation order, independent of completion order.
    for job in suite_jobs:
        marker = {"cache": " [cache hit]", "error": " [FAILED]"}.get(
            sources[job.job_id], ""
        )
        print(f"\n## {job.title}{marker}")
        print(outputs[job.job_id], end="" if outputs[job.job_id].endswith("\n") else "\n")

    # Timing / provenance summary.
    seconds_by_id = {timing.label: timing.seconds for timing in report.timings}
    attempts_by_id = {timing.label: timing.attempts for timing in report.timings}
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

    # Post-run report over this run's timings plus the ones cache-served
    # tasks carry.
    dag_report = build_report(
        [job.job_id for job in suite_jobs],
        {**cached_seconds, **seconds_by_id},
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
        if job.job_id in seconds_by_id:
            suite.observe("suite.experiment_seconds", seconds_by_id[job.job_id])
            suite.set_gauge(
                f"suite.experiment_seconds.{job.job_id}", seconds_by_id[job.job_id]
            )
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
    import sys

    from repro.cli import main as cli_main

    # One parser for both spellings: this is `repro run-all` at paper
    # scale, and a --scale given on the command line still wins.
    sys.exit(cli_main(["run-all", "--scale", "1.0", *sys.argv[1:]]))
