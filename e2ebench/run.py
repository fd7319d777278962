"""End-to-end benchmark of the repository: four workloads, two passes.

Run from the repository root::

    python3 e2ebench/run.py --workload fleet-long --seed 0 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 0 --out bench-out/
    python3 e2ebench/run.py compare bench-out/result.json other/result.json

``--trace 0`` sets up the workload three times (set-up time is the
median), measures it for ``--seconds``, checks its outputs and prints
the end-to-end metrics.  ``--trace 1`` measures the same way, then
installs the span tracer, sets up again and repeats round 0 (for the
service, a fixed prefix of the requests) traced, and prints the
per-layer metrics and table.  Every line before the last is for people;
the last line is the JSON result.  ``--workload all`` runs every
workload both ways, each in its own process, and writes
``<out>/result.json`` for ``compare``.

The benchmark imports the simulator from ``src/`` beside this directory
and fails when that tree is absent.  It writes only under
``.e2ebench-work/`` (removed at exit) and ``--out``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"
DIGESTS = HERE / "digests.json"

SETUP_TRIALS = 3
DEFAULT_SECONDS = 25
IMPORT_PROBE = (
    "import repro.apps, repro.experiments.plan, repro.experiments.parallel, "
    "repro.service.runner, repro.vec"
)
WORKLOAD_NAMES = ("fleet-long", "sweep-short", "scalar-apps", "service-mixed")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.  A layer the
#: workload never enters reads 0.
PER_LAYER = {
    "spec.load_scenario.calls": "count",
    "spec.load_scenario.s": "s",
    "spec.spec_hash.s": "s",
    "spec.build_scenario_app.s": "s",
    "plan.plan_campaign.s": "s",
    "plan.execute_plan.s": "s",
    "plan.job_result_key.s": "s",
    "plan.run_fleet_batch.s": "s",
    "plan.cohorts": "count",
    "plan.batched_fraction": "frac",
    "cache.get.calls": "count",
    "cache.get.s": "s",
    "cache.put.calls": "count",
    "cache.put.s": "s",
    "cache.bytes_written": "bytes",
    "cache.hit_ratio": "frac",
    "parallel.map_tasks.s": "s",
    "parallel.run_task.s": "s",
    "parallel.dispatch_s": "s",
    "parallel.worker_busy_frac": "frac",
    "parallel.tasks": "count",
    "vec.build_fleet.s": "s",
    "vec.compile_operating_segments.s": "s",
    "vec.kernel.s": "s",
    "vec.launches": "count",
    "vec.device_steps": "count",
    "vec.ns_per_device_step": "ns",
    "apps.run.s": "s",
    "sim.trace_to_dict.s": "s",
    "power.segments": "count",
    "kernel.reboots": "count",
    "reservoir.reconfigurations": "count",
    "engine.us_per_power_segment": "us",
    "service.run_scenario_job.s": "s",
    "service.from_payload.s": "s",
    "service.result_key.s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.worker_s": "s",
    "service.result_fetch_s": "s",
    "service.result_bytes": "bytes",
    "service.coalesced": "count",
    "service.hit_latency_p50_s": "s",
    "service.vec_latency_p50_s": "s",
    "service.scalar_latency_p50_s": "s",
    "service.latency_p95_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}


def child_env(workdir: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(workdir / "tmp")
    return env


def peak_rss_mb() -> float:
    """Max RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def relative_iqr(values: Sequence[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median (``None``
    for fewer than two samples)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / statistics.median(values)


def setup(workload, env: Dict[str, str], trials: int) -> List[float]:
    """Set the workload up *trials* times; the last set-up stays up.

    A trial is a fresh interpreter importing the simulator (campaign
    workloads; the service's server start includes it), the pool or
    server start, and the warm-up.
    """
    times = []
    for trial in range(trials):
        if trial:
            workload.stop()
        started = time.perf_counter()
        if workload.probe_imports:
            subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True)
        workload.start()
        times.append(time.perf_counter() - started)
    return times


def _round_window(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Spans inside the traced rounds (set-up and warm-up drop out)."""
    rounds = [r for r in records if r["name"] == "round" and r["role"] == "harness"]
    low = min(r["start"] for r in rounds)
    high = max(r["end"] for r in rounds)
    return [r for r in records if r["start"] >= low and r["end"] <= high]


def layer_values(
    records: List[Dict[str, Any]], table: Dict[str, Any]
) -> Dict[str, float]:
    """Per-layer metrics that come from spans."""
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ns": 0})
    for (name, _), row in table["rows"].items():
        totals[name]["calls"] += row["calls"]
        totals[name]["self_ns"] += row["self_ns"]

    def self_s(name: str) -> float:
        return totals[name]["self_ns"] / 1e9

    def calls(name: str) -> float:
        return totals[name]["calls"]

    def count(name: str, key: str) -> float:
        return sum(r.get("counts", {}).get(key, 0) for r in records if r["name"] == name)

    gets = calls("cache.get")
    device_steps = count("vec.kernel", "device_steps")
    segments = count("service.run_scenario_job", "power_segments")
    values = {
        "cache.hit_ratio": count("cache.get", "hits") / gets if gets else 0.0,
        "parallel.dispatch_s": table["dispatch_ns"] / 1e9,
        "parallel.worker_busy_frac": table["busy_frac"],
        "parallel.tasks": table["tasks"],
        "vec.launches": calls("vec.kernel"),
        "vec.device_steps": device_steps,
        "vec.ns_per_device_step": (
            self_s("vec.kernel") * 1e9 / device_steps if device_steps else 0.0
        ),
        "power.segments": segments,
        "kernel.reboots": count("service.run_scenario_job", "reboots"),
        "reservoir.reconfigurations": count("service.run_scenario_job", "reconfigurations"),
        "engine.us_per_power_segment": (
            self_s("apps.run") * 1e6 / segments if segments else 0.0
        ),
        "trace.coverage_frac": table["coverage"],
    }
    for name in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls(name[: -len(".calls")])
        elif name.endswith(".s"):
            values[name] = self_s(name[: -len(".s")])
    return values


def traced_pass(workload, measurement) -> Dict[str, Any]:
    """Install the tracer, set up again, repeat the traced part."""
    import spans
    from workloads import JOBS

    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError(
            "the traced pass needs the 'fork' start method so pool workers "
            "inherit the span wrappers"
        )
    tracer = spans.Tracer(workload.workdir / "spans", role="harness")
    uninstall = spans.install(tracer)
    try:
        workload.start(tracer)
        wall, problems = workload.measure_traced(tracer)
        workload.stop()
    finally:
        uninstall()
    tracer.flush()
    records = _round_window(spans.load(tracer.out_dir))
    table = spans.layer_table(records, jobs=JOBS)
    values = layer_values(records, table)
    values.update(workload.traced)
    values.update(measurement.layers)
    values["trace.overhead_frac"] = wall / measurement.reference_wall - 1.0
    return {
        "values": values,
        "table": spans.format_table(table),
        "problems": problems,
        "missing": tracer.missing,
    }


def run_workload(workload, seconds: float, trace: int, env: Dict[str, str]) -> Dict[str, Any]:
    """Measure one workload; the result record (metrics, checks, digest)."""
    try:
        setup_times = setup(workload, env, 1 if trace else SETUP_TRIALS)
        measurement = workload.measure(seconds, detail=bool(trace))
        problems = workload.check()
        workload.stop()
        wall = sum(measurement.walls)
        record: Dict[str, Any] = {
            "workload": workload.name,
            "seed": workload.seed,
            "seconds": seconds,
            "trace": trace,
            "attempted": measurement.attempted,
            "failed": measurement.failed,
            "digest": measurement.digest,
            "walls": measurement.walls,
        }
        if not trace:
            values = {
                "setup_s": statistics.median(setup_times),
                "jobs_per_s": sum(measurement.jobs) / wall,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END
            record["spread"] = {
                "setup_s": relative_iqr(setup_times),
                "jobs_per_s": relative_iqr(
                    [j / w for j, w in zip(measurement.jobs, measurement.walls)]
                ),
            }
        else:
            traced = traced_pass(workload, measurement)
            values = traced["values"]
            units = PER_LAYER
            problems += traced["problems"]
            record["table"] = traced["table"]
            record["missing_targets"] = traced["missing"]
        record["metrics"] = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        }
    finally:
        workload.stop()
    if measurement.failed:
        problems.append(f"{measurement.failed} of {measurement.attempted} jobs failed")
    record["problems"] = problems
    record["correct"] = not problems
    return record


def _pinned_problem(record: Dict[str, Any]) -> Optional[str]:
    pinned = json.loads(DIGESTS.read_text())
    expected = pinned["digests"].get(record["workload"])
    if record["seed"] != pinned["seed"] or expected is None:
        return None
    if record["digest"] != expected:
        return (
            f"payload digest {record['digest'][:16]} differs from the digest "
            f"pinned at seed {pinned['seed']} ({expected[:16]})"
        )
    return None


def run_one(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    # Terminated from outside, still stop the pool or server on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    env = child_env(workdir)
    os.environ["TMPDIR"] = env["TMPDIR"]
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, env)
        record = run_workload(workload, args.seconds, args.trace, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    pinned = _pinned_problem(record)
    if pinned is not None:
        record["problems"].append(pinned)
        record["correct"] = False

    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"rounds {len(record['walls'])}  jobs {record['attempted']}  "
          f"failed {record['failed']}  digest {record['digest'][:16]}")
    print("  round walls (s): " + " ".join(f"{wall:.3f}" for wall in record["walls"]))
    if "table" in record:
        print(record["table"])
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{record['workload']}-trace{record['trace']}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process."""
    out = Path(args.out or "bench-out")
    out.mkdir(parents=True, exist_ok=True)
    runs: Dict[str, Dict[str, Any]] = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            path = out / f"{name}-trace{trace}.json"
            if path.exists():
                path.unlink()
            subprocess.run(
                [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--out", str(out),
                ],
                check=False,
            )
            runs.setdefault(name, {})[f"trace{trace}"] = (
                json.loads(path.read_text())
                if path.exists()
                else {"correct": False, "problems": ["run did not finish"]}
            )
    result = {"seed": args.seed, "seconds": args.seconds, "workloads": runs}
    (out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    failed = [
        f"{name}/{trace}"
        for name, by_trace in runs.items()
        for trace, record in by_trace.items()
        if not record["correct"]
    ]
    print(f"wrote {out / 'result.json'}; failed: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="DIR")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no simulator source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
