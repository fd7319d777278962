"""Command-line interface.

The verbs share one flag vocabulary (``--spec``, ``--inject``,
``--backend``, ``--jobs``, ``--metrics-out``/``--trace-out``) through
common argparse parents, so a flag means the same thing everywhere it
appears::

    python -m repro.cli list
    python -m repro.cli info                     # version + backend matrix
    python -m repro.cli info --check specs/*.json --backend vec
    python -m repro.cli run-app temp-alarm --system CB-P --events 5
    python -m repro.cli run --spec scenario.json --system Fixed
    python -m repro.cli spec dump temp-alarm > scenario.json
    python -m repro.cli trace record --spec scenario.json --out env.rtrc \
        --duration 2h --dt 50ms
    python -m repro.cli trace info env.rtrc
    python -m repro.cli trace replay env.rtrc --at 0 30min 1h
    python -m repro.cli experiment fig08 --scale 0.2
    python -m repro.cli run-all --scale 0.5 --metrics-out m.jsonl
    python -m repro.cli run-all                     # a rerun resumes from the cache
    python -m repro.cli run-all --jobs 4            # warm cache: report for 4 workers
    python -m repro.cli serve --port 8787 --jobs 4
    python -m repro.cli submit --spec scenario.json --url http://host:8787

``run`` executes a declarative scenario JSON file (:mod:`repro.spec`)
on one power system, and ``run-app`` is ``run`` over an evaluation
application's declared scenario (:data:`repro.apps.APPS`);
``experiment`` regenerates a paper figure and ``run-all`` the whole
campaign; ``serve`` boots the long-lived job
service (:mod:`repro.service`) and ``submit`` sends a scenario to one —
printing the byte-identical summary a local ``run --spec`` would;
``info`` reports the API version and per-backend capability matrix, and
``info --check`` validates scenario files; ``spec dump`` prints the
scenario an app or experiment declares;
``trace record``/``info``/``replay`` sample synthetic environments into
checksummed trace files (:mod:`repro.traces`), verify them, and read
them back — a recorded file slots into any scenario as a
``{"kind": "replay", ...}`` irradiance trace; ``list`` enumerates
everything.

``--metrics-out``/``--trace-out`` opt any run into the observability
layer and dump canonical JSONL.  ``--inject faults.json`` arms a
:mod:`repro.faults` schedule: simulation faults for single runs,
``worker_crash`` campaign chaos for ``run-all`` and ``serve``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.apps import APPS
from repro.core.builder import SystemKind

_SYSTEM_BY_NAME = {kind.value: kind for kind in SystemKind}

#: Default URL `submit` talks to (the `serve` default port).
DEFAULT_SERVICE_URL = "http://127.0.0.1:8787"


# ---------------------------------------------------------------------------
# Argument validation (fail fast with a clear message, before any work)
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(low: float, inclusive: bool = False) -> Callable[[str], float]:
    """An argparse type: a finite number > *low* (>= *low* if *inclusive*)."""
    relation = ">=" if inclusive else ">"

    def finite_float(text: str) -> float:
        value = float(text)
        if not (
            math.isfinite(value) and (value >= low if inclusive else value > low)
        ):
            raise argparse.ArgumentTypeError(
                f"must be finite and {relation} {low:g}, got {value}"
            )
        return value

    return finite_float


#: ``--horizon``, ``--scale``, ``--job-ttl``, ``--timeout``.
_positive_float = _finite_float(0.0)


def _writable_path(text: str) -> Path:
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"directory {path.parent} does not exist"
        )
    return path


def _duration(text: str) -> float:
    """Seconds, with unit-suffix sugar (``50ms``, ``90min``, ``2h``)."""
    from repro.units import parse_duration

    try:
        return parse_duration(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


# ---------------------------------------------------------------------------
# Shared flag vocabulary (argparse parents)
# ---------------------------------------------------------------------------

def _telemetry_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--metrics-out", type=_writable_path, default=None, metavar="FILE",
        help="write run metrics as JSONL to FILE",
    )
    parent.add_argument(
        "--trace-out", type=_writable_path, default=None, metavar="FILE",
        help="write structured trace records as JSONL to FILE",
    )
    return parent


def _inject_parent(help_text: Optional[str] = None) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--inject", type=str, default=None, metavar="FILE",
        help=help_text
        or "fault schedule JSON to apply before running (repro.faults)",
    )
    return parent


def _backend_parent(help_text: Optional[str] = None) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--backend", choices=["scalar", "vec"], default="scalar",
        help=help_text or "simulation engine (see `repro info`)",
    )
    return parent


def _jobs_parent(help_text: Optional[str] = None) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs", type=_positive_int, default=None,
        help=help_text
        or "worker processes, >= 1 (default: REPRO_JOBS or CPU count)",
    )
    return parent


def _spec_parent(required: bool = True) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--spec", required=required, metavar="FILE",
        help="scenario JSON produced by `spec dump` or written by hand",
    )
    return parent


# ---------------------------------------------------------------------------
# Telemetry output shared by run-app and single experiments
# ---------------------------------------------------------------------------

def _dump_telemetry(telemetry, scope: str, args: argparse.Namespace) -> None:
    """Write requested JSONL outputs and a one-line summary."""
    from repro.observability.tracing import write_jsonl

    if args.metrics_out is not None:
        path = write_jsonl(telemetry.metric_records(scope=scope), args.metrics_out)
        print(f"[telemetry] metrics written to {path}")
    if args.trace_out is not None:
        path = write_jsonl(telemetry.trace_records(), args.trace_out)
        print(
            f"[telemetry] {len(telemetry.tracer.records)} trace records "
            f"written to {path}"
        )


def _wants_telemetry(args: argparse.Namespace) -> bool:
    return args.metrics_out is not None or args.trace_out is not None


def _load_inject(args: argparse.Namespace):
    """The fault schedule named by ``--inject``, or ``None``.

    Exits with a spec error (code 2) rather than a traceback when the
    file is missing or invalid — injection mistakes are user input
    errors, not crashes.
    """
    if args.inject is None:
        return None
    from repro.errors import SpecError
    from repro.faults import load_fault_schedule

    try:
        return load_fault_schedule(Path(args.inject))
    except (SpecError, OSError) as error:
        print(f"error: --inject: {error}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_list(_: argparse.Namespace) -> int:
    from repro.experiments.registry import REGISTRY

    print("applications (run-app):")
    for name in APPS:
        print(f"  {name}")
    print("power systems (--system):")
    for kind in SystemKind:
        print(f"  {kind.value}")
    print("experiments (experiment):")
    for exp in REGISTRY.all():
        print(f"  {exp.job_id:18s} {exp.title}")
    print("campaign (run-all): the full evaluation suite")
    return 0


def _cmd_run_app(args: argparse.Namespace) -> int:
    """``run-app NAME``: ``run`` over the app's declared scenario."""
    scenario = APPS[args.app].scenario(seed=args.seed, event_count=args.events)
    return _run_scenario(scenario, args, scope=args.app)


def _cmd_run_spec(args: argparse.Namespace) -> int:
    """``run --spec``: one scenario file through the shared service runner."""
    from repro.errors import SpecError
    from repro.spec import load_scenario

    try:
        scenario = load_scenario(Path(args.spec))
    except (SpecError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _run_scenario(scenario, args, scope=scenario.name)


def _run_scenario(scenario, args: argparse.Namespace, scope: str) -> int:
    """Run *scenario* and print its summary; the body of ``run``/``run-app``.

    Routing through :func:`repro.service.runner.run_scenario_job` — the
    exact function service workers execute — is what keeps CLI output
    and HTTP job results byte-identical for the same
    spec/fault/backend.  *scope* labels the ``--metrics-out`` records.
    """
    from repro.errors import SpecError
    from repro.service.runner import run_scenario_job
    from repro.spec import canonical_json

    try:
        faults_json = None
        schedule = _load_inject(args)
        if schedule is not None:
            from repro.faults import dump_fault_schedule

            faults_json = dump_fault_schedule(schedule, pretty=False)
        collect = _wants_telemetry(args)
        result = run_scenario_job(
            canonical_json(scenario),
            system=args.system,
            horizon=args.horizon,
            faults_json=faults_json,
            backend=args.backend,
            collect=collect,
        )
    except (SpecError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result["summary"], end="")
    if args.export:
        path = Path(args.export)
        with path.open("w") as handle:
            json.dump(result["trace"], handle, indent=1)
        print(f"trace exported to {path}")
    if collect:
        from repro.observability.telemetry import Telemetry

        telemetry = Telemetry()
        telemetry.merge_snapshot(result["telemetry"] or {})
        _dump_telemetry(telemetry, scope=scope, args=args)
    return 0


def _scenario_for_name(name: str, seed: int, scale: float) -> List:
    """Scenarios declared by an app name or a registered experiment."""
    from repro.errors import SpecError

    if name in APPS:
        return [APPS[name].scenario(seed=seed)]

    from repro.experiments.registry import REGISTRY

    if name in REGISTRY:
        exp = REGISTRY.get(name)
        if exp.scenarios is None:
            raise SpecError(
                f"experiment {name!r} declares no scenarios (analytic or "
                f"sweep-style experiments have no single system description)"
            )
        return list(exp.scenarios(seed, scale))
    raise SpecError(
        f"unknown app or experiment {name!r}; apps: "
        f"{sorted(APPS)}; see `repro list` for experiments"
    )


def _check_spec_files(files: List[str], backend: str) -> int:
    """Validate scenario files for ``info --check``."""
    from repro.errors import SpecError
    from repro.spec import load_scenario, spec_hash

    failures = 0
    for name in files:
        try:
            scenario = load_scenario(Path(name))
        except (SpecError, OSError, ValueError) as error:
            print(f"FAIL {name}: {error}")
            failures += 1
            continue
        if backend == "vec":
            from repro.vec import check_scenario

            reasons = check_scenario(scenario)
            if reasons:
                listing = "; ".join(reasons)
                print(f"FAIL {name}: vec backend cannot run this scenario: {listing}")
                failures += 1
                continue
        print(f"ok   {name}  {scenario.name}  sha256:{spec_hash(scenario)[:12]}")
    if failures:
        print(f"{failures}/{len(files)} scenario files failed validation")
        return 1
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    """``spec dump``: print the scenarios an app or experiment declares."""
    from repro.errors import SpecError
    from repro.spec import dump_scenario

    try:
        scenarios = _scenario_for_name(args.name, args.seed, args.scale)
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.index is not None:
        if not 0 <= args.index < len(scenarios):
            print(
                f"error: --index {args.index} out of range "
                f"(0..{len(scenarios) - 1})",
                file=sys.stderr,
            )
            return 2
        scenarios = [scenarios[args.index]]
    if len(scenarios) == 1:
        text = dump_scenario(scenarios[0])
    else:
        text = (
            json.dumps(
                [scenario.to_dict() for scenario in scenarios],
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
    if args.out is not None:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _print_backend_matrix() -> None:
    """The per-backend capability matrix `info` prints."""
    print(
        "backends:\n"
        "  scalar     full simulation engine: every app, experiment, "
        "and fault kind"
    )
    try:
        from repro.vec import vec_capabilities
    except ImportError:  # pragma: no cover - numpy-less installs
        print("  vec        unavailable (numpy not installed)")
        return
    info = vec_capabilities()
    print(f"  {info['backend']:10s} struct-of-arrays fleet kernel:")
    print("    harvesters:")
    for kind, text in info["harvesters"].items():
        print(f"      {kind:10s} {text}")
    print("    systems:")
    for kind, text in info["systems"].items():
        print(f"      {kind:10s} {text}")
    for key in ("boosters", "limiter", "reconfiguration", "faults", "workloads"):
        print(f"    {key}: {info[key]}")


def _cmd_info(args: argparse.Namespace) -> int:
    """Version, API generation, backend matrix; or ``--check`` FILE..."""
    import repro

    if args.check:
        return _check_spec_files(args.check, args.backend)
    print(f"repro {repro.__version__} — public API {repro.__api_version__}")
    _print_backend_matrix()
    _print_trace_info()
    print("spec validation: repro info --check FILE... [--backend vec]")
    print(f"service: repro serve / repro submit (default {DEFAULT_SERVICE_URL})")
    return 0


def _print_trace_info() -> None:
    """Registered trace kinds + the on-disk format version."""
    from repro.spec.model import TRACE_FIELDS
    from repro.traces import TRACE_FORMAT_VERSION

    kinds = ", ".join(sorted(TRACE_FIELDS))
    print(
        f"environment traces: kinds {kinds}; file format "
        f"v{TRACE_FORMAT_VERSION} (repro trace record|replay|info)"
    )


# ---------------------------------------------------------------------------
# Environment traces (repro trace record|info|replay)
# ---------------------------------------------------------------------------

def _trace_source(args: argparse.Namespace):
    """The environment trace named by ``--env`` / ``--spec``, plus a label."""
    from repro.errors import SpecError
    from repro.spec import load_scenario
    from repro.spec.build import harvester_from_spec, trace_from_dict

    if (args.env is None) == (args.spec is None):
        raise SpecError(
            "trace record samples exactly one source: --env JSON "
            "or --spec FILE"
        )
    if args.env is not None:
        try:
            data = json.loads(args.env)
        except ValueError as error:
            raise SpecError(f"--env is not valid JSON: {error}")
        if not isinstance(data, dict) or "kind" not in data:
            raise SpecError(
                '--env must be a trace object like '
                '\'{"kind": "orbit", "period": 5400, ...}\''
            )
        return trace_from_dict(data), str(data["kind"])
    scenario = load_scenario(Path(args.spec))
    harvester = harvester_from_spec(scenario.platform.harvester)
    while hasattr(harvester, "inner"):  # unwrap the scaled wrapper
        harvester = harvester.inner
    if not hasattr(harvester, "irradiance"):
        raise SpecError(
            f"scenario {scenario.name!r} harvests from "
            f"{type(harvester).__name__}, which has no irradiance "
            f"environment to record"
        )
    return harvester.irradiance, f"{scenario.name}:irradiance"


def _cmd_trace_record(args: argparse.Namespace) -> int:
    """Sample a synthetic environment into a chunked trace file."""
    from repro.errors import SpecError
    from repro.traces import DEFAULT_CHUNK_SAMPLES, record_trace

    try:
        source, label = _trace_source(args)
        replay = record_trace(
            source,
            args.out,
            duration=args.duration,
            dt=args.dt,
            t0=args.t0,
            units=args.units,
            metadata={"source": label},
            chunk_samples=(
                args.chunk_samples
                if args.chunk_samples is not None
                else DEFAULT_CHUNK_SAMPLES
            ),
        )
    except (SpecError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        reader = replay._reader
        print(
            f"recorded {reader.n_samples} samples "
            f"({reader.n_chunks} chunks) from {label} to {args.out}"
        )
        print(f"  span [{reader.t0:g}, {reader.t_end:g}] s  dt {reader.dt:g} s")
        print(f"  trace_hash {replay.trace_hash}")
    finally:
        replay.close()
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    """Verify trace files and print their headers (CI golden gate)."""
    from repro.errors import SpecError
    from repro.traces import TraceReader

    failures = 0
    for name in args.files:
        try:
            with TraceReader(name) as reader:
                reader.verify()
                dt = "timestamped" if reader.dt is None else f"{reader.dt:g} s"
                print(
                    f"ok   {name}  {reader.n_samples} samples / "
                    f"{reader.n_chunks} chunks  dt {dt}  "
                    f"[{reader.t0:g}, {reader.t_end:g}] s  "
                    f"{reader.interpolation}  {reader.units}"
                )
                print(f"     trace_hash {reader.trace_hash}")
        except (SpecError, OSError) as error:
            print(f"FAIL {name}: {error}")
            failures += 1
    if failures:
        print(f"{failures}/{len(args.files)} trace files failed validation")
        return 1
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    """Replay a trace file: sample it at the requested times."""
    from repro.errors import SpecError
    from repro.traces import ReplayTrace

    try:
        trace = ReplayTrace.open(
            args.file,
            interpolation=args.interpolation,
            expected_hash=args.expect_hash,
        )
    except (SpecError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        reader = trace._reader
        print(
            f"{args.file}: {reader.n_samples} samples  "
            f"[{reader.t0:g}, {reader.t_end:g}] s  "
            f"{trace.interpolation}  {reader.units}"
        )
        times = args.at
        if not times:
            span = reader.t_end - reader.t0
            times = [reader.t0 + span * i / 4.0 for i in range(5)]
        for time in times:
            print(f"  t={time:g} s  level={trace(time):.17g}")
    finally:
        trace.close()
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.experiments.registry import run_experiment
    from repro.observability.telemetry import Telemetry

    telemetry = Telemetry() if _wants_telemetry(args) else None
    try:
        text = run_experiment(
            args.name,
            seed=args.seed,
            scale=args.scale,
            telemetry=telemetry,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(text, end="" if text.endswith("\n") else "\n")
    if telemetry is not None:
        _dump_telemetry(telemetry, scope=args.name, args=args)
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    """``repro run-all``: the whole experiment campaign.

    The one front end of :func:`repro.experiments.run_all.main` (the
    ``python -m repro.experiments.run_all`` spelling delegates here).
    Over a full cache it is all hits, starts no pool, and prints the
    ``Campaign report`` modelled at ``--jobs`` workers: the offline
    report.
    """
    from repro.errors import ConfigurationError
    from repro.experiments import run_all

    try:
        run_all.main(
            seed=args.seed,
            scale=args.scale,
            jobs=1 if args.serial else args.jobs,
            use_cache=not args.no_cache,
            clear_cache=args.clear_cache,
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
            inject=Path(args.inject) if args.inject is not None else None,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the long-lived job service (blocks until interrupted)."""
    from repro.experiments.parallel import RetryPolicy
    from repro.service.app import ServiceConfig
    from repro.service.http import run_service

    chaos = None
    schedule = _load_inject(args)
    if schedule is not None:
        from repro.faults import build_injector

        chaos = build_injector(schedule).worker_chaos()
        if chaos is None:
            print(
                f"[faults] note: schedule {schedule.name!r} arms no "
                f"worker_crash faults; serving runs clean",
            )
    config = ServiceConfig(
        jobs=args.jobs if args.jobs is not None else 1,
        queue_limit=args.queue_limit,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        cache_dir=Path(args.cache_dir) if args.cache_dir is not None else None,
        use_cache=not args.no_cache,
        retry=RetryPolicy(seed=args.seed),
        chaos=chaos,
        job_ttl=args.job_ttl,
        batch_window=args.batch_window,
    )
    run_service(
        config,
        host=args.host,
        port=args.port,
        ready=lambda port: print(
            f"[service] listening on http://{args.host}:{port} "
            f"(jobs={config.jobs}, queue={config.queue_limit}, "
            f"quota={config.quota_rate}/s burst {config.quota_burst})",
            flush=True,
        ),
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a scenario to a running service and print its summary."""
    import time
    import urllib.error
    import urllib.request

    from repro.errors import SpecError
    from repro.spec import load_scenario

    try:
        scenario = load_scenario(Path(args.spec))
    except (SpecError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    payload: Dict[str, object] = {"scenario": scenario.to_dict()}
    if args.system is not None:
        payload["system"] = args.system
    if args.horizon is not None:
        payload["horizon"] = args.horizon
    if args.backend != "scalar":
        payload["backend"] = args.backend
    schedule = _load_inject(args)
    if schedule is not None:
        payload["faults"] = schedule.to_dict()

    base = args.url.rstrip("/")

    def _call(url: str, data: Optional[bytes] = None) -> Dict[str, object]:
        request = urllib.request.Request(
            url,
            data=data,
            headers={
                "content-type": "application/json",
                "x-client-id": args.client_id,
            },
            method="POST" if data is not None else "GET",
        )
        with urllib.request.urlopen(request, timeout=args.timeout) as response:
            return json.loads(response.read().decode())

    try:
        status = _call(f"{base}/v1/jobs", json.dumps(payload).encode())
        job_id = status["job_id"]
        deadline = time.monotonic() + args.timeout
        while status.get("state") not in ("done", "failed"):
            if time.monotonic() >= deadline:
                print(
                    f"error: job {job_id} still {status.get('state')!r} "
                    f"after {args.timeout}s",
                    file=sys.stderr,
                )
                return 3
            time.sleep(0.05)
            status = _call(f"{base}/v1/jobs/{job_id}")
        if status.get("state") == "failed":
            print(
                f"error: job {job_id} failed: {status.get('detail', '?')}",
                file=sys.stderr,
            )
            return 1
        result = _call(f"{base}/v1/jobs/{job_id}/result")
    except urllib.error.HTTPError as error:
        detail = error.read().decode(errors="replace")
        print(f"error: service returned {error.code}: {detail}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError) as error:
        print(f"error: cannot reach service at {base}: {error}", file=sys.stderr)
        return 1

    body = result.get("result") or {}
    print(body.get("summary", ""), end="")
    if args.metrics_out is not None or args.trace_out is not None:
        from repro.observability.telemetry import Telemetry

        telemetry = Telemetry()
        telemetry.merge_snapshot(body.get("telemetry") or {})
        _dump_telemetry(telemetry, scope=body.get("scenario", "job"), args=args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Capybara (ASPLOS 2018) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    telemetry_parent = _telemetry_parent()
    inject_parent = _inject_parent()
    backend_parent = _backend_parent()

    list_parser = sub.add_parser("list", help="enumerate apps and experiments")
    list_parser.set_defaults(func=_cmd_list)

    info_parser = sub.add_parser(
        "info",
        parents=[_backend_parent("backend the --check validation targets")],
        help="version, API generation, and per-backend capabilities",
    )
    info_parser.add_argument(
        "--check", nargs="+", default=None, metavar="FILE",
        help="validate scenario JSON files instead of printing capabilities",
    )
    info_parser.set_defaults(func=_cmd_info)

    run_parser = sub.add_parser(
        "run-app",
        parents=[inject_parent, telemetry_parent],
        help="run one app on one system",
    )
    run_parser.add_argument("app", choices=sorted(APPS))
    run_parser.add_argument(
        "--system",
        choices=sorted(_SYSTEM_BY_NAME),
        default=SystemKind.CAPY_P.value,
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--events", type=_positive_int, default=10)
    run_parser.add_argument(
        "--horizon", type=_positive_float, default=None,
        help="seconds (default: schedule + 60)",
    )
    run_parser.add_argument(
        "--export", type=str, default=None, help="write the trace to this JSON file"
    )
    run_parser.set_defaults(func=_cmd_run_app, backend="scalar")

    spec_run = sub.add_parser(
        "run",
        parents=[_spec_parent(), inject_parent, backend_parent, telemetry_parent],
        help="run a declarative scenario spec (JSON file)",
    )
    spec_run.add_argument(
        "--system", default=None, metavar="KIND",
        help="override the spec's system (Pwr, Fixed, CB-R, CB-P)",
    )
    spec_run.add_argument(
        "--horizon", type=_positive_float, default=None,
        help="seconds (default: schedule + 60)",
    )
    spec_run.add_argument(
        "--export", type=str, default=None, help="write the trace to this JSON file"
    )
    spec_run.set_defaults(func=_cmd_run_spec)

    spec_parser = sub.add_parser(
        "spec", help="inspect and validate scenario specs"
    )
    spec_sub = spec_parser.add_subparsers(dest="spec_command", required=True)
    dump_parser = spec_sub.add_parser(
        "dump", help="print the scenario an app or experiment declares"
    )
    dump_parser.add_argument(
        "name", help="app name (see `repro list`) or experiment id"
    )
    dump_parser.add_argument("--seed", type=int, default=0)
    dump_parser.add_argument(
        "--scale", type=_positive_float, default=0.25,
        help="event-count scale for experiment scenarios",
    )
    dump_parser.add_argument(
        "--index", type=int, default=None,
        help="pick one scenario when the experiment declares several",
    )
    dump_parser.add_argument(
        "--out", type=_writable_path, default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )
    dump_parser.set_defaults(func=_cmd_spec)

    trace_parser = sub.add_parser(
        "trace", help="record, inspect, and replay environment traces"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_record = trace_sub.add_parser(
        "record",
        parents=[_spec_parent(required=False)],
        help="sample a synthetic environment into a chunked trace file",
    )
    trace_record.add_argument(
        "--env", default=None, metavar="JSON",
        help='inline trace object, e.g. \'{"kind": "orbit", "period": 5400, '
        '"irradiance": 1100, "eclipse_fraction": 0.35}\' '
        '(alternative to --spec, which records the scenario\'s irradiance)',
    )
    trace_record.add_argument(
        "--out", required=True, type=_writable_path, metavar="FILE",
        help="trace file to write",
    )
    trace_record.add_argument(
        "--duration", required=True, type=_duration, metavar="SECONDS",
        help="recorded span; accepts unit suffixes (90min, 2h)",
    )
    trace_record.add_argument(
        "--dt", required=True, type=_duration, metavar="SECONDS",
        help="sample period; accepts unit suffixes (50ms)",
    )
    trace_record.add_argument(
        "--t0", type=_duration, default=0.0, metavar="SECONDS",
        help="time of the first sample (default: 0)",
    )
    trace_record.add_argument(
        "--units", default="W/m^2", help="level units recorded in the header"
    )
    trace_record.add_argument(
        "--chunk-samples", type=_positive_int, default=None,
        help="samples per checksummed chunk (default: 4096)",
    )
    trace_record.set_defaults(func=_cmd_trace_record)
    trace_info = trace_sub.add_parser(
        "info",
        help="verify trace files end to end and print their headers",
    )
    trace_info.add_argument("files", nargs="+", metavar="FILE")
    trace_info.set_defaults(func=_cmd_trace_info)
    trace_replay = trace_sub.add_parser(
        "replay", help="sample a recorded trace at chosen times"
    )
    trace_replay.add_argument("file", metavar="FILE")
    trace_replay.add_argument(
        "--at", nargs="+", type=_duration, default=None, metavar="TIME",
        help="times to sample (default: five points across the span); "
        "accepts unit suffixes",
    )
    trace_replay.add_argument(
        "--interpolation", choices=["hold", "linear"], default=None,
        help="override the recorded interpolation policy",
    )
    trace_replay.add_argument(
        "--expect-hash", default=None, metavar="SHA256",
        help="fail unless the file's content digest matches",
    )
    trace_replay.set_defaults(func=_cmd_trace_replay)

    from repro.experiments.registry import REGISTRY

    exp_parser = sub.add_parser(
        "experiment",
        parents=[telemetry_parent],
        help="regenerate a paper figure (run-all runs the whole suite)",
    )
    exp_parser.add_argument("name", choices=REGISTRY.ids())
    exp_parser.add_argument("--seed", type=int, default=0)
    exp_parser.add_argument("--scale", type=_positive_float, default=0.25)
    exp_parser.set_defaults(func=_cmd_experiment)

    run_all_parser = sub.add_parser(
        "run-all",
        parents=[
            _inject_parent(
                "fault schedule JSON; its worker_crash faults become "
                "deterministic campaign chaos"
            ),
            _jobs_parent("worker processes, >= 1"),
            telemetry_parent,
        ],
        help="run the whole experiment campaign",
    )
    run_all_parser.add_argument("--seed", type=int, default=0)
    run_all_parser.add_argument("--scale", type=_positive_float, default=0.25)
    run_all_parser.add_argument(
        "--serial", action="store_true",
        help="force single-process execution",
    )
    run_all_parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    run_all_parser.add_argument(
        "--clear-cache", action="store_true",
        help="drop cached results before running",
    )
    run_all_parser.set_defaults(func=_cmd_run_all)

    serve_parser = sub.add_parser(
        "serve",
        parents=[
            _inject_parent(
                "fault schedule JSON; its worker_crash faults become "
                "deterministic chaos against served jobs"
            ),
            _jobs_parent("service worker processes (default: 1)"),
        ],
        help="boot the long-lived simulation job service (repro.service)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8787)
    serve_parser.add_argument(
        "--queue-limit", type=_positive_int, default=16,
        help="maximum queued jobs before 503s (default: 16)",
    )
    serve_parser.add_argument(
        "--quota-rate", type=_finite_float(-math.inf), default=32.0,
        help="per-client requests/second before 429s (<= 0 disables)",
    )
    serve_parser.add_argument(
        "--quota-burst", type=_finite_float(1.0, inclusive=True),
        default=64.0, help="per-client burst allowance, >= 1 (default: 64)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default: .repro-cache or REPRO_CACHE_DIR)",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    serve_parser.add_argument(
        "--seed", type=int, default=0, help="retry-jitter seed"
    )
    serve_parser.add_argument(
        "--job-ttl", type=_positive_float, default=None, metavar="SECONDS",
        help="evict finished jobs after this many seconds "
        "(polling them answers 410; default: keep forever)",
    )
    serve_parser.add_argument(
        "--batch-window", type=_finite_float(0.0, inclusive=True),
        default=0.0, metavar="SECONDS",
        help="linger after each dequeue to coalesce queued vec jobs "
        "into one fleet batch (default: 0, no batching)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = sub.add_parser(
        "submit",
        parents=[
            _spec_parent(),
            inject_parent,
            backend_parent,
            telemetry_parent,
        ],
        help="submit a scenario to a running service and print the result",
    )
    submit_parser.add_argument(
        "--url", default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default: {DEFAULT_SERVICE_URL})",
    )
    submit_parser.add_argument(
        "--system", default=None, metavar="KIND",
        help="override the spec's system (Pwr, Fixed, CB-R, CB-P)",
    )
    submit_parser.add_argument(
        "--horizon", type=_positive_float, default=None,
        help="seconds (default: schedule + 60)",
    )
    submit_parser.add_argument(
        "--client-id", default="cli", help="x-client-id header (quota identity)"
    )
    submit_parser.add_argument(
        "--timeout", type=_positive_float, default=120.0,
        help="seconds to wait for completion (default: 120)",
    )
    submit_parser.set_defaults(func=_cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
