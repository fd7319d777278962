"""Campaign batching planner: many jobs, few kernel launches.

A campaign — ``run_all``, a service queue, a parameter sweep — is a
list of independent jobs.  Dispatching them one scalar run at a time
pays the per-device Python overhead the vectorized backend
(:mod:`repro.vec`) exists to remove, so this module plans a campaign
the way the fleet kernel wants to execute it:

1. :func:`plan_campaign` partitions the jobs into **vec-compatible
   cohorts** (same fixed-timestep contract: one resolved ``(horizon,
   dt, trace)`` triple — *trace* being the scenario's recorded-trace
   content digest, empty for static environments — capability-checked
   through the same :func:`~repro.vec.batch.check_scenario` rules as
   ``build_fleet``) and **scalar stragglers** (jobs that requested the
   scalar engine, or vec jobs the capability rules reject — each
   downgrade records its reason, never silently).
2. :func:`execute_plan` runs the cohorts that share a ``dt`` and a
   replay trace as one ragged :class:`~repro.vec.kernel.FleetKernel`
   launch (each device stops at its own horizon), sharded across the
   worker pool; it runs stragglers through the shared scalar runner,
   and splits batch outputs back into **per-job payloads**.  Cohorts
   are the reporting partition, and the service's unit of work.
3. :func:`job_result_key` gives every job the same content-addressed
   cache key whether it executes solo, in a batch, or over HTTP — the
   byte-identity contract the differential tests pin.

Batch composition is invisible by construction: every kernel operation
is elementwise, and the one transcendental (the RC leakage factor) is
pre-computed per element by :func:`~repro.vec.kernel.leak_decay`, so a
batch of N jobs and N batches of one produce bit-identical payloads.
Cache hits, ``--inject`` worker chaos, and ``on_error="capture"``
semantics ride the same :class:`~repro.experiments.parallel` machinery
campaigns already use.

Telemetry (``plan.*``): job/cohort/straggler counts, the batched
fraction, per-reason straggler counters, cache hits, and shard count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.observability.telemetry import Telemetry, resolve_telemetry

__all__ = [
    "DEFAULT_VEC_DT",
    "DEFAULT_VEC_HORIZON",
    "CampaignJob",
    "Cohort",
    "Straggler",
    "CampaignPlan",
    "PlanResult",
    "cached_payload",
    "job_result_key",
    "format_fleet_summary",
    "run_fleet_batch",
    "plan_campaign",
    "execute_plan",
    "run_plan_task",
]

#: Fixed-timestep resolution every vec campaign job shares by default.
DEFAULT_VEC_DT = 0.05
#: Horizon a vec job gets when the caller names none (the fleet
#: experiments' standard duty-cycle window; scalar jobs keep their
#: schedule-derived default).
DEFAULT_VEC_HORIZON = 900.0


@dataclass(frozen=True)
class CampaignJob:
    """One campaign job: canonical JSON in, one result payload out.

    Everything is a plain string/float so a job pickles across the
    worker pool unchanged.  The first five fields mirror
    :class:`~repro.service.jobs.JobRequest` exactly; the vec-only knobs
    (``dt``/``mode``/``power_scale``/``load_power``/``initial_voltage``)
    join the cache key only at non-default values, so a service-shaped
    job keys byte-identically to its :meth:`JobRequest.result_key`.
    """

    label: str
    scenario_json: str
    system: Optional[str] = None
    horizon: Optional[float] = None
    faults_json: Optional[str] = None
    backend: str = "scalar"
    dt: float = DEFAULT_VEC_DT
    mode: Optional[str] = None
    power_scale: float = 1.0
    load_power: Optional[float] = None
    initial_voltage: float = 0.0

    @classmethod
    def from_request(cls, request, label: str = "request") -> "CampaignJob":
        """A job from a validated service :class:`JobRequest`.

        The label is scheduling metadata only (it never joins the key),
        so the request is not parsed to name it.
        """
        return cls(
            label=label,
            scenario_json=request.scenario_json,
            system=request.system,
            horizon=request.horizon,
            faults_json=request.faults_json,
            backend=request.backend,
        )

    @property
    def vec_horizon(self) -> float:
        """The horizon a vec execution of this job resolves to."""
        return self.horizon if self.horizon is not None else DEFAULT_VEC_HORIZON

    @property
    def vec_steps(self) -> int:
        """The kernel steps a vec execution of this job takes."""
        return int(round(self.vec_horizon / self.dt))


def job_result_key(job: CampaignJob) -> str:
    """The content-addressed cache key for one campaign job.

    Single source of truth shared with the service
    (:meth:`JobRequest.result_key` delegates here): the key depends on
    the canonical scenario, the fault schedule, the content digest of
    any recorded environment traces the scenario replays (so replaying
    identical trace content hits wherever the file lives, and
    re-recording it misses), the system/horizon overrides, the backend
    when non-scalar, and — for vec jobs only — any non-default fleet
    knob.  It never depends on how the job was scheduled, which is what
    makes batched and solo execution cache-compatible.
    """
    return _job_result_key(job, _digests_once())


def _job_result_key(
    job: CampaignJob, digests: Callable[[str], Tuple[str, Optional[str]]]
) -> str:
    """:func:`job_result_key` with the scenario digests from *digests*."""
    from repro.experiments.cache import result_key

    params: Dict[str, Any] = {}
    if job.system is not None:
        params["system"] = job.system
    if job.horizon is not None:
        params["horizon"] = job.horizon
    if job.backend != "scalar":
        params["backend"] = job.backend
    if job.backend == "vec":
        if job.dt != DEFAULT_VEC_DT:
            params["dt"] = job.dt
        if job.mode is not None:
            params["mode"] = job.mode
        if job.power_scale != 1.0:
            params["power_scale"] = job.power_scale
        if job.load_power is not None:
            params["load_power"] = job.load_power
        if job.initial_voltage != 0.0:
            params["initial_voltage"] = job.initial_voltage

    fault_hash = None
    if job.faults_json is not None:
        from repro.faults import fault_schedule_hash, load_fault_schedule

        fault_hash = fault_schedule_hash(load_fault_schedule(job.faults_json))
    scenario_hash, trace_hash = digests(job.scenario_json)
    return result_key(
        "service.run",
        params,
        spec_hash=scenario_hash,
        fault_hash=fault_hash,
        trace_hash=trace_hash,
    )


def _parse_once() -> Callable[[str], Any]:
    """``load_scenario`` memoized for one call: each distinct JSON parses once.

    Callers make a fresh parser per call, so a long-lived pool or
    service worker keeps no scenarios between jobs.  Parse errors are
    not memoized; each job re-raises its own.
    """
    from repro.spec import load_scenario

    return functools.lru_cache(maxsize=None)(load_scenario)


def _digests_once() -> Callable[[str], Tuple[str, Optional[str]]]:
    """A scenario JSON's ``(spec_hash, scenario_trace_hash)``, memoized
    for one call like :func:`_parse_once`: each distinct text parses and
    hashes once however many jobs share it."""
    from repro.spec import load_scenario, scenario_trace_hash, spec_hash

    @functools.lru_cache(maxsize=None)
    def digests(scenario_json: str) -> Tuple[str, Optional[str]]:
        scenario = load_scenario(scenario_json)
        return spec_hash(scenario), scenario_trace_hash(scenario)

    return digests


def format_fleet_summary(
    name: str,
    system: str,
    horizon: float,
    on_seconds: float,
    brownouts: int,
    energy_in: float,
    energy_out: float,
    energy_leaked: float,
) -> str:
    """One vec job's result summary, same shape as the scalar runner's.

    Every value derives from the fleet state columns, which are
    batch-invariant — so this text is byte-identical however the job
    was scheduled.
    """
    lines = [f"{name} on {system}: {horizon:.0f} s simulated (vec fleet)"]
    lines.append(f"  {'brownouts':24s} {brownouts}")
    lines.append(f"  {'energy_in_uJ':24s} {energy_in * 1e6:.3f}")
    lines.append(f"  {'energy_leaked_uJ':24s} {energy_leaked * 1e6:.3f}")
    lines.append(f"  {'energy_out_uJ':24s} {energy_out * 1e6:.3f}")
    lines.append(f"  {'on_fraction':24s} {on_seconds / horizon:.6f}")
    lines.append(f"  {'on_seconds':24s} {on_seconds:.3f}")
    return "\n".join(lines) + "\n"


def run_fleet_batch(
    jobs: Sequence[CampaignJob], collect: bool = False
) -> List[Dict[str, Any]]:
    """Execute vec jobs as ONE fleet launch; split per-job payloads.

    All jobs must share one ``dt``; their horizons and traces may
    differ (:func:`execute_plan` merges horizons, not traces).  Each job becomes one device of a single ragged
    :meth:`FleetKernel.run_segments` launch over operating-point
    segments compiled once, at the batch's longest horizon
    (:func:`~repro.vec.batch.compile_operating_segments`: piecewise and
    hold-replay traces cut it into segments, a static batch is one).
    Each device stops at its own end step, ``int(round(horizon / dt))``,
    and its state columns split back into its job's payload, which
    carries the job's own horizon and step count.  Payloads — including
    the optional telemetry snapshot, which is synthesized per job from
    simulation-derived values only — carry no trace of the batch, so a
    batch of N and N batches of one return identical bits.
    """
    from repro.core.builder import SystemKind
    from repro.spec import ScenarioSpec
    from repro.vec import (
        FleetKernel,
        build_fleet,
        compile_operating_segments,
        leak_decay,
    )
    from repro.vec.batch import DEFAULT_LOAD_POWER

    if not jobs:
        return []
    dt = jobs[0].dt
    for job in jobs:
        if job.backend != "vec":
            raise ConfigurationError(
                f"job {job.label!r} requests backend {job.backend!r}; "
                f"run_fleet_batch executes vec jobs only"
            )
        if job.dt != dt:
            raise ConfigurationError(
                f"job {job.label!r} steps at dt={job.dt} but the batch "
                f"steps at dt={dt}; one launch shares one dt"
            )

    parse = _parse_once()

    # Memoized for this call, like ``parse``: equal jobs share one spec
    # object, so the fleet builders do their per-platform work once.
    @functools.lru_cache(maxsize=None)
    def job_scenario(scenario_json: str, name: Optional[str]) -> ScenarioSpec:
        scenario = parse(scenario_json)
        system = scenario.system if name is None else SystemKind.from_name(name).value
        if system == scenario.system:
            return scenario
        return ScenarioSpec(
            name=scenario.name,
            system=system,
            platform=scenario.platform,
            workload=scenario.workload,
        )

    scenarios = [job_scenario(job.scenario_json, job.system) for job in jobs]

    state = build_fleet(
        scenarios,
        modes=[job.mode for job in jobs],
        load_power=[
            job.load_power if job.load_power is not None else DEFAULT_LOAD_POWER
            for job in jobs
        ],
        power_scales=[job.power_scale for job in jobs],
        initial_voltage=[job.initial_voltage for job in jobs],
    )
    segments = compile_operating_segments(
        scenarios, max(job.vec_horizon for job in jobs), dt,
        power_scales=[job.power_scale for job in jobs],
    )
    ends = [job.vec_steps for job in jobs]
    FleetKernel(state).run_segments(
        segments, dt, decay=leak_decay(state.leak_tau, dt), end_steps=ends
    )

    payloads: List[Dict[str, Any]] = []
    columns = zip(
        jobs,
        ends,
        scenarios,
        state.voltage.tolist(),
        state.on.tolist(),
        state.on_seconds.tolist(),
        state.brownouts.tolist(),
        state.energy_in.tolist(),
        state.energy_out.tolist(),
        state.energy_leaked.tolist(),
    )
    for (
        job, steps, scenario, voltage, on, on_seconds, brownouts,
        energy_in, energy_out, energy_leaked,
    ) in columns:
        horizon = job.vec_horizon
        system = scenario.system
        telemetry_snapshot = None
        if collect:
            # Synthetic per-job snapshot from simulation-derived values
            # only: a batched run's ambient telemetry (device counts,
            # wall-clock histograms) would otherwise leak the batch
            # composition into the payload bytes.
            job_telemetry = Telemetry()
            job_telemetry.inc("vec.steps", steps)
            job_telemetry.inc("vec.devices", 1)
            job_telemetry.inc("vec.brownouts", brownouts)
            telemetry_snapshot = job_telemetry.snapshot()
        payloads.append(
            {
                "summary": format_fleet_summary(
                    scenario.name, system, horizon, on_seconds,
                    brownouts, energy_in, energy_out, energy_leaked,
                ),
                "horizon": horizon,
                "dt": dt,
                "system": system,
                "scenario": scenario.name,
                "backend": "vec",
                "counters": {
                    "brownouts": brownouts,
                    "steps": steps,
                },
                "fleet": {
                    "voltage": voltage,
                    "on": on,
                    "on_seconds": on_seconds,
                    "brownouts": brownouts,
                    "energy_in": energy_in,
                    "energy_out": energy_out,
                    "energy_leaked": energy_leaked,
                },
                "telemetry": telemetry_snapshot,
            }
        )
    return payloads


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass
class Cohort:
    """Vec jobs that share one ``(horizon, dt, trace)`` step contract.

    Cohorts are the plan's reporting partition (``plan.stats()``'s
    ``cohorts``).  :func:`execute_plan` runs every cohort with the same
    ``dt`` and trace in one ragged kernel launch; the service, whose
    jobs settle when their launch ends, runs each cohort on its own.
    """

    horizon: float
    dt: float
    #: Content digest of the cohort's recorded environment traces
    #: (:func:`repro.spec.scenario_trace_hash`); ``""`` for cohorts with
    #: no replay traces.  Jobs replaying different trace content land in
    #: different cohorts.
    trace: str = ""
    jobs: List[Tuple[int, CampaignJob]] = field(default_factory=list)


@dataclass(frozen=True)
class Straggler:
    """A job the planner routes through the scalar engine, and why.

    ``job`` is the job as it will execute — a vec request the
    capability rules rejected is downgraded to ``backend="scalar"``
    here (with the downgrade recorded, never silent), so its cache key
    and payload stay coherent with how it actually ran.
    """

    index: int
    job: CampaignJob
    reason: str
    slug: str


@dataclass
class CampaignPlan:
    """The partition :func:`execute_plan` executes."""

    jobs: List[CampaignJob]
    cohorts: List[Cohort]
    stragglers: List[Straggler]

    @property
    def batched_jobs(self) -> int:
        return sum(len(cohort.jobs) for cohort in self.cohorts)

    def stats(self) -> Dict[str, Any]:
        total = len(self.jobs)
        batched = self.batched_jobs
        reasons: Dict[str, int] = {}
        for straggler in self.stragglers:
            reasons[straggler.slug] = reasons.get(straggler.slug, 0) + 1
        return {
            "jobs": total,
            "cohorts": len(self.cohorts),
            "batched_jobs": batched,
            "straggler_jobs": len(self.stragglers),
            "batched_fraction": batched / total if total else 0.0,
            "straggler_reasons": reasons,
        }


def _straggler_slug(reason: str) -> str:
    """A low-cardinality telemetry slug for one straggler reason."""
    if reason.startswith("backend="):
        return "backend-scalar"
    if reason.startswith("spec-error"):
        return "spec-error"
    if "fault" in reason:
        return "faults"
    if "replay trace" in reason:
        return "trace"
    if "harvester" in reason or "irradiance" in reason:
        return "harvester"
    return "capability"


def plan_campaign(
    jobs: Sequence[CampaignJob],
    telemetry: Optional[Telemetry] = None,
) -> CampaignPlan:
    """Partition *jobs* into vec cohorts and scalar stragglers.

    A job joins a cohort when it requests the vec backend and passes
    the same :func:`~repro.vec.batch.check_scenario` capability rules
    ``build_fleet`` enforces; cohorts group by resolved ``(horizon, dt,
    trace)`` — the step contract plus the content digest of any replay
    traces.  Cohorts are the reporting partition: :func:`execute_plan`
    launches them by ``(dt, trace)``, across horizons.  Everything
    else is a straggler with a recorded reason — including vec requests
    the rules reject, which are downgraded to the scalar engine rather
    than dropped or silently re-routed.
    """
    from repro.errors import SpecError
    from repro.spec import scenario_trace_hash
    from repro.vec import check_scenario

    telemetry = resolve_telemetry(telemetry)
    parse = _parse_once()

    # Memoized per distinct (scenario, faults) text, like the parse; a
    # SpecError is not cached, so each job re-raises its own.
    @functools.lru_cache(maxsize=None)
    def verdict(
        scenario_json: str, faults_json: Optional[str]
    ) -> Tuple[Tuple[str, ...], str]:
        scenario = parse(scenario_json)
        schedule = None
        if faults_json is not None:
            from repro.faults import load_fault_schedule

            schedule = load_fault_schedule(faults_json)
        reasons = tuple(check_scenario(scenario, schedule))
        return reasons, "" if reasons else scenario_trace_hash(scenario) or ""

    cohorts: Dict[Tuple[float, float, str], Cohort] = {}
    stragglers: List[Straggler] = []
    for index, job in enumerate(jobs):
        if job.backend != "vec":
            reason = f"backend={job.backend}: job did not request the vec backend"
            stragglers.append(
                Straggler(index, job, reason, _straggler_slug(reason))
            )
            continue
        try:
            reasons, trace_key = verdict(job.scenario_json, job.faults_json)
        except SpecError as error:
            reasons = (f"spec-error: {error}",)
        if reasons:
            reason = "; ".join(reasons)
            downgraded = dataclasses.replace(job, backend="scalar")
            stragglers.append(
                Straggler(index, downgraded, reason, _straggler_slug(reason))
            )
            continue
        key = (job.vec_horizon, job.dt, trace_key)
        cohorts.setdefault(
            key, Cohort(horizon=key[0], dt=key[1], trace=key[2])
        ).jobs.append((index, job))

    plan = CampaignPlan(
        jobs=list(jobs),
        cohorts=[cohorts[key] for key in sorted(cohorts)],
        stragglers=stragglers,
    )
    if telemetry.enabled:
        stats = plan.stats()
        telemetry.inc("plan.jobs", stats["jobs"])
        telemetry.inc("plan.cohorts", stats["cohorts"])
        telemetry.inc("plan.batched_jobs", stats["batched_jobs"])
        telemetry.inc("plan.straggler_jobs", stats["straggler_jobs"])
        telemetry.set_gauge("plan.batched_fraction", stats["batched_fraction"])
        for slug, count in sorted(stats["straggler_reasons"].items()):
            telemetry.inc(f"plan.straggler_reason.{slug}", count)
    return plan


def _launch_groups(
    cohorts: Sequence[Cohort],
) -> List[List[Tuple[int, CampaignJob]]]:
    """The kernel launches *cohorts* run as: one per ``(dt, trace)``.

    A launch serves every cohort that shares a ``dt`` and a replay
    trace, whatever its horizon: :func:`run_fleet_batch` stops each
    device at its own horizon.  Cohorts replaying different traces stay
    apart, so a launch's segment schedule is its one trace's, never the
    union of several traces' change times.  Each group lists
    ``(index, job)`` pairs in cohort order.
    """
    groups: Dict[Tuple[float, str], List[Tuple[int, CampaignJob]]] = {}
    for cohort in cohorts:
        groups.setdefault((cohort.dt, cohort.trace), []).extend(cohort.jobs)
    return list(groups.values())


def _shards(
    groups: Sequence[List[Tuple[int, CampaignJob]]],
    workers: int,
    size: Optional[int],
) -> List[Tuple[int, int, List[Tuple[int, CampaignJob]]]]:
    """Cut launch groups into contiguous ``(group, shard, jobs)`` shards.

    With *size*, each shard holds that many jobs of one group.
    Otherwise the groups, laid end to end, are cut into one run of
    about equal device-steps per worker (a job goes to the run its
    device-steps' midpoint falls in), and each run into one shard per
    group it covers.  So a group smaller than a worker's share stays
    whole, and a larger one is split.
    """
    if size is not None:
        return [
            (g, at // size, group[at : at + size])
            for g, group in enumerate(groups)
            for at in range(0, len(group), size)
        ]
    count = min(workers, sum(map(len, groups)))
    total = sum(job.vec_steps for group in groups for _, job in group)
    shards: Dict[Tuple[int, int], List[Tuple[int, CampaignJob]]] = {}
    done = 0
    for g, group in enumerate(groups):
        for pair in group:
            weight = pair[1].vec_steps
            run = (2 * done + weight) * count // (2 * total) if total else 0
            shards.setdefault((g, min(count - 1, run)), []).append(pair)
            done += weight
    return [(g, run, shard) for (g, run), shard in shards.items()]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _run_campaign_job(job: CampaignJob, collect: bool = False) -> Dict[str, Any]:
    """One job through its backend's canonical path (solo execution)."""
    if job.backend == "vec":
        return run_fleet_batch((job,), collect=collect)[0]
    from repro.service.runner import run_scenario_job

    return run_scenario_job(
        job.scenario_json,
        system=job.system,
        horizon=job.horizon,
        faults_json=job.faults_json,
        backend="scalar",
        collect=collect,
    )


def run_plan_task(
    kind: str, jobs: Tuple[CampaignJob, ...], collect: bool
) -> List[Any]:
    """Pool worker entry: one shard (``"batch"``) or one straggler (``"solo"``).

    Module-level and fed only frozen dataclasses of plain strings, so
    it ships across the process pool; always returns a list of payloads
    so callers — :func:`execute_plan` and the service — unpack shards
    and solo jobs uniformly.
    """
    if kind == "batch":
        return run_fleet_batch(jobs, collect=collect)
    return [_run_campaign_job(job, collect=collect) for job in jobs]


def cached_payload(cache, key: str) -> Optional[Dict[str, Any]]:
    """The job payload *cache* holds under *key*, or ``None``.

    Entries of another shape (a foreign or stale payload under the same
    key) count as misses, for campaigns and service submits alike.
    """
    payload = cache.get(key)
    return payload if isinstance(payload, dict) and "summary" in payload else None


@dataclass
class PlanResult:
    """Per-job outcomes of one executed plan, in submission order."""

    #: Payload dict per job, or a :class:`TaskError` under
    #: ``on_error="capture"`` when the job's shard failed every attempt.
    results: List[Any]
    #: The content-addressed cache key of each job.
    keys: List[str]
    #: Whether each job was served from the cache without executing.
    cached: List[bool]
    #: The plan that was executed (stats, cohorts, straggler reasons).
    plan: CampaignPlan


def execute_plan(
    plan: CampaignPlan,
    cache=None,
    pool=None,
    jobs: Optional[int] = None,
    retry=None,
    chaos=None,
    on_error: str = "capture",
    telemetry: Optional[Telemetry] = None,
    collect: bool = False,
    shard_size: Optional[int] = None,
) -> PlanResult:
    """Execute a plan: cache lookups, sharded batches, stragglers.

    Args:
        plan: the :func:`plan_campaign` partition.
        cache: optional :class:`~repro.experiments.cache.ResultCache`;
            jobs whose key holds a usable payload are served without
            executing, fresh payloads are stored back.
        pool: optional persistent
            :class:`~repro.experiments.parallel.WorkerPool`; without
            one, a pool of *jobs* workers lives for this call only.
        jobs: worker count for the per-call pool (ignored with *pool*).
        retry / chaos / on_error: the campaign resilience contract of
            :meth:`~repro.experiments.parallel.WorkerPool.map_tasks`.
        telemetry: sink for the ``plan.*`` execution counters.
        collect: attach per-job telemetry snapshots to payloads.
        shard_size: devices per kernel launch.  Default: the launch
            groups (one per ``(dt, trace)``) are cut into one run of
            about equal device-steps per worker, and a run into one
            shard per group it covers.  ``1`` forces every job into its
            own batch — the unbatched baseline the differential tests
            and the campaign benchmark compare against.

    Returns:
        A :class:`PlanResult` with per-job payloads in original job
        order — byte-identical to solo execution of each job.

    Raises:
        ConfigurationError: *jobs* or *shard_size* is given but is not
            an int >= 1 (or is a bool).
    """
    from repro.experiments.parallel import TaskError, WorkerPool, check_count, default_jobs

    for name, value in (("jobs", jobs), ("shard_size", shard_size)):
        if value is not None:
            check_count(name, value)
    telemetry = resolve_telemetry(telemetry)
    effective_jobs = (
        pool.jobs if pool is not None else (jobs if jobs is not None else default_jobs())
    )

    total = len(plan.jobs)
    executable: List[CampaignJob] = list(plan.jobs)
    for straggler in plan.stragglers:
        executable[straggler.index] = straggler.job
    digests = _digests_once()
    keys = [_job_result_key(job, digests) for job in executable]

    results: List[Any] = [None] * total
    cached = [False] * total
    if cache is not None:
        for index, key in enumerate(keys):
            payload = cached_payload(cache, key)
            if payload is not None:
                results[index] = payload
                cached[index] = True
        hits = sum(cached)
        if hits and telemetry.enabled:
            telemetry.inc("plan.cache_hits", hits)

    tasks: List[Tuple[str, Tuple[CampaignJob, ...], bool]] = []
    labels: List[str] = []
    slots: List[List[int]] = []
    pending = [
        [(i, job) for i, job in group if not cached[i]]
        for group in _launch_groups(plan.cohorts)
    ]
    for group_index, shard_index, shard in _shards(
        pending, effective_jobs, shard_size
    ):
        tasks.append(("batch", tuple(job for _, job in shard), collect))
        labels.append(f"plan:g{group_index}:s{shard_index}")
        slots.append([i for i, _ in shard])
    for straggler in plan.stragglers:
        if cached[straggler.index]:
            continue
        tasks.append(("solo", (straggler.job,), collect))
        # Job labels need not be unique; the index makes the task's.
        labels.append(f"plan:straggler:{straggler.index}:{straggler.job.label}")
        slots.append([straggler.index])

    positions = {label: position for position, label in enumerate(labels)}

    def store(write, *args) -> None:
        # A cache that cannot be written loses its entries, never the
        # results: the write is counted and the campaign goes on, the
        # rule run_all and the job service follow too.
        try:
            write(*args)
        except OSError:
            telemetry.inc("plan.cache_put_errors")

    def publish(label: str, output: List[Any], timing: Any) -> None:
        # Runs as each shard lands: its pack is on disk while the other
        # workers still compute, and an abort keeps what finished.  A
        # straggler's payload (up to a few MB) is stored once the pool
        # returns, so pickling it never holds this process's interpreter
        # lock while workers are handing in results.
        position = positions[label]
        if tasks[position][0] == "batch":
            store(
                cache.put_many,
                (
                    (keys[index], payload)
                    for index, payload in zip(slots[position], output)
                ),
            )

    if tasks:
        with (
            contextlib.nullcontext(pool)
            if pool is not None
            else WorkerPool(jobs=min(effective_jobs, len(tasks)))
        ) as runner:
            outputs = runner.map_tasks(
                run_plan_task,
                tasks,
                labels=labels,
                retry=retry,
                chaos=chaos,
                on_error=on_error,
                telemetry=telemetry,
                on_complete=publish if cache is not None else None,
            )
        for (kind, _, _), indices, output in zip(tasks, slots, outputs):
            if isinstance(output, TaskError):
                for index in indices:
                    results[index] = output
                continue
            for index, payload in zip(indices, output):
                results[index] = payload
                if cache is not None and kind == "solo":
                    store(cache.put, keys[index], payload)
        if telemetry.enabled:
            telemetry.inc("plan.shards", len(tasks))
            telemetry.inc(
                "plan.jobs_executed", sum(len(indices) for indices in slots)
            )
    return PlanResult(results=results, keys=keys, cached=cached, plan=plan)

