"""Job wire format: validated requests, status, and results.

A :class:`JobRequest` is the service's unit of admission: scenario,
fault, and environment-trace references validated **at the edge**
(submit returns 400 before any queue or pool is touched — a missing or
corrupt trace file included), canonicalised with trace references
pinned by content digest, and hashed into the same
spec/fault/trace/backend-aware result key the experiment cache uses —
so a repeat submission is a cache hit served without running anything.

All three types are plain frozen/slotted dataclasses with ``to_dict``
renderings, promoted into the frozen v1 facade (``repro.JobRequest`` …)
because they *are* the public API of simulation-as-a-service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import SpecError

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Most fixed-timestep steps one submission may ask for, at the vec
#: backend's default ``dt`` (50,000 s at 0.05 s).  A vec job shares its
#: kernel launch with every queued job of the same ``dt``, so one
#: unbounded horizon would hold them all; scalar jobs are held to the
#: same horizon, and a scenario's own workload horizon and event
#: schedule to the same span.
MAX_JOB_STEPS = 1_000_000


@dataclass(frozen=True)
class JobRequest:
    """One validated, canonicalised submission.

    Attributes hold canonical JSON strings (not live objects) so a
    request is trivially picklable, hashable, and byte-stable — the
    properties the result key and the process pool both rely on.
    """

    scenario_json: str
    system: Optional[str] = None
    horizon: Optional[float] = None
    faults_json: Optional[str] = None
    backend: str = "scalar"
    #: Job ids this submission waits for.  Scheduling metadata only: it
    #: joins neither :meth:`result_key` nor the cache, so a dependent
    #: job still hits the cache of an identical independent one.
    after: Tuple[str, ...] = ()

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobRequest":
        """Validate a submit body into a request (raises ``SpecError``).

        The body is either a bare scenario document or an envelope::

            {"scenario": {...}, "system": "CB-P", "horizon": 600,
             "faults": {...}, "backend": "scalar",
             "after": ["<job id>", ...]}
        """
        from repro.core.builder import SystemKind
        from repro.spec import (
            canonical_json,
            load_scenario,
            resolve_scenario_traces,
        )

        if not isinstance(payload, Mapping):
            raise SpecError("job payload must be a JSON object")
        if "scenario" in payload:
            envelope = dict(payload)
            scenario_data = envelope.pop("scenario")
        else:
            envelope = {}
            scenario_data = dict(payload)
        unknown = set(envelope) - {"system", "horizon", "faults", "backend", "after"}
        if unknown:
            raise SpecError(
                f"unknown job field(s) {sorted(unknown)}; allowed: "
                f"scenario, system, horizon, faults, backend, after"
            )
        after_data = envelope.get("after", ())
        if (
            isinstance(after_data, str)
            or not isinstance(after_data, (list, tuple))
            or not all(isinstance(item, str) and item for item in after_data)
        ):
            raise SpecError(
                f"'after' must be a list of job id strings, got {after_data!r}"
            )
        if not isinstance(scenario_data, Mapping):
            raise SpecError("'scenario' must be a JSON object")
        scenario = load_scenario(canonical_json(dict(scenario_data)))
        # Resolve trace references at the edge: every replay-trace file
        # the scenario points at is opened, checksum-verified in full,
        # and pinned by content digest here — a missing or corrupt trace
        # is a 400 (TraceFormatError is a SpecError) before any queue or
        # pool is touched, and the pinned hash makes the result key's
        # trace digest a free lookup downstream.
        scenario = resolve_scenario_traces(scenario)
        _check_scenario_span(scenario)

        system = envelope.get("system")
        if system is not None:
            system = SystemKind.from_name(system).value

        horizon = envelope.get("horizon")
        if horizon is not None:
            if not isinstance(horizon, (int, float)) or isinstance(horizon, bool):
                raise SpecError(f"horizon must be a number, got {horizon!r}")
            horizon = float(horizon)
            if not math.isfinite(horizon) or horizon <= 0.0:
                raise SpecError(f"horizon must be finite and > 0, got {horizon}")
            _check_steps("horizon", horizon)

        faults_json = None
        faults_data = envelope.get("faults")
        if faults_data is not None:
            from repro.faults import dump_fault_schedule
            from repro.faults.model import FaultScheduleSpec

            if not isinstance(faults_data, Mapping):
                raise SpecError("'faults' must be a JSON object")
            schedule = FaultScheduleSpec.from_dict(faults_data)
            faults_json = dump_fault_schedule(schedule, pretty=False)

        backend = envelope.get("backend", "scalar")
        from repro.service.runner import RUN_BACKENDS

        if backend not in RUN_BACKENDS:
            raise SpecError(
                f"unknown backend {backend!r}; choose from {list(RUN_BACKENDS)}"
            )
        if backend == "vec":
            from repro.vec import ensure_supported

            ensure_supported(
                scenario,
                None if faults_json is None else _parse_schedule(faults_json),
            )

        return cls(
            scenario_json=canonical_json(scenario),
            system=system,
            horizon=horizon,
            faults_json=faults_json,
            backend=backend,
            after=tuple(after_data),
        )

    # -- hashing --------------------------------------------------------

    def spec_hash(self) -> str:
        from repro.spec import load_scenario, spec_hash

        return spec_hash(load_scenario(self.scenario_json))

    def fault_hash(self) -> Optional[str]:
        if self.faults_json is None:
            return None
        from repro.faults import fault_schedule_hash

        return fault_schedule_hash(_parse_schedule(self.faults_json))

    def result_key(self) -> str:
        """The spec/fault/backend-aware cache key for this request.

        Delegates to :func:`repro.experiments.plan.job_result_key` — one
        key function shared by HTTP submissions and batched campaign
        execution, so a job keys identically however it is scheduled.
        Keys live in the same content-keyed store as experiment results
        and invalidate on any simulator source change.
        """
        from repro.experiments.plan import CampaignJob, job_result_key

        return job_result_key(CampaignJob.from_request(self))

    def to_dict(self) -> Dict[str, Any]:
        import json

        data: Dict[str, Any] = {"scenario": json.loads(self.scenario_json)}
        if self.system is not None:
            data["system"] = self.system
        if self.horizon is not None:
            data["horizon"] = self.horizon
        if self.faults_json is not None:
            data["faults"] = json.loads(self.faults_json)
        if self.backend != "scalar":
            data["backend"] = self.backend
        if self.after:
            data["after"] = list(self.after)
        return data


def _check_steps(what: str, seconds: float) -> None:
    """Raise :class:`SpecError` if *seconds* of simulated time take more
    than :data:`MAX_JOB_STEPS` steps at the vec backend's default dt."""
    from repro.experiments.plan import DEFAULT_VEC_DT

    # Compared as a float: a huge span overflows to inf steps, and a NaN
    # one fails the comparison.
    steps = seconds / DEFAULT_VEC_DT
    if not steps <= MAX_JOB_STEPS + 0.5:
        raise SpecError(
            f"{what} {seconds:g} s is {steps:.0f} steps at dt="
            f"{DEFAULT_VEC_DT:g} s, over the step budget of {MAX_JOB_STEPS} "
            f"steps (MAX_JOB_STEPS, {MAX_JOB_STEPS * DEFAULT_VEC_DT:g} s)"
        )


def _check_scenario_span(scenario) -> None:
    """Bound the span a scenario sets itself: its workload ``horizon``
    and its event schedule, about ``event_count x mean_interarrival``
    seconds, with the app's defaults for fields it leaves out.

    A rig is sized by that span whatever horizon the request names, so
    it is checked here, before anything is built.  The fields are parsed
    as the app builder parses them, so a value it would reject is a
    :class:`SpecError` here too.
    """
    import inspect

    from repro.apps import APPS
    from repro.spec.build import _workload_kwargs

    app = APPS.get(scenario.app)
    allowed = app.workload_fields if app else tuple(scenario.workload)
    params = inspect.signature(app.scenario).parameters if app else {}
    span = {name: params[name].default for name in allowed if name in params}
    span.update(_workload_kwargs(scenario, allowed))

    _check_steps("workload horizon", span.get("horizon", 0.0))
    _check_steps(
        "event schedule (event_count x mean_interarrival)",
        span.get("event_count", 0) * span.get("mean_interarrival", 0.0),
    )


def _parse_schedule(faults_json: str):
    from repro.faults import load_fault_schedule

    return load_fault_schedule(faults_json)


@dataclass
class JobStatus:
    """Mutable lifecycle record the status endpoint serves."""

    job_id: str
    state: str = "queued"
    cached: bool = False
    attempts: int = 0
    detail: str = ""
    result_key: str = ""
    submitted_at: float = 0.0
    finished_at: Optional[float] = None
    #: Predecessor job ids this job is parked on (empty once released).
    #: A parked job reads as "queued" — the v1 state set is frozen — and
    #: this field is the additive signal that it is waiting, not racing.
    waiting_on: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "cached": self.cached,
            "attempts": self.attempts,
            "result_key": self.result_key,
            "submitted_at": self.submitted_at,
        }
        if self.detail:
            data["detail"] = self.detail
        if self.finished_at is not None:
            data["finished_at"] = self.finished_at
        if self.waiting_on:
            data["waiting_on"] = list(self.waiting_on)
        return data


@dataclass
class JobResult:
    """A completed job's payload, as served by ``…/result``."""

    job_id: str
    result_key: str
    cached: bool
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def summary(self) -> str:
        return str(self.payload.get("summary", ""))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "result_key": self.result_key,
            "cached": self.cached,
            "result": self.payload,
        }
