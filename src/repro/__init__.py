"""Capybara: a reconfigurable energy storage architecture for
energy-harvesting devices — full-system simulation reproduction of
Colin, Ruppel & Lucia (ASPLOS 2018).

The curated public API lives at this top level:

* :class:`PowerSystem` / :class:`SystemBuilder` / :class:`SystemKind` —
  assemble the paper's power systems.
* :func:`run_experiment` / :func:`list_experiments` — the registered
  paper figures and studies.
* :class:`ScenarioSpec` / :func:`load_scenario` / :func:`dump_scenario`
  / :func:`build_scenario_app` / :func:`build_system` — declarative,
  versioned system descriptions (:mod:`repro.spec`): one JSON document
  describes a platform + workload and drives the builder, the result
  cache, parallel workers, and the CLI.
* :class:`FleetState` / :class:`FleetKernel` / :func:`build_fleet` /
  :func:`vec_capabilities` — the vectorized fleet backend
  (:mod:`repro.vec`): thousands of devices as struct-of-arrays NumPy
  state advanced in lockstep, behind the grid-shaped experiments and
  ``run --backend vec``.
* :class:`ReplayTrace` / :class:`TraceReader` / :class:`TraceWriter` /
  :func:`record_trace` — recorded environment traces
  (:mod:`repro.traces`): a versioned, chunk-checksummed on-disk format
  for sampled harvesting environments, replayable bit-identically
  through both backends and pinned into scenarios by content digest.
* :class:`Telemetry` / :func:`telemetry_scope` — opt-in structured
  metrics and tracing (:mod:`repro.observability`).
* :class:`FaultScheduleSpec` / :func:`load_fault_schedule` /
  :func:`apply_faults` — deterministic fault injection
  (:mod:`repro.faults`): declarative, hashable schedules of harvester
  blackouts, brown-outs, component degradation, and campaign worker
  chaos, replayable bit-identically for a fixed seed.
* :class:`JobRequest` / :class:`JobStatus` / :class:`JobResult` — the
  job-service wire format (:mod:`repro.service`): submit canonical
  scenario JSON to a long-lived ``repro serve`` instance and get back
  results bit-identical to a local ``repro run --spec``.
* :mod:`repro.units` — unit helpers (``micro_farads``, ``milli_watts``,
  ...), re-exported here for convenience.

Deeper layers remain importable directly and are stable:

* :mod:`repro.energy` — circuit-level substrate: capacitors, banks,
  harvesters, boosters, switches, and the reconfigurable reservoir.
* :mod:`repro.device` — board-level hardware: MCUs, sensors, radios.
* :mod:`repro.kernel` — the intermittent-computing runtime: task DSL,
  non-volatile memory, Capybara annotations, executors.
* :mod:`repro.core` — the assembled contribution: energy modes, the
  power system, provisioning, allocation, and system builders.
* :mod:`repro.apps` — the paper's evaluation applications and rigs.
* :mod:`repro.experiments` — the experiment registry and harnesses.

Quickstart::

    from repro.apps import build_temp_alarm
    from repro import SystemKind, Telemetry, telemetry_scope

    with telemetry_scope() as tel:
        app = build_temp_alarm(SystemKind.CAPY_P, seed=1)
        trace = app.run(horizon=600.0)
    print(len(trace.packets), "alarm packets")
    print(tel.metrics.counter("kernel.reboots").value, "reboots")
"""

from repro.core import EnergyMode, ModeRegistry, SystemKind
from repro.core.builder import SystemBuilder
from repro.core.powersystem import PowerSystem
from repro.errors import ReproError
from repro.observability import (
    NULL_TELEMETRY,
    Telemetry,
    current_telemetry,
    telemetry_scope,
)
from repro.units import (
    capacitor_energy,
    farads,
    joules,
    micro_amps,
    micro_farads,
    micro_watts,
    milli_amps,
    milli_farads,
    milli_joules,
    milli_volts,
    milli_watts,
    seconds,
    volts,
    voltage_for_energy,
    watts,
)

__version__ = "2.3.0"

#: Generation of the frozen public facade.  Everything in ``__all__`` is
#: covered by this contract; the service health endpoint reports it so
#: remote clients can verify compatibility before submitting work.
__api_version__ = "v1"

__all__ = [
    "__version__",
    "__api_version__",
    # systems
    "PowerSystem",
    "SystemBuilder",
    "SystemKind",
    "EnergyMode",
    "ModeRegistry",
    # experiments (lazily resolved)
    "run_experiment",
    "list_experiments",
    # declarative specs (lazily resolved)
    "ScenarioSpec",
    "PlatformSpecV1",
    "load_scenario",
    "dump_scenario",
    "spec_hash",
    "build_scenario_app",
    "build_system",
    # vectorized fleet backend (lazily resolved)
    "FleetState",
    "FleetKernel",
    "build_fleet",
    "vec_capabilities",
    # recorded environment traces (lazily resolved)
    "ReplayTrace",
    "TraceReader",
    "TraceWriter",
    "record_trace",
    # observability
    "Telemetry",
    "telemetry_scope",
    "current_telemetry",
    "NULL_TELEMETRY",
    # fault injection (lazily resolved)
    "FaultScheduleSpec",
    "FaultSpec",
    "load_fault_schedule",
    "dump_fault_schedule",
    "fault_schedule_hash",
    "apply_faults",
    # job service wire format (lazily resolved)
    "JobRequest",
    "JobStatus",
    "JobResult",
    # errors
    "ReproError",
    # unit helpers
    "seconds",
    "farads",
    "milli_farads",
    "micro_farads",
    "volts",
    "milli_volts",
    "milli_amps",
    "micro_amps",
    "joules",
    "milli_joules",
    "watts",
    "milli_watts",
    "micro_watts",
    "capacitor_energy",
    "voltage_for_energy",
]

def __getattr__(name: str):
    # Experiment entry points import lazily: the experiments package
    # pulls in the whole harness stack, which `import repro` should not.
    if name in ("run_experiment", "list_experiments"):
        from repro.experiments import registry

        return getattr(registry, name)
    # Spec layer imports lazily too: `import repro` stays cheap, and the
    # energy/core modules it would pull in are only loaded on demand.
    if name in (
        "ScenarioSpec",
        "PlatformSpecV1",
        "load_scenario",
        "dump_scenario",
        "spec_hash",
        "build_scenario_app",
    ):
        from repro import spec as _spec

        return getattr(_spec, name)
    if name == "build_system":
        from repro.core.builder import build_system

        return build_system
    # Vectorized fleet backend: NumPy and the spec layer load on demand.
    if name in ("FleetState", "FleetKernel", "build_fleet", "vec_capabilities"):
        from repro import vec as _vec

        return getattr(_vec, name)
    # Recorded environment traces: kept off the import critical path for
    # the same reason.
    if name in ("ReplayTrace", "TraceReader", "TraceWriter", "record_trace"):
        from repro import traces as _traces

        return getattr(_traces, name)
    # Fault layer imports lazily for the same reason as the spec layer.
    if name in (
        "FaultScheduleSpec",
        "FaultSpec",
        "load_fault_schedule",
        "dump_fault_schedule",
        "fault_schedule_hash",
        "apply_faults",
    ):
        from repro import faults as _faults

        return getattr(_faults, name)
    # Service wire format: pulling in repro.service (asyncio, the worker
    # pool) stays off the `import repro` critical path.
    if name in ("JobRequest", "JobStatus", "JobResult"):
        from repro.service import jobs as _jobs

        return getattr(_jobs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
