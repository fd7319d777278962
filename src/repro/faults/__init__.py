"""Deterministic fault injection: declarative adversarial conditions.

The faults layer makes failure a first-class, replayable simulation
input — the substrate every robustness test stands on:

* :mod:`repro.faults.model` — :class:`FaultScheduleSpec`: a versioned,
  canonical-JSON-hashable description of harvester blackouts, brown-out
  sags, ESR/leakage spikes, stuck bank switches, and campaign worker
  crashes;
* :mod:`repro.faults.inject` — :func:`build_injector` /
  :func:`apply_faults`: compile a schedule into the hooks the energy,
  simulation, and campaign layers consult, bit-identically for a fixed
  seed.

Typical use::

    from repro.faults import load_fault_schedule, apply_faults

    schedule = load_fault_schedule("faults.json")
    app = build_temp_alarm(SystemKind.CAPY_P, seed=1)
    apply_faults(app, schedule)
    app.run(600.0)

or, from the command line::

    python -m repro.cli run --spec scenario.json --inject faults.json
    python -m repro.cli run-all --inject faults.json
"""

from repro.faults.model import (
    CAMPAIGN_FAULT_KINDS,
    FAULT_SCHEMA_VERSION,
    SIM_FAULT_KINDS,
    FaultScheduleSpec,
    FaultSpec,
    dump_fault_schedule,
    fault_schedule_hash,
    load_fault_schedule,
)
from repro.faults.inject import (
    FaultInjector,
    WorkerChaos,
    apply_faults,
    build_injector,
    record_fault_events,
)

__all__ = [
    "CAMPAIGN_FAULT_KINDS",
    "FAULT_SCHEMA_VERSION",
    "SIM_FAULT_KINDS",
    "FaultInjector",
    "FaultScheduleSpec",
    "FaultSpec",
    "WorkerChaos",
    "apply_faults",
    "build_injector",
    "dump_fault_schedule",
    "fault_schedule_hash",
    "load_fault_schedule",
    "record_fault_events",
]
