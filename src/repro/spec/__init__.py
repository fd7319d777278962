"""Declarative scenario specs: one versioned, serialisable description
of a system under evaluation.

The spec layer is the single source of truth connecting the stack:

* :mod:`repro.spec.model` — frozen dataclass schema (parts, banks,
  harvesters, boosters, platforms, scenarios) with canonical JSON
  round-trip and hashing;
* :mod:`repro.spec.build` — rebuild runtime objects from specs (and
  extract specs back from runtime objects).

Typical use::

    from repro.spec import load_scenario, build_scenario_app

    scenario = load_scenario("scenario.json")
    app = build_scenario_app(scenario, kind="CB-P")
    app.run()
"""

from repro.spec.model import (
    SCHEMA_VERSION,
    BankGroupV1,
    BankSpecV1,
    BoosterSpec,
    HarvesterSpec,
    PartSpecV1,
    PlatformSpecV1,
    ScenarioSpec,
    TraceSpecV1,
    canonical_json,
    combined_spec_hash,
    dump_scenario,
    load_scenario,
    spec_hash,
)
from repro.spec.build import (
    ScenarioBuilder,
    bank_from_spec,
    booster_from_spec,
    build_scenario_app,
    harvester_from_spec,
    part_from_spec,
    platform_from_spec,
    platform_to_spec,
    resolve_scenario_traces,
    scenario_trace_hash,
    scenario_trace_hashes,
    trace_from_dict,
)

__all__ = [
    "SCHEMA_VERSION",
    "BankGroupV1",
    "BankSpecV1",
    "BoosterSpec",
    "HarvesterSpec",
    "PartSpecV1",
    "PlatformSpecV1",
    "ScenarioSpec",
    "ScenarioBuilder",
    "TraceSpecV1",
    "bank_from_spec",
    "booster_from_spec",
    "build_scenario_app",
    "canonical_json",
    "combined_spec_hash",
    "dump_scenario",
    "harvester_from_spec",
    "load_scenario",
    "part_from_spec",
    "platform_from_spec",
    "platform_to_spec",
    "resolve_scenario_traces",
    "scenario_trace_hash",
    "scenario_trace_hashes",
    "spec_hash",
    "trace_from_dict",
]
