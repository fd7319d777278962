"""Golden scalar payloads: the event engine's output bytes, pinned.

Each case runs one short scalar simulation with telemetry collected
and pins the sha256 of its canonical payload (summary, counters, the
full trace dict and the telemetry snapshot).  Together they cover the
scalar engine's executor -> power system -> reservoir -> bank chain on
every path a paper figure takes:

* {GRC, CSR, TempAlarm} x {Pwr, Fixed, CB-R, CB-P} through
  :func:`~repro.service.runner.run_scenario_job` (the CLI and service
  path);
* TempAlarm CB-P under a ``leakage_spike`` + ``switch_stuck`` fault
  schedule (fault-window edges and stuck-at overrides bound the
  reservoir's active-set cache);
* TempAlarm on the Vtop-threshold system (a charge target that varies
  with time, read through ``charge_target_source``);
* the dynamic-checkpointing executor on its over-sized atomic region.

A hot-path optimisation must keep every digest: the simulation is
specified bit for bit, not to a tolerance.  Regenerate only after an
intended change to the simulation itself::

    PYTHONPATH=src python tests/test_golden_payloads.py --regen
"""

import hashlib
import json

import pytest

from repro.apps import csr, grc, temp_alarm
from repro.observability.telemetry import Telemetry, telemetry_scope
from repro.service.runner import run_scenario_job
from repro.sim.export import trace_to_dict
from repro.spec import canonical_json

#: Horizons short enough for tier-1, long enough that every system
#: charges, boots, runs tasks, browns out and (Capybara) reconfigures.
APP_CASES = {
    "grc": (grc.scenario, 90.0),
    "csr": (csr.scenario, 90.0),
    "temp_alarm": (temp_alarm.scenario, 450.0),
}
SYSTEMS = ("Pwr", "Fixed", "CB-R", "CB-P")

FAULTS = {
    "fault_schema_version": 1,
    "name": "golden-leak-stuck",
    "seed": 3,
    "faults": [
        {"kind": "leakage_spike", "start": 20.0, "duration": 300.0, "factor": 50.0},
        {"kind": "switch_stuck", "start": 320.0, "duration": 60.0,
         "bank": "radio", "stuck": "open"},
    ],
}

#: sha256 of each case's canonical payload.
GOLDEN = {
    "grc/Pwr": "ade4a759295c4c9dd26c1e05a7a01341c01748ff445fe667b486d5916d7eb645",
    "grc/Fixed": "043c6daa76b021c8d701a9ddab347c9670ee32f83d5b0ba26395650a9329ebba",
    "grc/CB-R": "b72b6d175fac1ac00b265c22465e5662eeda6cbb4685eaa41890eb25f8c9fe57",
    "grc/CB-P": "20fdc84ce3af2b866d9ab12f7a8201452e8b10970dd9db80e7f3c34277409148",
    "csr/Pwr": "c010b3d4a06243579d3a21d5211dc7db1cd7abbbb6ee7d67897505d17f5e6345",
    "csr/Fixed": "1e54897da08229efec42d3bd491a07b618c861f4c28b21c20b0de5cf4f68f127",
    "csr/CB-R": "596d357f86801a8e8bdf85f12e38a5c355b663ae2d6e9aa49f742cea5867597e",
    "csr/CB-P": "8dd54853b6f1d912bd0eec70c53df9a5cc8155a0e11a752e5774b4e5a2a3ef34",
    "temp_alarm/Pwr": "9fdc6016cea5f8c805fe37b7b295f5b3941912f6de58d2d07b2aaafe6c6d8130",
    "temp_alarm/Fixed": "9c7f53b4cb20ffbfcef3462331f613b5e4ea8a502d508710ac6b599371027872",
    "temp_alarm/CB-R": "00b0ed8496eb851e851c7909840c86278df3946c427119ab2fa535a760cb96a7",
    "temp_alarm/CB-P": "de4580bc50fd21cadf459ae2cf746e200052f4213cef6988e3484f5ef67c562a",
    "temp_alarm/CB-P/faulted": "8c4923db9082d9d54933231104c20f083cdf7cfb978a35663c1f6de235d28eb2",
    "temp_alarm/threshold": "0e0f159f7fcf1694788998cc635e27c02e432b5ccdff287762fed548c29d8b1f",
    "checkpoint/voltage": "69c32fb6edccbc24eb82a864fcb120c840e97094bcbe6a942b54b3acf8f28cb6",
}


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _app_payload(app: str, system: str, faults=None) -> dict:
    make, horizon = APP_CASES[app]
    return run_scenario_job(
        canonical_json(make(seed=11, event_count=2)),
        system=system,
        horizon=horizon,
        faults_json=json.dumps(faults) if faults is not None else None,
        collect=True,
    )


def _traced(run) -> dict:
    """Run ``run()`` (returning a trace) in a fresh telemetry scope and
    shape the result like a scalar job payload."""
    telemetry = Telemetry()
    with telemetry_scope(telemetry):
        trace = run()
    return {
        "counters": dict(trace.counters),
        "trace": trace_to_dict(trace),
        "telemetry": telemetry.snapshot(),
    }


def _threshold_payload() -> dict:
    from repro.apps.base import make_binding
    from repro.apps.rigs import EventSchedule, ThermalRig
    from repro.core.threshold_system import build_threshold_system
    from repro.device.board import Board
    from repro.device.mcu import MCU_MSP430FR5969
    from repro.device.radio import BLE_CC2650
    from repro.device.sensors import SENSOR_TMP36
    from repro.kernel.executor import IntermittentExecutor
    from repro.sim.rand import RandomStreams

    def run():
        schedule = EventSchedule.poisson(
            RandomStreams(5).get("events"),
            mean_interarrival=60.0,
            count=2,
            duration=temp_alarm.EVENT_DURATION,
            kind="temperature",
            start_offset=temp_alarm.WARMUP,
        )
        rig = ThermalRig(
            schedule,
            horizon=schedule.horizon + 240.0,
            alarm_low=temp_alarm.ALARM_LOW,
            alarm_high=temp_alarm.ALARM_HIGH,
        )
        assembly = build_threshold_system(temp_alarm.make_banks())
        board = Board(
            MCU_MSP430FR5969,
            assembly.power_system,
            sensors=[SENSOR_TMP36],
            radio=BLE_CC2650,
        )
        executor = IntermittentExecutor(
            board,
            temp_alarm.make_graph(),
            assembly.runtime,
            sensor_binding=make_binding({"tmp36": rig.temp_reading}),
        )
        return executor.run(450.0)

    return _traced(run)


def _checkpoint_payload() -> dict:
    from repro.experiments import checkpoint_study
    from repro.kernel.checkpoint import CheckpointingExecutor, CheckpointPolicy

    def run():
        executor = CheckpointingExecutor(
            checkpoint_study._board(),
            checkpoint_study._graph(),
            policy=CheckpointPolicy.VOLTAGE_THRESHOLD,
            checkpoint_threshold=1.1,
        )
        return executor.run(150.0)

    return _traced(run)


def payload(case: str) -> dict:
    if case == "temp_alarm/CB-P/faulted":
        return _app_payload("temp_alarm", "CB-P", FAULTS)
    if case == "temp_alarm/threshold":
        return _threshold_payload()
    if case == "checkpoint/voltage":
        return _checkpoint_payload()
    app, system = case.split("/")
    return _app_payload(app, system)


def payload_digest(case: str) -> str:
    return hashlib.sha256(canonical(payload(case))).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_payload_matches_golden(case):
    assert payload_digest(case) == GOLDEN[case]


def test_cases_exercise_the_engine():
    """The pins are only worth their bytes if the short runs do work:
    every intermittent case browns out, the Capybara ones reconfigure
    and reach the alarm burst, and the checkpointing one checkpoints."""
    for system in ("Fixed", "CB-R", "CB-P"):
        counters = _app_payload("temp_alarm", system)["counters"]
        assert counters["power_failures"] > 0
    counters = _app_payload("temp_alarm", "CB-P")["counters"]
    assert counters["reconfigurations"] > 0
    assert counters["task_done:alarm"] > 0
    assert _checkpoint_payload()["counters"]["checkpoints"] > 0


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import sys

    if "--regen" in sys.argv:
        for case in GOLDEN:
            print(f'    "{case}": "{payload_digest(case)}",')
