"""Micro-benchmarks of the simulation substrate itself.

Unlike the figure benches (one experiment per round), these measure the
hot kernels with proper statistics — useful when changing the
integrators or the reservoir cache, whose cost dominates experiment
wall time.
"""

import pytest

from repro.core.builder import SystemKind, build_capybara_system, PlatformSpec
from repro.device.board import Board
from repro.device.mcu import MCU_MSP430FR5969
from repro.device.radio import BLE_CC2650
from repro.device.sensors import SENSOR_TMP36
from repro.energy.bank import BankSpec, CapacitorBank
from repro.energy.booster import OutputBooster
from repro.energy.capacitor import CERAMIC_X5R, EDLC_CPH3225A, TANTALUM_POLYMER
from repro.energy.harvester import RegulatedSupply
from repro.kernel.annotations import ConfigAnnotation
from repro.kernel.executor import IntermittentExecutor, SensorReading
from repro.kernel.tasks import Compute, Sample, Task, TaskGraph


def _platform() -> PlatformSpec:
    return PlatformSpec(
        banks=[
            BankSpec.of_parts("small", [(CERAMIC_X5R, 3), (TANTALUM_POLYMER, 1)]),
            BankSpec.of_parts("big", [(TANTALUM_POLYMER, 3), (EDLC_CPH3225A, 1)]),
        ],
        modes={"m-small": ["small"], "m-big": ["small", "big"]},
        fixed_bank=BankSpec.of_parts("fixed", [(CERAMIC_X5R, 3)]),
        harvester=RegulatedSupply(voltage=3.0, max_power=2e-3),
    )


def test_output_booster_discharge_throughput(benchmark):
    """One full bank discharge through the droop integrator."""
    spec = BankSpec.of_parts("bench", [(TANTALUM_POLYMER, 4)])
    booster = OutputBooster()

    def discharge_once():
        bank = CapacitorBank(spec, initial_voltage=2.4)
        return booster.discharge(bank, 4e-3, 1e6)

    _, browned = benchmark(discharge_once)
    assert browned


def test_power_system_charge_throughput(benchmark):
    """Charging the two-bank reservoir from empty to the target."""

    def charge_once():
        assembly = build_capybara_system(_platform(), SystemKind.CAPY_P)
        return assembly.power_system.charge(0.0, 1e5)

    result = benchmark(charge_once)
    assert result.reached_target


def test_executor_cycle_throughput(benchmark):
    """Simulated seconds per wall second on a sense-loop workload."""

    def build():
        assembly = build_capybara_system(_platform(), SystemKind.CAPY_P)
        board = Board(
            MCU_MSP430FR5969,
            assembly.power_system,
            sensors=[SENSOR_TMP36],
            radio=BLE_CC2650,
        )

        def sense(ctx):
            yield Sample("tmp36")
            yield Compute(20_000)
            return "sense"

        graph = TaskGraph(
            [Task("sense", sense, ConfigAnnotation("m-small"))], entry="sense"
        )
        return IntermittentExecutor(
            board,
            graph,
            assembly.runtime,
            sensor_binding=lambda s, t: SensorReading(value=20.0),
        )

    def run_sixty_seconds():
        executor = build()
        executor.run(60.0)
        return executor.trace

    trace = benchmark(run_sixty_seconds)
    assert trace.counters.get("task_done:sense", 0) > 100


def test_scalar_job_throughput(benchmark):
    """One whole scalar job: GRC on CB-P for 120 simulated seconds with
    telemetry collected, through the CLI/service entry point — the
    engine time of one e2ebench scalar-apps job, at a smaller horizon.
    (The first ~65 s are the cold-start charge: a 60 s horizon would
    time one charge and a single discharge call.)"""
    from repro.apps.grc import scenario
    from repro.service.runner import run_scenario_job
    from repro.spec import canonical_json

    scenario_json = canonical_json(scenario(seed=0, event_count=3))

    def run_job():
        return run_scenario_job(
            scenario_json, system="CB-P", horizon=120.0, collect=True
        )

    payload = benchmark(run_job)
    counters = payload["telemetry"]["metrics"]
    assert counters["power.discharge_calls"]["value"] > 1000
