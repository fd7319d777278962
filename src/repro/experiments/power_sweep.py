"""Input-power sensitivity (extension study).

The paper evaluates at fixed harvesting conditions per rig.  A natural
question it leaves open: how does reconfigurability's advantage move
with input power?  This study sweeps the TempAlarm harvester over a
quarter to four times its nominal level and measures Fixed vs Capy-P
accuracy on the same event schedule.

Expected shape: at generous power the Fixed system's big-bank recharge
shrinks and it closes some of the gap; as power starves, Fixed's duty
cycle collapses (its recharge grows linearly in 1/P) while Capybara's
small mode stays reactive far longer — the advantage *widens* exactly
where energy harvesting actually operates.

Every (harvest scale, system) grid point is an independent
deterministic run, declared as its own
:class:`~repro.experiments.registry.Run` so the dispatcher can run it
as one task; each run re-derives the schedule and noise streams from
``(seed, name)``, making pooled results bit-identical to serial ones.

Run: ``python -m repro.experiments.power_sweep``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.apps.base import assemble_app, make_binding
from repro.apps.rigs import EventSchedule, ThermalRig
from repro.apps.temp_alarm import (
    ALARM_HIGH,
    ALARM_LOW,
    APP_NAME,
    EVENT_DURATION,
    WARMUP,
    make_banks,
    make_graph,
)
from repro.core.builder import SystemKind
from repro.device.mcu import MCU_MSP430FR5969
from repro.device.radio import BLE_CC2650
from repro.device.sensors import SENSOR_TMP36
from repro.energy.harvester import ScaledHarvester
from repro.experiments import metrics
from repro.experiments.registry import Run
from repro.experiments.runner import ExperimentResult, percent, print_result
from repro.sim.rand import RandomStreams
from repro.sim.trace import Trace

KINDS = [SystemKind.CONTINUOUS, SystemKind.FIXED, SystemKind.CAPY_P]
DEFAULT_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_EVENTS = 12


@dataclass
class PowerSweepData:
    result: ExperimentResult
    #: system value -> accuracy per scale, in sweep order.
    series: Dict[str, List[float]]


def _run_point(
    seed: int, event_count: int, scale: float, kind: SystemKind
) -> Trace:
    """One (harvest scale, system) grid point: a declared run's body.

    Rebuilds the whole rig/schedule/app stack from the seed so grid
    points are fully independent: the event schedule derives from
    ``(seed, "events")`` and is therefore identical at every point.
    """
    streams = RandomStreams(seed)
    schedule = EventSchedule.poisson(
        streams.get("events"),
        mean_interarrival=144.0,
        count=event_count,
        duration=EVENT_DURATION,
        kind="temperature",
        start_offset=WARMUP,
    )
    rig = ThermalRig(
        schedule,
        horizon=schedule.horizon + 240.0,
        alarm_low=ALARM_LOW,
        alarm_high=ALARM_HIGH,
    )
    binding = make_binding({"tmp36": rig.temp_reading})
    horizon = schedule.horizon + 120.0
    spec = make_banks()
    spec.harvester = ScaledHarvester(spec.harvester, power_scale=scale)
    instance = assemble_app(
        name=APP_NAME,
        kind=kind,
        spec=spec,
        mcu=MCU_MSP430FR5969,
        graph=make_graph(),
        binding=binding,
        schedule=schedule,
        sensors=[SENSOR_TMP36],
        radio=BLE_CC2650,
        rng=streams.get(f"radio-{kind.value}-{scale}"),
        extras={"rig": rig},
    )
    instance.run(horizon)
    return instance.trace


def _accuracy_from_traces(dut: Trace, reference: Trace) -> float:
    """TA accuracy computed on traces (same rule as metrics.ta_accuracy)."""
    ref_ids = set(metrics.reported_ids(reference, "alarm"))
    if not ref_ids:
        return 0.0
    dut_ids = set(metrics.reported_ids(dut, "alarm"))
    return len(ref_ids & dut_ids) / len(ref_ids)


# ---------------------------------------------------------------------------
# The same grid as one vec fleet (the kernel benchmarks' device grid)
# ---------------------------------------------------------------------------

#: Systems the vec grid holds.  CONTINUOUS is a tethered reference
#: with no reservoir dynamics, so the fleet model has nothing to say
#: about it; FIXED simulates the soldered-down union bank and CAPY_P
#: its reactive small mode.
VEC_KINDS = (SystemKind.FIXED, SystemKind.CAPY_P)


def build_vec_fleet(scales: Sequence[float], replicates: int = 1):
    """The (scale x system) grid as one vec fleet, plus its labels.

    Each grid point is the TempAlarm platform under a scaled harvester:
    FIXED devices simulate the hardwired union bank, CAPY_P devices the
    reactive small (sense) mode.  *replicates* repeats the grid — the
    1024-device benchmark fleet is exactly this with more scales and
    replicates.  Returns ``(state, labels)`` with labels in device order.
    """
    from repro.apps.temp_alarm import MODE_SENSE, scenario
    from repro.spec import ScenarioSpec
    from repro.vec import FIXED_BANK_MODE, build_fleet

    base = scenario()
    grid = [
        (scale, kind)
        for _ in range(replicates)
        for scale in scales
        for kind in VEC_KINDS
    ]
    modes = [
        FIXED_BANK_MODE if kind is SystemKind.FIXED else MODE_SENSE
        for _, kind in grid
    ]
    scenarios = []
    for _, kind in grid:
        spec = ScenarioSpec(
            name=base.name,
            system=kind.value,
            platform=base.platform,
            workload=base.workload,
        )
        scenarios.append(spec)
    state = build_fleet(
        scenarios,
        modes=modes,
        power_scales=[scale for scale, _ in grid],
    )
    labels = [f"{scale:g}x/{kind.value}" for scale, kind in grid]
    return state, labels


def declared_runs(
    seed: int = 0,
    event_count: int = DEFAULT_EVENTS,
    scales: Sequence[float] = DEFAULT_SCALES,
) -> List[Run]:
    """One :func:`_run_point` run per (harvest scale, system) grid point
    (registry hook: each run is its own dispatcher task)."""
    return [
        Run(f"{scale:g}x/{kind.value}", _run_point, (seed, event_count, scale, kind))
        for scale in scales
        for kind in KINDS
    ]


def run(
    seed: int = 0,
    event_count: int = DEFAULT_EVENTS,
    scales: Sequence[float] = DEFAULT_SCALES,
    traces: Optional[Iterable[Trace]] = None,
) -> PowerSweepData:
    """Run the sweep; *traces* are the results of :func:`declared_runs`
    with the same arguments, in declared order (``None`` runs them in
    this process, one at a time)."""
    if traces is None:
        traces = (run.fn(*run.args) for run in declared_runs(seed, event_count, scales))
    traces = iter(traces)
    result = ExperimentResult(
        experiment="power-sweep",
        columns=["HarvestScale", "System", "Accuracy"],
    )
    result.notes.append(f"seed={seed} events={event_count}")
    series: Dict[str, List[float]] = {kind.value: [] for kind in KINDS}

    for scale in scales:
        by_kind = {kind: next(traces) for kind in KINDS}
        reference = by_kind[SystemKind.CONTINUOUS]
        for kind in KINDS:
            if kind is SystemKind.CONTINUOUS:
                accuracy = 1.0 if metrics.reported_ids(reference) else 0.0
            else:
                accuracy = _accuracy_from_traces(by_kind[kind], reference)
            series[kind.value].append(accuracy)
            result.values[f"{scale}/{kind.value}"] = accuracy
            result.rows.append([f"{scale:g}x", kind.value, percent(accuracy)])
    return PowerSweepData(result=result, series=series)


def main(seed: int = 0, traces=None) -> ExperimentResult:
    data = run(seed=seed, traces=traces)
    print_result(data.result)
    return data.result


if __name__ == "__main__":
    main()
