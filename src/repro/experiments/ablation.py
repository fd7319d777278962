"""Design-choice ablations (Sections 5.1-5.2).

Three studies that quantify the design decisions DESIGN.md calls out:

1. **Bypass diode** — charge time from empty with and without the input
   booster's cold-start bypass (the paper observed the bypass cuts
   charge time by at least an order of magnitude).
2. **Reconfiguration mechanism** — cold-start time of the switched-bank
   ``C``-control mechanism versus the Vtop-threshold alternative, which
   must drag the full capacitance above the booster minimum before any
   usable energy exists; plus the area/leakage/wear accounting.
3. **NO vs NC switch polarity** — the adversarial input-power hazard:
   with normally-open switches, a blackout longer than latch retention
   drops the reservoir to the small default bank, and a task too big
   for it wastes its first execution attempt; normally-closed switches
   revert to full capacity (slow but safe).

Studies 1 and 2 are closed-form charge integrals, evaluated as
:mod:`repro.vec` fleets (``charge_times``); the scalar reference they
replicate is ``fig03_design_space.charge_time_for_bank``.

Run: ``python -m repro.experiments.ablation``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.builder import SystemKind, build_capybara_system
from repro.device.board import Board
from repro.device.mcu import MCU_MSP430FR5969
from repro.device.radio import BLE_CC2650
from repro.device.sensors import SENSOR_TMP36
from repro.energy.bank import BankSpec
from repro.energy.booster import InputBooster
from repro.energy.capacitor import CERAMIC_X5R, TANTALUM_POLYMER
from repro.energy.environment import PiecewiseTrace
from repro.energy.harvester import SolarPanel
from repro.energy.switch import BankSwitch, SwitchPolarity
from repro.energy.threshold import ThresholdReconfigurator
from repro.experiments.runner import ExperimentResult, print_result
from repro.kernel.annotations import ConfigAnnotation
from repro.kernel.executor import IntermittentExecutor
from repro.kernel.tasks import Compute, Task, TaskGraph

from repro.core.builder import PlatformSpec


# ---------------------------------------------------------------------------
# 1. Bypass diode ablation
# ---------------------------------------------------------------------------

def bypass_ablation(
    bank_spec: BankSpec = BankSpec.single("probe", TANTALUM_POLYMER, 4),
    harvest_power: float = 1e-3,
) -> ExperimentResult:
    """Charge-from-empty time with and without the bypass diode."""
    from repro.vec import charge_times, fleet_from_banks

    state = fleet_from_banks(
        [bank_spec, bank_spec],
        input_booster=[InputBooster(bypass=True), InputBooster(bypass=False)],
        harvest_power=harvest_power,
    )
    with_bypass, without_bypass = (float(t) for t in charge_times(state))
    result = ExperimentResult(
        experiment="ablation-bypass",
        columns=["Configuration", "Cold charge time"],
    )
    result.values["with_bypass"] = with_bypass
    result.values["without_bypass"] = without_bypass
    result.values["speedup"] = without_bypass / with_bypass
    result.rows.append(["with bypass", f"{with_bypass:.1f}s"])
    result.rows.append(["without bypass", f"{without_bypass:.1f}s"])
    result.notes.append(
        f"bypass speedup: {without_bypass / with_bypass:.1f}x "
        "(paper: at least an order of magnitude)"
    )
    return result


# ---------------------------------------------------------------------------
# 2. Switched banks vs Vtop threshold
# ---------------------------------------------------------------------------

def mechanism_ablation(harvest_power: float = 1e-3) -> ExperimentResult:
    """Cold-start comparison of the two reconfiguration mechanisms.

    Both must provide a small energy quantum (a sensor task's worth).
    The C-control mechanism charges only its small bank; the threshold
    mechanism hauls the full capacitance up past the booster minimum.
    """
    import numpy as np

    from repro.vec import charge_times, fleet_from_banks

    small = BankSpec.single("small", CERAMIC_X5R, 4)
    full_array = BankSpec.of_parts(
        "full", [(CERAMIC_X5R, 4), (TANTALUM_POLYMER, 8)]
    )
    threshold = ThresholdReconfigurator(bank_spec=full_array)
    switch = BankSwitch(name="bank1")

    state = fleet_from_banks([small, full_array], harvest_power=harvest_power)
    # C control: cold start charges just the default small bank to the
    # booster target.  Vtop control: the full capacitance must reach at
    # least v_top_min before the stored energy is usable at all.
    targets = np.asarray([state.charge_target[0], threshold.v_top_min])
    switched_time, threshold_time = (
        float(t) for t in charge_times(state, target=targets)
    )

    result = ExperimentResult(
        experiment="ablation-mechanism",
        columns=["Mechanism", "Cold start", "Area", "Leakage", "Wear bound"],
    )
    result.values["switched_cold_start"] = switched_time
    result.values["threshold_cold_start"] = threshold_time
    result.values["area_ratio"] = threshold.area_ratio_to(switch)
    result.values["leakage_ratio"] = threshold.leakage_ratio_to(switch)
    result.rows.append(
        [
            "switched banks (C control)",
            f"{switched_time:.1f}s",
            f"{switch.area * 1e6:.0f} mm^2",
            f"{switch.leakage_current * 1e9:.0f} nA",
            "unbounded",
        ]
    )
    result.rows.append(
        [
            "Vtop threshold (EEPROM pot)",
            f"{threshold_time:.1f}s",
            f"{threshold.area * 1e6:.0f} mm^2",
            f"{threshold.leakage_current * 1e9:.0f} nA",
            f"{threshold.write_endurance} writes",
        ]
    )
    result.notes.append(
        "the paper chose C control for its cold-start advantage and "
        "half-the-area, two-thirds-the-leakage footprint"
    )
    return result


# ---------------------------------------------------------------------------
# 3. NO vs NC polarity under adversarial input power
# ---------------------------------------------------------------------------

@dataclass
class PolarityOutcome:
    """Completions of a big task under a blackout-riddled power trace."""

    polarity: str
    completions: int
    power_failures: int
    first_completion_time: float


#: Light window of the adversarial trace, seconds.  Shorter than the
#: big configuration's cold charge time, so progress must accumulate
#: across windows: retained charge carries a normally-closed system
#: (and a robust normally-open one) to completion, while a naive
#: normally-open runtime burns every window re-discovering that its
#: believed configuration is gone.
ADVERSARIAL_LIGHT = 20.0
#: Dark window, seconds; longer than the 180 s latch retention so every
#: blackout reverts the switches.
ADVERSARIAL_DARK = 200.0


def _polarity_run(
    polarity: SwitchPolarity, horizon: float, suspect_on_failure: bool = True
) -> PolarityOutcome:
    """A big config task under repeated >retention blackouts.

    The adversarial trace from Section 5.2: power arrives in windows
    shorter than the big configuration's charge time, then disappears
    past the latch retention, forgetting the configuration.
    """
    small = BankSpec.of_parts("small", [(TANTALUM_POLYMER, 2)])
    big = BankSpec.of_parts("big", [(TANTALUM_POLYMER, 16)])
    breakpoints = []
    t = ADVERSARIAL_LIGHT
    dark = True
    while t < horizon:
        breakpoints.append((t, 0.0 if dark else 24.0))
        t += ADVERSARIAL_DARK if dark else ADVERSARIAL_LIGHT
        dark = not dark
    spec = PlatformSpec(
        banks=[small, big],
        modes={"m-small": ["small"], "m-big": ["small", "big"]},
        fixed_bank=big,
        harvester=SolarPanel(irradiance=PiecewiseTrace(breakpoints, initial=24.0)),
        switch_polarity=polarity,
    )
    assembly = build_capybara_system(spec, SystemKind.CAPY_P)
    assembly.runtime.suspect_on_failure = suspect_on_failure
    board = Board(
        MCU_MSP430FR5969,
        assembly.power_system,
        sensors=[SENSOR_TMP36],
        radio=BLE_CC2650,
    )

    def big_task(ctx):
        # ~3 s of compute (~12 mJ): far beyond the small default bank.
        yield Compute(3_000_000)
        ctx.write("done", ctx.read("done", 0) + 1)
        return None

    graph = TaskGraph(
        [Task("big", big_task, ConfigAnnotation("m-big"))], entry="big"
    )
    executor = IntermittentExecutor(
        board, graph, assembly.runtime, max_power_failures_per_task=100_000
    )
    executor.run(horizon)
    completions = executor.trace.counters.get("task_done:big", 0)
    first = float("inf")
    if completions:
        first = min(
            (
                record.time
                for record in executor.trace.states
                if record.state == "running"
            ),
            default=float("inf"),
        )
    return PolarityOutcome(
        polarity=polarity.value,
        completions=completions,
        power_failures=executor.trace.counters.get("power_failures", 0),
        first_completion_time=first,
    )


def polarity_ablation(horizon: float = 2000.0) -> ExperimentResult:
    """NO vs NC polarity, with naive and robust runtimes.

    Three configurations:

    * **NO + naive runtime** — the Section 5.2 hazard: every blackout
      reverts the reservoir to the small default bank, the runtime keeps
      trusting its believed configuration, and execution attempts fail
      indefinitely;
    * **NO + robust runtime** — our suspect-flag mitigation: a failure
      forces the next plan to re-issue the reconfiguration, wasting one
      attempt per blackout but recovering;
    * **NC + naive runtime** — reversion restores *full* capacity, so
      even the naive runtime completes on its first post-boot attempt.
    """
    result = ExperimentResult(
        experiment="ablation-polarity",
        columns=["Polarity", "Runtime", "Task completions", "Power failures"],
    )
    cases = [
        (SwitchPolarity.NORMALLY_OPEN, False, "naive"),
        (SwitchPolarity.NORMALLY_OPEN, True, "robust"),
        (SwitchPolarity.NORMALLY_CLOSED, False, "naive"),
    ]
    for polarity, suspect, label in cases:
        outcome = _polarity_run(polarity, horizon, suspect_on_failure=suspect)
        key = f"{outcome.polarity}-{label}"
        result.values[f"{key}/completions"] = float(outcome.completions)
        result.values[f"{key}/power_failures"] = float(outcome.power_failures)
        result.rows.append(
            [
                outcome.polarity,
                label,
                str(outcome.completions),
                str(outcome.power_failures),
            ]
        )
    result.notes.append(
        "NO switches forget the big configuration each blackout: a naive "
        "runtime retries indefinitely on the insufficient default bank; "
        "the robust runtime wastes one attempt then re-configures; NC "
        "reverts to full capacity and needs no mitigation"
    )
    return result


def main() -> None:
    print_result(bypass_ablation())
    print()
    print_result(mechanism_ablation())
    print()
    # The polarity study runs full intermittent-app simulations with a
    # time-varying (piecewise) harvester on the scalar engine.
    print_result(polarity_ablation())


if __name__ == "__main__":
    main()
