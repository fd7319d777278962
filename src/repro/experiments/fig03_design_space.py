"""Figure 3: the atomicity-vs-capacitance design space.

Reproduces the paper's measurement: connect the MCU to capacitors of
different sizes and record the longest span of ALU operations that
completes before a power failure.  The resulting curve is the set of
*optimal* design points; to its left a task's atomicity requirement is
infeasible, to its right the system is over-provisioned and spends
unnecessary time recharging (not reactive).

The paper's curve spans roughly 0-4 Mops over 100 uF - 10 mF; we also
report the recharge time at each point — the reactivity cost that
motivates reconfigurability.

The whole grid runs as one :mod:`repro.vec` fleet.  The scalar
integrators below (:func:`atomicity_for_bank`,
:func:`charge_time_for_bank`) are the per-bank references the vec
sweeps replicate step for step; the differential tests pin the two
against each other on the exact Figure 3 grid.

Run: ``python -m repro.experiments.fig03_design_space``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.device.mcu import MCU_MSP430FR5969, MCUModel
from repro.energy.bank import BankSpec, CapacitorBank
from repro.energy.booster import InputBooster, OutputBooster
from repro.energy.capacitor import CapacitorSpec, TANTALUM_POLYMER
from repro.experiments.runner import ExperimentResult, print_result


@dataclass(frozen=True)
class DesignPoint:
    """One point of the Figure 3 curve."""

    capacitance: float
    atomicity_ops: float
    charge_time: float

    @property
    def atomicity_mops(self) -> float:
        return self.atomicity_ops / 1e6


def atomicity_for_bank(
    bank_spec: BankSpec,
    mcu: MCUModel = MCU_MSP430FR5969,
    output_booster: OutputBooster = OutputBooster(),
    charge_voltage: float = 2.4,
) -> float:
    """Longest ALU-op span a fully-charged bank sustains, in operations."""
    bank = CapacitorBank(
        bank_spec, initial_voltage=min(charge_voltage, bank_spec.rated_voltage)
    )
    seconds = output_booster.time_to_brownout(bank, mcu.active_power)
    return seconds * mcu.op_rate


def charge_time_for_bank(
    bank_spec: BankSpec,
    harvest_power: float = 1.0e-3,
    input_booster: InputBooster = InputBooster(),
    harvester_voltage: float = 3.0,
    target: Optional[float] = None,
) -> float:
    """Seconds to charge the bank from empty at *harvest_power*.

    Integrates the charging paths (bypass, cold start, efficiency ramp)
    in small voltage steps up to *target* (default: the booster's charge
    target, capped at the bank's rating).
    """
    if target is None:
        target = min(input_booster.v_charge_target, bank_spec.rated_voltage)
    elapsed = 0.0
    voltage = 0.0
    step = target / 200.0
    while voltage < target - 1e-9:
        v_next = min(target, voltage + step)
        power = input_booster.charge_power(voltage, harvester_voltage, harvest_power)
        if power <= 0.0:
            return float("inf")
        energy = bank_spec.energy_at(v_next) - bank_spec.energy_at(voltage)
        elapsed += energy / power
        voltage = v_next
    return elapsed


def _scaled_bank(part: CapacitorSpec, capacitance: float) -> BankSpec:
    """A bank of *part*-like material totalling *capacitance* farads.

    Fractional scaling models the paper's continuum of capacitor sizes
    (they tested many discrete values; we interpolate the family).
    """
    scale = capacitance / part.effective_capacitance
    scaled = CapacitorSpec(
        name=f"{part.name}-x{scale:.2f}",
        technology=part.technology,
        capacitance=part.capacitance * scale,
        esr=part.esr / max(scale, 1e-9),
        leak_resistance=part.leak_resistance / max(scale, 1e-9),
        rated_voltage=part.rated_voltage,
        volume=part.volume * scale,
        cycle_endurance=part.cycle_endurance,
        derating=part.derating,
    )
    return BankSpec.single(f"sweep-{capacitance * 1e6:.0f}uF", scaled)


def _vec_curve(
    capacitances: List[float], harvest_power: float
) -> List[DesignPoint]:
    """The whole grid as one fleet: both axes in two vectorized sweeps."""
    from repro.vec import atomicity_ops, charge_times, fleet_from_banks

    banks = [_scaled_bank(TANTALUM_POLYMER, c) for c in capacitances]
    charged = fleet_from_banks(
        banks, harvest_power=harvest_power, initial_voltage="target"
    )
    ops = atomicity_ops(charged, MCU_MSP430FR5969.op_rate)
    times = charge_times(fleet_from_banks(banks, harvest_power=harvest_power))
    return [
        DesignPoint(capacitance=c, atomicity_ops=float(o), charge_time=float(t))
        for c, o, t in zip(capacitances, ops, times)
    ]


def run(
    points: int = 13,
    c_min: float = 100e-6,
    c_max: float = 10e-3,
    harvest_power: float = 1.0e-3,
) -> Tuple[ExperimentResult, List[DesignPoint]]:
    """Sweep capacitance logarithmically and measure both axes."""
    capacitances = [
        float(c) for c in np.logspace(np.log10(c_min), np.log10(c_max), points)
    ]
    result = ExperimentResult(
        experiment="fig03-design-space",
        columns=["Capacitance (uF)", "Atomicity (Mops)", "Charge time (s)"],
    )
    curve = _vec_curve(capacitances, harvest_power)
    for capacitance, point in zip(capacitances, curve):
        charge = point.charge_time
        key = f"{capacitance * 1e6:.0f}uF"
        result.values[f"{key}/mops"] = point.atomicity_mops
        result.values[f"{key}/charge_time"] = charge
        result.rows.append(
            [
                f"{capacitance * 1e6:.0f}",
                f"{point.atomicity_mops:.3f}",
                f"{charge:.1f}",
            ]
        )
    result.notes.append(
        "points left of a task's atomicity requirement are infeasible; "
        "points right of it charge longer than necessary (not reactive)"
    )
    return result, curve


def main() -> ExperimentResult:
    result, _ = run()
    print_result(result)
    return result


if __name__ == "__main__":
    main()
