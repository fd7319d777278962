"""Figure 4: provisioning atomicity by capacitor volume and type.

The paper compares banks built from ceramic X5R parts against banks of
ultra-compact CPH3225A supercapacitors, in the highest-density package,
paralleled one part at a time.  Two observations must reproduce:

1. an equal or larger volume of ceramics provides (much) less
   atomicity than supercapacitors — ceramic density is low;
2. the supercapacitor's atomicity grows with **diminishing increase**
   on the log-log plot: a single part's ~160 ohm ESR strands most of
   its stored energy below the output booster's droop floor, and each
   added parallel part both adds capacity and halves the ESR, so the
   early parts pay off disproportionately and the curve's slope decays
   toward linear.

The whole (technology, part count) grid runs as one :mod:`repro.vec`
fleet; :func:`atomicity_by_parts` is the per-bank scalar reference the
differential tests pin it against.

Run: ``python -m repro.experiments.fig04_volume``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.device.mcu import MCU_MSP430FR5969, MCUModel
from repro.energy.bank import BankSpec, CapacitorBank
from repro.energy.booster import OutputBooster
from repro.energy.capacitor import CERAMIC_X5R, EDLC_CPH3225A, CapacitorSpec
from repro.errors import PowerSystemError
from repro.experiments.runner import ExperimentResult, print_result


@dataclass(frozen=True)
class VolumePoint:
    """One (volume, atomicity) point for one technology."""

    technology: str
    parts: int
    volume_mm3: float
    atomicity_mops: float


def atomicity_by_parts(
    part: CapacitorSpec,
    count: int,
    mcu: MCUModel = MCU_MSP430FR5969,
    output_booster: OutputBooster = OutputBooster(),
    charge_voltage: float = 2.4,
) -> float:
    """Mops sustained by *count* parallel parts from a full charge.

    Returns 0 when the bank cannot deliver the MCU's power at all
    (ESR droop floor above the charge voltage — the infeasible region).
    """
    spec = BankSpec.single(f"{part.name}-x{count}", part, count)
    v_start = min(charge_voltage, spec.rated_voltage)
    floor = output_booster.min_bank_voltage(spec.esr, mcu.active_power)
    if floor >= v_start:
        return 0.0
    bank = CapacitorBank(spec, initial_voltage=v_start)
    try:
        seconds = output_booster.time_to_brownout(bank, mcu.active_power)
    except PowerSystemError:
        return 0.0
    return seconds * mcu.op_rate / 1e6


def _vec_points(grid) -> List[VolumePoint]:
    """The whole (technology, count) grid as one vectorized fleet."""
    from repro.vec import atomicity_ops, fleet_from_banks

    banks = [
        BankSpec.single(f"{part.name}-x{count}", part, count)
        for _, part, count in grid
    ]
    state = fleet_from_banks(banks, initial_voltage="target")
    ops = atomicity_ops(state, MCU_MSP430FR5969.op_rate)
    return [
        VolumePoint(label, count, part.volume * count * 1e9, float(mops) / 1e6)
        for (label, part, count), mops in zip(grid, ops)
    ]


def run(max_parts: int = 8) -> ExperimentResult:
    """Sweep part count for both technologies."""
    result = ExperimentResult(
        experiment="fig04-volume",
        columns=["Technology", "Parts", "Volume (mm^3)", "Atomicity (Mops)"],
    )
    grid = [
        (label, part, count)
        for label, part in (("ceramic", CERAMIC_X5R), ("supercap", EDLC_CPH3225A))
        for count in range(1, max_parts + 1)
    ]
    points = _vec_points(grid)
    curves: Dict[str, List[VolumePoint]] = {"ceramic": [], "supercap": []}
    for point in points:
        curves[point.technology].append(point)
        result.values[f"{point.technology}/{point.parts}/mops"] = point.atomicity_mops
        result.values[f"{point.technology}/{point.parts}/volume_mm3"] = point.volume_mm3
        result.rows.append(
            [
                point.technology,
                str(point.parts),
                f"{point.volume_mm3:.1f}",
                f"{point.atomicity_mops:.4f}",
            ]
        )
    # Marginal gain of each added supercap (the diminishing-increase
    # observation) recorded as a series.
    supercap = curves["supercap"]
    for earlier, later in zip(supercap, supercap[1:]):
        if earlier.atomicity_mops > 0.0:
            ratio = later.atomicity_mops / earlier.atomicity_mops
            result.values[f"supercap/gain/{later.parts}"] = ratio
    result.notes.append(
        "supercap marginal gain per doubling decays toward 2x (linear) "
        "as paralleling dilutes the ESR penalty"
    )
    return result


def main() -> ExperimentResult:
    result = run()
    print_result(result)
    return result


if __name__ == "__main__":
    main()
