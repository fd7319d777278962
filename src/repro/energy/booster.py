"""Input and output boost converters (Section 5.1).

The Capybara power-distribution circuit wraps the energy buffer between
two converters:

* the **input booster** charges the capacitors from a boosted harvester
  voltage, with a "cold-start" phase that substantially slows charging
  when the capacitor is nearly empty, and a **bypass optimization** that
  charges directly from the harvester through a keeper diode until the
  booster can start (the paper observed the bypass cuts charge time by
  at least an order of magnitude);

* the **output booster** produces a stable load voltage while the
  capacitor voltage falls, compensating for the ESR droop of dense
  supercapacitors and extracting stored energy "down to about 10% of
  capacity".

Both models are efficiency-curve converters, not switching-waveform
simulations: at each operating point they map power in to power out and
expose the voltage limits that define brownout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from repro.errors import ConfigurationError, PowerSystemError
from repro.energy.bank import BankSpec, CapacitorBank


@dataclass(frozen=True)
class InputBooster:
    """Harvester-side boost converter with cold start and bypass.

    Attributes:
        efficiency: conversion efficiency once started.
        v_cold_start: capacitor voltage below which the booster cannot
            run normally and falls back to its slow cold-start charger.
        cold_start_efficiency: efficiency during cold start.  The boost
            controller can barely run below its cold-start threshold, so
            this is drastically low — which is exactly why the paper's
            bypass diode buys "at least an order of magnitude" in charge
            time.
        bypass: whether the keeper-diode bypass optimization is present.
        v_diode_drop: forward drop of the keeper diode, volts.
        v_charge_target: regulated charging voltage; capacitors charge
            toward ``min(v_charge_target, bank rated voltage)``.
        min_input_voltage: harvester voltage below which even the boosted
            path cannot operate.
        low_voltage_efficiency: fraction of nominal efficiency when
            charging a capacitor sitting just above the cold-start knee;
            efficiency ramps linearly up to nominal at
            ``v_full_efficiency``.  Charging into a low-voltage capacitor
            runs the converter at a wide, lossy conversion ratio — the
            "subtle power system effect" behind Section 6.4's longer
            Capy-P charge times (a pre-charged bank never visits its
            most efficient top-of-charge region).
        v_full_efficiency: capacitor voltage at which nominal efficiency
            is reached.
    """

    efficiency: float = 0.70
    v_cold_start: float = 1.0
    cold_start_efficiency: float = 0.01
    bypass: bool = True
    v_diode_drop: float = 0.3
    v_charge_target: float = 2.4
    min_input_voltage: float = 0.10
    low_voltage_efficiency: float = 0.45
    v_full_efficiency: float = 2.2

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        if not 0.0 < self.cold_start_efficiency <= self.efficiency:
            raise ConfigurationError(
                "cold_start_efficiency must be in (0, efficiency]"
            )
        if self.v_cold_start < 0.0:
            raise ConfigurationError("v_cold_start must be non-negative")
        if self.v_diode_drop < 0.0:
            raise ConfigurationError("v_diode_drop must be non-negative")
        if self.v_charge_target <= self.v_cold_start:
            raise ConfigurationError(
                "v_charge_target must exceed v_cold_start"
            )
        if not 0.0 < self.low_voltage_efficiency <= 1.0:
            raise ConfigurationError(
                "low_voltage_efficiency must be in (0, 1]"
            )
        if self.v_full_efficiency <= self.v_cold_start:
            raise ConfigurationError(
                "v_full_efficiency must exceed v_cold_start"
            )

    def spec_dict(self) -> dict:
        """This converter as a plain dict (:mod:`repro.spec` booster schema)."""
        return {
            "kind": "input",
            "efficiency": self.efficiency,
            "v_cold_start": self.v_cold_start,
            "cold_start_efficiency": self.cold_start_efficiency,
            "bypass": self.bypass,
            "v_diode_drop": self.v_diode_drop,
            "v_charge_target": self.v_charge_target,
            "min_input_voltage": self.min_input_voltage,
            "low_voltage_efficiency": self.low_voltage_efficiency,
            "v_full_efficiency": self.v_full_efficiency,
        }

    def charge_target(self, bank: CapacitorBank) -> float:
        """Voltage the charger will take *bank* to, volts."""
        return min(self.v_charge_target, bank.spec.rated_voltage)

    def charge_power(
        self, v_cap: float, harvester_voltage: float, harvester_power: float
    ) -> float:
        """Power flowing into the capacitor at this operating point, watts.

        Picks the best available path: boosted (normal or cold-start) or
        the diode bypass.  Returns 0 when the harvester is too weak or
        the capacitor is already at/above the charge target.
        """
        if harvester_power <= 0.0 or harvester_voltage < self.min_input_voltage:
            return 0.0
        if v_cap >= self.v_charge_target:
            return 0.0

        if v_cap >= self.v_cold_start:
            return harvester_power * self.efficiency * self._ramp(v_cap)

        # Cold region: the booster alone limps along at cold-start
        # efficiency; the bypass diode path charges directly from the
        # harvester while the capacitor sits below the diode knee.
        candidates = [harvester_power * self.cold_start_efficiency]
        if self.bypass and v_cap < harvester_voltage - self.v_diode_drop:
            # Direct charging loses only the diode drop's share of the
            # harvester voltage.
            diode_efficiency = max(
                0.0, 1.0 - self.v_diode_drop / harvester_voltage
            )
            candidates.append(harvester_power * diode_efficiency)
        return max(candidates)

    def _ramp(self, v_cap: float) -> float:
        """Conversion-ratio efficiency factor, in
        [low_voltage_efficiency, 1]."""
        if v_cap >= self.v_full_efficiency:
            return 1.0
        span = self.v_full_efficiency - self.v_cold_start
        fraction = max(0.0, (v_cap - self.v_cold_start) / span)
        return self.low_voltage_efficiency + (
            1.0 - self.low_voltage_efficiency
        ) * fraction

    def bypass_ceiling(self, harvester_voltage: float) -> float:
        """Highest capacitor voltage the bypass path can reach, volts."""
        if not self.bypass:
            return 0.0
        return max(0.0, harvester_voltage - self.v_diode_drop)


@dataclass(frozen=True)
class OutputBooster:
    """Load-side boost converter producing a regulated output rail.

    Attributes:
        v_out: regulated output voltage (2.5 V serves the paper's gesture
            sensor; 2.0 V its BLE radio — we regulate at the max needed).
        v_in_min: minimum booster input voltage (post-ESR-droop) at which
            regulation holds; sets the "down to about 10% of capacity"
            discharge floor.
        efficiency: conversion efficiency.
        quiescent_power: converter's own standing draw while enabled.
    """

    v_out: float = 2.5
    v_in_min: float = 0.75
    efficiency: float = 0.80
    quiescent_power: float = 3e-6

    def __post_init__(self) -> None:
        if self.v_out <= 0.0:
            raise ConfigurationError("v_out must be positive")
        if self.v_in_min <= 0.0:
            raise ConfigurationError("v_in_min must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        if self.quiescent_power < 0.0:
            raise ConfigurationError("quiescent_power must be non-negative")

    def spec_dict(self) -> dict:
        """This converter as a plain dict (:mod:`repro.spec` booster schema)."""
        return {
            "kind": "output",
            "v_out": self.v_out,
            "v_in_min": self.v_in_min,
            "efficiency": self.efficiency,
            "quiescent_power": self.quiescent_power,
        }

    # ------------------------------------------------------------------
    # Operating-point electrical relations
    # ------------------------------------------------------------------

    def input_power_for_load(self, load_power: float) -> float:
        """Booster input power needed to deliver *load_power*, watts."""
        if load_power < 0.0:
            raise PowerSystemError(f"load_power must be non-negative: {load_power}")
        return load_power / self.efficiency + self.quiescent_power

    def bank_current(self, bank_voltage: float, esr: float, load_power: float) -> float:
        """Current drawn from the bank to supply *load_power*, amperes.

        Solves ``I * (V - I * ESR) = P_in`` for the smaller root — the
        stable operating point.  Raises :class:`PowerSystemError` when no
        real solution exists (the bank cannot deliver that power through
        its ESR).
        """
        p_in = self.input_power_for_load(load_power)
        if p_in == 0.0:
            return 0.0
        if esr == 0.0:
            if bank_voltage <= 0.0:
                raise PowerSystemError("bank is empty; cannot draw power")
            return p_in / bank_voltage
        discriminant = bank_voltage * bank_voltage - 4.0 * esr * p_in
        if discriminant < 0.0:
            raise PowerSystemError(
                f"bank at {bank_voltage:.3f} V with ESR {esr:.3f} ohm cannot "
                f"deliver {p_in * 1e3:.3f} mW"
            )
        return (bank_voltage - math.sqrt(discriminant)) / (2.0 * esr)

    def min_bank_voltage(self, esr: float, load_power: float) -> float:
        """Bank voltage below which *load_power* cannot be delivered.

        Two constraints apply: the droop equation must have a real
        solution (``V >= 2 sqrt(ESR * P_in)``) and the post-droop booster
        input must stay above ``v_in_min``.  The floor is the larger.
        This is the discharge floor of the paper's Section 5.1 — higher
        for high-ESR supercapacitors under heavy loads, which is what
        strands energy in Figure 4.

        The discharge integrators ask for the same (ESR, load) floor at
        every segment of every task execution, so the solution is
        memoised on the operating point.
        """
        return _min_bank_voltage(self, esr, load_power)

    def can_power(self, bank: CapacitorBank, load_power: float) -> bool:
        """Whether *bank* at its current voltage can deliver *load_power*."""
        return bank.voltage > self.min_bank_voltage(bank.esr, load_power)

    # ------------------------------------------------------------------
    # Discharge integration
    # ------------------------------------------------------------------

    def drain_power(self, bank_voltage: float, esr: float, load_power: float) -> float:
        """Total power leaving the bank (load + ESR + conversion), watts."""
        current = self.bank_current(bank_voltage, esr, load_power)
        return current * bank_voltage

    def discharge(
        self,
        bank: CapacitorBank,
        load_power: float,
        duration: float,
        voltage_step_fraction: float = 0.01,
    ) -> Tuple[float, bool]:
        """Run *bank* at *load_power* for up to *duration* seconds.

        Integrates the discharge in small voltage steps (the drain power
        rises as voltage falls because current grows), mutating the bank.

        Args:
            bank: the bank to drain.
            load_power: power delivered at the regulated rail, watts.
            duration: requested run time, seconds.
            voltage_step_fraction: integration resolution as a fraction
                of the instantaneous voltage.

        Returns:
            ``(time_ran, browned_out)`` — the time actually sustained and
            whether the bank hit the discharge floor before *duration*.
        """
        if duration < 0.0:
            raise PowerSystemError(f"duration must be non-negative: {duration}")
        floor = self.min_bank_voltage(bank.esr, load_power)
        elapsed = 0.0
        while elapsed < duration:
            voltage = bank.voltage
            # The epsilon guards against floating-point non-progress when
            # the voltage lands exactly on the droop floor.
            if voltage <= floor + 1e-9:
                return elapsed, True
            power = self.drain_power(voltage, bank.esr, load_power)
            # Step either to the floor, by the resolution, or to the end
            # of the requested duration — whichever comes first.
            dv = max(voltage * voltage_step_fraction, 1e-6)
            v_next = max(floor, voltage - dv)
            step_energy = bank.spec.energy_at(voltage) - bank.spec.energy_at(v_next)
            step_time = step_energy / power
            if elapsed + step_time >= duration:
                bank.extract(power * (duration - elapsed))
                return duration, bank.voltage <= floor + 1e-9
            bank.extract(step_energy)
            elapsed += step_time
        return duration, False

    def time_to_brownout(
        self,
        bank: CapacitorBank,
        load_power: float,
        voltage_step_fraction: float = 0.01,
    ) -> float:
        """Seconds the bank can sustain *load_power* from its current
        voltage, without mutating the bank.

        The design-space sweeps (Figures 3 and 4) and the provisioning
        estimators re-solve this full-drain integral for identical
        (bank spec, start voltage, load) operating points; the segment
        solution is memoised on exactly that key.
        """
        return _time_to_brownout(
            self, bank.spec, bank.voltage, load_power, voltage_step_fraction
        )

    def usable_energy(
        self,
        bank: CapacitorBank,
        load_power: float,
    ) -> float:
        """Energy deliverable *to the load* before brownout, joules.

        ``time_to_brownout * load_power`` — the quantity Figures 3 and 4
        divide by per-operation energy to get atomicity.
        """
        if load_power <= 0.0:
            raise PowerSystemError("load_power must be positive")
        return self.time_to_brownout(bank, load_power) * load_power


# ---------------------------------------------------------------------------
# Memoised segment solutions
# ---------------------------------------------------------------------------
#
# Both helpers are pure functions of hashable, immutable inputs
# (``OutputBooster`` and ``BankSpec`` are frozen dataclasses, the rest
# are floats), so memoisation cannot change any result — it only skips
# re-integration for operating points the experiment sweeps revisit
# thousands of times.


@lru_cache(maxsize=16384)
def _min_bank_voltage(
    booster: OutputBooster, esr: float, load_power: float
) -> float:
    p_in = booster.input_power_for_load(load_power)
    droop_floor = 2.0 * math.sqrt(esr * p_in)
    regulation_floor = booster.v_in_min + esr * p_in / booster.v_in_min
    return max(droop_floor, regulation_floor)


@lru_cache(maxsize=4096)
def _time_to_brownout(
    booster: OutputBooster,
    spec: BankSpec,
    voltage: float,
    load_power: float,
    voltage_step_fraction: float,
) -> float:
    probe = CapacitorBank(spec, initial_voltage=voltage)
    time_ran, browned_out = booster.discharge(
        probe, load_power, math.inf, voltage_step_fraction
    )
    if not browned_out:  # pragma: no cover - inf duration always browns out
        raise PowerSystemError("discharge with infinite duration did not end")
    return time_ran
