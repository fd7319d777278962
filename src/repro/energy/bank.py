"""Parallel capacitor banks.

A Capybara *bank* is a set of capacitor parts wired in parallel behind
one switch — the unit of reconfiguration.  The paper's banks mix
technologies ("300 uF ceramic + 1100 uF tantalum + 7.5 mF EDLC"), so a
:class:`BankSpec` is a list of ``(part spec, count)`` groups whose
electrical parameters aggregate in the standard parallel way:

* capacitance and leakage current add,
* ESR and leak resistance combine in parallel,
* rated voltage is the minimum over parts,
* volume adds.

A :class:`CapacitorBank` is the stateful instance: one shared terminal
voltage, exact energy accounting, RC-decay leakage, and per-group wear
tracking (so the EDLC wear-leveling policy of Section 5.2 has something
to observe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError, PowerSystemError
from repro.energy.capacitor import CapacitorSpec, parallel_esr
from repro.units import capacitor_energy


@dataclass(frozen=True)
class BankSpec:
    """Immutable description of a parallel bank of capacitor parts.

    Attributes:
        name: bank identifier used by energy modes ("small", "radio", ...).
        groups: tuple of ``(part spec, count)`` pairs, count >= 1.
    """

    name: str
    groups: Tuple[Tuple[CapacitorSpec, int], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigurationError(f"bank {self.name!r} has no capacitors")
        for spec, count in self.groups:
            if count < 1:
                raise ConfigurationError(
                    f"bank {self.name!r}: count for {spec.name} must be >= 1"
                )

    @staticmethod
    def of_parts(name: str, parts: Sequence[Tuple[CapacitorSpec, int]]) -> "BankSpec":
        """Build a spec from a list of ``(part, count)`` pairs."""
        return BankSpec(name=name, groups=tuple(parts))

    @staticmethod
    def single(name: str, part: CapacitorSpec, count: int = 1) -> "BankSpec":
        """Build a spec holding *count* copies of one part."""
        return BankSpec(name=name, groups=((part, count),))

    def spec_dict(self) -> dict:
        """This bank as a plain JSON-safe dict (:mod:`repro.spec` bank
        schema): the name plus one ``{part, count}`` object per group."""
        return {
            "name": self.name,
            "groups": [
                {"part": spec.spec_dict(), "count": count}
                for spec, count in self.groups
            ],
        }

    # ------------------------------------------------------------------
    # Aggregate electrical parameters
    # ------------------------------------------------------------------

    @cached_property
    def capacitance(self) -> float:
        """Total (derated) capacitance, farads."""
        return sum(
            spec.effective_capacitance * count for spec, count in self.groups
        )

    @cached_property
    def esr(self) -> float:
        """Combined equivalent series resistance, ohms."""
        esrs: List[float] = []
        for spec, count in self.groups:
            for _ in range(count):
                esrs.append(spec.esr)
        return parallel_esr(esrs)

    @cached_property
    def leak_resistance(self) -> float:
        """Combined parallel self-discharge resistance, ohms."""
        inverse = 0.0
        for spec, count in self.groups:
            inverse += count / spec.leak_resistance
        return 1.0 / inverse

    @cached_property
    def rated_voltage(self) -> float:
        """Maximum safe bank voltage (minimum over parts), volts."""
        return min(spec.rated_voltage for spec, _ in self.groups)

    @cached_property
    def volume(self) -> float:
        """Total capacitor volume, cubic metres."""
        return sum(spec.volume * count for spec, count in self.groups)

    @cached_property
    def part_count(self) -> int:
        """Total number of discrete parts in the bank."""
        return sum(count for _, count in self.groups)

    def energy_at(self, voltage: float) -> float:
        """Energy stored at *voltage* relative to drained, joules."""
        return capacitor_energy(self.capacitance, voltage)

    def max_energy(self) -> float:
        """Energy stored at the rated voltage, joules."""
        return self.energy_at(self.rated_voltage)

    def describe(self) -> str:
        """One-line human-readable recipe, e.g. ``small: 4x X5R-100uF``."""
        parts = " + ".join(f"{count}x {spec.name}" for spec, count in self.groups)
        return f"{self.name}: {parts}"


class CapacitorBank:
    """A stateful parallel bank: shared voltage, wear, and leakage.

    The bank is the reconfiguration unit of the Capybara reservoir.  It
    deliberately knows nothing about switches or boosters; those layers
    wrap it (:mod:`repro.energy.switch`, :mod:`repro.energy.booster`).
    """

    def __init__(self, spec: BankSpec, initial_voltage: float = 0.0) -> None:
        if initial_voltage < 0.0 or initial_voltage > spec.rated_voltage:
            raise ConfigurationError(
                f"initial voltage {initial_voltage} outside "
                f"[0, {spec.rated_voltage}] for bank {spec.name!r}"
            )
        self.spec = spec
        self._voltage = float(initial_voltage)
        self._leak_tau = spec.leak_resistance * spec.capacitance
        # Cache the half-capacitance factor used by the energy<->voltage
        # conversions on every store/extract, and the full-bank energy
        # store() saturates at.
        self._half_c = 0.5 * spec.capacitance
        self._max_energy = spec.max_energy()
        # Equivalent full cycles per part group, keyed by part name.
        self._group_cycles: Dict[str, float] = {
            spec_.name: 0.0 for spec_, _ in spec.groups
        }
        # Per wear-tracked group: (part name, capacitance share, group
        # energy at rated voltage).  Parallel parts at a shared voltage
        # split energy by capacitance; infinite-endurance parts and
        # groups that hold no energy are not tracked.
        wear = []
        for part, count in spec.groups:
            if not math.isfinite(part.cycle_endurance):
                continue
            share = part.effective_capacitance * count / spec.capacitance
            group_max = part.energy_at(part.rated_voltage) * count
            if group_max > 0.0:
                wear.append((part.name, share, group_max))
        self._wear_groups: Tuple[Tuple[str, float, float], ...] = tuple(wear)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def voltage(self) -> float:
        """Current terminal voltage, volts."""
        return self._voltage

    @property
    def energy(self) -> float:
        """Stored energy relative to drained, joules."""
        return self._half_c * self._voltage * self._voltage

    @property
    def capacitance(self) -> float:
        return self.spec.capacitance

    @property
    def esr(self) -> float:
        return self.spec.esr

    def group_cycles(self, part_name: str) -> float:
        """Equivalent full cycles accumulated by the named part group."""
        if part_name not in self._group_cycles:
            raise ConfigurationError(
                f"bank {self.name!r} has no part group {part_name!r}"
            )
        return self._group_cycles[part_name]

    # ------------------------------------------------------------------
    # Energy movement
    # ------------------------------------------------------------------

    def set_voltage(self, voltage: float) -> None:
        """Force the terminal voltage (initialisation / switch transfer)."""
        if voltage < 0.0 or voltage > self.spec.rated_voltage:
            raise PowerSystemError(
                f"voltage {voltage} outside [0, {self.spec.rated_voltage}] "
                f"for bank {self.name!r}"
            )
        self._voltage = float(voltage)

    def store(self, energy: float) -> float:
        """Add *energy* joules, saturating at the rated voltage.

        Returns the energy actually absorbed.
        """
        if energy < 0.0:
            raise PowerSystemError(f"cannot store negative energy ({energy})")
        stored = self._half_c * self._voltage * self._voltage
        absorbed = min(energy, self._max_energy - stored)
        self._set_energy(stored + absorbed)
        self._wear(absorbed)
        return absorbed

    def extract(self, energy: float) -> float:
        """Remove *energy* joules, saturating at fully drained.

        Returns the energy actually delivered.
        """
        if energy < 0.0:
            raise PowerSystemError(f"cannot extract negative energy ({energy})")
        stored = self._half_c * self._voltage * self._voltage
        delivered = min(energy, stored)
        self._set_energy(stored - delivered)
        self._wear(delivered)
        return delivered

    def leak(self, duration: float) -> float:
        """Self-discharge for *duration* seconds through the combined
        leak resistance (RC exponential decay).

        Returns the energy lost, joules.
        """
        if duration < 0.0:
            raise PowerSystemError(f"duration must be non-negative, got {duration}")
        voltage = self._voltage
        if duration == 0.0 or voltage == 0.0:
            return 0.0
        before = self._half_c * voltage * voltage
        voltage *= math.exp(-duration / self._leak_tau)
        self._voltage = voltage
        return before - self._half_c * voltage * voltage

    # ------------------------------------------------------------------
    # Timing helpers (analytic integration in the energy domain)
    # ------------------------------------------------------------------

    def charge_time(self, v_from: float, v_to: float, net_power: float) -> float:
        """Seconds to charge from *v_from* to *v_to* at constant *net_power*.

        ``dt = C (v_to^2 - v_from^2) / (2 P)`` — the paper's Section 2
        observation that charge time is set by buffer size, not load.

        Returns ``math.inf`` when *net_power* is zero or negative (the
        harvester cannot overcome leakage).
        """
        if v_to < v_from:
            raise PowerSystemError(
                f"charge_time requires v_to >= v_from (got {v_from} -> {v_to})"
            )
        if net_power <= 0.0:
            return math.inf
        delta = self.spec.energy_at(v_to) - self.spec.energy_at(v_from)
        return delta / net_power

    def discharge_time(self, v_from: float, v_to: float, drain_power: float) -> float:
        """Seconds to discharge from *v_from* down to *v_to* at constant
        *drain_power* (load plus conversion losses).

        Returns ``math.inf`` when *drain_power* is zero or negative.
        """
        if v_to > v_from:
            raise PowerSystemError(
                f"discharge_time requires v_to <= v_from (got {v_from} -> {v_to})"
            )
        if drain_power <= 0.0:
            return math.inf
        delta = self.spec.energy_at(v_from) - self.spec.energy_at(v_to)
        return delta / drain_power

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _set_energy(self, energy: float) -> None:
        energy = max(0.0, energy)
        self._voltage = math.sqrt(energy / self._half_c)

    def _wear(self, energy_moved: float) -> None:
        if energy_moved <= 0.0:
            return
        cycles = self._group_cycles
        for name, share, group_max in self._wear_groups:
            cycles[name] += 0.5 * energy_moved * share / group_max
