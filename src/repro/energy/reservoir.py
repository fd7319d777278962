"""The reconfigurable energy reservoir (Section 5.2).

A reservoir is Capybara's array of capacitor banks, each individually
connectable through a state-retaining :class:`~repro.energy.switch.BankSwitch`.
Banks without a switch are hardwired (the paper's boards keep a small
default bank always connected so the device can cold-start).

The *active set* — the banks whose switches are effectively closed —
behaves as one parallel capacitor: capacitance adds, ESR combines in
parallel, and all active banks share a terminal voltage.  Connecting a
charged bank to the active set redistributes charge at constant total
charge (``V = sum(C_i V_i) / sum(C_i)``), losing energy irreversibly as
real parallel capacitors do.  Disconnected banks hold their voltage,
minus leakage — the property that makes pre-charged bursts possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import BankConfigurationError, PowerSystemError
from repro.energy.bank import BankSpec, CapacitorBank
from repro.energy.capacitor import parallel_esr
from repro.energy.switch import BankSwitch
from repro.observability.telemetry import Telemetry, resolve_telemetry


@dataclass(frozen=True)
class ReservoirConfig:
    """A named set of banks to activate — the hardware face of an
    energy mode."""

    name: str
    bank_names: FrozenSet[str]

    @staticmethod
    def of(name: str, banks: Iterable[str]) -> "ReservoirConfig":
        return ReservoirConfig(name=name, bank_names=frozenset(banks))


class ReconfigurableReservoir:
    """An array of capacitor banks behind programmable switches.

    The reservoir exposes two layers of API:

    * a *bank* layer (:meth:`bank`, :meth:`configure`) used by the
      Capybara runtime to implement energy modes; and
    * an *aggregate* layer (:meth:`active_voltage`, :meth:`store`,
      :meth:`extract`) used by the boosters and executor, which see the
      active set as a single capacitor.
    """

    def __init__(
        self,
        precharge_voltage_penalty: float = 0.3,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if precharge_voltage_penalty < 0.0:
            raise BankConfigurationError(
                "precharge_voltage_penalty must be non-negative"
            )
        self._banks: Dict[str, CapacitorBank] = {}
        self._switches: Dict[str, BankSwitch] = {}
        # Flat tuple mirror of ``_switches.values()``: the active-set
        # cache validity check sums switch versions on every query, and
        # iterating a tuple is measurably cheaper than a dict view in
        # that hot path.
        self._switch_seq: Tuple[BankSwitch, ...] = ()
        self._order: List[str] = []
        #: The paper's Section 6.4 limitation: a deactivated bank can be
        #: pre-charged only to ~0.3 V below the normal charge target.
        self.precharge_voltage_penalty = precharge_voltage_penalty
        self._reconfigurations = 0
        # Active-set cache: one ActiveSetView, valid from its build time
        # until its ``valid_until`` while the switch versions sum to its
        # ``versions``.  Hot paths query the active set hundreds of
        # thousands of times between reconfigurations, and everything
        # derived from the set (rated voltage, per-load floors) lives on
        # the view, so one validity rule covers all of it.
        self._active_cache: Optional[ActiveSetView] = None
        # Optional fault injector (repro.faults): switch stuck-at
        # overrides, ESR/leakage multipliers, and the fault-window
        # boundaries that bound the active-set cache's validity.
        self._fault_injector = None
        # Resolved once; per-joule aggregate paths (store/extract) stay
        # uninstrumented — telemetry records only reconfiguration-rate
        # happenings and losses.
        self.telemetry = resolve_telemetry(telemetry)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_bank(
        self,
        spec: BankSpec,
        switch: Optional[BankSwitch] = None,
        initial_voltage: float = 0.0,
    ) -> CapacitorBank:
        """Register a bank, optionally behind *switch*.

        A bank with no switch is hardwired active (the default bank).
        """
        if spec.name in self._banks:
            raise BankConfigurationError(f"duplicate bank name {spec.name!r}")
        bank = CapacitorBank(spec, initial_voltage=initial_voltage)
        self._banks[spec.name] = bank
        if switch is not None:
            self._switches[spec.name] = switch
            self._switch_seq = tuple(self._switches.values())
        self._order.append(spec.name)
        self._active_cache = None
        return bank

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def bank_names(self) -> List[str]:
        """All bank names in registration order."""
        return list(self._order)

    @property
    def hardwired_names(self) -> List[str]:
        """Banks that are always connected (no switch)."""
        return [name for name in self._order if name not in self._switches]

    @property
    def reconfiguration_count(self) -> int:
        """Number of :meth:`configure` calls that changed any switch."""
        return self._reconfigurations

    def bank(self, name: str) -> CapacitorBank:
        if name not in self._banks:
            raise BankConfigurationError(f"unknown bank {name!r}")
        return self._banks[name]

    def set_fault_injector(self, injector) -> None:
        """Arm (or with ``None``, disarm) a fault injector.

        The injector (duck-typed: ``switch_overrides``,
        ``esr_multiplier``, ``leak_multiplier``, ``next_transition``)
        participates in every active-set computation from the next query
        on; the cache is invalidated so no pre-fault aggregate survives.
        """
        self._fault_injector = injector
        self._active_cache = None

    def switch(self, name: str) -> BankSwitch:
        if name not in self._switches:
            raise BankConfigurationError(f"bank {name!r} has no switch")
        return self._switches[name]

    def _active_entry(self, time: float) -> "ActiveSetView":
        """The cached active set for *time* (rebuilds if stale).

        A cache entry stays valid from its build time until the first
        possible latch reversion among switches holding a non-default
        state; switch ``version`` counters catch direct state changes.
        """
        versions = 0
        for switch in self._switch_seq:
            versions += switch.version
        cache = self._active_cache
        if (
            cache is not None
            and cache.versions == versions
            and cache.valid_from <= time < cache.valid_until
        ):
            return cache
        injector = self._fault_injector
        overrides = (
            injector.switch_overrides(time) if injector is not None else {}
        )
        names: List[str] = []
        for name in self._order:
            switch = self._switches.get(name)
            if switch is None:
                names.append(name)
            elif name in overrides:
                # Stuck-at fault: the physical switch ignores both its
                # commanded state and latch decay for the window.
                if overrides[name]:
                    names.append(name)
            elif switch.is_closed(time):
                names.append(name)
        # is_closed() may have just resolved reversions (bumping
        # versions); recompute the sum after resolution.
        versions = 0
        boundary = math.inf
        for switch in self._switch_seq:
            versions += switch.version
            if switch._commanded_closed != switch.default_closed:
                boundary = min(
                    boundary, switch._last_replenished + switch.retention_time
                )
        banks = [self._banks[name] for name in names]
        capacitance = sum(bank.capacitance for bank in banks)
        esr = parallel_esr(bank.esr for bank in banks) if banks else 0.0
        if injector is not None:
            # Cached aggregates must not outlive a fault-window edge,
            # and the faulted ESR is what every consumer should see.
            boundary = min(boundary, injector.next_transition(time))
            esr *= injector.esr_multiplier(time)
        entry = ActiveSetView(
            time, boundary, versions, names, banks, capacitance, esr
        )
        self._active_cache = entry
        if len(banks) > 1 and (
            injector is not None
            or (cache is not None and not set(names) <= set(cache.names))
        ):
            # A bank rejoining the set without a reconfiguration (an NC
            # latch reverting closed, a stuck window ending) carries its
            # held voltage; physical reconnection redistributes charge
            # instantly, so equalize here to keep the shared-voltage
            # invariant every consumer asserts.
            voltage = banks[0].voltage
            if any(abs(bank.voltage - voltage) > 1e-9 for bank in banks[1:]):
                self.equalize_active(time)
        return entry

    def active_names(self, time: float) -> List[str]:
        """Banks currently connected, honouring latch reversion."""
        return list(self._active_entry(time).names)

    def active_banks(self, time: float) -> List[CapacitorBank]:
        return self._active_entry(time).banks

    def active_capacitance(self, time: float) -> float:
        """Total capacitance of the active set, farads."""
        return self._active_entry(time).capacitance

    def active_esr(self, time: float) -> float:
        """Combined ESR of the active set, ohms."""
        entry = self._active_entry(time)
        if not entry.banks:
            raise PowerSystemError("no banks are active")
        return entry.esr

    def active_voltage(self, time: float) -> float:
        """Shared terminal voltage of the active set, volts.

        Active banks are always equalized after reconfiguration, so they
        agree; this asserts that invariant.
        """
        return self.active_view(time).voltage

    def active_energy(self, time: float) -> float:
        """Stored energy of the active set, joules."""
        return sum(bank.energy for bank in self.active_banks(time))

    def active_rated_voltage(self, time: float) -> float:
        """Rated (minimum over active banks) voltage of the active set."""
        entry = self._active_entry(time)
        if not entry.banks:
            raise PowerSystemError("no banks are active")
        return entry.rated_voltage

    def total_volume(self) -> float:
        """Capacitor volume across all banks, m^3."""
        return sum(bank.spec.volume for bank in self._banks.values())

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------

    def configure(self, config: ReservoirConfig, time: float) -> float:
        """Switch the active set to exactly *config*'s banks.

        Hardwired banks are always active; including them in the config
        is allowed (and conventional), excluding them is an error.

        Returns:
            Energy spent toggling latch capacitors, joules (the runtime
            charges this to the active reservoir).

        Raises:
            BankConfigurationError: for unknown banks or configs that try
                to disconnect a hardwired bank.
        """
        unknown = config.bank_names - set(self._banks)
        if unknown:
            raise BankConfigurationError(
                f"config {config.name!r} references unknown banks {sorted(unknown)}"
            )
        missing_hardwired = set(self.hardwired_names) - config.bank_names
        if missing_hardwired:
            raise BankConfigurationError(
                f"config {config.name!r} cannot disconnect hardwired banks "
                f"{sorted(missing_hardwired)}"
            )
        toggle_energy = 0.0
        changed = False
        for name in self._order:
            switch = self._switches.get(name)
            if switch is None:
                continue
            want_closed = name in config.bank_names
            before = switch.is_closed(time)
            toggle_energy += switch.set_closed(want_closed, time)
            if before != want_closed:
                changed = True
        if changed:
            self._reconfigurations += 1
            # Drop the cached set so its rebuild sees no rejoin: the
            # equalization below is the one that books the loss.
            self._active_cache = None
        redistribution_loss = self.equalize_active(time)
        telemetry = self.telemetry
        if telemetry.enabled and changed:
            telemetry.inc("reservoir.reconfigurations")
            telemetry.inc("reservoir.switch_toggle_j", toggle_energy)
            telemetry.inc("reservoir.redistribution_loss_j", redistribution_loss)
            telemetry.event(
                time,
                "reservoir",
                "reconfigure",
                config=config.name,
                banks=",".join(sorted(config.bank_names)),
                capacitance=self.active_capacitance(time),
            )
            self._record_wear_gauges(telemetry)
        return toggle_energy

    def _record_wear_gauges(self, telemetry: Telemetry) -> None:
        """Refresh per-bank wear gauges (equivalent full cycles).

        Called at reconfiguration rate, never in per-joule paths, so the
        cost stays off the integration hot loops.
        """
        for name in self._order:
            bank = self._banks[name]
            cycles = sum(
                bank.group_cycles(spec.name) for spec, _count in bank.spec.groups
            )
            telemetry.set_gauge(f"reservoir.wear_cycles.{name}", cycles)

    def equalize_active(self, time: float) -> float:
        """Redistribute charge across the active set at constant charge.

        Returns the energy lost to redistribution, joules.  Real parallel
        capacitors at unequal voltages lose ``dE`` as heat through the
        interconnect when joined; the model conserves charge, not energy.
        """
        banks = self._active_entry(time).banks
        if len(banks) <= 1:
            return 0.0
        total_charge = sum(bank.capacitance * bank.voltage for bank in banks)
        total_capacitance = sum(bank.capacitance for bank in banks)
        v_common = total_charge / total_capacitance
        before = sum(bank.energy for bank in banks)
        for bank in banks:
            bank.set_voltage(min(v_common, bank.spec.rated_voltage))
        after = sum(bank.energy for bank in banks)
        return max(0.0, before - after)

    def replenish_switches(self, time: float) -> None:
        """Top up every latch (call while input power is present)."""
        for switch in self._switch_seq:
            switch.replenish(time)

    # ------------------------------------------------------------------
    # Aggregate energy movement (active set as one capacitor)
    # ------------------------------------------------------------------

    def store(self, energy: float, time: float) -> float:
        """Add *energy* joules to the active set, split by capacitance.

        Returns the energy actually absorbed (saturates at the lowest
        rated voltage across the active set, keeping voltages equal).
        """
        return self.active_view(time).store(energy)

    def extract(self, energy: float, time: float) -> float:
        """Remove *energy* joules from the active set, split by capacitance.

        Returns the energy actually delivered.
        """
        return self.active_view(time).extract(energy)

    def leak_all(self, duration: float, time: float) -> float:
        """Apply leakage to every bank (active and dormant).

        Dormant pre-charged banks losing energy "except the energy lost
        to leakage" is exactly the Section 4.2 retention property.

        Returns total energy lost, joules.
        """
        if self._fault_injector is not None:
            # A leakage spike accelerates self-discharge: integrating the
            # same RC decay over a stretched duration is exactly a
            # proportionally lower leak resistance for the window.
            duration = duration * self._fault_injector.leak_multiplier(time)
        lost = sum([bank.leak(duration) for bank in self._banks.values()])
        # Leakage can nudge active-bank voltages apart (different leak
        # resistances); re-equalize to preserve the shared-voltage
        # invariant.  The redistribution loss here is second-order.
        lost += self.equalize_active(time)
        if self.telemetry.enabled:
            self.telemetry.inc("reservoir.leak_j", lost)
        return lost

    def active_view(self, time: float) -> "ActiveSetView":
        """The active set at *time* as one capacitor, for hot loops.

        The view is the reservoir's active-set cache entry itself: the
        active banks, capacitance, ESR and rated voltage, plus the
        per-load constants the power system derives from them.  It moves
        energy without re-validating the switch state on every call, so
        it is only sound while the active set cannot change — e.g.
        within one discharge, where the device is powered (latches are
        held) and reconfiguration happens only between tasks.  The
        reservoir's own :meth:`store`/:meth:`extract` go through it.

        Raises:
            PowerSystemError: if no bank is active, or the active banks'
                voltages diverged (reconfiguration must equalize them).
        """
        entry = self._active_entry(time)
        if not entry.banks:
            raise PowerSystemError("no banks are active")
        if entry._single is None:
            voltage = entry.banks[0].voltage
            for bank in entry.banks[1:]:
                if abs(bank.voltage - voltage) > 1e-6:
                    raise PowerSystemError(
                        "active banks diverged in voltage; reconfiguration "
                        "must equalize them"
                    )
        return entry

    def snapshot(self) -> Dict[str, Tuple[float, bool]]:
        """Voltage and switch presence per bank (debug/trace helper)."""
        return {
            name: (self._banks[name].voltage, name in self._switches)
            for name in self._order
        }


class ActiveSetView:
    """One active set of a reservoir, as an aggregate capacitor.

    A view is built by the reservoir when its active-set cache goes
    stale (:meth:`ReconfigurableReservoir.active_view`) and holds
    everything that is constant while that set is: the banks, their
    capacitance, ESR and rated voltage, the cache-validity key
    (``valid_from``, ``valid_until``, ``versions``), and ``loads``, a
    memo the power system fills with per-load discharge constants.  All
    mutations go through the underlying :class:`CapacitorBank` objects,
    so the reservoir observes every joule moved through a view.
    """

    __slots__ = (
        "valid_from",
        "valid_until",
        "versions",
        "names",
        "banks",
        "capacitance",
        "esr",
        "rated_voltage",
        "loads",
        "_single",
    )

    def __init__(
        self,
        valid_from: float,
        valid_until: float,
        versions: int,
        names: List[str],
        banks: List[CapacitorBank],
        capacitance: float,
        esr: float,
    ) -> None:
        self.valid_from = valid_from
        self.valid_until = valid_until
        self.versions = versions
        self.names = names
        self.banks = banks
        self.capacitance = capacitance
        self.esr = esr
        self.rated_voltage = (
            min(bank.spec.rated_voltage for bank in banks) if banks else math.nan
        )
        #: Total load power -> discharge constants, filled and read by
        #: :meth:`repro.core.powersystem.CapybaraPowerSystem.drain`.
        self.loads: Dict[float, tuple] = {}
        self._single = banks[0] if len(banks) == 1 else None

    @property
    def voltage(self) -> float:
        """Shared terminal voltage of the active set, volts."""
        return self.banks[0].voltage

    def store(self, energy: float) -> float:
        """Add *energy* joules, split by capacitance.

        Returns the energy actually absorbed (saturates at the lowest
        rated voltage across the set, keeping voltages equal).
        """
        single = self._single
        if single is not None:
            return single.store(energy)
        banks, total_c = self.banks, self.capacitance
        voltage = banks[0].voltage
        rated = self.rated_voltage
        headroom = 0.5 * total_c * (rated * rated - voltage * voltage)
        absorbed = min(energy, max(0.0, headroom))
        new_energy = 0.5 * total_c * voltage * voltage + absorbed
        v_new = math.sqrt(2.0 * new_energy / total_c)
        for bank in banks:
            # max() guards against -1e-19-scale float residue when a
            # bank is already saturated at its rated voltage.
            bank.store(max(0.0, bank.spec.energy_at(v_new) - bank.energy))
        return absorbed

    def extract(self, energy: float) -> float:
        """Remove *energy* joules, split by capacitance.

        Returns the energy actually delivered.
        """
        single = self._single
        if single is not None:
            return single.extract(energy)
        banks, total_c = self.banks, self.capacitance
        voltage = banks[0].voltage
        available = 0.5 * total_c * voltage * voltage
        delivered = min(energy, available)
        v_new = math.sqrt(2.0 * max(0.0, available - delivered) / total_c)
        for bank in banks:
            bank.extract(max(0.0, bank.energy - bank.spec.energy_at(v_new)))
        return delivered
