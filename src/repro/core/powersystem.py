"""The assembled Capybara power system (Figure 6a).

:class:`CapybaraPowerSystem` wires a harvester through the input voltage
limiter and input booster into the reconfigurable reservoir, and out
through the output booster to the load.  It provides the integration
primitives the intermittent executor is built on:

* :meth:`charge` — accumulate harvested energy into the active bank set
  (honouring cold start, bypass, leakage, and trace changes);
* :meth:`discharge` — run a load from the active set until done or
  brownout (:meth:`drain` is the same integrator returning a plain
  tuple, the form the executors call);
* :meth:`charge_bank_directly` — charge a *specific* bank set (used for
  pre-charging burst banks while they are about to be disconnected).

All methods take the current simulation time explicitly; the power
system holds no clock of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.errors import ConfigurationError, PowerSystemError
from repro.energy.booster import InputBooster, OutputBooster
from repro.energy.harvester import Harvester
from repro.energy.limiter import InputVoltageLimiter
from repro.energy.reservoir import ReconfigurableReservoir
from repro.observability.telemetry import Telemetry, resolve_telemetry


@dataclass
class ChargeResult:
    """Outcome of a :meth:`CapybaraPowerSystem.charge` call."""

    elapsed: float
    reached_target: bool
    energy_stored: float


@dataclass
class DischargeResult:
    """Outcome of a :meth:`CapybaraPowerSystem.discharge` call."""

    elapsed: float
    browned_out: bool
    energy_delivered: float


class CapybaraPowerSystem:
    """Harvester + limiter + boosters + reconfigurable reservoir.

    Attributes:
        harvester: the environmental energy source.
        reservoir: the bank array.
        limiter: input voltage limiter.
        input_booster: harvester-side converter.
        output_booster: load-side converter.
        quiescent_power: standing draw of the power system itself while
            the device operates (supervisors, switch leakage); this is
            the overhead that discharges a large bank even when the MCU
            sleeps between samples (Section 6.4).
    """

    #: Re-evaluate the harvester trace at least this often while
    #: charging, so step traces (orbit eclipses, adversarial profiles)
    #: are tracked without the executor scheduling extra events.
    CHARGE_REEVALUATION_INTERVAL = 10.0
    #: Polling interval while the harvester is producing nothing.
    DARK_POLL_INTERVAL = 5.0

    def __init__(
        self,
        harvester: Harvester,
        reservoir: ReconfigurableReservoir,
        limiter: Optional[InputVoltageLimiter] = None,
        input_booster: Optional[InputBooster] = None,
        output_booster: Optional[OutputBooster] = None,
        quiescent_power: float = 2e-6,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if quiescent_power < 0.0:
            raise ConfigurationError("quiescent_power must be non-negative")
        self.telemetry = resolve_telemetry(telemetry)
        self.harvester = harvester
        self.reservoir = reservoir
        self.limiter = limiter or InputVoltageLimiter()
        self.input_booster = input_booster or InputBooster()
        self.output_booster = output_booster or OutputBooster()
        self.quiescent_power = quiescent_power
        #: Optional dynamic charge-termination source (volts).  The
        #: Vtop-threshold reconfiguration mechanism (Section 5.2's
        #: design alternative) points this at its non-volatile digital
        #: potentiometer; ``None`` keeps the input booster's fixed
        #: regulation target.
        self.charge_target_source: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------
    # Operating-point queries
    # ------------------------------------------------------------------

    def harvest_point(self, time: float) -> Tuple[float, float]:
        """Limited ``(voltage, power)`` available from the harvester."""
        voltage, power = self.harvester.output(time)
        return self.limiter.limit(voltage, power)

    def charge_power(self, time: float) -> float:
        """Net power flowing into the active set right now, watts.

        Charging power from the input booster minus the active set's own
        leak and the system quiescent draw (the supervisor still sips
        while charging, which raises the minimum harvestable power —
        Section 5.2's monitoring-overhead observation).
        """
        v_cap = self.reservoir.active_voltage(time)
        hv, hp = self.harvest_point(time)
        into_cap = self.input_booster.charge_power(v_cap, hv, hp)
        if into_cap <= 0.0:
            return 0.0
        return into_cap - self.quiescent_power

    def charge_target_voltage(self, time: float) -> float:
        """Voltage the charger will take the active set to, volts."""
        ceiling = (
            self.charge_target_source()
            if self.charge_target_source is not None
            else self.input_booster.v_charge_target
        )
        return min(ceiling, self.reservoir.active_rated_voltage(time))

    def is_charged(self, time: float) -> bool:
        """Whether the active set has reached the charge target."""
        return (
            self.reservoir.active_voltage(time)
            >= self.charge_target_voltage(time) - 1e-9
        )

    def can_deliver(self, time: float, load_power: float) -> bool:
        """Whether the active set can presently power *load_power*."""
        floor = self.output_booster.min_bank_voltage(
            self.reservoir.active_esr(time), load_power + self.quiescent_power
        )
        return self.reservoir.active_voltage(time) > floor

    def discharge_floor(self, time: float, load_power: float) -> float:
        """Active-set voltage at which *load_power* browns out, volts."""
        return self.output_booster.min_bank_voltage(
            self.reservoir.active_esr(time), load_power + self.quiescent_power
        )

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------

    def charge(
        self,
        time: float,
        max_duration: float,
        target_voltage: Optional[float] = None,
    ) -> ChargeResult:
        """Charge the active set toward *target_voltage*.

        Integrates charging in segments, re-evaluating the harvester
        trace periodically; applies leakage to dormant banks throughout
        (pre-charged burst banks decay while the small bank charges).

        Args:
            time: simulation time at the start of the call.
            max_duration: give up after this long (may be ``inf``).
            target_voltage: stop when the active set reaches this; the
                default is the charge target (full buffer).

        Returns:
            :class:`ChargeResult` with the time spent and whether the
            target was reached.
        """
        result = self._charge(time, max_duration, target_voltage)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.inc("power.charge_calls")
            telemetry.inc("power.energy_stored_j", result.energy_stored)
            if result.elapsed > 0.0:
                telemetry.observe("power.charge_seconds", result.elapsed)
                telemetry.span(
                    time,
                    time + result.elapsed,
                    "power",
                    "charge",
                    stored_j=result.energy_stored,
                    reached=result.reached_target,
                )
        return result

    def _charge(
        self,
        time: float,
        max_duration: float,
        target_voltage: Optional[float],
    ) -> ChargeResult:
        if max_duration < 0.0:
            raise PowerSystemError("max_duration must be non-negative")
        target = (
            self.charge_target_voltage(time)
            if target_voltage is None
            else target_voltage
        )
        elapsed = 0.0
        stored = 0.0
        while elapsed < max_duration:
            now = time + elapsed
            voltage = self.reservoir.active_voltage(now)
            if voltage >= target - 1e-9:
                return ChargeResult(elapsed, True, stored)
            power = self.charge_power(now)
            if power <= 0.0:
                step = min(self.DARK_POLL_INTERVAL, max_duration - elapsed)
                self.reservoir.leak_all(step, now)
                elapsed += step
                continue
            # Charging paths change at the cold-start and bypass knees;
            # stop each segment at the nearest knee, the target, the
            # trace-reevaluation horizon, or the deadline.
            hv, _ = self.harvest_point(now)
            knees = [
                v
                for v in (
                    self.input_booster.v_cold_start,
                    self.input_booster.bypass_ceiling(hv),
                )
                if v > voltage + 1e-9
            ]
            # Also bound the voltage rise per segment so the efficiency
            # ramp (which varies with capacitor voltage) is tracked.
            v_stop = min([target, voltage + 0.2] + knees)
            c_active = self.reservoir.active_capacitance(now)
            seg_energy = 0.5 * c_active * (v_stop * v_stop - voltage * voltage)
            seg_time = seg_energy / power
            seg_time = min(
                seg_time,
                self.CHARGE_REEVALUATION_INTERVAL,
                max_duration - elapsed,
            )
            seg_energy = power * seg_time
            absorbed = self.reservoir.store(seg_energy, now)
            stored += absorbed
            self.reservoir.leak_all(seg_time, now)
            self.reservoir.replenish_switches(now + seg_time)
            elapsed += seg_time
            if seg_time <= 0.0:  # pragma: no cover - defensive
                raise PowerSystemError("charge made no progress")
        reached = self.reservoir.active_voltage(time + elapsed) >= target - 1e-9
        return ChargeResult(elapsed, reached, stored)

    def time_to_charge_estimate(
        self, time: float, target_voltage: Optional[float] = None
    ) -> float:
        """Estimate seconds to reach *target_voltage* at the current
        harvester operating point (does not mutate state).

        Returns ``inf`` when the harvester cannot charge at all.
        """
        target = (
            self.charge_target_voltage(time)
            if target_voltage is None
            else target_voltage
        )
        voltage = self.reservoir.active_voltage(time)
        if voltage >= target:
            return 0.0
        power = self.charge_power(time)
        if power <= 0.0:
            return math.inf
        c_active = self.reservoir.active_capacitance(time)
        return 0.5 * c_active * (target * target - voltage * voltage) / power

    # ------------------------------------------------------------------
    # Discharging
    # ------------------------------------------------------------------

    def discharge(
        self,
        time: float,
        load_power: float,
        duration: float,
        voltage_step_fraction: float = 0.02,
    ) -> DischargeResult:
        """Run *load_power* from the active set for up to *duration* s.

        Harvesting during operation is orders of magnitude below the
        load (Section 2) but is still credited; dormant banks leak.

        Returns:
            :class:`DischargeResult`; ``browned_out`` means the active
            set hit the discharge floor before *duration* elapsed.
        """
        elapsed, browned_out, delivered, _ = self.drain(
            time, load_power, duration, voltage_step_fraction
        )
        return DischargeResult(elapsed, browned_out, delivered)

    def drain(
        self,
        time: float,
        load_power: float,
        duration: float,
        voltage_step_fraction: float = 0.02,
    ) -> Tuple[float, bool, float, float]:
        """The discharge integrator behind :meth:`discharge`.

        Executors call this directly: it returns the plain tuple
        ``(elapsed, browned_out, energy_delivered, end_voltage)``, where
        ``end_voltage`` is the active-set voltage at ``time + elapsed``
        after leakage and latch top-up (what the executors record).
        """
        if duration < 0.0:
            raise PowerSystemError("duration must be non-negative")
        if load_power < 0.0:
            raise PowerSystemError("load_power must be non-negative")
        total_power = load_power + self.quiescent_power
        reservoir = self.reservoir
        booster = self.output_booster
        # The active set cannot change mid-discharge (reconfiguration
        # happens between tasks, and the device is powered so latches
        # hold), so everything derived from it is read once: the view
        # carries the banks, capacitance, ESR and rated voltage, and
        # memoises the floor and the booster's input power per load.
        # The charge target and harvest point can vary with time and are
        # read once per call.
        view = reservoir.active_view(time)
        banks = view.banks
        esr = view.esr
        c_active = view.capacitance
        constants = view.loads.get(total_power)
        if constants is None or constants[0] is not booster:
            p_in = booster.input_power_for_load(total_power)
            constants = (
                booster,
                booster.min_bank_voltage(esr, total_power),
                p_in,
                4.0 * esr * p_in,
                2.0 * esr,
            )
            view.loads[total_power] = constants
        _, floor, p_in, four_esr_p_in, two_esr = constants
        source = self.charge_target_source
        ceiling = (
            source() if source is not None else self.input_booster.v_charge_target
        )
        target = min(ceiling, view.rated_voltage)
        hv, hp = self.harvest_point(time)
        charger = self.input_booster
        # InputBooster.charge_power's first test depends only on the
        # harvest point: when it fails, every segment's charge is 0.
        harvesting = not (hp <= 0.0 or hv < charger.min_input_voltage)
        quiescent = self.quiescent_power
        elapsed = 0.0
        delivered = 0.0
        browned_out = False
        while elapsed < duration:
            voltage = banks[0].voltage
            # Epsilon guards against floating-point non-progress when the
            # voltage lands exactly on the floor.
            if voltage <= floor + 1e-9:
                browned_out = True
                break
            # OutputBooster.drain_power: the smaller root of
            # I * (V - I * ESR) = P_in, times V.
            if p_in == 0.0:
                drain = 0.0
            elif esr == 0.0:
                drain = p_in / voltage * voltage
            else:
                discriminant = voltage * voltage - four_esr_p_in
                if discriminant < 0.0:
                    raise PowerSystemError(
                        f"bank at {voltage:.3f} V with ESR {esr:.3f} ohm cannot "
                        f"deliver {p_in * 1e3:.3f} mW"
                    )
                drain = (voltage - math.sqrt(discriminant)) / two_esr * voltage
            into_cap = (
                charger.charge_power(voltage, hv, hp) if harvesting else 0.0
            )
            harvest = into_cap - quiescent if into_cap > 0.0 else 0.0
            # The max()/min() calls of the integrator are spelled as the
            # comparisons they make, which pick the same operand.
            net_drain = drain - (harvest if harvest > 0.0 else 0.0)
            if net_drain <= 0.0:
                # Harvester outruns the load (bright light, tiny load):
                # the device runs indefinitely and the surplus recharges
                # the active set toward the charge target.
                step = min(duration - elapsed, self.CHARGE_REEVALUATION_INTERVAL)
                if voltage < target:
                    view.store(-net_drain * step)
                delivered += load_power * step
                elapsed += step
                continue
            dv = voltage * voltage_step_fraction
            if dv < 1e-6:
                dv = 1e-6
            v_next = voltage - dv
            if v_next < floor:
                v_next = floor
            seg_energy = 0.5 * c_active * (voltage * voltage - v_next * v_next)
            seg_time = seg_energy / net_drain
            if elapsed + seg_time >= duration:
                seg_time = duration - elapsed
                seg_energy = net_drain * seg_time
            view.extract(seg_energy)
            delivered += load_power * seg_time
            elapsed += seg_time
        end = time + elapsed
        if elapsed > 0.0:
            # Leakage over the whole span (leak time constants dwarf any
            # discharge), then the latch top-up.
            reservoir.leak_all(elapsed, end)
            reservoir.replenish_switches(end)
        if not browned_out:
            browned_out = banks[0].voltage <= floor + 1e-9
        end_voltage = reservoir.active_view(end).voltage
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.inc("power.discharge_calls")
            telemetry.inc("power.energy_delivered_j", delivered)
            if browned_out:
                telemetry.inc("power.brownouts")
                telemetry.event(
                    end, "power", "brownout", load_w=load_power, voltage=end_voltage
                )
        return elapsed, browned_out, delivered, end_voltage

    def time_to_brownout_estimate(self, time: float, load_power: float) -> float:
        """Seconds the active set can sustain *load_power*, estimated at
        the current operating point without mutating state.
        """
        total_power = load_power + self.quiescent_power
        esr = self.reservoir.active_esr(time)
        voltage = self.reservoir.active_voltage(time)
        floor = self.output_booster.min_bank_voltage(esr, total_power)
        if voltage <= floor:
            return 0.0
        c_active = self.reservoir.active_capacitance(time)
        # Drain power rises as the voltage falls; bound it by its value
        # midway for a serviceable estimate.
        v_mid = 0.5 * (voltage + floor)
        drain = self.output_booster.drain_power(v_mid, esr, total_power)
        energy = 0.5 * c_active * (voltage * voltage - floor * floor)
        return energy / drain


#: Preferred public name for the power system (``from repro import
#: PowerSystem``); ``CapybaraPowerSystem`` remains as the historical
#: alias.
PowerSystem = CapybaraPowerSystem
