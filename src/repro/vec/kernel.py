"""The vectorized fixed-timestep kernel.

Two tiers of vectorized computation, both mirroring the scalar
electrical models term for term:

* :class:`FleetKernel` — a fixed-timestep duty-cycle engine.  Each
  ``step(dt)`` evaluates the input-booster charge paths (cold start,
  keeper-diode bypass, efficiency ramp), the output-booster droop
  drain, platform quiescent draw, RC leakage, and the
  charge-to-target / discharge-to-floor state machine for every device
  at once.  This is the discretized "VirtCap" form: any DC/DC
  converter + capacitor stack advanced on a shared clock, with NumPy
  arrays instead of per-device objects.

* Analytic sweep helpers — :func:`charge_times` and
  :func:`times_to_brownout` replicate the scalar integrators used by
  the Figure 3/4 design-space sweeps (``charge_time_for_bank``,
  ``OutputBooster.time_to_brownout``) step for step, so the vec
  backend's design-space numbers agree with the scalar backend to
  floating-point tolerance (see ``docs/performance.md``).

Per-step discretization order (the documented contract the
scalar-compat adapter in :mod:`repro.vec.compat` reproduces exactly):

1. devices that are on but at/below their discharge floor brown out;
2. charge and drain powers are evaluated at the step-start voltage;
3. the net energy delta ``(charge - quiescent - drain) * dt`` is
   applied, clipped to ``[0, energy(charge_target)]``;
4. off devices whose post-update voltage reached the charge target
   turn on (the comparator fires as charging tops out, *before* the
   same step's leakage nudges the voltage back below the target);
5. RC leakage decays the post-update voltage.

Tolerance semantics: against the scalar models the kernel agrees to
float rounding (~1e-12 relative) per step on identical operating
points; over a trace, first-order Euler discretization error is bounded
by the chosen ``dt`` and documented in ``docs/performance.md``.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, PowerSystemError
from repro.observability.telemetry import Telemetry, resolve_telemetry
from repro.vec.state import FleetState

__all__ = [
    "FleetKernel",
    "drain_power_vec",
    "charge_times",
    "leak_decay",
    "times_to_brownout",
    "atomicity_ops",
]

try:  # The ufunc np.clip dispatches to, without its Python-level wrapper.
    from numpy._core.umath import clip as _clip
except ImportError:  # pragma: no cover - NumPy < 2
    _clip = np.clip


def _operand(value: float) -> np.ndarray:
    """A read-only 0-d float64 array for a constant ufunc operand.

    A Python float operand is converted to an array on every ufunc call;
    the step loop's constants are converted once instead.  Every array
    they meet is float64, so values and result dtypes are unchanged.
    """
    operand = np.array(value, dtype=np.float64)
    operand.setflags(write=False)
    return operand


_ZERO = _operand(0.0)
_ONE = _operand(1.0)
#: Lower bound on the voltage in the zero-ESR current ``p_in / v``.
_TINY_VOLTAGE = _operand(1e-300)

#: Epsilon matching the scalar discharge loop's floor guard.
_FLOOR_EPS = 1e-9
#: Epsilon matching the scalar charge loop's target guard.
_TARGET_EPS = 1e-9

#: The state columns a run writes: its per-device results.
_RUN_COLUMNS = (
    "voltage",
    "on",
    "energy_in",
    "energy_out",
    "energy_leaked",
    "on_seconds",
    "brownouts",
)


def leak_decay(leak_tau: np.ndarray, dt: float) -> np.ndarray:
    """Per-device RC decay factors, computed element by element.

    Every other kernel operation is elementwise IEEE arithmetic, so a
    batch of N devices and N batches of one produce identical bits — as
    long as ``exp`` does too.  ``np.exp`` over an array may take a SIMD
    path whose rounding can differ from the size-1 evaluation on some
    builds, which would make batching observable.  This helper pins the
    size-1 evaluation for every element, so any batch composition of
    the same devices shares exactly these factors.  Pass the result to
    :meth:`FleetKernel.run` via ``decay=`` when batch composition must
    not influence results (the campaign planner does).
    """
    taus = np.atleast_1d(np.asarray(leak_tau, dtype=np.float64))
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    return np.asarray(
        [np.exp(np.float64(-dt) / tau) for tau in taus], dtype=np.float64
    )


class _ChargeTerms(NamedTuple):
    """The voltage-independent terms of the input-booster charge model.

    They depend only on booster constants and the harvester operating
    point, so a caller stepping many voltages computes them once.
    """

    v_cold_start: np.ndarray
    v_full_efficiency: np.ndarray
    ramp_span: np.ndarray  # v_full_efficiency - v_cold_start
    low_efficiency: np.ndarray
    ramp_gain: np.ndarray  # 1 - low_efficiency
    warm_power: np.ndarray  # harvest_power * efficiency
    cold_power: np.ndarray  # harvest_power * cold_start_efficiency
    bypass: np.ndarray
    bypass_below: np.ndarray  # harvest_voltage - v_diode_drop
    bypass_power: np.ndarray  # harvest_power * diode efficiency
    v_charge_target: np.ndarray
    blocked: np.ndarray  # harvester too weak to charge at any voltage


def _charge_terms(state: FleetState) -> _ChargeTerms:
    hv = state.harvest_voltage
    hp = state.harvest_power
    with np.errstate(divide="ignore", invalid="ignore"):
        diode_efficiency = np.where(
            hv > 0.0, np.maximum(0.0, 1.0 - state.in_v_diode_drop / hv), 0.0
        )
    return _ChargeTerms(
        v_cold_start=state.in_v_cold_start,
        v_full_efficiency=state.in_v_full_efficiency,
        ramp_span=state.in_v_full_efficiency - state.in_v_cold_start,
        low_efficiency=state.in_low_voltage_efficiency,
        ramp_gain=1.0 - state.in_low_voltage_efficiency,
        warm_power=hp * state.in_efficiency,
        cold_power=hp * state.in_cold_start_efficiency,
        bypass=state.in_bypass,
        bypass_below=hv - state.in_v_diode_drop,
        bypass_power=hp * diode_efficiency,
        v_charge_target=state.in_v_charge_target,
        blocked=(hp <= 0.0) | (hv < state.in_min_input_voltage),
    )


def _charge_power(voltage: np.ndarray, terms: _ChargeTerms) -> np.ndarray:
    (
        v_cold_start, v_full_efficiency, ramp_span, low_efficiency,
        ramp_gain, warm_power, cold_power, bypass, bypass_below,
        bypass_power, v_charge_target, blocked,
    ) = terms
    fraction = _clip((voltage - v_cold_start) / ramp_span, _ZERO, _ONE)
    # Above v_full_efficiency the scalar model returns exactly 1.0.
    ramp = np.where(
        voltage >= v_full_efficiency,
        _ONE,
        low_efficiency + ramp_gain * fraction,
    )
    warm = warm_power * ramp
    bypassed = np.where(bypass & (voltage < bypass_below), bypass_power, _ZERO)
    cold_path = np.maximum(cold_power, bypassed)
    power = np.where(voltage >= v_cold_start, warm, cold_path)
    return np.where(blocked | (voltage >= v_charge_target), _ZERO, power)


class _DrainTerms(NamedTuple):
    """The voltage-independent terms of the output-booster droop model."""

    p_in: np.ndarray
    droop: np.ndarray  # 4 * esr * p_in
    two_esr: np.ndarray
    has_esr: np.ndarray


def _drain_terms(state: FleetState) -> _DrainTerms:
    return _DrainTerms(
        p_in=state.p_in,
        droop=4.0 * state.esr * state.p_in,
        two_esr=2.0 * state.esr,
        has_esr=state.esr > 0.0,
    )


def _drain_power(
    voltage: np.ndarray, active: np.ndarray, terms: _DrainTerms
) -> np.ndarray:
    """Droop-limited drain power; call under ``np.errstate`` ignoring
    divide and invalid (zero-ESR devices divide by zero in the unused
    branch)."""
    p_in, droop, two_esr, has_esr = terms
    discriminant = voltage * voltage - droop
    sqrt_disc = np.sqrt(np.maximum(discriminant, _ZERO))
    current = np.where(
        has_esr,
        (voltage - sqrt_disc) / two_esr,
        p_in / np.maximum(voltage, _TINY_VOLTAGE),
    )
    valid = active & (discriminant >= _ZERO) & (voltage > _ZERO)
    return np.where(valid, current * voltage, _ZERO)


def drain_power_vec(
    voltage: np.ndarray, state: FleetState, active: Optional[np.ndarray] = None
) -> np.ndarray:
    """Power leaving each bank to feed its load, watts.

    The scalar ``OutputBooster.drain_power``: solve the ESR droop
    quadratic ``I (V - I ESR) = P_in`` for the stable root and return
    ``I * V``.  Only meaningful above the discharge floor; *active*
    masks devices for which the drain applies (others get 0).
    """
    if active is None:
        active = np.ones_like(voltage, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        return _drain_power(voltage, active, _drain_terms(state))


class FleetKernel:
    """Advance a :class:`FleetState` through fixed timesteps.

    :meth:`step`, :meth:`run` and each segment of :meth:`run_segments`
    share one stepping loop.  Before the loop it computes every term
    that depends only on state constants or the current harvest
    columns; inside it, only work that depends on the voltage or the
    on/off column runs.  A hoisted term is always a left-associated
    prefix of the expression it came from (``hp * eff * ramp`` becomes
    ``(hp * eff)`` once, then ``* ramp`` per step), so every step
    evaluates the same IEEE operations in the same order and the
    results do not depend on how a run is split into calls.

    Args:
        state: the fleet to advance (mutated in place).
        telemetry: optional :class:`~repro.observability.Telemetry`;
            falls back to the ambient scope.  :meth:`run` records
            ``vec.steps``, ``vec.devices``, and ``vec.batch_seconds``.
    """

    def __init__(
        self, state: FleetState, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.state = state
        self.telemetry = resolve_telemetry(telemetry)
        self.steps = 0
        self.now = 0.0

    def step(self, dt: float) -> None:
        """Advance every device by *dt* seconds (see module docstring
        for the discretization order)."""
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        self._advance(self.state, 1, dt, np.exp(-dt / self.state.leak_tau))

    def _advance(
        self, s: FleetState, steps: int, dt: float, decay: np.ndarray
    ) -> None:
        """Run *steps* five-phase steps of *s* at its operating point."""
        charge_terms = _charge_terms(s)
        drain_terms = _drain_terms(s)
        floor = s.floor + _FLOOR_EPS
        quiescent = s.quiescent_power
        half_c = 0.5 * s.capacitance
        full_energy = half_c * s.charge_target * s.charge_target
        wake_voltage = s.charge_target - _TARGET_EPS
        has_load = s.load_power > 0.0
        brownouts = s.brownouts
        energy_in = s.energy_in
        energy_out = s.energy_out
        energy_leaked = s.energy_leaked
        on_seconds = s.on_seconds
        v = s.voltage
        on = s.on
        # Stored energy at the step-start voltage; each step's leakage
        # phase recomputes it for the next step from the same bits.
        energy = half_c * v * v
        now = self.now
        step_dt = _operand(dt)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(steps):
                # 1. Brown out devices that can no longer hold their load.
                browned = on & (v <= floor)
                if np.count_nonzero(browned):
                    on = on & ~browned
                    brownouts += browned

                # 2. Operating-point powers at the step-start voltage.
                charge = _charge_power(v, charge_terms)
                net_in = np.where(charge > _ZERO, charge - quiescent, _ZERO)
                drain = _drain_power(v, on, drain_terms)

                # 3. Energy update, clipped to [0, energy at charge
                #    target] (an over-target initial voltage is
                #    preserved, not clipped).
                target_energy = np.maximum(full_energy, energy)
                new_energy = _clip(
                    energy + (net_in - drain) * step_dt, _ZERO, target_energy
                )
                v = np.sqrt(new_energy / half_c)

                # 4. Wake devices whose post-update voltage reached the
                #    target (``on | (~on & x)`` is ``on | x``).
                on = on | (has_load & (v >= wake_voltage))

                # 5. RC leakage on the post-update voltage.
                leaked_from = half_c * v * v
                v = v * decay
                energy = half_c * v * v
                energy_leaked += leaked_from - energy

                # Accounting: gross flows at the step operating points
                # (clipping at target/empty and leakage close the
                # balance separately).
                energy_in += charge * step_dt
                energy_out += drain * step_dt
                on_seconds += np.where(drain > _ZERO, step_dt, _ZERO)
                now += dt
        s.voltage = v
        s.on = on
        self.steps += steps
        self.now = now

    def run(
        self,
        duration: float,
        dt: float = 0.05,
        decay: Optional[np.ndarray] = None,
    ) -> Dict[str, float]:
        """Step the fleet through *duration* seconds at resolution *dt*.

        Returns a summary dict (steps, devices, wall seconds) and, when
        telemetry is enabled, records the ``vec.*`` counters.  *decay*
        optionally overrides the per-step RC leakage factors; pass
        :func:`leak_decay` when results must not depend on batch
        composition (see that helper's docstring).
        """
        if duration < 0.0:
            raise ConfigurationError(
                f"duration must be non-negative, got {duration}"
            )
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        steps = int(round(duration / dt))
        started = time.perf_counter()
        if decay is None:
            decay = np.exp(-dt / self.state.leak_tau)
        elif np.shape(decay) != self.state.voltage.shape:
            raise ConfigurationError(
                f"decay: expected shape {self.state.voltage.shape}, "
                f"got {np.shape(decay)}"
            )
        self._advance(self.state, steps, dt, decay)
        wall = time.perf_counter() - started
        if self.telemetry.enabled:
            self.telemetry.inc("vec.steps", steps)
            self.telemetry.inc("vec.devices", self.state.n)
            self.telemetry.observe("vec.batch_seconds", wall)
        return {
            "steps": float(steps),
            "devices": float(self.state.n),
            "wall_seconds": wall,
        }

    def run_segments(
        self,
        segments,
        dt: float,
        decay: Optional[np.ndarray] = None,
        end_steps: Optional[Sequence[int]] = None,
    ) -> Dict[str, float]:
        """Step through piecewise-constant harvester operating points.

        *segments* is a sequence of ``(steps, harvest_voltage,
        harvest_power)`` tuples — the output of
        :func:`repro.vec.batch.compile_operating_segments`.  Before each
        segment the fleet's harvest columns are reassigned and the terms
        derived from them recomputed, then the segment's steps run under
        the unchanged five-phase contract.  A single segment is
        therefore bit-identical to :meth:`run` over the same operating
        point: nothing else about the stepping changes, and every
        operation stays elementwise (batch-of-N == N batches-of-1 still
        holds, per :func:`leak_decay`).

        *end_steps* gives each device its own step count, at most the
        segments' total (default: every device runs them all).  Each
        distinct end step is a stop.  At a stop the devices ending there
        leave the launch with their seven run columns (``voltage``,
        ``on`` and the five accounting columns) as they stand, and the
        launch continues on the survivors only: their state columns,
        accounting included, and their *decay* factors are gathered,
        and so is each later segment's operating point.  So no device
        steps past its own end, and each device's run columns equal
        those of a run of its own (every operation is elementwise).
        The launch runs to the segments' total, so compile them for the
        longest run.  With one end step there is one stop, at the end,
        and the launch steps exactly as without *end_steps*.

        Returns the same summary dict as :meth:`run` plus the segment
        count; ``steps`` counts the launch's steps, not device-steps.
        Telemetry additionally records ``vec.segments``.
        """
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        state = self.state
        shape = state.voltage.shape
        segments = [_checked_segment(segment, shape) for segment in segments]
        if not segments:
            raise ConfigurationError("run_segments needs at least one segment")
        if decay is None:
            decay = np.exp(-dt / state.leak_tau)
        elif np.shape(decay) != shape:
            raise ConfigurationError(
                f"decay: expected shape {shape}, got {np.shape(decay)}"
            )
        total = sum(steps for steps, _, _ in segments)
        if end_steps is None:
            ends = np.full(shape, total, dtype=np.int64)
        else:
            ends = np.asarray(end_steps, dtype=np.int64)
            if ends.shape != shape:
                raise ConfigurationError(
                    f"end_steps: expected shape {shape}, got {ends.shape}"
                )
            if ends.size and (ends.min() < 0 or ends.max() > total):
                raise ConfigurationError(
                    f"end_steps must lie in [0, {total}] (the segments' "
                    f"total), got [{ends.min()}, {ends.max()}]"
                )
        stops = iter(sorted(set(ends.tolist()) | {total}))
        stop = next(stops)
        # The devices still stepping, and their indices in ``state``
        # (None while that is all of them).
        live, alive = state, None
        position = 0
        started = time.perf_counter()
        for steps, hv, hp in segments:
            live.harvest_voltage = hv if alive is None else hv[alive]
            live.harvest_power = hp if alive is None else hp[alive]
            end = position + steps
            # A stop at the segment's end is taken at the start of the
            # next segment that steps, or after the last one.
            while stop < end:
                self._advance(live, stop - position, dt, decay)
                position = stop
                if alive is None:
                    alive = np.arange(state.n)
                keep = ends[alive] != stop
                for name in _RUN_COLUMNS:
                    getattr(state, name)[alive[~keep]] = getattr(live, name)[~keep]
                alive = alive[keep]
                live = _gather(live, keep)
                decay = decay[keep]
                stop = next(stops)
            self._advance(live, end - position, dt, decay)
            position = end
        if alive is not None:
            for name in _RUN_COLUMNS:
                getattr(state, name)[alive] = getattr(live, name)
            state.harvest_voltage = hv
            state.harvest_power = hp
        wall = time.perf_counter() - started
        if self.telemetry.enabled:
            self.telemetry.inc("vec.steps", total)
            self.telemetry.inc("vec.devices", state.n)
            self.telemetry.inc("vec.segments", len(segments))
            self.telemetry.observe("vec.batch_seconds", wall)
        return {
            "steps": float(total),
            "segments": float(len(segments)),
            "devices": float(state.n),
            "wall_seconds": wall,
        }


def _checked_segment(segment, shape) -> Tuple[int, np.ndarray, np.ndarray]:
    """One ``(steps, hv, hp)`` segment, validated against the fleet."""
    steps, hv, hp = segment
    steps = int(steps)
    if steps < 0:
        raise ConfigurationError(
            f"segment step counts must be non-negative, got {steps}"
        )
    hv = np.asarray(hv, dtype=np.float64)
    hp = np.asarray(hp, dtype=np.float64)
    if hv.shape != shape or hp.shape != shape:
        raise ConfigurationError(
            f"segment operating points: expected shape {shape}, "
            f"got {hv.shape} / {hp.shape}"
        )
    return steps, hv, hp


def _gather(state: FleetState, keep: np.ndarray) -> FleetState:
    """The devices *keep* selects, with every column carried over.

    Unlike :meth:`FleetState.select` nothing is rebuilt or reset: the
    derived and accounting columns are gathered as they stand.
    """
    part = copy.copy(state)
    for column in dataclasses.fields(FleetState):
        setattr(part, column.name, getattr(state, column.name)[keep])
    return part


# ---------------------------------------------------------------------------
# Analytic design-space sweeps (Figures 3/4, ablations)
# ---------------------------------------------------------------------------


def charge_times(
    state: FleetState,
    target: Optional[np.ndarray] = None,
    steps: int = 200,
) -> np.ndarray:
    """Seconds to charge each device from empty to *target*, vectorized.

    Replicates ``fig03_design_space.charge_time_for_bank`` exactly: the
    voltage range splits into *steps* fixed increments and each segment
    integrates at the charge power evaluated at its lower edge.  Devices
    whose harvester cannot charge at some voltage get ``inf`` (the
    scalar integrator's sentinel).
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    s = state
    goal = s.charge_target if target is None else np.asarray(target, dtype=np.float64)
    if goal.shape != s.voltage.shape:
        raise ConfigurationError(
            f"target: expected shape {s.voltage.shape}, got {goal.shape}"
        )
    step = goal / float(steps)
    half_c = 0.5 * s.capacitance
    elapsed = np.zeros(s.n)
    voltage = np.zeros(s.n)
    terms = _charge_terms(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            v_next = np.minimum(goal, voltage + step)
            power = _charge_power(voltage, terms)
            energy = half_c * (v_next * v_next - voltage * voltage)
            elapsed = elapsed + np.where(power > 0.0, energy / power, np.inf)
            voltage = v_next
    return elapsed


def times_to_brownout(
    state: FleetState,
    voltage_step_fraction: float = 0.01,
    max_iterations: int = 100_000,
) -> np.ndarray:
    """Seconds each device sustains its load from its current voltage.

    Replicates ``OutputBooster.discharge`` with infinite duration: the
    voltage falls in per-device steps of ``max(v * fraction, 1e-6)``
    toward the discharge floor, each segment billed at the drain power
    of its upper edge.  Devices already at/below their floor (or unable
    to deliver the load at all) return 0 — the scalar sweeps' infeasible
    region.
    """
    if voltage_step_fraction <= 0.0:
        raise ConfigurationError("voltage_step_fraction must be positive")
    s = state
    half_c = 0.5 * s.capacitance
    voltage = s.voltage.copy()
    elapsed = np.zeros(s.n)
    done = voltage <= s.floor + _FLOOR_EPS
    for _ in range(max_iterations):
        if done.all():
            return elapsed
        power = drain_power_vec(voltage, s, active=~done)
        # Devices whose droop quadratic has no real root cannot deliver
        # the load: they are infeasible, not slowly discharging.
        stuck = (~done) & (power <= 0.0)
        done = done | stuck
        dv = np.maximum(voltage * voltage_step_fraction, 1e-6)
        v_next = np.maximum(s.floor, voltage - dv)
        step_energy = half_c * (voltage * voltage - v_next * v_next)
        with np.errstate(divide="ignore", invalid="ignore"):
            step_time = np.where(power > 0.0, step_energy / power, 0.0)
        elapsed = elapsed + np.where(done, 0.0, step_time)
        voltage = np.where(done, voltage, v_next)
        done = done | (voltage <= s.floor + _FLOOR_EPS)
    raise PowerSystemError(
        f"brownout integration did not converge in {max_iterations} steps"
    )


def atomicity_ops(state: FleetState, op_rate: float) -> np.ndarray:
    """Operations each device sustains before brownout (Figures 3/4).

    ``times_to_brownout * op_rate`` — the vectorized form of the scalar
    ``atomicity_for_bank`` / ``atomicity_by_parts`` metric.
    """
    if op_rate <= 0.0:
        raise ConfigurationError(f"op_rate must be positive, got {op_rate}")
    return times_to_brownout(state) * op_rate
