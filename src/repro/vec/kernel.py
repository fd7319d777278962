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
import math
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


def _check_timing(dt: float, duration: float = 0.0) -> None:
    """Reject a *dt* that is not finite and positive, or a *duration*
    that is not finite and non-negative, at a kernel entry point."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigurationError(f"dt must be finite and positive, got {dt}")
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ConfigurationError(
            f"duration must be finite and non-negative, got {duration}"
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
    _check_timing(dt)
    taus = np.atleast_1d(np.asarray(leak_tau, dtype=np.float64))
    return np.asarray(
        [np.exp(np.float64(-dt) / tau) for tau in taus], dtype=np.float64
    )


class _ChargeTerms(NamedTuple):
    """The voltage-independent terms of the input-booster charge model.

    They depend only on booster constants and the harvester operating
    point, so a caller stepping many voltages computes them once.  The
    constant masks are folded into thresholds: a device without a
    bypass diode has a ``-inf`` bypass threshold and a blocked harvester
    a ``-inf`` stop voltage, so no voltage falls below the one and every
    voltage reaches the other (a voltage is never NaN).
    """

    v_cold_start: np.ndarray
    v_full_efficiency: np.ndarray
    ramp_span: np.ndarray  # v_full_efficiency - v_cold_start
    low_efficiency: np.ndarray
    ramp_gain: np.ndarray  # 1 - low_efficiency
    warm_power: np.ndarray  # harvest_power * efficiency
    # The cold path's two powers: max(hp * cold_start_efficiency, 0), and
    # max(hp * cold_start_efficiency, hp * diode efficiency) below the
    # bypass threshold, min(harvest_voltage - v_diode_drop, v_cold_start).
    cold_power: np.ndarray
    bypass_below: np.ndarray
    bypass_power: np.ndarray
    v_stop: np.ndarray  # v_charge_target, or -inf if the harvester is blocked


def _charge_terms(state: FleetState) -> _ChargeTerms:
    hv = state.harvest_voltage
    hp = state.harvest_power
    with np.errstate(divide="ignore", invalid="ignore"):
        diode_efficiency = np.where(
            hv > 0.0, np.maximum(0.0, 1.0 - state.in_v_diode_drop / hv), 0.0
        )
    cold_power = hp * state.in_cold_start_efficiency
    # The harvester is too weak to charge at any voltage.
    blocked = (hp <= 0.0) | (hv < state.in_min_input_voltage)
    return _ChargeTerms(
        v_cold_start=state.in_v_cold_start,
        v_full_efficiency=state.in_v_full_efficiency,
        ramp_span=state.in_v_full_efficiency - state.in_v_cold_start,
        low_efficiency=state.in_low_voltage_efficiency,
        ramp_gain=1.0 - state.in_low_voltage_efficiency,
        warm_power=hp * state.in_efficiency,
        cold_power=np.maximum(cold_power, 0.0),
        # The diode conducts on the cold path only, so its threshold is
        # capped at v_cold_start.
        bypass_below=np.where(
            state.in_bypass,
            np.minimum(hv - state.in_v_diode_drop, state.in_v_cold_start),
            -np.inf,
        ),
        bypass_power=np.maximum(cold_power, hp * diode_efficiency),
        v_stop=np.where(blocked, -np.inf, state.in_v_charge_target),
    )


class _Scratch(NamedTuple):
    """Work arrays for one fleet shape, allocated once per call.

    No ufunc call here writes over one of its own operands: for a
    one-device fleet NumPy copies such an overlapping operand first,
    which doubles the call's cost.
    """

    a: np.ndarray
    b: np.ndarray
    mask: np.ndarray
    flag: np.ndarray


def _scratch(shape) -> _Scratch:
    return _Scratch(
        np.empty(shape), np.empty(shape),
        np.empty(shape, dtype=bool), np.empty(shape, dtype=bool),
    )


def _charge_power(
    voltage: np.ndarray, terms: _ChargeTerms, out: np.ndarray, work: _Scratch
) -> np.ndarray:
    """Input-booster charge power at *voltage*, written into *out*.

    Each region's power is written over the last (warm, cold, bypassed,
    stopped), so every device ends with exactly the value its region
    selects.  Uses ``work.a`` and ``work.mask``.
    """
    (
        v_cold_start, v_full_efficiency, ramp_span, low_efficiency,
        ramp_gain, warm_power, cold_power, bypass_below, bypass_power,
        v_stop,
    ) = terms
    a, mask = work.a, work.mask
    np.subtract(voltage, v_cold_start, out=a)
    np.divide(a, ramp_span, out=out)
    fraction = _clip(out, _ZERO, _ONE, out=a)
    np.multiply(ramp_gain, fraction, out=out)
    ramp = np.add(low_efficiency, out, out=a)
    # Above v_full_efficiency the scalar model returns exactly 1.0.
    np.greater_equal(voltage, v_full_efficiency, out=mask)
    np.putmask(ramp, mask, _ONE)
    power = np.multiply(warm_power, ramp, out=out)
    np.putmask(power, np.less(voltage, v_cold_start, out=mask), cold_power)
    np.putmask(power, np.less(voltage, bypass_below, out=mask), bypass_power)
    np.putmask(power, np.greater_equal(voltage, v_stop, out=mask), _ZERO)
    return power


class _DrainTerms(NamedTuple):
    """The voltage-independent terms of the output-booster droop model."""

    p_in: np.ndarray
    droop: np.ndarray  # 4 * esr * p_in
    two_esr: np.ndarray
    no_esr: np.ndarray


def _drain_terms(state: FleetState) -> _DrainTerms:
    return _DrainTerms(
        p_in=state.p_in,
        droop=4.0 * state.esr * state.p_in,
        two_esr=2.0 * state.esr,
        no_esr=~(state.esr > 0.0),
    )


def _drain_power(
    voltage: np.ndarray,
    drawing: np.ndarray,
    terms: _DrainTerms,
    out: np.ndarray,
    work: _Scratch,
) -> np.ndarray:
    """Droop-limited drain power at *voltage*, written into *out*.

    *drawing* marks the devices whose load draws, each at a positive
    voltage; the others get 0.  Uses all of *work*.  Call under
    ``np.errstate`` ignoring divide and invalid (zero-ESR devices
    divide by zero in the unused branch).
    """
    p_in, droop, two_esr, no_esr = terms
    a, b, mask, idle = work
    np.multiply(voltage, voltage, out=out)
    discriminant = np.subtract(out, droop, out=a)
    # The devices that deliver nothing: not drawing, or no real root.
    np.greater_equal(discriminant, _ZERO, out=idle)
    np.logical_and(idle, drawing, out=mask)
    np.logical_not(mask, out=idle)
    np.maximum(discriminant, _ZERO, out=out)
    np.sqrt(out, out=a)
    np.subtract(voltage, a, out=out)
    current = np.divide(out, two_esr, out=a)
    # Without ESR the current is p_in / v.
    np.maximum(voltage, _TINY_VOLTAGE, out=out)
    np.putmask(current, no_esr, np.divide(p_in, out, out=b))
    power = np.multiply(current, voltage, out=out)
    np.putmask(power, idle, _ZERO)
    return power


def drain_power_vec(
    voltage: np.ndarray, state: FleetState, active: Optional[np.ndarray] = None
) -> np.ndarray:
    """Power leaving each bank to feed its load, watts.

    The scalar ``OutputBooster.drain_power``: solve the ESR droop
    quadratic ``I (V - I ESR) = P_in`` for the stable root and return
    ``I * V``.  Only meaningful above the discharge floor; *active*
    masks devices for which the drain applies (others get 0).
    """
    voltage = np.asarray(voltage, dtype=np.float64)
    drawing = voltage > 0.0
    if active is not None:
        drawing &= active
    with np.errstate(invalid="ignore", divide="ignore"):
        return _drain_power(
            voltage,
            drawing,
            _drain_terms(state),
            np.empty_like(voltage),
            _scratch(voltage.shape),
        )


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

    The loop allocates nothing: each operation writes into work arrays
    made once per call, and each ``np.where`` is a masked write
    (``np.putmask``), which copies the value the ``where`` would have
    selected.  Constant masks are folded into thresholds once per call
    (no bypass diode: a ``-inf`` bypass threshold; a blocked harvester:
    a ``-inf`` stop voltage; no load: a ``+inf`` wake voltage), which is
    exact because a voltage is never NaN.  Every fleet runs this one
    step body.

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
        _check_timing(dt)
        self._advance(self.state, 1, dt, np.exp(-dt / self.state.leak_tau))

    def _advance(
        self, s: FleetState, steps: int, dt: float, decay: np.ndarray
    ) -> None:
        """Run *steps* five-phase steps of *s* at its operating point.

        Every per-step operation writes into a work array made here, so
        the loop allocates nothing, and none but the accounting sums
        writes over its own operand (see :class:`_Scratch`).
        ``voltage`` and ``on`` are fresh arrays put back into *s* at the
        end; the accounting columns are updated in place.
        """
        charge_terms = _charge_terms(s)
        drain_terms = _drain_terms(s)
        floor = s.floor + _FLOOR_EPS
        quiescent = s.quiescent_power
        half_c = 0.5 * s.capacitance
        full_energy = half_c * s.charge_target * s.charge_target
        # A device without a load never wakes: no finite voltage reaches
        # +inf.
        wake_voltage = np.where(
            s.load_power > 0.0, s.charge_target - _TARGET_EPS, np.inf
        )
        brownouts = s.brownouts
        energy_in = s.energy_in
        energy_out = s.energy_out
        energy_leaked = s.energy_leaked
        on_seconds = s.on_seconds
        # The step-start voltage, and the post-update one before leakage.
        v = s.voltage.copy()
        v_post = np.empty_like(v)
        on = s.on.copy()
        # Stored energy at the step-start voltage; each step's leakage
        # phase recomputes it for the next step from the same bits.
        energy = half_c * v * v
        charge = np.empty_like(v)
        drain = np.empty_like(v)
        net_in = np.empty_like(v)
        work = _scratch(v.shape)
        a, b, mask, flag = work
        now = self.now
        step_dt = _operand(dt)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(steps):
                # 1. Brown out devices that can no longer hold their load.
                #    Every device left on is above its floor, which is
                #    positive, so ``on`` is the drain's drawing mask.
                np.less_equal(v, floor, out=flag)
                browned = np.logical_and(flag, on, out=mask)
                if np.count_nonzero(browned):
                    np.putmask(on, browned, False)
                    brownouts += browned

                # 2. Operating-point powers at the step-start voltage.
                _charge_power(v, charge_terms, charge, work)
                np.subtract(charge, quiescent, out=net_in)
                np.logical_not(np.greater(charge, _ZERO, out=flag), out=mask)
                np.putmask(net_in, mask, _ZERO)
                _drain_power(v, on, drain_terms, drain, work)

                # 3. Energy update, clipped to [0, energy at charge
                #    target] (an over-target initial voltage is
                #    preserved, not clipped).
                np.subtract(net_in, drain, out=a)
                np.multiply(a, step_dt, out=b)
                np.add(energy, b, out=a)
                target_energy = np.maximum(full_energy, energy, out=b)
                new_energy = _clip(a, _ZERO, target_energy, out=energy)
                np.divide(new_energy, half_c, out=a)
                np.sqrt(a, out=v_post)

                # 4. Wake devices whose post-update voltage reached the
                #    target (``on | (~on & x)`` is ``on | x``: a masked
                #    write of True).
                np.greater_equal(v_post, wake_voltage, out=mask)
                np.putmask(on, mask, True)

                # 5. RC leakage on the post-update voltage.
                np.multiply(half_c, v_post, out=a)
                leaked_from = np.multiply(a, v_post, out=b)
                np.multiply(v_post, decay, out=v)
                np.multiply(half_c, v, out=a)
                np.multiply(a, v, out=energy)
                energy_leaked += np.subtract(leaked_from, energy, out=a)

                # Accounting: gross flows at the step operating points
                # (clipping at target/empty and leakage close the
                # balance separately).
                energy_in += np.multiply(charge, step_dt, out=a)
                energy_out += np.multiply(drain, step_dt, out=a)
                # ``dt`` where the load drew, else 0.0: 1.0 * dt or 0.0 * dt.
                np.copyto(a, np.greater(drain, _ZERO, out=mask))
                on_seconds += np.multiply(a, step_dt, out=b)
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

        Returns a summary dict (steps, devices, device-steps — their
        product — and wall seconds) and, when telemetry is enabled,
        records the ``vec.*`` counters.  *dt* must be finite and
        positive, *duration* finite and non-negative.  *decay*
        optionally overrides the per-step RC leakage factors; pass
        :func:`leak_decay` when results must not depend on batch
        composition (see that helper's docstring).
        """
        _check_timing(dt, duration)
        steps = int(round(duration / dt))
        started = time.perf_counter()
        decay = _checked_decay(decay, dt, self.state)
        self._advance(self.state, steps, dt, decay)
        wall = time.perf_counter() - started
        if self.telemetry.enabled:
            self.telemetry.inc("vec.steps", steps)
            self.telemetry.inc("vec.devices", self.state.n)
            self.telemetry.observe("vec.batch_seconds", wall)
        return {
            "steps": float(steps),
            "devices": float(self.state.n),
            "device_steps": float(steps * self.state.n),
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
        count; ``steps`` counts the launch's steps, and ``device_steps``
        the steps the devices took, each to its own end step.  Telemetry
        additionally records ``vec.segments``.
        """
        _check_timing(dt)
        state = self.state
        shape = state.voltage.shape
        segments = [_checked_segment(segment, shape) for segment in segments]
        if not segments:
            raise ConfigurationError("run_segments needs at least one segment")
        decay = _checked_decay(decay, dt, state)
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
            "device_steps": float(ends.sum()),
            "wall_seconds": wall,
        }


def _checked_decay(
    decay: Optional[np.ndarray], dt: float, state: FleetState
) -> np.ndarray:
    """Per-step RC leakage factors: *decay* checked against the fleet,
    or ``exp(-dt / leak_tau)`` when it is None."""
    if decay is None:
        return np.exp(-dt / state.leak_tau)
    decay = np.asarray(decay, dtype=np.float64)
    if decay.shape != state.voltage.shape:
        raise ConfigurationError(
            f"decay: expected shape {state.voltage.shape}, got {decay.shape}"
        )
    if not np.isfinite(decay).all():
        raise ConfigurationError("decay factors must be finite")
    return decay


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
    if not np.isfinite(goal).all():
        raise ConfigurationError("target voltages must be finite")
    step = goal / float(steps)
    half_c = 0.5 * s.capacitance
    elapsed = np.zeros(s.n)
    voltage = np.zeros(s.n)
    terms = _charge_terms(s)
    power = np.empty(s.n)
    work = _scratch(s.n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            v_next = np.minimum(goal, voltage + step)
            _charge_power(voltage, terms, power, work)
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
