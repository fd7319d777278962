"""Scalar-compat adapter: the reference the vec kernel is tested against.

:class:`ScalarFleet` advances the *same* :class:`~repro.vec.state.FleetState`
through the *same* five-phase step contract as
:class:`~repro.vec.kernel.FleetKernel`, but computes every electrical
quantity with the real scalar model objects
(:class:`~repro.energy.booster.InputBooster`,
:class:`~repro.energy.booster.OutputBooster`) one device at a time in
pure Python.  That makes it two things at once:

* the **differential reference** — any divergence between
  ``FleetKernel.step`` and ``ScalarFleet.step`` beyond float rounding is
  a vectorization bug, because both sides share the discretization and
  only the arithmetic differs;
* the **scalar side of the throughput benchmark** — it is an honest
  per-device object-dispatch implementation of the same workload, so
  the vec-vs-scalar speedup ratio measures exactly the cost the
  struct-of-arrays kernel removes.

The per-step agreement tolerance is documented in
``docs/performance.md`` (``~1e-12`` relative; see also
``tests/golden/vec/``).
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

import numpy as np

from repro.energy.booster import InputBooster, OutputBooster
from repro.errors import ConfigurationError
from repro.vec.kernel import _check_timing
from repro.vec.state import FleetState

__all__ = ["ScalarFleet"]

_FLOOR_EPS = 1e-9
_TARGET_EPS = 1e-9


def _input_boosters(state: FleetState) -> List[InputBooster]:
    return [
        InputBooster(
            efficiency=float(state.in_efficiency[i]),
            v_cold_start=float(state.in_v_cold_start[i]),
            cold_start_efficiency=float(state.in_cold_start_efficiency[i]),
            bypass=bool(state.in_bypass[i]),
            v_diode_drop=float(state.in_v_diode_drop[i]),
            v_charge_target=float(state.in_v_charge_target[i]),
            min_input_voltage=float(state.in_min_input_voltage[i]),
            low_voltage_efficiency=float(state.in_low_voltage_efficiency[i]),
            v_full_efficiency=float(state.in_v_full_efficiency[i]),
        )
        for i in range(state.n)
    ]


def _output_boosters(state: FleetState) -> List[OutputBooster]:
    return [
        OutputBooster(
            v_in_min=float(state.out_v_in_min[i]),
            efficiency=float(state.out_efficiency[i]),
            quiescent_power=float(state.out_quiescent[i]),
        )
        for i in range(state.n)
    ]


class ScalarFleet:
    """Per-device scalar stepping over a :class:`FleetState`.

    Mutates *state* in place, exactly like
    :class:`~repro.vec.kernel.FleetKernel`; run either engine over a
    copy of the same initial state and compare columns.
    """

    def __init__(self, state: FleetState) -> None:
        self.state = state
        self.inputs = _input_boosters(state)
        self.outputs = _output_boosters(state)
        self.steps = 0
        self.now = 0.0
        # The scalar floor must reproduce the vectorized one bit for bit,
        # so take it from the scalar model rather than trusting state.
        self.floors = [
            booster.min_bank_voltage(float(state.esr[i]), float(state.load_power[i]))
            for i, booster in enumerate(self.outputs)
        ]

    def step(self, dt: float) -> None:
        """One fixed timestep, phase for phase the kernel's contract."""
        _check_timing(dt)
        s = self.state
        # One vectorized exp, indexed per device: np.exp and math.exp can
        # disagree by an ULP, and the differential tests compare the two
        # engines bit for bit — leakage must round identically.
        decays = np.exp(-dt / s.leak_tau)
        for i in range(s.n):
            v = float(s.voltage[i])
            floor = self.floors[i]
            on = bool(s.on[i])

            # 1. Brownout check.
            if on and v <= floor + _FLOOR_EPS:
                on = False
                s.brownouts[i] += 1

            # 2. Operating-point powers at the step-start voltage.
            charge = self.inputs[i].charge_power(
                v, float(s.harvest_voltage[i]), float(s.harvest_power[i])
            )
            net_in = charge - float(s.quiescent_power[i]) if charge > 0.0 else 0.0
            drain = 0.0
            if on:
                drain = self.outputs[i].drain_power(
                    v, float(s.esr[i]), float(s.load_power[i])
                )

            # 3. Clipped energy update.
            half_c = 0.5 * float(s.capacitance[i])
            target = float(s.charge_target[i])
            energy = half_c * v * v
            target_energy = max(half_c * target * target, energy)
            new_energy = energy + (net_in - drain) * dt
            new_energy = min(max(new_energy, 0.0), target_energy)
            v = math.sqrt(new_energy / half_c)

            # 4. Wake at the charge target (pre-leak voltage).
            if not on and s.load_power[i] > 0.0 and v >= target - _TARGET_EPS:
                on = True

            # 5. RC leakage.
            decay = float(decays[i])
            leaked_from = half_c * v * v
            v *= decay
            s.energy_leaked[i] += leaked_from - half_c * v * v

            s.voltage[i] = v
            s.on[i] = on
            s.energy_in[i] += charge * dt
            s.energy_out[i] += drain * dt
            if drain > 0.0:
                s.on_seconds[i] += dt
        self.steps += 1
        self.now += dt

    def run(self, duration: float, dt: float = 0.05) -> Dict[str, float]:
        """Step through *duration* seconds; returns the same summary
        shape as :meth:`FleetKernel.run` for benchmark symmetry."""
        _check_timing(dt, duration)
        steps = int(round(duration / dt))
        started = time.perf_counter()
        for _ in range(steps):
            self.step(dt)
        wall = time.perf_counter() - started
        return {
            "steps": float(steps),
            "devices": float(self.state.n),
            "device_steps": float(steps * self.state.n),
            "wall_seconds": wall,
        }

    def run_segments(self, segments, dt: float) -> Dict[str, float]:
        """Per-device reference for :meth:`FleetKernel.run_segments`.

        Reassigns the harvest columns before each segment and steps with
        the unchanged scalar contract — the differential baseline for
        trace-driven batches.
        """
        _check_timing(dt)
        segments = list(segments)
        if not segments:
            raise ConfigurationError("run_segments needs at least one segment")
        shape = self.state.voltage.shape
        total_steps = 0
        started = time.perf_counter()
        for steps, hv, hp in segments:
            hv = np.asarray(hv, dtype=np.float64)
            hp = np.asarray(hp, dtype=np.float64)
            if hv.shape != shape or hp.shape != shape:
                raise ConfigurationError(
                    f"segment operating points: expected shape {shape}, "
                    f"got {hv.shape} / {hp.shape}"
                )
            self.state.harvest_voltage = hv
            self.state.harvest_power = hp
            for _ in range(int(steps)):
                self.step(dt)
            total_steps += int(steps)
        wall = time.perf_counter() - started
        return {
            "steps": float(total_steps),
            "segments": float(len(segments)),
            "devices": float(self.state.n),
            "device_steps": float(total_steps * self.state.n),
            "wall_seconds": wall,
        }

    def voltages(self) -> np.ndarray:
        """Snapshot of the terminal voltages (copy)."""
        return self.state.voltage.copy()
