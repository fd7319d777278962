"""Vectorized-backend benchmarks: the 1024-device power-sweep grid.

Two kinds of measurement:

* pytest-benchmark entries for the vec kernel and the scalar-compat
  reference on the identical fleet, so ``--benchmark-json`` snapshots
  carry both sides;
* an explicit speedup-ratio gate (``test_vec_speedup_ratio``) that
  times both engines over the same device count and step count and
  asserts the struct-of-arrays kernel is at least
  ``REPRO_VEC_SPEEDUP_MIN`` times faster (default 10x locally; CI's
  1-core runners set 5x — see ``.github/workflows/ci.yml``);
* a ragged-launch gate (``test_skewed_ragged_launch_costs_what_apart``)
  that times one launch of mixed horizons against its horizons
  launched apart.

Both engines implement the same five-phase step contract
(:mod:`repro.vec.kernel` docstring), so the ratio isolates exactly the
per-device Python dispatch the vec backend removes.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.experiments.power_sweep import build_vec_fleet
from repro.vec import FleetKernel, ScalarFleet

#: The benchmark grid: 256 harvest scales x 2 systems x 2 replicates.
GRID_SCALES = np.linspace(0.25, 4.0, 256)
GRID_REPLICATES = 2
GRID_DEVICES = 1024

#: Steps per timed run (50 simulated seconds at dt=0.05).
STEPS = 100
DT = 0.05


def _fleet():
    state, _labels = build_vec_fleet(list(GRID_SCALES), replicates=GRID_REPLICATES)
    assert state.n == GRID_DEVICES
    return state


def _best_of(engine_factory, rounds: int) -> float:
    """Fastest wall time over *rounds* fresh engine runs, seconds."""
    best = float("inf")
    for _ in range(rounds):
        engine = engine_factory()
        started = time.perf_counter()
        engine.run(STEPS * DT, dt=DT)
        best = min(best, time.perf_counter() - started)
    return best


def test_vec_power_sweep_grid(benchmark):
    """The vec kernel over the 1024-device grid, once per round."""
    state = _fleet()

    def run_vec():
        fresh = state.select(range(state.n))
        FleetKernel(fresh).run(STEPS * DT, dt=DT)
        return fresh

    result = benchmark(run_vec)
    benchmark.extra_info["devices"] = int(result.n)
    benchmark.extra_info["steps"] = STEPS
    # The run did real work: some devices duty-cycled.
    assert float(result.energy_in.sum()) > 0.0


@pytest.mark.parametrize("devices", [1, 256])
def test_vec_kernel_ns_per_device_step(benchmark, devices):
    """``FleetKernel.run`` cost per device-step, at 1 and 256 devices.

    ``extra_info["ns_per_device_step"]`` is the fastest round's kernel
    wall (the run's own ``wall_seconds``, so copying the fleet is not
    counted) over ``STEPS * devices``.  At these sizes NumPy call
    overhead, not arithmetic, sets the cost of a step.
    """
    state = _fleet().select(range(devices))
    walls = []

    def run_kernel():
        summary = FleetKernel(state.select(range(devices))).run(STEPS * DT, dt=DT)
        walls.append(summary["wall_seconds"])
        return summary

    summary = benchmark(run_kernel)
    benchmark.extra_info["devices"] = devices
    benchmark.extra_info["steps"] = STEPS
    benchmark.extra_info["ns_per_device_step"] = (
        min(walls) / (STEPS * devices) * 1e9
    )
    assert summary["steps"] == STEPS and summary["devices"] == devices


def test_scalar_power_sweep_grid(benchmark):
    """The scalar-compat reference on the identical fleet.

    Kept to 64 devices per round so the benchmark suite stays usably
    fast; the full 1024-device head-to-head lives in
    :func:`test_vec_speedup_ratio`.
    """
    state = _fleet().select(range(64))

    def run_scalar():
        fresh = state.select(range(state.n))
        ScalarFleet(fresh).run(STEPS * DT, dt=DT)
        return fresh

    result = benchmark(run_scalar)
    benchmark.extra_info["devices"] = int(result.n)
    benchmark.extra_info["steps"] = STEPS
    assert float(result.energy_in.sum()) > 0.0


def test_vec_speedup_ratio():
    """vec must beat the scalar reference by the configured ratio.

    The two engines advance the *same* 1024-device fleet through the
    same steps; both sides take their best-of-N wall time so a noisy
    neighbour can only hurt, not help, the measured ratio.
    """
    minimum = float(os.environ.get("REPRO_VEC_SPEEDUP_MIN", "10"))
    state = _fleet()

    vec_seconds = _best_of(
        lambda: FleetKernel(state.select(range(state.n))), rounds=5
    )
    scalar_seconds = _best_of(
        lambda: ScalarFleet(state.select(range(state.n))), rounds=2
    )

    speedup = scalar_seconds / vec_seconds
    print(
        f"\nvec {vec_seconds*1e3:.2f}ms vs scalar {scalar_seconds*1e3:.1f}ms "
        f"on {state.n} devices x {STEPS} steps: {speedup:.1f}x"
    )
    assert speedup >= minimum, (
        f"vec backend is only {speedup:.1f}x faster than scalar on the "
        f"{state.n}-device grid (required: {minimum:.0f}x)"
    )


def test_vec_scalar_agreement_on_grid():
    """The benchmark fleet itself agrees between the two engines."""
    vec_state = _fleet()
    scalar_state = vec_state.select(range(vec_state.n))
    FleetKernel(vec_state).run(STEPS * DT, dt=DT)
    ScalarFleet(scalar_state).run(STEPS * DT, dt=DT)
    np.testing.assert_allclose(
        vec_state.voltage, scalar_state.voltage, rtol=1e-9, atol=1e-12
    )
    assert (vec_state.on == scalar_state.on).all()
    assert (vec_state.brownouts == scalar_state.brownouts).all()


#: A skewed ragged launch: one long device beside many short ones.
SKEW_LONG_STEPS = 6000
SKEW_SHORT_STEPS = 200
SKEW_SHORT_DEVICES = 2000


def _skewed_wall(state, ends) -> float:
    """Best-of-3 kernel wall of one static launch of *state* to *ends*."""
    best = float("inf")
    for _ in range(3):
        fleet = state.select(range(state.n))
        segments = [(max(ends), fleet.harvest_voltage, fleet.harvest_power)]
        summary = FleetKernel(fleet).run_segments(segments, DT, end_steps=ends)
        best = min(best, summary["wall_seconds"])
    return best


def test_skewed_ragged_launch_costs_what_apart():
    """One launch of a long device and 2,000 short ones costs about what
    the two horizons cost launched apart.

    A step costs more at width 2,001 than at width 1, so a launch that
    kept finished devices stepping would pay that width for all 6,000
    steps: about twice the cost apart on a 2-vCPU VM.  Dropping the
    short devices at their stop leaves width 1 for the last 5,800.
    """
    grid = _fleet()
    state = grid.select([k % grid.n for k in range(1 + SKEW_SHORT_DEVICES)])
    ends = [SKEW_LONG_STEPS] + [SKEW_SHORT_STEPS] * SKEW_SHORT_DEVICES
    together = _skewed_wall(state, ends)
    apart = _skewed_wall(state.select([0]), ends[:1]) + _skewed_wall(
        state.select(range(1, state.n)), ends[1:]
    )
    print(f"\nskewed launch {together*1e3:.0f}ms vs apart {apart*1e3:.0f}ms")
    assert together <= 1.25 * apart, (
        f"one skewed launch took {together / apart:.2f}x its horizons "
        f"launched apart (allowed: 1.25x)"
    )
