"""Bit-exactness of the vectorized fleet kernel across its entry points.

:class:`~repro.vec.FleetKernel` computes its step-invariant terms once per
call and then advances the fleet step by step.  These tests pin that the
way a run is split into calls never shows in the results:

* ``run(N steps)`` equals ``N`` calls of ``step()``;
* ``run_segments`` equals per-step stepping with the harvest columns
  reassigned before each segment;
* a batch of ``N`` devices equals ``N`` batches of one (``select([i])``);
* the final columns of a fixed run hash to a pinned sha256.

Columns are compared by their ``tobytes()``, not with ``==``: equality
treats ``-0.0`` and ``0.0`` as the same value and would hide a change in
the sign of a zero.

The fleet is built so that every branch of the step is taken: bypass on
and off, ``esr == 0`` and ``esr > 0``, ``harvest_power == 0``, a
harvester voltage below the booster minimum (and at zero), an initial
voltage above the charge target, a device that never wakes (no load),
and devices that brown out and wake again.
"""

import hashlib

import numpy as np

from repro.vec import FleetKernel, FleetState, leak_decay

DT = 0.01
STEPS = 600

#: Every state column a run writes, in hashing order.
COLUMNS = (
    "voltage",
    "on",
    "energy_in",
    "energy_out",
    "energy_leaked",
    "on_seconds",
    "brownouts",
)

#: sha256 over ``COLUMNS`` after ``run(STEPS * DT, dt=DT)`` with
#: :func:`leak_decay` factors on :func:`_fleet`.  Computed with the
#: kernel that evaluated every term inside each step, before the loop
#: computed its step invariants once per call: it pins that doing so
#: changed no bit.
PINNED_SHA256 = "e3fe91a79b980cfb882b755a779cff3c86af43857dfbd6de0af7b04db450a3c4"


def _fleet() -> FleetState:
    """Nine devices that between them take every kernel branch."""
    # Per device: (bypass, esr, harvest_power, harvest_voltage,
    #              initial voltage, initially on, load_power)
    devices = [
        (True, 1.0, 2e-3, 3.0, 0.0, False, 5e-3),   # bypass charge, cycles
        (False, 1.0, 6e-3, 3.0, 0.9, False, 5e-3),  # cold start, ramp, cycles
        (True, 0.0, 2e-3, 3.0, 1.5, False, 5e-3),   # esr == 0, cycles
        (True, 0.5, 0.0, 3.0, 2.0, True, 5e-3),     # no harvest: drains out
        (True, 0.5, 1e-3, 0.05, 1.2, False, 5e-3),  # hv below booster minimum
        (True, 0.5, 2e-3, 3.0, 2.8, True, 5e-3),    # starts above target
        (False, 50.0, 2e-3, 3.0, 0.2, False, 0.0),  # no load: never wakes
        (True, 0.5, 1e-3, 0.0, 1.0, False, 5e-3),   # hv == 0
        (False, 2.0, 4e-3, 2.0, 0.3, True, 8e-3),   # on below floor: browns out
    ]
    n = len(devices)
    column = lambda index: [device[index] for device in devices]  # noqa: E731
    return FleetState(
        voltage=column(4),
        capacitance=[1e-4, 1e-4, 8e-5, 1e-4, 1e-4, 1e-4, 2e-5, 1e-4, 5e-5],
        esr=column(1),
        leak_tau=[50.0, 20.0, 20.0, 50.0, 10.0, 30.0, 2.0, 40.0, 8.0],
        rated_voltage=[2.5, 2.5, 2.5, 2.5, 2.5, 3.0, 2.5, 2.5, 2.5],
        harvest_voltage=column(3),
        harvest_power=column(2),
        load_power=column(6),
        quiescent_power=[0.0, 1e-5, 0.0, 1e-5, 0.0, 2e-5, 0.0, 0.0, 1e-5],
        in_efficiency=0.7,
        in_v_cold_start=1.0,
        in_cold_start_efficiency=0.01,
        in_bypass=column(0),
        in_v_diode_drop=0.3,
        in_v_charge_target=2.4,
        in_min_input_voltage=0.1,
        in_low_voltage_efficiency=0.45,
        in_v_full_efficiency=2.2,
        out_efficiency=[0.8] * n,
        out_quiescent=1e-5,
        out_v_in_min=0.8,
        on=column(5),
    )


def _bytes(state: FleetState, index=None) -> dict:
    """Each column's raw bytes, whole or for one device."""
    picked = slice(None) if index is None else slice(index, index + 1)
    return {name: getattr(state, name)[picked].tobytes() for name in COLUMNS}


def _digest(state: FleetState) -> str:
    sha = hashlib.sha256()
    for name in COLUMNS:
        sha.update(getattr(state, name).tobytes())
    return sha.hexdigest()


def _segments(n: int):
    """Four operating points, including a zero-step segment."""
    base = _fleet()
    base_v, base_p = base.harvest_voltage, base.harvest_power
    return [
        (150, base_v, base_p),
        (0, base_v * 0.5, base_p * 3.0),
        (200, base_v * 0.9, base_p * 0.25),
        (250, np.full(n, 2.5), base_p * 1.5),
    ]


def test_fleet_takes_every_branch():
    state = _fleet()
    FleetKernel(state).run(STEPS * DT, dt=DT)
    # Devices 0-2 and 8 cycle: they brown out and wake again.
    assert (state.brownouts[[0, 1, 2, 8]] >= 2).all()
    # No harvest, and a blocked harvester, gain no energy.
    assert state.energy_in[3] == 0.0 and state.energy_in[4] == 0.0
    assert state.energy_in[7] == 0.0
    # The no-load device charged but never turned on.
    assert state.energy_in[6] > 0.0 and not state.on[6]
    assert state.on_seconds[6] == 0.0


def test_run_equals_repeated_step():
    ran, stepped = _fleet(), _fleet()
    FleetKernel(ran).run(STEPS * DT, dt=DT)
    kernel = FleetKernel(stepped)
    for _ in range(STEPS):
        kernel.step(DT)
    assert kernel.steps == STEPS
    assert _bytes(ran) == _bytes(stepped)


def test_run_segments_equals_per_step_stepping():
    segmented, stepped = _fleet(), _fleet()
    segments = _segments(segmented.n)
    FleetKernel(segmented).run_segments(segments, DT)
    kernel = FleetKernel(stepped)
    for steps, hv, hp in segments:
        stepped.harvest_voltage = hv
        stepped.harvest_power = hp
        for _ in range(steps):
            kernel.step(DT)
    assert _bytes(segmented) == _bytes(stepped)


def test_batch_equals_batches_of_one():
    batch = _fleet()
    solos = [batch.select([i]) for i in range(batch.n)]
    FleetKernel(batch).run(STEPS * DT, dt=DT, decay=leak_decay(batch.leak_tau, DT))
    for i, solo in enumerate(solos):
        FleetKernel(solo).run(STEPS * DT, dt=DT, decay=leak_decay(solo.leak_tau, DT))
        assert _bytes(batch, i) == _bytes(solo), f"device {i}"


def test_final_columns_match_pinned_digest():
    state = _fleet()
    FleetKernel(state).run(STEPS * DT, dt=DT, decay=leak_decay(state.leak_tau, DT))
    assert _digest(state) == PINNED_SHA256
