"""Bit-exactness of the vectorized fleet kernel across its entry points.

:class:`~repro.vec.FleetKernel` computes its step-invariant terms once per
call and then advances the fleet step by step.  These tests pin that the
way a run is split into calls never shows in the results:

* ``run(N steps)`` equals ``N`` calls of ``step()``;
* ``run_segments`` equals per-step stepping with the harvest columns
  reassigned before each segment;
* a batch of ``N`` devices equals ``N`` batches of one (``select([i])``);
* a ragged launch (per-device ``end_steps``) equals each device's own
  run, and a launch with one end step equals one without;
* the final columns of a fixed run, and of a segmented run, hash to
  pinned sha256s.

The entry points' checks (finite timing and decay), the summaries'
``device_steps`` and a warning-free step loop are pinned here too.

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
import json
import warnings

import numpy as np
import pytest

from repro.apps.temp_alarm import scenario
from repro.errors import ConfigurationError
from repro.spec import dump_scenario, load_scenario
from repro.vec import (
    FleetKernel,
    FleetState,
    ScalarFleet,
    build_fleet,
    charge_times,
    compile_operating_segments,
    leak_decay,
    times_to_brownout,
)

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

#: sha256 over ``COLUMNS`` after ``run_segments(_segments(n), DT)`` with
#: :func:`leak_decay` factors on :func:`_fleet`, computed with the
#: kernel before it took per-device end steps.
PINNED_SEGMENTS_SHA256 = (
    "f84c38824499f755cb43b9d7c109cb1f3fb714c40d81f998907fabcda6dc1a8c"
)

#: Per-device end steps over :func:`_segments` (600 steps: 150, 0, 200
#: and 250).  Six stops, so the launch compacts five times: a zero-step
#: device, ends inside the first, third and fourth segments, ends on
#: the boundary at the zero-step segment and at the third segment's
#: end, and two devices that run to the end.
RAGGED_ENDS = [600, 0, 75, 350, 600, 150, 420, 75, 350]


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


def _truncated(segments, end: int, index: int):
    """Device *index*'s own segments, cut at its end step."""
    own, position = [], 0
    for steps, hv, hp in segments:
        steps = min(steps, end - position)
        own.append((steps, hv[index : index + 1], hp[index : index + 1]))
        position += steps
        if position == end:
            break
    return own


def _assert_ragged_equals_solo(fleet: FleetState, segments, ends, dt) -> None:
    """A launch with *ends* equals each device's own run, column by column."""
    solos = [fleet.select([i]) for i in range(fleet.n)]
    FleetKernel(fleet).run_segments(
        segments, dt, decay=leak_decay(fleet.leak_tau, dt), end_steps=ends
    )
    for i, (solo, end) in enumerate(zip(solos, ends)):
        summary = FleetKernel(solo).run_segments(
            _truncated(segments, end, i), dt, decay=leak_decay(solo.leak_tau, dt)
        )
        assert summary["steps"] == end
        assert _bytes(fleet, i) == _bytes(solo), f"device {i}"


def test_ragged_launch_equals_solo_runs():
    fleet = _fleet()
    assert len(set(RAGGED_ENDS)) >= 3 and 0 in RAGGED_ENDS
    _assert_ragged_equals_solo(fleet, _segments(fleet.n), RAGGED_ENDS, DT)


def test_one_end_step_equals_no_end_steps():
    plain, ended = _fleet(), _fleet()
    segments = _segments(plain.n)
    decay = leak_decay(plain.leak_tau, DT)
    FleetKernel(plain).run_segments(segments, DT, decay=decay)
    FleetKernel(ended).run_segments(
        segments, DT, decay=decay, end_steps=[STEPS] * ended.n
    )
    assert _bytes(plain) == _bytes(ended)
    assert _digest(plain) == PINNED_SEGMENTS_SHA256


def test_end_steps_are_checked():
    fleet = _fleet()
    for ends in ([STEPS + 1] * fleet.n, [-1] * fleet.n, [STEPS] * (fleet.n - 1)):
        with pytest.raises(ConfigurationError, match="end_steps"):
            FleetKernel(fleet).run_segments(_segments(fleet.n), DT, end_steps=ends)


NAN, INF = float("nan"), float("inf")


def _run_segments(kernel: FleetKernel, dt: float, **kwargs):
    return kernel.run_segments(_segments(kernel.state.n), dt, **kwargs)


@pytest.mark.parametrize(
    "entry, match",
    [
        pytest.param(lambda k: k.step(NAN), "dt", id="step-dt-nan"),
        pytest.param(lambda k: k.step(INF), "dt", id="step-dt-inf"),
        pytest.param(lambda k: k.step(0.0), "dt", id="step-dt-zero"),
        pytest.param(lambda k: k.run(1.0, dt=NAN), "dt", id="run-dt-nan"),
        pytest.param(lambda k: k.run(1.0, dt=INF), "dt", id="run-dt-inf"),
        pytest.param(lambda k: k.run(1.0, dt=-DT), "dt", id="run-dt-negative"),
        pytest.param(lambda k: k.run(NAN), "duration", id="run-duration-nan"),
        pytest.param(lambda k: k.run(INF), "duration", id="run-duration-inf"),
        pytest.param(lambda k: k.run(-1.0), "duration", id="run-duration-negative"),
        pytest.param(
            lambda k: k.run(1.0, dt=DT, decay=[NAN] * k.state.n),
            "decay",
            id="run-decay-nan",
        ),
        pytest.param(lambda k: _run_segments(k, NAN), "dt", id="segments-dt-nan"),
        pytest.param(lambda k: _run_segments(k, INF), "dt", id="segments-dt-inf"),
        pytest.param(lambda k: _run_segments(k, 0.0), "dt", id="segments-dt-zero"),
        pytest.param(
            lambda k: _run_segments(k, DT, decay=[INF] * k.state.n),
            "decay",
            id="segments-decay-inf",
        ),
        pytest.param(
            lambda k: leak_decay(k.state.leak_tau, NAN), "dt", id="leak-decay-dt-nan"
        ),
        pytest.param(
            lambda k: leak_decay(k.state.leak_tau, INF), "dt", id="leak-decay-dt-inf"
        ),
    ],
)
def test_non_finite_timing_is_rejected(entry, match):
    fleet = _fleet()
    with pytest.raises(ConfigurationError, match=match):
        entry(FleetKernel(fleet))
    assert _bytes(fleet) == _bytes(_fleet())


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda f: f.step(NAN), id="step-dt-nan"),
        pytest.param(lambda f: f.run(INF), id="run-duration-inf"),
        pytest.param(
            lambda f: f.run_segments(_segments(f.state.n), NAN), id="segments-dt-nan"
        ),
    ],
)
def test_scalar_reference_rejects_non_finite_timing(entry):
    fleet = _fleet()
    with pytest.raises(ConfigurationError):
        entry(ScalarFleet(fleet))
    assert _bytes(fleet) == _bytes(_fleet())


def test_summaries_count_device_steps():
    fleet = _fleet()
    summary = FleetKernel(fleet).run_segments(
        _segments(fleet.n), DT, end_steps=RAGGED_ENDS
    )
    assert summary["steps"] == STEPS
    assert summary["device_steps"] == sum(RAGGED_ENDS) == 2620
    summary = FleetKernel(_fleet()).run(STEPS * DT, dt=DT)
    assert summary["device_steps"] == STEPS * fleet.n
    summary = ScalarFleet(_fleet()).run(10 * DT, dt=DT)
    assert summary["device_steps"] == 10 * fleet.n


def test_step_loop_raises_no_warning():
    """A deprecated NumPy call form costs several times the call it
    stands for, and warns; the loop and the helpers that share its
    power models must not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        FleetKernel(_fleet()).run(STEPS * DT, dt=DT)
        fleet = _fleet()
        FleetKernel(fleet).run_segments(
            _segments(fleet.n),
            DT,
            decay=leak_decay(fleet.leak_tau, DT),
            end_steps=RAGGED_ENDS,
        )
        charge_times(_fleet())
        times_to_brownout(_fleet())


def _replayed(seed: int, samples):
    doc = json.loads(dump_scenario(scenario(seed=seed)))
    doc["platform"]["harvester"]["irradiance"] = {
        "kind": "replay",
        "samples": [list(sample) for sample in samples],
    }
    return load_scenario(json.dumps(doc))


def test_ragged_launch_mixes_replay_and_static_devices():
    """Static and replayed scenarios with different horizons in one
    launch, compiled the way the planner compiles a batch."""
    dt = 0.5
    scenarios = [
        scenario(seed=3),
        _replayed(4, [(0.0, 24.0), (3.2, 4.0), (7.0, 30.0)]),
        _replayed(5, [(0.0, 6.0), (5.0, 18.0)]),
        scenario(seed=6),
        _replayed(4, [(0.0, 24.0), (3.2, 4.0), (7.0, 30.0)]),
    ]
    horizons = [10.0, 4.0, 6.3, 0.1, 10.0]
    ends = [int(round(horizon / dt)) for horizon in horizons]
    # Ends inside a trace segment (8 in [7, 14), 13 in [10, 20)), on a
    # replay boundary (at 7.0 s -> step 14) and at zero steps.
    assert ends == [20, 8, 13, 0, 20]
    scales = [1.0, 0.5, 2.0, 1.5, 3.0]

    def fleet(picked):
        return build_fleet(
            [scenarios[i] for i in picked],
            power_scales=[scales[i] for i in picked],
        )

    batch = fleet(range(len(scenarios)))
    FleetKernel(batch).run_segments(
        compile_operating_segments(scenarios, max(horizons), dt, scales),
        dt,
        decay=leak_decay(batch.leak_tau, dt),
        end_steps=ends,
    )
    for i, horizon in enumerate(horizons):
        solo = fleet([i])
        FleetKernel(solo).run_segments(
            compile_operating_segments([scenarios[i]], horizon, dt, scales[i]),
            dt,
            decay=leak_decay(solo.leak_tau, dt),
        )
        assert _bytes(batch, i) == _bytes(solo), f"device {i}"
