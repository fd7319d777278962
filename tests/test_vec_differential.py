"""Differential tests: the vec backend against the scalar engine.

Three layers of agreement are pinned, with tolerances documented in
``docs/performance.md``:

* **Golden trace** — a small heterogeneous fleet's per-step terminal
  voltages, committed under ``tests/golden/vec/``, must be reproduced
  by *both* engines (rtol 1e-9).  Regenerate with::

      PYTHONPATH=src python tests/test_vec_differential.py --regen

* **Stepwise lockstep** — :class:`~repro.vec.FleetKernel` and the
  per-device :class:`~repro.vec.ScalarFleet` reference advance the same
  fleet and must agree step by step: terminal voltages bit-for-bit
  (identical arithmetic, different dispatch), energy accounting to
  1e-12 relative, duty-cycle state exactly.
* **Closed-form helpers** — ``charge_times`` and ``times_to_brownout``
  against the scalar Figure 3 integrators they vectorize, on small
  fleets and on the exact Figure 3, Figure 4 and ablation grids those
  experiments run.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.energy.bank import BankSpec, CapacitorBank
from repro.energy.booster import InputBooster, OutputBooster
from repro.energy.capacitor import (
    CERAMIC_X5R,
    EDLC_CPH3225A,
    TANTALUM_POLYMER,
)
from repro.experiments import ablation, fig03_design_space, fig04_volume
from repro.experiments.fig03_design_space import (
    _scaled_bank,
    atomicity_for_bank,
    charge_time_for_bank,
)
from repro.experiments.fig04_volume import atomicity_by_parts
from repro.vec import (
    FleetKernel,
    ScalarFleet,
    charge_times,
    fleet_from_banks,
    times_to_brownout,
)

GOLDEN = Path(__file__).parent / "golden" / "vec" / "fleet_duty_cycle.json"

#: Golden-run clock: 20 simulated seconds of duty cycling.
GOLDEN_DT = 0.05
GOLDEN_STEPS = 400

#: Terminal-voltage agreement bound for the golden trace (both engines
#: replay the committed arithmetic; drift past this is a semantic
#: change to the step contract, not noise).
GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-12


def _golden_fleet():
    """Six heterogeneous devices spanning the supported design space."""
    banks = [
        BankSpec.single("tant-x2", TANTALUM_POLYMER, 2),
        BankSpec.single("cer-x4", CERAMIC_X5R, 4),
        BankSpec.of_parts(
            "mixed", [(TANTALUM_POLYMER, 1), (CERAMIC_X5R, 2)]
        ),
        BankSpec.single("tant-x1", TANTALUM_POLYMER, 1),
        BankSpec.single("cer-x2", CERAMIC_X5R, 2),
        BankSpec.single("edlc", EDLC_CPH3225A, 1),
    ]
    return fleet_from_banks(
        banks,
        input_booster=[
            InputBooster(),
            InputBooster(bypass=True),
            InputBooster(),
            InputBooster(bypass=True),
            InputBooster(),
            InputBooster(),
        ],
        harvest_power=[5e-3, 1e-3, 2e-3, 1e-4, 3e-3, 5e-4],
        load_power=[4e-3, 4e-3, 4e-3, 4e-3, 1e-3, 4e-3],
        quiescent_power=[0.0, 2e-6, 0.0, 2e-6, 0.0, 0.0],
        initial_voltage="target",
    )


def _trace(engine_cls, steps=GOLDEN_STEPS, dt=GOLDEN_DT):
    """Per-step terminal voltages of the golden fleet, plus final state."""
    state = _golden_fleet()
    engine = engine_cls(state)
    voltages = []
    for _ in range(steps):
        engine.step(dt)
        voltages.append([float(v) for v in state.voltage])
    return state, voltages


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def golden(self):
        if not GOLDEN.is_file():
            pytest.fail(
                "golden vec trace missing; regenerate with "
                "`python tests/test_vec_differential.py --regen`"
            )
        return json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("engine_cls", [FleetKernel, ScalarFleet])
    def test_engines_reproduce_committed_trace(self, golden, engine_cls):
        assert golden["dt"] == GOLDEN_DT
        assert golden["steps"] == GOLDEN_STEPS
        state, voltages = _trace(engine_cls)
        np.testing.assert_allclose(
            np.asarray(voltages),
            np.asarray(golden["voltages"]),
            rtol=GOLDEN_RTOL,
            atol=GOLDEN_ATOL,
        )
        assert list(state.brownouts) == golden["final"]["brownouts"]
        assert [bool(flag) for flag in state.on] == golden["final"]["on"]
        np.testing.assert_allclose(
            state.on_seconds, golden["final"]["on_seconds"], rtol=GOLDEN_RTOL
        )
        for key in ("energy_in", "energy_out", "energy_leaked"):
            np.testing.assert_allclose(
                getattr(state, key), golden["final"][key], rtol=GOLDEN_RTOL
            )

    def test_golden_run_duty_cycled(self, golden):
        # The fixture must keep exercising the interesting dynamics:
        # at least one device browns out and at least one stays up.
        brownouts = golden["final"]["brownouts"]
        assert max(brownouts) > 0
        assert min(brownouts) == 0


class TestStepwiseLockstep:
    def test_voltages_bit_identical_per_step(self):
        vec_state = _golden_fleet()
        ref_state = _golden_fleet()
        vec = FleetKernel(vec_state)
        ref = ScalarFleet(ref_state)
        for step in range(200):
            vec.step(GOLDEN_DT)
            ref.step(GOLDEN_DT)
            # Same formulas evaluated in the same order: bit-for-bit.
            assert (vec_state.voltage == ref_state.voltage).all(), (
                f"step {step}: max |dv| = "
                f"{np.abs(vec_state.voltage - ref_state.voltage).max()}"
            )
            assert (vec_state.on == ref_state.on).all()
        assert (vec_state.brownouts == ref_state.brownouts).all()
        np.testing.assert_allclose(
            vec_state.energy_in, ref_state.energy_in, rtol=1e-12
        )
        np.testing.assert_allclose(
            vec_state.energy_out, ref_state.energy_out, rtol=1e-12
        )
        np.testing.assert_allclose(
            vec_state.energy_leaked, ref_state.energy_leaked, rtol=1e-12
        )

    def test_floors_match_scalar_booster(self):
        state = _golden_fleet()
        ref = ScalarFleet(state)
        np.testing.assert_array_equal(state.floor, ref.floors)


class TestClosedFormHelpers:
    def test_charge_times_match_fig03_integrator(self):
        banks = [
            BankSpec.single("a", TANTALUM_POLYMER, 2),
            BankSpec.single("b", CERAMIC_X5R, 3),
        ]
        state = fleet_from_banks(banks, harvest_power=[1e-3, 2.5e-4])
        got = charge_times(state)
        want = [
            charge_time_for_bank(banks[0], harvest_power=1e-3),
            charge_time_for_bank(banks[1], harvest_power=2.5e-4),
        ]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_charge_times_inf_when_blocked(self):
        bank = BankSpec.single("dead", TANTALUM_POLYMER, 1)
        state = fleet_from_banks([bank], harvest_power=0.0)
        assert math.isinf(charge_times(state)[0])

    def test_times_to_brownout_match_scalar_booster(self):
        booster = OutputBooster()
        specs = [
            BankSpec.single("a", TANTALUM_POLYMER, 2),
            BankSpec.single("b", CERAMIC_X5R, 4),
        ]
        state = fleet_from_banks(
            specs, load_power=4e-3, initial_voltage="target"
        )
        got = times_to_brownout(state)
        for i, spec in enumerate(specs):
            bank = CapacitorBank(
                spec, initial_voltage=float(state.voltage[i])
            )
            want = booster.time_to_brownout(bank, 4e-3)
            assert got[i] == pytest.approx(want, rel=1e-12)


    def test_fig03_grid_matches_scalar_integrators(self):
        """All 13 points of the Figure 3 sweep, both axes."""
        _, curve = fig03_design_space.run()
        assert len(curve) == 13
        for point in curve:
            bank = _scaled_bank(TANTALUM_POLYMER, point.capacitance)
            assert point.atomicity_ops == pytest.approx(
                atomicity_for_bank(bank), rel=1e-11
            )
            assert point.charge_time == pytest.approx(
                charge_time_for_bank(bank, harvest_power=1e-3), rel=1e-11
            )

    def test_fig04_grid_matches_scalar_integrator(self):
        """Both technologies x 1..8 parallel parts (the Figure 4 grid)."""
        result = fig04_volume.run()
        points = 0
        for label, part in (("ceramic", CERAMIC_X5R), ("supercap", EDLC_CPH3225A)):
            for count in range(1, 9):
                assert result.value(f"{label}/{count}/mops") == pytest.approx(
                    atomicity_by_parts(part, count), rel=1e-11
                )
                points += 1
        assert points == 16

    def test_ablation_grids_match_scalar_integrator(self):
        """The bypass and mechanism ablations' charge integrals."""
        from repro.energy.threshold import ThresholdReconfigurator

        probe = BankSpec.single("probe", TANTALUM_POLYMER, 4)
        bypass = ablation.bypass_ablation()
        for key, flag in (("with_bypass", True), ("without_bypass", False)):
            want = charge_time_for_bank(probe, 1e-3, InputBooster(bypass=flag))
            assert bypass.value(key) == pytest.approx(want, rel=1e-12)

        small = BankSpec.single("small", CERAMIC_X5R, 4)
        full = BankSpec.of_parts(
            "full", [(CERAMIC_X5R, 4), (TANTALUM_POLYMER, 8)]
        )
        v_top = ThresholdReconfigurator(bank_spec=full).v_top_min
        mechanism = ablation.mechanism_ablation()
        assert mechanism.value("switched_cold_start") == pytest.approx(
            charge_time_for_bank(small, 1e-3), rel=1e-12
        )
        assert mechanism.value("threshold_cold_start") == pytest.approx(
            charge_time_for_bank(full, 1e-3, target=v_top), rel=1e-12
        )


def _regenerate() -> None:
    state, voltages = _trace(ScalarFleet)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {
                "description": (
                    "Per-step terminal voltages of the 6-device "
                    "heterogeneous golden fleet (scalar reference run); "
                    "see tests/test_vec_differential.py"
                ),
                "dt": GOLDEN_DT,
                "steps": GOLDEN_STEPS,
                "voltages": voltages,
                "final": {
                    "on": [bool(flag) for flag in state.on],
                    "brownouts": [int(b) for b in state.brownouts],
                    "on_seconds": [float(s) for s in state.on_seconds],
                    "energy_in": [float(e) for e in state.energy_in],
                    "energy_out": [float(e) for e in state.energy_out],
                    "energy_leaked": [float(e) for e in state.energy_leaked],
                },
            },
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
