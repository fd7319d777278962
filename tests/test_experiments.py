"""Experiment harnesses: each figure module runs and reproduces the
paper's qualitative shapes at reduced scale."""

import math
from pathlib import Path

import pytest

from repro.experiments import (
    capysat_study,
    characterization,
    fig02_fixed_capacity,
    fig03_design_space,
    fig04_volume,
)
from repro.experiments.registry import run_experiment
from repro.experiments.runner import ExperimentResult, format_table, percent

#: Committed stdout of ``repro experiment NAME`` for the closed-form
#: sweeps.  Regenerate one (only for a deliberate model change) with
#: ``PYTHONPATH=src python -m repro.cli experiment NAME > tests/golden/experiments/NAME.txt``.
EXPERIMENT_GOLDENS = Path(__file__).parent / "golden" / "experiments"


class TestRunnerUtilities:
    def test_format_table_aligns(self):
        text = format_table(["A", "Blong"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[2] and "Blong" in lines[2]

    def test_result_value_lookup(self):
        result = ExperimentResult(experiment="x", values={"k": 1.0})
        assert result.value("k") == 1.0
        with pytest.raises(KeyError):
            result.value("missing")

    def test_percent(self):
        assert percent(0.5) == "50%"


class TestFig02:
    @pytest.fixture(scope="class")
    def data(self):
        return fig02_fixed_capacity.run(horizon=300.0)

    def test_low_capacity_never_completes_packet(self, data):
        assert data.result.value("low-capacity/packets") == 0.0
        assert data.result.value("low-capacity/tx_failures") > 0.0

    def test_high_capacity_completes_packets(self, data):
        assert data.result.value("high-capacity/packets") > 0.0

    def test_low_capacity_is_reactive(self, data):
        """Small buffer recharges quickly: short max sample gaps."""
        assert data.result.value("low-capacity/max_gap") < 10.0

    def test_high_capacity_batches_samples(self, data):
        assert data.result.value("high-capacity/max_gap") > 5.0 * data.result.value(
            "low-capacity/max_gap"
        )

    def test_voltage_traces_recorded(self, data):
        for series in data.voltage_traces.values():
            assert len(series) > 10


class TestFig03:
    @pytest.fixture(scope="class")
    def curve(self):
        _, curve = fig03_design_space.run(points=7)
        return curve

    def test_atomicity_monotone_in_capacitance(self, curve):
        mops = [p.atomicity_mops for p in curve]
        assert mops == sorted(mops)

    def test_charge_time_monotone_in_capacitance(self, curve):
        times = [p.charge_time for p in curve]
        assert times == sorted(times)

    def test_paper_magnitude_at_10mF(self):
        _, curve = fig03_design_space.run(points=3, c_min=10e-3, c_max=10e-3)
        # The paper's curve tops out around 4 Mops at 10 mF.
        assert 1.0 < curve[-1].atomicity_mops < 12.0

    def test_all_points_finite(self, curve):
        for point in curve:
            assert math.isfinite(point.atomicity_ops)
            assert math.isfinite(point.charge_time)


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04_volume.run(max_parts=6)

    def test_supercap_beats_ceramic_per_volume(self, result):
        # Compare at comparable volume: 2 ceramics (40 mm^3) vs 5
        # supercaps (36 mm^3).
        ceramic = result.value("ceramic/2/mops")
        supercap = result.value("supercap/5/mops")
        assert supercap > 10.0 * ceramic

    def test_supercap_diminishing_log_log_gain(self, result):
        """Marginal gain per added part decays (Figure 4's shape)."""
        gain_2 = result.value("supercap/gain/2")
        gain_6 = result.value("supercap/gain/6")
        assert gain_2 > gain_6

    def test_ceramic_scales_linearly(self, result):
        one = result.value("ceramic/1/mops")
        four = result.value("ceramic/4/mops")
        assert four == pytest.approx(4.0 * one, rel=0.05)


class TestCharacterization:
    @pytest.fixture(scope="class")
    def result(self):
        return characterization.run()

    def test_paper_area_facts(self, result):
        assert result.value("switch_area_mm2") == pytest.approx(80.0)
        assert result.value("threshold_area_ratio") == pytest.approx(2.0)
        assert result.value("threshold_leakage_ratio") == pytest.approx(1.5)

    def test_retention_is_about_three_minutes(self, result):
        assert 2.0 < result.value("retention_min") < 5.0

    def test_splitter_fraction(self, result):
        assert result.value("splitter_fraction") == pytest.approx(0.2)


class TestCapySatStudy:
    @pytest.fixture(scope="class")
    def data(self):
        return capysat_study.run(seed=1, orbits=1.0)

    def test_both_modes_served(self, data):
        assert data.result.value("samples") > 0.0
        assert data.result.value("beacons") > 0.0

    def test_comms_charges_through_eclipse(self, data):
        assert data.result.value("comms_charging_s") > 0.0

    def test_splitter_ratio(self, data):
        assert data.result.value("splitter_ratio") == pytest.approx(0.2)


@pytest.mark.parametrize("name", ["fig03", "fig04", "ablation"])
def test_closed_form_experiment_output_matches_golden(name):
    """The closed-form sweeps' printed tables, byte for byte."""
    golden = (EXPERIMENT_GOLDENS / f"{name}.txt").read_text()
    assert run_experiment(name) == golden
