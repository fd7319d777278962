"""Declarative scenario specs: schema, round-trip, build, and CLI."""

import json
import math
import pickle
from functools import partial
from pathlib import Path

import pytest

from repro.apps import APPS, csr, grc, temp_alarm
from repro.apps.grc import GRCVariant
from repro.core.builder import SystemKind, build_system
from repro.errors import ConfigurationError, SpecError
from repro.kernel.capybara import RuntimeVariant
from repro.spec import (
    SCHEMA_VERSION,
    PartSpecV1,
    PlatformSpecV1,
    ScenarioBuilder,
    ScenarioSpec,
    BoosterSpec,
    build_scenario_app,
    canonical_json,
    combined_spec_hash,
    dump_scenario,
    load_scenario,
    platform_from_spec,
    platform_to_spec,
    spec_hash,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "specs"

APP_SCENARIOS = {
    name: partial(app.scenario, seed=3, event_count=7)
    for name, app in APPS.items()
}

#: The hand-wired builds each catalogue scenario must reproduce.
DIRECT_BUILDS = {
    "temp-alarm": temp_alarm.build_temp_alarm,
    "grc-fast": partial(grc.build_grc, variant=GRCVariant.FAST),
    "grc-compact": partial(grc.build_grc, variant=GRCVariant.COMPACT),
    "csr": csr.build_csr,
}


# ---------------------------------------------------------------------------
# Round-trip and canonical form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("app", sorted(APP_SCENARIOS))
def test_scenario_round_trips_through_dict(app):
    scenario = APP_SCENARIOS[app]()
    rebuilt = ScenarioSpec.from_dict(scenario.to_dict())
    assert rebuilt == scenario
    assert spec_hash(rebuilt) == spec_hash(scenario)


@pytest.mark.parametrize("app", sorted(APP_SCENARIOS))
def test_scenario_round_trips_through_json(app):
    scenario = APP_SCENARIOS[app]()
    assert load_scenario(dump_scenario(scenario)) == scenario
    assert load_scenario(canonical_json(scenario)) == scenario


def test_load_scenario_accepts_path(tmp_path):
    scenario = APP_SCENARIOS["temp-alarm"]()
    path = tmp_path / "scenario.json"
    path.write_text(dump_scenario(scenario))
    assert load_scenario(path) == scenario
    assert load_scenario(str(path)) == scenario


def test_canonical_json_is_sorted_and_versioned():
    scenario = APP_SCENARIOS["csr"]()
    text = canonical_json(scenario)
    data = json.loads(text)
    assert data["schema_version"] == SCHEMA_VERSION
    assert list(data) == sorted(data)
    # Canonical form is byte-stable: re-encoding the parsed dict with the
    # same rules reproduces the exact text spec_hash() signs.
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) == text


def test_combined_hash_is_order_sensitive():
    first = APP_SCENARIOS["temp-alarm"]()
    second = APP_SCENARIOS["csr"]()
    assert combined_spec_hash([first, second]) != combined_spec_hash(
        [second, first]
    )
    assert combined_spec_hash([first]) != spec_hash(first)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_unknown_field_is_rejected():
    data = APP_SCENARIOS["temp-alarm"]().to_dict()
    data["surprise"] = 1
    with pytest.raises(SpecError, match="surprise"):
        ScenarioSpec.from_dict(data)


def test_unknown_nested_field_is_rejected():
    data = APP_SCENARIOS["temp-alarm"]().to_dict()
    data["platform"]["banks"][0]["groups"][0]["part"]["esl"] = 1e-9
    with pytest.raises(SpecError, match="esl"):
        ScenarioSpec.from_dict(data)


def test_unknown_system_is_rejected():
    data = APP_SCENARIOS["temp-alarm"]().to_dict()
    data["system"] = "CB-X"
    with pytest.raises(SpecError, match="CB-X"):
        ScenarioSpec.from_dict(data)


def test_unknown_schema_version_is_rejected():
    data = APP_SCENARIOS["temp-alarm"]().to_dict()
    data["schema_version"] = 99
    with pytest.raises(SpecError, match="schema_version"):
        ScenarioSpec.from_dict(data)


def test_unit_suffix_sugar_converts_to_base_si():
    base = APP_SCENARIOS["csr"]().to_dict()
    part = base["platform"]["banks"][0]["groups"][0]["part"]
    sugared = dict(part)
    sugared["capacitance_uf"] = part["capacitance"] * 1e6
    del sugared["capacitance"]
    converted = PartSpecV1.from_dict(sugared)
    reference = PartSpecV1.from_dict(part)
    assert converted.capacitance == pytest.approx(reference.capacitance)
    from dataclasses import replace

    assert replace(converted, capacitance=reference.capacitance) == reference


def test_unit_suffix_duplicate_spelling_is_rejected():
    part = APP_SCENARIOS["csr"]().to_dict()["platform"]["banks"][0]["groups"][
        0
    ]["part"]
    sugared = dict(part)
    sugared["capacitance_uf"] = 100.0  # both spellings present
    with pytest.raises(SpecError, match="capacitance"):
        PartSpecV1.from_dict(sugared)


def test_v_in_min_is_not_a_unit_suffix():
    # "v_in_min" ends in "_min" but is a field name, not minutes sugar.
    spec = BoosterSpec.from_dict(
        {
            "kind": "output",
            "v_out": 3.3,
            "v_in_min": 1.2,
            "efficiency": 0.85,
            "quiescent_power": 1e-6,
        }
    )
    assert spec.params["v_in_min"] == 1.2


def test_cycle_endurance_none_maps_to_infinity():
    part_dict = APP_SCENARIOS["csr"]().to_dict()["platform"]["banks"][0][
        "groups"
    ][0]["part"]
    assert part_dict["cycle_endurance"] is None
    spec = PartSpecV1.from_dict(part_dict)
    assert spec.cycle_endurance is None
    from repro.spec import part_from_spec

    assert math.isinf(part_from_spec(spec).cycle_endurance)


# ---------------------------------------------------------------------------
# Name resolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spelling", ["CB-P", "CAPY_P", "cb-p", "cb_p", "capy_p"]
)
def test_system_kind_from_name_spellings(spelling):
    assert SystemKind.from_name(spelling) is SystemKind.CAPY_P
    assert SystemKind.from_name(SystemKind.CAPY_P) is SystemKind.CAPY_P


def test_system_kind_from_name_rejects_unknown():
    with pytest.raises(ConfigurationError):
        SystemKind.from_name("CB-X")


def test_runtime_variant_from_name():
    assert RuntimeVariant.from_name("CB-R") is RuntimeVariant.CAPY_R
    assert RuntimeVariant.from_name("capy_r") is RuntimeVariant.CAPY_R
    with pytest.raises(ValueError):
        RuntimeVariant.from_name("nope")


# ---------------------------------------------------------------------------
# Platform extraction and rebuild
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "factory",
    [
        temp_alarm.make_banks,
        csr.make_banks,
        lambda: grc.make_banks(GRCVariant.FAST),
        lambda: grc.make_banks(GRCVariant.COMPACT),
    ],
)
def test_platform_extraction_round_trips(factory):
    platform = factory()
    spec = platform_to_spec(platform)
    assert PlatformSpecV1.from_dict(spec.to_dict()) == spec
    rebuilt = platform_from_spec(spec)
    # The rebuilt runtime platform must re-extract to the same spec —
    # i.e. extraction captures everything the builder consumes.
    assert platform_to_spec(rebuilt) == spec


def test_build_system_accepts_scenario_and_platform():
    scenario = APP_SCENARIOS["temp-alarm"]()
    from_scenario = build_system(scenario)
    assert from_scenario is not None
    runtime_platform = platform_from_spec(scenario.platform)
    from_platform = build_system(runtime_platform, kind="Fixed")
    assert from_platform is not None


def test_build_system_rejects_continuous():
    scenario = APP_SCENARIOS["temp-alarm"]()
    with pytest.raises(ConfigurationError):
        build_system(scenario, kind=SystemKind.CONTINUOUS)


# ---------------------------------------------------------------------------
# ScenarioBuilder (the object shipped to campaign workers)
# ---------------------------------------------------------------------------

def test_scenario_builder_pickles_and_rebuilds():
    builder = ScenarioBuilder(APP_SCENARIOS["temp-alarm"]())
    clone = pickle.loads(pickle.dumps(builder))
    assert clone == builder
    assert clone.scenario_json == builder.scenario_json
    instance = clone(SystemKind.CAPY_P)
    assert instance.name == "TempAlarm"


@pytest.mark.parametrize("system", ["Pwr", "Fixed", "CB-R", "CB-P"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_spec_built_app_matches_direct_build(app, system):
    """The equivalence run-app and the campaigns rest on: an app's
    declared scenario builds the same run as its hand-wired builder."""
    scenario = APPS[app].scenario(seed=5, event_count=3)
    via_spec = build_scenario_app(scenario, kind=system)
    direct = DIRECT_BUILDS[app](
        SystemKind.from_name(system), seed=5, event_count=3
    )
    horizon = direct.schedule.horizon + 60.0
    trace_spec = via_spec.run(horizon)
    trace_direct = direct.run(horizon)
    assert trace_spec.counters == trace_direct.counters
    assert trace_spec.samples == trace_direct.samples
    assert trace_spec.packets == trace_direct.packets
    assert trace_spec.events == trace_direct.events


# ---------------------------------------------------------------------------
# Golden spec files (tracked, validated by CI's spec-check job)
# ---------------------------------------------------------------------------

GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))


def test_golden_specs_cover_all_four_systems():
    systems = {load_scenario(path).system for path in GOLDEN_FILES}
    assert systems == {"Pwr", "Fixed", "CB-R", "CB-P"}


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
def test_golden_spec_is_canonical_and_buildable(path):
    scenario = load_scenario(path)
    # The tracked file is the pretty dump of its own parse: rewriting it
    # with `spec dump` produces no diff.
    assert path.read_text() == dump_scenario(scenario)
    instance = build_scenario_app(scenario)
    assert instance.name in (
        "TempAlarm",
        "GestureFast",
        "GestureCompact",
        "CorrSense",
    )


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def test_cli_spec_check_passes_goldens(capsys):
    from repro import cli

    code = cli.main(["info", "--check"] + [str(p) for p in GOLDEN_FILES])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("ok   ") == len(GOLDEN_FILES)


def test_cli_spec_check_fails_on_invalid(tmp_path, capsys):
    from repro import cli

    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    code = cli.main(["info", "--check", str(bad)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_spec_dump_then_run(tmp_path, capsys):
    from repro import cli

    out = tmp_path / "ta.json"
    assert cli.main(["spec", "dump", "temp-alarm", "--out", str(out)]) == 0
    capsys.readouterr()
    code = cli.main(
        ["run", "--spec", str(out), "--system", "Fixed", "--horizon", "300"]
    )
    assert code == 0
    assert "TempAlarm on Fixed" in capsys.readouterr().out


def test_cli_spec_dump_rejects_scenarioless_experiment(capsys):
    from repro import cli

    assert cli.main(["spec", "dump", "fig02"]) == 2
    assert "declares no scenarios" in capsys.readouterr().err


def test_facade_exports_spec_names():
    import repro

    assert repro.ScenarioSpec is ScenarioSpec
    assert repro.load_scenario is load_scenario
    assert repro.build_system is build_system
