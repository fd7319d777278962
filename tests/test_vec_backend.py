"""Backend routing and capability gating for the vec backend.

The contract under test: the vec backend is *routable* — `run`,
`submit` and `info --check` expose it, while the grid experiments run
their vec sweeps with no backend flag at all — and it is *honest* —
unsupported scenarios are rejected with reasons, never silently handed
to the scalar engine.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.apps.temp_alarm import scenario
from repro.cli import build_parser, main as cli_main
from repro.errors import VecCapabilityError
from repro.experiments.plan import CampaignJob, run_fleet_batch
from repro.experiments.registry import get_experiment, run_experiment
from repro.spec import canonical_json, dump_scenario, load_scenario
from repro.vec import (
    FIXED_BANK_MODE,
    FleetState,
    build_fleet,
    check_scenario,
    compile_operating_segments,
    ensure_supported,
    vec_capabilities,
)


def _piecewise_scenario():
    """A piecewise-constant trace scenario (vec batches it as segments)."""
    doc = json.loads(dump_scenario(scenario(seed=3)))
    doc["platform"]["harvester"]["irradiance"] = {
        "kind": "piecewise",
        "breakpoints": [[10.0, 0.0]],
        "initial": 24.0,
    }
    return load_scenario(json.dumps(doc))


def _replay_scenario(samples):
    """An inline hold-replay irradiance trace scenario."""
    doc = json.loads(dump_scenario(scenario(seed=3)))
    doc["platform"]["harvester"]["irradiance"] = {
        "kind": "replay",
        "samples": samples,
    }
    return load_scenario(json.dumps(doc))


def _orbit_scenario():
    """A scenario the vec backend must reject (continuously varying)."""
    doc = json.loads(dump_scenario(scenario(seed=3)))
    doc["platform"]["harvester"]["irradiance"] = {
        "kind": "orbit",
        "period": 5400.0,
        "irradiance": 1100.0,
        "eclipse_fraction": 0.35,
    }
    return load_scenario(json.dumps(doc))


class TestCapabilities:
    def test_temp_alarm_scenario_supported(self):
        assert check_scenario(scenario(seed=1)) == []

    def test_piecewise_trace_now_supported(self):
        # The static-configuration restriction is lifted for
        # piecewise-constant traces: they compile into operating-point
        # segments instead of downgrading to scalar stragglers.
        assert check_scenario(_piecewise_scenario()) == []
        state = build_fleet([_piecewise_scenario()])
        assert state.n == 1

    def test_orbit_trace_rejected_with_reason(self):
        reasons = check_scenario(_orbit_scenario())
        assert reasons
        assert any("trace" in reason for reason in reasons)
        assert any("repro trace record" in reason for reason in reasons)

    def test_ensure_supported_raises_listing_reasons(self):
        with pytest.raises(VecCapabilityError) as exc:
            ensure_supported(_orbit_scenario())
        assert "see `repro info`" in str(exc.value)

    def test_no_silent_fallback_in_build_fleet(self):
        with pytest.raises(VecCapabilityError):
            build_fleet([_orbit_scenario()])

    def test_capability_matrix_shape(self):
        caps = vec_capabilities()
        assert caps["backend"] == "vec"
        assert caps["harvesters"]["regulated"] == "supported"
        assert "rejected" in caps["faults"]

    def test_supported_scenario_builds(self):
        state = build_fleet([scenario(seed=1), scenario(seed=2)])
        assert state.n == 2
        assert (state.capacitance > 0.0).all()


def _mixed_batch():
    """Devices over shared, equal-but-distinct and distinct platforms.

    Returns ``(scenarios, modes, options)``: one static scenario object
    repeated, an equal copy of it, ``Fixed`` and ``CB-P`` systems over
    different modes, two hold-replay traces and a piecewise trace, with
    per-device scales, loads and initial voltages.
    """
    static = scenario(seed=3)
    copy = load_scenario(dump_scenario(static))
    fixed = dataclasses.replace(static, system="Fixed")
    first = _replay_scenario([[0.0, 24.0], [4.0, 3.0], [9.5, 18.0]])
    second = _replay_scenario([[0.0, 6.0], [7.0, 28.0]])
    piecewise = _piecewise_scenario()
    devices = [
        (static, None), (static, "ta-sense"), (copy, None), (fixed, None),
        (fixed, FIXED_BANK_MODE), (static, "ta-radio"), (first, None),
        (second, "ta-sense"), (first, None), (piecewise, None),
        (dataclasses.replace(piecewise, system="Fixed"), None), (static, None),
    ]
    n = len(devices)
    options = {
        "power_scales": [0.25 + 0.5 * i for i in range(n)],
        "load_power": [1e-3 * (1 + i % 3) for i in range(n)],
        "initial_voltage": [0.1 * (i % 4) for i in range(n)],
    }
    return [s for s, _ in devices], [m for _, m in devices], options


def _per_step(segments, device):
    """One device's harvest columns, expanded to one entry per step."""
    return tuple(
        np.concatenate([np.repeat(seg[k][device], seg[0]) for seg in segments])
        for k in (1, 2)
    )


class TestBatchAssembly:
    """A batch is assembled once per distinct platform, and that sharing
    never shows in the bytes: every column equals the device's solo
    build."""

    HORIZON = 12.0
    DT = 0.5

    def test_fleet_columns_equal_solo_builds(self):
        scenarios, modes, options = _mixed_batch()
        batch = build_fleet(scenarios, modes=modes, **options)
        solos = [
            build_fleet(
                [s], modes=[m], **{k: [v[i]] for k, v in options.items()}
            )
            for i, (s, m) in enumerate(zip(scenarios, modes))
        ]
        for field in dataclasses.fields(FleetState):
            joined = b"".join(getattr(solo, field.name).tobytes() for solo in solos)
            assert getattr(batch, field.name).tobytes() == joined, field.name

    def test_segments_equal_solo_compiles(self):
        scenarios, _, options = _mixed_batch()
        scales = options["power_scales"]
        batch = compile_operating_segments(
            scenarios, self.HORIZON, self.DT, power_scales=scales
        )
        assert len(batch) > 3  # the traces split the run
        for i, (s, scale) in enumerate(zip(scenarios, scales)):
            solo = compile_operating_segments(
                [s], self.HORIZON, self.DT, power_scales=[scale]
            )
            got, want = _per_step(batch, i), _per_step(solo, 0)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want], i

    def test_harvester_builds_once_per_platform(self, monkeypatch):
        import repro.vec.batch as batch_module

        built = []
        real = batch_module.harvester_from_spec

        def counting(spec):
            built.append(spec)
            return real(spec)

        monkeypatch.setattr(batch_module, "harvester_from_spec", counting)
        scenarios, modes, _ = _mixed_batch()
        platforms = len({id(s.platform) for s in scenarios})
        assert platforms < len(scenarios)
        build_fleet(scenarios, modes=modes)
        assert len(built) == platforms
        built.clear()
        compile_operating_segments(scenarios, self.HORIZON, self.DT)
        assert len(built) == platforms

        # The planner's batch shares one spec object per distinct
        # (scenario text, system): two texts, four systems, 16 jobs.
        texts = [
            canonical_json(scenario(seed=3)),
            canonical_json(_replay_scenario([[0.0, 24.0], [4.0, 3.0]])),
        ]
        jobs = [
            CampaignJob(
                label=f"job{i}", scenario_json=texts[i % 2],
                system=("Pwr", "Fixed", "CB-R", "CB-P")[i % 4],
                horizon=self.HORIZON, backend="vec", dt=self.DT,
                power_scale=1.0 + i,
            )
            for i in range(16)
        ]
        built.clear()
        run_fleet_batch(jobs)
        assert len(built) == 2 * len(texts)

    def test_one_unsupported_member_among_repeats_raises(self):
        supported = scenario(seed=3)
        batch = [supported] * 6 + [_orbit_scenario()] + [supported] * 6
        with pytest.raises(VecCapabilityError, match="not supported"):
            build_fleet(batch)


class TestRouting:
    def test_routable_experiments_declare_backend(self, monkeypatch):
        """The grid experiments that once took ``--backend vec`` now
        declare the vec route in their runners: each builds its grid
        as a vec fleet, with no backend argument to ask for it."""
        import repro.vec as vec

        calls = []
        real = vec.fleet_from_banks

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(vec, "fleet_from_banks", counting)
        for name in ("fig03", "fig04", "ablation"):
            calls.clear()
            run_experiment(name)
            assert calls, name

    def test_scalar_backend_keeps_legacy_cache_params(self):
        """The grid experiments always run their vec sweep, under the
        cache parameters their scalar route had: no backend entry."""
        for name in ("fig03", "fig04", "ablation", "power-sweep", "fleet"):
            params = get_experiment(name).params(seed=0, scale=1.0)
            assert "backend" not in params, name

    def test_unroutable_experiment_rejects_vec(self):
        """No experiment takes a backend: the keyword is gone from the
        facade rather than ignored."""
        for name in ("fig02", "fig03"):
            with pytest.raises(TypeError):
                run_experiment(name, backend="vec")


class TestCli:
    def test_spec_check_backend_flag_parses(self, tmp_path):
        spec = tmp_path / "ok.json"
        spec.write_text(dump_scenario(scenario(seed=1)))
        args = build_parser().parse_args(
            ["info", "--check", str(spec), "--backend", "vec"]
        )
        assert args.backend == "vec" and args.check == [str(spec)]

    def test_vec_info_prints_matrix(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "harvesters" in out
        assert "reconfiguration" in out

    def test_spec_check_vec_passes_supported(self, tmp_path, capsys):
        spec = tmp_path / "ok.json"
        spec.write_text(dump_scenario(scenario(seed=1)))
        assert cli_main(["info", "--check", str(spec), "--backend", "vec"]) == 0

    def test_spec_check_vec_fails_unsupported(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(dump_scenario(_orbit_scenario()))
        assert cli_main(["info", "--check", str(spec), "--backend", "vec"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_experiment_unroutable_backend_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["experiment", "fig02", "--backend", "vec"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
