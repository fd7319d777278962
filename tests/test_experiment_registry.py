"""Experiment registry and run_all's telemetry/caching behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import (
    REGISTRY,
    Experiment,
    ExperimentRegistry,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.observability.telemetry import Telemetry
from repro.observability.tracing import to_jsonl


class TestRegistry:
    def test_decorator_registers(self):
        registry = ExperimentRegistry()
        registry._catalogue_loaded = True  # keep the test hermetic

        @registry.experiment("toy", "A toy experiment", uses_seed=True)
        def toy(seed, scale):
            return f"toy seed={seed}"

        exp = registry.get("toy")
        assert exp.title == "A toy experiment"
        assert exp.runner(3, 1.0) == "toy seed=3"
        assert exp.params(3, 0.5) == {"seed": 3}
        assert "toy" in registry
        assert registry.ids() == ["toy"]

    def test_duplicate_id_rejected(self):
        registry = ExperimentRegistry()
        registry._catalogue_loaded = True
        registry.register(Experiment("dup", "t", lambda s, sc: ""))
        with pytest.raises(ConfigurationError):
            registry.register(Experiment("dup", "t", lambda s, sc: ""))

    def test_unknown_id_raises_with_catalogue(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_builtin_catalogue_covers_the_paper(self):
        ids = REGISTRY.ids()
        for expected in (
            "fig02", "fig03", "fig04", "fig08", "fig09", "campaigns",
            "fig10", "fig11", "characterization", "capysat", "ablation",
            "debs", "checkpoint", "power-sweep", "versatility", "interrupt",
        ):
            assert expected in ids
        suite_ids = [exp.job_id for exp in REGISTRY.suite()]
        # fig08/fig09 run inside the shared campaigns job, not twice.
        assert "fig08" not in suite_ids and "fig09" not in suite_ids
        assert "campaigns" in suite_ids

    def test_list_experiments_suite_only(self):
        assert len(list_experiments(suite_only=True)) < len(list_experiments())

    def test_run_experiment_with_telemetry(self):
        telemetry = Telemetry()
        text = run_experiment("fig03", telemetry=telemetry)
        assert "Atomicity" in text
        # fig03 sweeps capacitance analytically: metrics registry exists
        # and the call must not blow up even if nothing was recorded.
        telemetry.snapshot()


class TestDeprecatedAliases:
    def test_run_all_shims_removed(self):
        """The pre-registry aliases are gone: ``Experiment`` and
        ``REGISTRY.suite()`` are the only spellings."""
        from repro import cli
        from repro.experiments import run_all

        for module, legacy in (
            (run_all, "ExperimentJob"),
            (run_all, "EXPERIMENT_JOBS"),
            (cli, "EXPERIMENT_MODULES"),
        ):
            with pytest.raises(AttributeError):
                getattr(module, legacy)

    def test_top_level_shims_removed(self):
        """The v1 facade freeze dropped the pre-1.0 top-level shims.

        The canonical spellings (``repro.PowerSystem``, the deep
        ``repro.core`` paths) are the supported API; the old aliases now
        fail loudly instead of warning.
        """
        import repro

        for legacy in (
            "CapybaraPowerSystem",
            "build_capybara_system",
            "build_fixed_system",
        ):
            with pytest.raises(AttributeError):
                getattr(repro, legacy)
        # ...while the deep module paths remain stable.
        from repro.core import build_capybara_system  # noqa: F401

    def test_facade_exports(self):
        import repro
        from repro import (  # noqa: F401
            JobRequest,
            JobResult,
            JobStatus,
            PowerSystem,
            SystemBuilder,
            SystemKind,
            Telemetry,
            micro_farads,
            run_experiment,
        )

        assert repro.__api_version__ == "v1"
        # Everything the facade advertises must actually resolve.
        for name in repro.__all__:
            assert getattr(repro, name) is not None


# ---------------------------------------------------------------------------
# Golden-file determinism: the trace JSONL of a short temp-alarm run is
# byte-identical across serial and multi-process execution, and across
# commits (the golden file).  Trace records carry only simulation-derived
# fields — wall clock lives exclusively in metrics — which is what makes
# this reproducible.
# ---------------------------------------------------------------------------

def _probe_trace(seed: int) -> str:
    """Module-level (picklable) worker: trace JSONL of one short run."""
    from repro.apps import build_temp_alarm
    from repro.core.builder import SystemKind
    from repro.observability.telemetry import Telemetry, telemetry_scope

    telemetry = Telemetry()
    with telemetry_scope(telemetry):
        app = build_temp_alarm(SystemKind.CAPY_P, seed=seed, event_count=3)
        app.run(120.0)
    return to_jsonl(telemetry.trace_records())


class TestTraceDeterminism:
    def test_serial_matches_golden_file(self, golden_trace_path):
        assert _probe_trace(seed=1) == golden_trace_path.read_text(
            encoding="utf-8"
        )

    def test_parallel_matches_serial(self):
        from repro.experiments.parallel import parallel_map

        serial = [_probe_trace(1), _probe_trace(2)]
        parallel = parallel_map(_probe_trace, [(1,), (2,)], jobs=2)
        assert parallel == serial


@pytest.fixture
def golden_trace_path(request):
    path = (
        request.path.parent / "golden" / "temp_alarm_cbp_seed1_trace.jsonl"
    )
    assert path.is_file(), "golden trace missing; regenerate via _probe_trace"
    return path
