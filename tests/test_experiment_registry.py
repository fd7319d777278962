"""Experiment registry and run_all's telemetry/caching behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import (
    REGISTRY,
    Experiment,
    ExperimentRegistry,
    Run,
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
        from repro.experiments.parallel import WorkerPool

        serial = [_probe_trace(1), _probe_trace(2)]
        with WorkerPool(jobs=2) as pool:
            parallel = pool.map_tasks(_probe_trace, [(1,), (2,)])
        assert parallel == serial


@pytest.fixture
def golden_trace_path(request):
    path = (
        request.path.parent / "golden" / "temp_alarm_cbp_seed1_trace.jsonl"
    )
    assert path.is_file(), "golden trace missing; regenerate via _probe_trace"
    return path


# ---------------------------------------------------------------------------
# Declared runs: one pool, and telemetry that survives it
# ---------------------------------------------------------------------------


def _process_runs(seed, scale):
    """Runs reporting which process ran them and that process's parent."""
    import os

    return [
        Run(f"{name}{i}", fn, ())
        for i in range(3)
        for name, fn in (("pid", os.getpid), ("ppid", os.getppid))
    ]


def _format_processes(seed, scale, results):
    return "".join(f"{value}\n" for value in results)


def _suite_of(monkeypatch, *experiments):
    """Point ``run_all`` at a registry of just *experiments*."""
    from repro.experiments import run_all

    registry = ExperimentRegistry()
    registry._catalogue_loaded = True  # keep the real catalogue out
    for exp in experiments:
        registry.register(exp)
    monkeypatch.setattr(run_all, "_REGISTRY", registry)
    monkeypatch.setattr(run_all, "get_experiment", registry.get)
    return run_all


def test_declared_runs_run_on_the_callers_pool(monkeypatch, tmp_path, capsys):
    """Every declared run is a task on ``run_all``'s own pool: it runs in
    a worker whose parent is the calling process, never in a pool nested
    inside another task."""
    import os

    run_all = _suite_of(
        monkeypatch,
        Experiment(
            "procs", "Processes", _format_processes, runs=_process_runs
        ),
    )
    run_all.main(seed=0, scale=0.05, jobs=2, cache_dir=tmp_path / "cache")
    out = capsys.readouterr().out
    section = out.split("## Processes\n")[1].split("\n\n")[0]
    values = [int(value) for value in section.split()]
    pids, ppids = values[0::2], values[1::2]
    assert len(ppids) == 3
    assert set(ppids) == {os.getpid()}
    assert os.getpid() not in pids
    assert "Execution summary (process-pool, jobs=2)" in out
    assert "tasks: 6 (6 timed)" in out


@pytest.fixture
def small_sweep(monkeypatch):
    """The power-sweep experiment with its grid shrunk to 2 scales x 3
    systems at 4 events, registered in place of the real one."""
    import dataclasses

    from repro.experiments import power_sweep
    from repro.experiments.runner import format_table

    grid = {"event_count": 4, "scales": (0.25, 4.0)}

    def runs(seed, scale):
        return power_sweep.declared_runs(seed, **grid)

    def runner(seed, scale, traces):
        result = power_sweep.run(seed, traces=traces, **grid).result
        return format_table(result.columns, result.rows) + "\n"

    exp = dataclasses.replace(
        get_experiment("power-sweep"), runner=runner, runs=runs
    )
    REGISTRY.ids()  # load the catalogue before swapping the entry
    monkeypatch.setitem(REGISTRY._experiments, "power-sweep", exp)
    return exp


def _counters(records, prefix=""):
    return {
        record["name"][len(prefix):]: record["value"]
        for record in records
        if record["kind"] == "counter" and record["name"].startswith(prefix)
    }


def _assert_same_counters(got, want):
    """Integer counters exactly; float sums to 1e-9 relative (merging
    per-run snapshots changes their summation order)."""
    assert set(got) == set(want)
    for name, value in want.items():
        if float(value).is_integer():
            assert got[name] == value, name
        else:
            assert got[name] == pytest.approx(value, rel=1e-9), name


def test_declared_runs_keep_their_telemetry_on_a_pool(
    small_sweep, monkeypatch, tmp_path
):
    """A declared-runs experiment records the same counters at 2 workers
    as serially, through both ``run_experiment`` and ``run_all``."""
    import contextlib
    import io
    import json

    from repro.experiments.parallel import JOBS_ENV

    facade = {}
    for jobs in (1, 2):
        monkeypatch.setenv(JOBS_ENV, str(jobs))
        telemetry = Telemetry()
        run_experiment("power-sweep", telemetry=telemetry)
        facade[jobs] = _counters(telemetry.metric_records())
    assert facade[1]["kernel.reboots"] > 0
    _assert_same_counters(facade[2], facade[1])

    run_all = _suite_of(monkeypatch, small_sweep)
    suite = {}
    for jobs in (1, 2):
        metrics = tmp_path / f"metrics{jobs}.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            run_all.main(
                jobs=jobs,
                use_cache=False,
                cache_dir=tmp_path / "cache",
                metrics_out=metrics,
            )
        records = map(json.loads, metrics.read_text().splitlines())
        suite[jobs] = _counters(records, prefix="exp.power-sweep.")
    _assert_same_counters(suite[2], suite[1])
    facade[1].pop("experiment.runs")
    _assert_same_counters(suite[1], facade[1])


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, 0.0])
def test_run_experiment_rejects_bad_scale(scale):
    with pytest.raises(ConfigurationError, match="--scale must be finite and > 0"):
        run_experiment("fig03", scale=scale)


def _broken_format(seed, scale, results):
    raise RuntimeError("formatter bug")


def test_a_runner_that_raises_fails_only_its_experiment(
    monkeypatch, tmp_path, capsys
):
    """Formatting runs in the parent once the runs land; a runner that
    raises there is its experiment's ``[FAILED]`` row under
    ``on_error="capture"``, and aborts the campaign under ``"raise"``."""
    run_all = _suite_of(
        monkeypatch,
        Experiment("broken", "Broken", _broken_format, runs=_process_runs),
        Experiment("procs", "Processes", _format_processes, runs=_process_runs),
    )
    run_all.main(seed=0, scale=0.05, jobs=1, cache_dir=tmp_path / "cache")
    out = capsys.readouterr().out
    assert "## Broken [FAILED]\n[error] broken failed" in out
    assert "formatter bug" in out
    assert "## Processes\n" in out
    assert "1 experiment(s) FAILED" in out
    with pytest.raises(RuntimeError, match="formatter bug"):
        run_all.main(
            seed=0, scale=0.05, jobs=1, cache_dir=tmp_path / "cache", on_error="raise"
        )
