"""Suite-level cache behaviour: spec-hash keys give per-experiment
invalidation — editing one experiment's declared scenario re-runs only
that experiment on the next ``run_all`` invocation."""

import contextlib
import io

import pytest

from repro.experiments import run_all
from repro.experiments.registry import Experiment, ExperimentRegistry


def _fast_runner(tag):
    def runner(seed, scale):
        return f"{tag}: seed={seed} scale={scale}\n"

    return runner


@pytest.fixture
def synthetic_registry(monkeypatch):
    """Two tiny scenario-declaring experiments standing in for the suite.

    ``alpha``'s scenario parameters live in a mutable dict so a test can
    "edit the experiment" between ``run_all`` invocations.
    """
    from repro.apps import csr, temp_alarm

    alpha_params = {"event_count": 6}

    def alpha_scenarios(seed, scale):
        return [
            temp_alarm.scenario(
                seed=seed, event_count=alpha_params["event_count"]
            )
        ]

    def beta_scenarios(seed, scale):
        return [csr.scenario(seed=seed, event_count=6)]

    registry = ExperimentRegistry()
    registry._catalogue_loaded = True  # keep the real catalogue out
    registry.register(
        Experiment(
            job_id="alpha",
            title="Alpha",
            runner=_fast_runner("alpha"),
            uses_seed=True,
            scenarios=alpha_scenarios,
        )
    )
    registry.register(
        Experiment(
            job_id="beta",
            title="Beta",
            runner=_fast_runner("beta"),
            uses_seed=True,
            scenarios=beta_scenarios,
        )
    )
    monkeypatch.setattr(run_all, "_REGISTRY", registry)
    # jobs=1 keeps execution in-process, so the patched lookup is the
    # one the "workers" use.
    monkeypatch.setattr(run_all, "get_experiment", registry.get)
    return alpha_params


def _run(cache_root, jobs=1, **kwargs):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run_all.main(seed=0, scale=0.05, jobs=jobs, cache_dir=cache_root, **kwargs)
    return buffer.getvalue()


def test_editing_one_scenario_invalidates_only_that_experiment(
    synthetic_registry, tmp_cache
):
    alpha_params = synthetic_registry

    cold = _run(tmp_cache.root)
    assert cold.count("[cache hit]") == 0

    warm = _run(tmp_cache.root)
    assert warm.count("[cache hit]") == 2

    # "Edit" alpha: its declared scenario now has a different event
    # count, so its spec hash — and only its cache key — changes.
    alpha_params["event_count"] = 7
    edited = _run(tmp_cache.root)
    assert edited.count("[cache hit]") == 1
    assert "## Beta [cache hit]" in edited
    assert "## Alpha [cache hit]" not in edited

    # Reverting the edit restores the original key: everything replays.
    alpha_params["event_count"] = 6
    reverted = _run(tmp_cache.root)
    assert reverted.count("[cache hit]") == 2


def test_scenarioless_experiment_keys_ignore_spec_hash(tmp_path):
    """Experiments without declared scenarios keep their old-style keys
    (no "spec" component), so introducing the spec layer did not
    invalidate their caches."""
    from repro.experiments.cache import result_key

    assert result_key("exp", {"seed": 1}, fingerprint="f") == result_key(
        "exp", {"seed": 1}, fingerprint="f", spec_hash=None
    )
    assert result_key("exp", {"seed": 1}, fingerprint="f") != result_key(
        "exp", {"seed": 1}, fingerprint="f", spec_hash="abc"
    )


def test_fault_hash_segregates_cache_keys():
    """A faulted run must never replay a clean run's cache entry (or
    vice versa): the fault-schedule hash joins the key exactly when an
    injection is active."""
    from repro.experiments.cache import result_key

    clean = result_key("exp", {"seed": 1}, fingerprint="f", spec_hash="s")
    faulted = result_key(
        "exp", {"seed": 1}, fingerprint="f", spec_hash="s", fault_hash="h1"
    )
    assert clean != faulted
    assert faulted != result_key(
        "exp", {"seed": 1}, fingerprint="f", spec_hash="s", fault_hash="h2"
    )
    # Omitted and None are the same key — pre-faults entries stay valid.
    assert clean == result_key(
        "exp", {"seed": 1}, fingerprint="f", spec_hash="s", fault_hash=None
    )


def test_run_all_reports_failing_experiment_without_aborting(
    synthetic_registry, tmp_cache, monkeypatch
):
    """Graceful degradation: one permanently failing experiment becomes
    a structured error row while the other experiment still runs,
    prints, and caches."""
    import dataclasses

    from repro.experiments.parallel import RetryPolicy

    registry = run_all._REGISTRY

    def broken_runner(seed, scale):
        raise RuntimeError("synthetic permanent failure")

    broken = dataclasses.replace(registry.get("alpha"), runner=broken_runner)
    monkeypatch.setitem(registry._experiments, "alpha", broken)
    out = _run(tmp_cache.root, retry=RetryPolicy(max_attempts=2, base_delay=0.0))

    assert "## Alpha [FAILED]" in out
    assert "synthetic permanent failure" in out
    assert "failed after 2 attempt(s)" in out
    assert "beta: seed=0" in out  # the healthy experiment completed
    assert "1 experiment(s) FAILED" in out
    # The failure is never cached: a rerun re-attempts alpha but
    # replays beta.
    again = _run(tmp_cache.root, retry=RetryPolicy(max_attempts=2, base_delay=0.0))
    assert "## Beta [cache hit]" in again
    assert "## Alpha [FAILED]" in again


def test_run_all_accepts_a_str_cache_dir(synthetic_registry, tmp_path):
    root = str(tmp_path / "cache")
    assert _run(root).count("[cache hit]") == 0
    assert _run(root).count("[cache hit]") == 2


@pytest.mark.parametrize("jobs", [0, -1, 2.5, True, "2"])
def test_run_all_rejects_jobs_that_are_not_a_positive_int(
    synthetic_registry, tmp_cache, jobs
):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="--jobs must be an int >= 1"):
        _run(tmp_cache.root, jobs=jobs)


def test_failed_cache_writes_keep_every_result(
    synthetic_registry, tmp_path, capsys
):
    """An unwritable cache directory costs the entries, not the run:
    every section prints, each lost entry gets one stderr line, and
    ``suite.cache.put_errors`` counts them."""
    import json

    blocker = tmp_path / "file"
    blocker.write_text("a regular file, so nothing can be created under it")
    metrics = tmp_path / "metrics.jsonl"
    run_all.main(
        seed=0, scale=0.05, jobs=1, cache_dir=blocker / "cache", metrics_out=metrics
    )
    captured = capsys.readouterr()
    assert "## Alpha\nalpha: seed=0" in captured.out
    assert "## Beta\nbeta: seed=0" in captured.out
    assert "tasks: 2 (2 timed)" in captured.out
    assert captured.err.count("[cache] could not store") == 2
    (record,) = (
        record
        for record in map(json.loads, metrics.read_text().splitlines())
        if record["name"] == "suite.cache.put_errors"
    )
    assert record["value"] == 2


@pytest.fixture
def fleet_registry(monkeypatch):
    """A registry holding only the real fleet-campaign experiment, so
    ``run_all`` differential tests stay fast."""
    from repro.experiments.registry import ExperimentRegistry, get_experiment

    registry = ExperimentRegistry()
    registry._catalogue_loaded = True  # keep the real catalogue out
    registry.register(get_experiment("fleet"))
    monkeypatch.setattr(run_all, "_REGISTRY", registry)
    monkeypatch.setattr(run_all, "get_experiment", registry.get)
    return registry


def _experiment_section(out):
    """The per-experiment output block of a ``run_all`` transcript
    (between the ``##`` heading and the timing summary, which is
    legitimately run-dependent)."""
    body = out.split("\n## ", 1)[1]
    return body.split("\n\n", 1)[0]


def test_run_all_vec_route_survives_worker_chaos(fleet_registry, tmp_cache):
    """Deterministic worker crashes below the retry budget leave the
    fleet campaign's output — its cohorts run as full vec batches —
    bit-identical to an undisturbed run."""
    import pathlib

    inject = pathlib.Path(__file__).parent / "golden" / "faults" / "worker_crash.json"
    clean = _run(tmp_cache.root, use_cache=False)
    chaotic = _run(tmp_cache.root, use_cache=False, inject=inject)
    assert _experiment_section(clean) == _experiment_section(chaotic)
