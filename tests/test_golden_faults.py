"""Golden-file tests for the fault layer.

Two determinism contracts are pinned against committed artifacts:

* **Differential chaos** — a campaign whose worker attempts are crashed
  and retried produces trace JSONL *byte-identical* to the fault-free
  serial run (and to the committed golden trace).  This is the claim the
  whole resilience design rests on: injected campaign faults exercise
  the retry machinery without perturbing results.
* **Faulted-replay stability** — a simulation run under a committed
  fault schedule reproduces its committed trace byte-for-byte, pinning
  the *semantics* of injection (window edges, event placement) across
  commits.  The schedule's canonical hash is pinned too, since cache
  keys embed it.
"""

import pytest

from repro.faults import (
    WorkerChaos,
    apply_faults,
    fault_schedule_hash,
    load_fault_schedule,
)
from repro.observability.tracing import to_jsonl


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


def _faulted_probe_trace(seed: int, schedule_text: str) -> str:
    """Like :func:`_probe_trace` but with a fault schedule armed."""
    from repro.apps import build_temp_alarm
    from repro.core.builder import SystemKind
    from repro.observability.telemetry import Telemetry, telemetry_scope

    telemetry = Telemetry()
    with telemetry_scope(telemetry):
        app = build_temp_alarm(SystemKind.CAPY_P, seed=seed, event_count=3)
        apply_faults(app, load_fault_schedule(schedule_text), telemetry=telemetry)
        app.run(120.0)
    return to_jsonl(telemetry.trace_records())


@pytest.fixture
def golden_dir(request):
    path = request.path.parent / "golden"
    assert path.is_dir()
    return path


class TestDifferentialChaosDeterminism:
    def test_crashed_and_retried_campaign_matches_fault_free_serial(
        self, golden_dir, fault_seed
    ):
        """Every worker attempt is crashed once and retried; the surviving
        results must be byte-identical to an undisturbed serial run and
        to the committed golden trace."""
        from repro.experiments.parallel import (
            ParallelReport,
            RetryPolicy,
            WorkerPool,
        )

        schedule = load_fault_schedule(golden_dir / "faults" / "worker_crash.json")
        from repro.faults import build_injector

        chaos = build_injector(schedule).worker_chaos()
        assert chaos == WorkerChaos(
            seed=7, probability=1.0, max_crashes=1, mode="crash"
        )

        serial = [_probe_trace(1), _probe_trace(2)]
        report = ParallelReport()
        with WorkerPool(jobs=2) as pool:
            chaotic = pool.map_tasks(
                _probe_trace,
                [(1,), (2,)],
                labels=["seed1", "seed2"],
                report=report,
                retry=RetryPolicy(max_attempts=3, base_delay=0.0, seed=fault_seed),
                chaos=chaos,
            )
        # the chaos actually bit: every task needed a second attempt
        assert [timing.attempts for timing in report.timings] == [2, 2]
        assert chaotic == serial

        golden = (golden_dir / "temp_alarm_cbp_seed1_trace.jsonl").read_text(
            encoding="utf-8"
        )
        assert chaotic[0] == golden


class TestFaultedReplayGolden:
    def test_schedule_hash_is_pinned(self, golden_dir):
        """Cache keys embed this hash; an accidental canonicalisation
        change would silently invalidate (or worse, alias) entries."""
        schedule = load_fault_schedule(golden_dir / "faults" / "blackout.json")
        assert fault_schedule_hash(schedule) == (
            "43d817e4851dd25c927e25913d3dd4627d5ea6aecb604f040fe98eb1df896579"
        )

    def test_faulted_run_matches_golden_trace(self, golden_dir):
        schedule_text = (golden_dir / "faults" / "blackout.json").read_text()
        golden_path = golden_dir / "faults" / "temp_alarm_cbp_seed1_blackout.jsonl"
        assert golden_path.is_file(), (
            "golden faulted trace missing; regenerate via _faulted_probe_trace"
        )
        assert _faulted_probe_trace(1, schedule_text) == golden_path.read_text(
            encoding="utf-8"
        )

    def test_faulted_trace_differs_from_clean_and_contains_fault_event(
        self, golden_dir
    ):
        schedule_text = (golden_dir / "faults" / "blackout.json").read_text()
        faulted = _faulted_probe_trace(1, schedule_text)
        clean = _probe_trace(1)
        assert faulted != clean
        assert faulted.count('"kind":"fault"') == 1
        assert '"name":"harvester_blackout"' in faulted
