"""The fault injector: runtime hooks, determinism, and integration."""

import pytest

from repro.energy.bank import BankSpec
from repro.energy.capacitor import CERAMIC_X5R, TANTALUM_POLYMER
from repro.energy.harvester import FaultyHarvester, RegulatedSupply
from repro.energy.reservoir import ReconfigurableReservoir
from repro.energy.switch import BankSwitch, SwitchPolarity
from repro.errors import (
    ConfigurationError,
    FaultSpecError,
    InjectedWorkerCrash,
    InjectedWorkerTimeout,
)
from repro.faults import (
    FaultScheduleSpec,
    FaultSpec,
    WorkerChaos,
    apply_faults,
    build_injector,
)
from repro.observability.telemetry import Telemetry
from repro.sim.engine import Simulator


def schedule_of(*faults, seed=0):
    return FaultScheduleSpec(name="t", faults=tuple(faults), seed=seed)


def timed(kind, start, duration, **extra):
    return FaultSpec(kind=kind, params={"start": start, "duration": duration, **extra})


class TestHarvesterFaults:
    def test_blackout_zeroes_output_inside_window_only(self):
        injector = build_injector(schedule_of(timed("harvester_blackout", 10.0, 5.0)))
        harvester = FaultyHarvester(
            inner=RegulatedSupply(voltage=3.0, max_power=1e-2), injector=injector
        )
        assert harvester.output(9.0) == (3.0, 1e-2)
        assert harvester.output(12.0) == (0.0, 0.0)
        assert harvester.output(15.0) == (3.0, 1e-2)

    def test_sag_scales_operating_point(self):
        injector = build_injector(
            schedule_of(
                timed("brownout_sag", 10.0, 5.0, voltage_scale=0.5, power_scale=0.25)
            )
        )
        harvester = FaultyHarvester(
            inner=RegulatedSupply(voltage=3.0, max_power=1e-2), injector=injector
        )
        assert harvester.output(12.0) == (1.5, 2.5e-3)

    def test_wrapper_requires_injector(self):
        with pytest.raises(ConfigurationError):
            FaultyHarvester(inner=RegulatedSupply())

    def test_spec_dict_extracts_inner_harvester(self):
        injector = build_injector(schedule_of())
        harvester = FaultyHarvester(inner=RegulatedSupply(), injector=injector)
        assert harvester.spec_dict() == RegulatedSupply().spec_dict()


class TestReservoirFaults:
    def _reservoir(self):
        reservoir = ReconfigurableReservoir()
        reservoir.add_bank(BankSpec.single("small", CERAMIC_X5R, 3))  # hardwired
        reservoir.add_bank(
            BankSpec.single("big", TANTALUM_POLYMER, 4),
            switch=BankSwitch(name="big", polarity=SwitchPolarity.NORMALLY_CLOSED),
        )
        return reservoir

    def test_esr_spike_multiplies_active_esr(self):
        reservoir = self._reservoir()
        clean = reservoir.active_esr(0.0)
        reservoir.set_fault_injector(
            build_injector(schedule_of(timed("esr_spike", 10.0, 5.0, factor=10.0)))
        )
        assert reservoir.active_esr(12.0) == pytest.approx(10.0 * clean)
        assert reservoir.active_esr(20.0) == pytest.approx(clean)

    def test_cache_does_not_leak_across_fault_boundary(self):
        """Querying just before the window must not cache a clean entry
        that then serves (stale) inside the window."""
        reservoir = self._reservoir()
        clean = reservoir.active_esr(0.0)
        reservoir.set_fault_injector(
            build_injector(schedule_of(timed("esr_spike", 10.0, 5.0, factor=10.0)))
        )
        assert reservoir.active_esr(9.999) == pytest.approx(clean)
        assert reservoir.active_esr(10.0) == pytest.approx(10.0 * clean)

    def test_switch_stuck_open_removes_bank(self):
        reservoir = self._reservoir()
        reservoir.set_fault_injector(
            build_injector(
                schedule_of(timed("switch_stuck", 10.0, 5.0, bank="big", stuck="open"))
            )
        )
        assert reservoir.active_names(5.0) == ["small", "big"]
        assert reservoir.active_names(12.0) == ["small"]
        assert reservoir.active_names(20.0) == ["small", "big"]

    def test_leakage_spike_accelerates_leak(self):
        # Charge through the reservoir so both start on the shared
        # voltage (bank-level stores would add equalization loss noise).
        lazy = self._reservoir()
        lazy.store(2e-4, 0.0)
        spiked = self._reservoir()
        spiked.store(2e-4, 0.0)
        spiked.set_fault_injector(
            build_injector(schedule_of(timed("leakage_spike", 0.0, 100.0, factor=50.0)))
        )
        assert spiked.leak_all(1.0, 10.0) > 10.0 * lazy.leak_all(1.0, 10.0)


class TestApplyFaults:
    def _schedule(self, *faults, seed=1):
        return schedule_of(*faults, seed=seed)

    def _app(self):
        from repro.apps.temp_alarm import build_temp_alarm
        from repro.core.builder import SystemKind

        return build_temp_alarm(SystemKind.CAPY_P, seed=1)

    def test_unknown_stuck_bank_rejected(self):
        app = self._app()
        with pytest.raises(FaultSpecError, match="switch_stuck"):
            apply_faults(
                app,
                self._schedule(
                    timed("switch_stuck", 0.0, 1.0, bank="nope", stuck="open")
                ),
            )

    def test_faulted_replay_is_bit_identical(self):
        schedule = self._schedule(timed("harvester_blackout", 100.0, 50.0))

        def run():
            app = self._app()
            apply_faults(app, schedule)
            app.run(600.0)
            return app.trace.counters, len(app.trace.samples)

        assert run() == run()

    def test_faulted_run_differs_from_clean(self):
        schedule = self._schedule(timed("harvester_blackout", 100.0, 200.0))
        clean = self._app()
        clean.run(600.0)
        faulted = self._app()
        apply_faults(faulted, schedule)
        faulted.run(600.0)
        assert faulted.trace.counters != clean.trace.counters

    def test_fault_events_recorded_on_telemetry(self):
        telemetry = Telemetry()
        app = self._app()
        apply_faults(
            app,
            self._schedule(
                timed("harvester_blackout", 100.0, 50.0),
                timed("esr_spike", 200.0, 50.0),
            ),
            telemetry=telemetry,
        )
        snapshot = telemetry.snapshot()
        fault_events = [
            event for event in snapshot["events"] if event["kind"] == "fault"
        ]
        assert [event["name"] for event in fault_events] == [
            "harvester_blackout",
            "esr_spike",
        ]
        assert snapshot["metrics"]["faults.injected"]["value"] == 2.0


class TestSimulatorFaultEvents:
    def test_each_fault_appears_exactly_once(self):
        telemetry = Telemetry()
        sim = Simulator(telemetry=telemetry)
        injector = build_injector(
            schedule_of(
                timed("harvester_blackout", 5.0, 1.0),
                timed("esr_spike", 2.0, 1.0),
            )
        )
        assert sim.install_fault_events(injector) == 2
        sim.run_until(10.0)
        fault_events = [
            record
            for record in telemetry.trace_records()
            if record["kind"] == "fault"
        ]
        assert [(event["time"], event["name"]) for event in fault_events] == [
            (2.0, "esr_spike"),
            (5.0, "harvester_blackout"),
        ]

    def test_past_faults_are_skipped(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until(5.0)
        injector = build_injector(schedule_of(timed("harvester_blackout", 1.0, 1.0)))
        assert sim.install_fault_events(injector) == 0


class TestWorkerChaos:
    def test_draws_are_deterministic(self):
        chaos = WorkerChaos(seed=9, probability=0.5, max_crashes=3)
        first = [chaos.injected_failure("job", attempt) for attempt in range(1, 10)]
        second = [chaos.injected_failure("job", attempt) for attempt in range(1, 10)]
        assert first == second

    def test_budget_guarantees_completion(self):
        chaos = WorkerChaos(seed=9, probability=1.0, max_crashes=2)
        assert chaos.injected_failure("job", 1) == "crash"
        assert chaos.injected_failure("job", 2) == "crash"
        assert chaos.injected_failure("job", 3) is None
        assert chaos.injected_failure("job", 99) is None

    def test_budget_is_per_label(self):
        chaos = WorkerChaos(seed=9, probability=1.0, max_crashes=1)
        assert chaos.injected_failure("a", 1) == "crash"
        assert chaos.injected_failure("b", 1) == "crash"

    def test_raise_modes(self):
        with pytest.raises(InjectedWorkerCrash):
            WorkerChaos(seed=9).raise_if_injected("job", 1)
        with pytest.raises(InjectedWorkerTimeout):
            WorkerChaos(seed=9, mode="timeout").raise_if_injected("job", 1)

    def test_zero_probability_never_fires(self):
        chaos = WorkerChaos(seed=9, probability=0.0)
        assert all(
            chaos.injected_failure("job", attempt) is None
            for attempt in range(1, 20)
        )

    def test_folded_from_schedule(self):
        injector = build_injector(
            schedule_of(
                FaultSpec(kind="worker_crash", params={"max_crashes": 2}),
                FaultSpec(
                    kind="worker_crash",
                    params={"probability": 0.5, "mode": "timeout"},
                ),
                seed=11,
            )
        )
        chaos = injector.worker_chaos()
        assert chaos == WorkerChaos(
            seed=11, probability=1.0, max_crashes=3, mode="timeout"
        )

    def test_no_campaign_faults_means_no_chaos(self):
        assert build_injector(schedule_of()).worker_chaos() is None


class TestParallelMapResilience:
    """The retry, chaos and ``on_error`` contract of `WorkerPool.map_tasks`."""

    def test_chaos_with_retry_recovers(self, fault_seed):
        from repro.experiments.parallel import ParallelReport, RetryPolicy, WorkerPool

        report = ParallelReport()
        telemetry = Telemetry()
        with WorkerPool(jobs=1) as pool:
            out = pool.map_tasks(
                _double,
                [(1,), (2,), (3,)],
                labels=["a", "b", "c"],
                report=report,
                retry=RetryPolicy(max_attempts=3, base_delay=0.0),
                chaos=WorkerChaos(seed=fault_seed, probability=1.0, max_crashes=1),
                telemetry=telemetry,
            )
        assert out == [2, 4, 6]
        assert [timing.attempts for timing in report.timings] == [2, 2, 2]
        snapshot = telemetry.snapshot()["metrics"]
        assert snapshot["campaign.retries"]["value"] == 3.0
        assert "campaign.gave_up" not in snapshot

    def test_capture_mode_degrades_gracefully(self):
        from repro.experiments.parallel import RetryPolicy, TaskError, WorkerPool

        telemetry = Telemetry()
        with WorkerPool(jobs=1) as pool:
            out = pool.map_tasks(
                _always_fails,
                [(1,), (2,)],
                labels=["p", "q"],
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                on_error="capture",
                telemetry=telemetry,
            )
        assert all(isinstance(result, TaskError) for result in out)
        assert out[0].attempts == 2
        assert "boom" in out[0].error
        assert telemetry.snapshot()["metrics"]["campaign.gave_up"]["value"] == 2.0

    def test_raise_mode_propagates_after_retries(self):
        from repro.experiments.parallel import RetryPolicy, WorkerPool

        with WorkerPool(jobs=1) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.map_tasks(
                    _always_fails,
                    [(1,)],
                    retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                )

    def test_pool_mode_retries_too(self, fault_seed):
        from repro.experiments.parallel import ParallelReport, RetryPolicy, WorkerPool

        report = ParallelReport()
        with WorkerPool(jobs=2) as pool:
            out = pool.map_tasks(
                _double,
                [(1,), (2,), (3,)],
                labels=["a", "b", "c"],
                report=report,
                retry=RetryPolicy(max_attempts=3, base_delay=0.0),
                chaos=WorkerChaos(seed=fault_seed, probability=1.0, max_crashes=1),
            )
        assert report.mode == "process-pool"
        assert out == [2, 4, 6]
        assert [timing.attempts for timing in report.timings] == [2, 2, 2]

    def test_retry_jitter_is_deterministic(self):
        from repro.experiments.parallel import RetryPolicy

        policy = RetryPolicy(max_attempts=3, base_delay=0.1, seed=5)
        assert policy.delay("job", 1) == policy.delay("job", 1)
        assert 0.05 <= policy.delay("job", 1) < 0.1
        assert policy.delay("job", 2) > policy.delay("job", 1) * 0.5  # grows


def _double(x):
    return x * 2


def _always_fails(x):
    raise ValueError(f"boom {x}")
