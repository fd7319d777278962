"""Execution baselines.

The paper compares Capybara against two baselines:

* **Continuous power** ("Pwr") — the same application code on a bench
  supply: no charging, no power failures.  :class:`ContinuousExecutor`
  runs the task graph with operations consuming only time (their energy
  is unconstrained).
* **Fixed capacity** ("Fixed") — a statically-provisioned single bank.
  That baseline needs no special executor: build a power system whose
  reservoir has one hardwired bank and run the ordinary
  :class:`~repro.kernel.executor.IntermittentExecutor` with the
  ``FIXED`` runtime variant (see :mod:`repro.core.builder`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import TaskGraphError
from repro.device.board import Board
from repro.kernel.executor import SensorBinding, _default_binding
from repro.kernel.memory import NonVolatileStore
from repro.kernel.tasks import (
    Compute,
    Sample,
    Sleep,
    TaskContext,
    TaskGraph,
    Transmit,
    WaitForInterrupt,
)
from repro.observability.telemetry import Telemetry, resolve_telemetry
from repro.sim.trace import Trace

_TIME_EPSILON = 1e-9


class ContinuousExecutor:
    """Run a task graph on continuous power (the "Pwr" baseline).

    Operations take their real durations (so latency comparisons are
    fair) but never brown out.  Energy consumed is tallied in the trace
    counters for reference.
    """

    def __init__(
        self,
        board: Board,
        graph: TaskGraph,
        trace: Optional[Trace] = None,
        sensor_binding: SensorBinding = _default_binding,
        interrupt_source=None,
        rng: Optional[np.random.Generator] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.board = board
        self.graph = graph
        self.telemetry = resolve_telemetry(telemetry)
        self.trace = trace if trace is not None else Trace()
        self.sensor_binding = sensor_binding
        self.interrupt_source = interrupt_source
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.nv = NonVolatileStore()
        self.now = 0.0
        self.energy_consumed = 0.0
        self._irq_consumed = {}
        # Per-task trace and telemetry counter names.
        self._task_keys = {
            name: (f"task_done:{name}", f"kernel.tasks_completed.{name}")
            for name in graph.task_names
        }

    def run(self, horizon: float) -> Trace:
        """Run until simulation time *horizon*; returns the trace."""
        if horizon < self.now:
            raise TaskGraphError(
                f"horizon {horizon} precedes current time {self.now}"
            )
        self.trace.record_state(self.now, "running", "continuous power")
        task_name = self.graph.entry
        limit = horizon - _TIME_EPSILON
        handlers = self._PERFORM
        while self.now < limit:
            task = self.graph.task(task_name)
            generator = task.body(TaskContext(self.nv, lambda: self.now))
            to_send = None
            completed = True
            while True:
                if self.now >= limit:
                    completed = False
                    break
                try:
                    operation = generator.send(to_send)
                except StopIteration as stop:
                    next_name = stop.value if stop.value is not None else task.name
                    if next_name not in self.graph:
                        raise TaskGraphError(
                            f"task {task.name!r} transitioned to unknown "
                            f"task {next_name!r}"
                        )
                    self.nv.commit()
                    trace_key, telemetry_key = self._task_keys[task.name]
                    self.trace.bump(trace_key)
                    if self.telemetry.enabled:
                        self.telemetry.inc("kernel.tasks_completed")
                        self.telemetry.inc(telemetry_key)
                    task_name = next_name
                    break
                perform = handlers.get(type(operation))
                if perform is None:
                    raise TaskGraphError(
                        f"task yielded unknown operation {operation!r}"
                    )
                to_send = perform(self, operation, horizon)
            if not completed:
                self.nv.abort()
        return self.trace

    # ------------------------------------------------------------------

    def _perform_compute(self, operation: Compute, horizon: float):
        load = self.board.compute_load(operation.ops)
        self._advance(load.duration, load.power, horizon)
        return None

    def _perform_sample(self, operation: Sample, horizon: float):
        load = self.board.sense_load(operation.sensor, operation.samples)
        self._advance(load.duration, load.power, horizon)
        reading = self.sensor_binding(operation.sensor, self.now)
        self.trace.record_sample(
            self.now, operation.sensor, reading.value, reading.event_id
        )
        return reading

    def _perform_transmit(self, operation: Transmit, horizon: float):
        load = self.board.transmit_load(operation.size_bytes)
        self._advance(load.duration, load.power, horizon)
        delivered = True
        radio = self.board.radio
        if radio is not None and radio.loss_rate > 0.0:
            delivered = self.rng.random() >= radio.loss_rate
        if delivered:
            self.trace.record_packet(
                self.now,
                operation.payload,
                operation.size_bytes,
                operation.event_id,
            )
        else:
            self.trace.bump("packets_lost_rf")
        return delivered

    def _perform_sleep(self, operation: Sleep, horizon: float):
        load = self.board.sleep_load(operation.duration)
        self._advance(load.duration, load.power, horizon)
        return None

    def _perform_wait(self, operation: WaitForInterrupt, horizon: float):
        # Latched edge-triggered semantics, mirroring the intermittent
        # executor (each edge wakes exactly one wait).
        consumed = self._irq_consumed.get(operation.line, float("-inf"))
        edge = None
        if self.interrupt_source is not None:
            query_from = consumed + 1e-9 if consumed != float("-inf") else 0.0
            edge = self.interrupt_source(operation.line, query_from)
        deadline = (
            self.now + operation.timeout
            if operation.timeout is not None
            else float("inf")
        )
        until = min(edge if edge is not None else float("inf"), deadline)
        if until == float("inf"):
            raise TaskGraphError(
                f"WaitForInterrupt({operation.line!r}) would sleep "
                "forever: no interrupt edge remains and no timeout "
                "was given"
            )
        self._advance(
            max(0.0, until - self.now),
            self.board.mcu.sleep_power + operation.sentinel_power,
            horizon,
        )
        if edge is not None and edge <= until + 1e-12:
            self._irq_consumed[operation.line] = edge
        reading = self.sensor_binding(operation.line, self.now)
        self.trace.record_sample(
            self.now, operation.line, reading.value, reading.event_id
        )
        return reading

    #: Operation type -> handler (exact types: operations are frozen
    #: dataclasses, not a hierarchy).
    _PERFORM = {
        Compute: _perform_compute,
        Sample: _perform_sample,
        Transmit: _perform_transmit,
        Sleep: _perform_sleep,
        WaitForInterrupt: _perform_wait,
    }

    def _advance(self, duration: float, power: float, horizon: float) -> None:
        step = min(duration, max(0.0, horizon - self.now))
        self.now += step
        self.energy_consumed += power * step
