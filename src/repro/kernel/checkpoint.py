"""Dynamic-checkpointing intermittent execution (prior-work substrate).

The paper's related work contrasts Capybara's task-based model with
*dynamic checkpointing* systems — Hibernus checkpoints volatile state
when the supply voltage crosses a threshold; QuickRecall/Mementos
checkpoint periodically — and notes they are "less amenable to use with
Capybara because checkpoints occur arbitrarily, on energy changes".

This module implements that substrate so the claim can be studied:

* :class:`CheckpointingExecutor` runs the same generator-based task
  bodies as the task-based executor, but a power failure resumes from
  the **last checkpoint inside the task** instead of the task boundary.
  Checkpoints snapshot the operation index plus every value previously
  sent into the generator; on restore the body is re-instantiated and
  replayed to the checkpoint *for free* (state restoration), then
  execution continues normally.
* Two policies from the literature: voltage-threshold (Hibernus-style,
  checkpoint when the buffer droops past a set point) and periodic
  (QuickRecall-style, checkpoint every N operations).

What this buys — and what it costs — is measured by
:mod:`repro.experiments.checkpoint_study`: checkpointing makes forward
progress through atomic regions *larger than the energy buffer* (where
task-based execution livelocks), but pays checkpoint overhead on every
cycle and, crucially, offers no natural boundary at which to reconfigure
the reservoir, which is why Capybara pairs with task-based models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from repro.device.board import Board, LoadPoint
from repro.errors import ConfigurationError, ProvisioningError, TaskGraphError
from repro.kernel.executor import SensorBinding, _default_binding
from repro.kernel.memory import NonVolatileStore, VolatileStore
from repro.kernel.tasks import (
    Compute,
    Sample,
    Sleep,
    TaskContext,
    TaskGraph,
    Transmit,
)
from repro.observability.telemetry import Telemetry, resolve_telemetry
from repro.sim.trace import Trace

_TIME_EPSILON = 1e-9

#: NV keys of the checkpoint machinery.
CHECKPOINT_KEY = "checkpoint/state"
TASK_KEY = "checkpoint/task-pointer"


class CheckpointPolicy(enum.Enum):
    """When to take a checkpoint."""

    #: Hibernus-style: checkpoint when the buffer voltage droops below a
    #: threshold (one checkpoint per discharge cycle, just in time).
    VOLTAGE_THRESHOLD = "voltage"
    #: QuickRecall/Mementos-style: checkpoint every N operations.
    PERIODIC = "periodic"


@dataclass
class CheckpointRecord:
    """A durable mid-task execution snapshot.

    Attributes:
        task: the task being executed.
        ops_completed: operations already performed.
        sent_values: the value sent into the generator after each
            completed operation (replayed verbatim on restore).
        staged: the task's staged channel writes at checkpoint time.
    """

    task: str
    ops_completed: int
    sent_values: List[Any]
    staged: dict


@dataclass(frozen=True)
class CheckpointCost:
    """The energy/time price of writing or restoring a snapshot.

    Defaults model an FRAM volatile-state copy of a few kilobytes.
    """

    write_time: float = 4e-3
    write_power: float = 5e-3
    restore_time: float = 2e-3
    restore_power: float = 5e-3

    def write_load(self) -> LoadPoint:
        return LoadPoint(self.write_time, self.write_power)

    def restore_load(self) -> LoadPoint:
        return LoadPoint(self.restore_time, self.restore_power)


class CheckpointingExecutor:
    """Charge / boot / restore / run loop with dynamic checkpoints.

    Unlike :class:`~repro.kernel.executor.IntermittentExecutor`, there is
    no Capybara runtime: dynamic checkpointing has no task boundaries at
    which to plan reconfiguration, so the reservoir stays in whatever
    configuration it was built with (use a single-bank Fixed system).

    Args:
        board: the hardware platform.
        graph: the application (same DSL as the task-based executor).
        policy: when to checkpoint.
        checkpoint_threshold: buffer voltage triggering a
            VOLTAGE_THRESHOLD checkpoint.
        checkpoint_period_ops: operation count between PERIODIC
            checkpoints.
        cost: energy/time of snapshot writes and restores.
    """

    def __init__(
        self,
        board: Board,
        graph: TaskGraph,
        policy: CheckpointPolicy = CheckpointPolicy.VOLTAGE_THRESHOLD,
        checkpoint_threshold: float = 1.1,
        checkpoint_period_ops: int = 8,
        cost: CheckpointCost = CheckpointCost(),
        trace: Optional[Trace] = None,
        sensor_binding: SensorBinding = _default_binding,
        rng: Optional[np.random.Generator] = None,
        max_cycles_without_progress: int = 10_000,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.telemetry = resolve_telemetry(telemetry)
        if checkpoint_threshold <= 0.0:
            raise ConfigurationError("checkpoint_threshold must be positive")
        if checkpoint_period_ops < 1:
            raise ConfigurationError("checkpoint_period_ops must be >= 1")
        self.board = board
        self.graph = graph
        self.policy = policy
        self.checkpoint_threshold = checkpoint_threshold
        self.checkpoint_period_ops = checkpoint_period_ops
        self.cost = cost
        self.trace = trace if trace is not None else Trace()
        self.sensor_binding = sensor_binding
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.max_cycles_without_progress = max_cycles_without_progress

        self.now = 0.0
        self.nv = NonVolatileStore()
        self.volatile = VolatileStore()
        self._cycles_without_progress = 0
        # Hibernus takes one snapshot per discharge cycle: arm the
        # trigger at boot, disarm after it fires.
        self._checkpoint_armed = True

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    @property
    def power_system(self):
        return self.board.power_system

    def run(self, horizon: float) -> Trace:
        """Run until simulation time *horizon*; returns the trace."""
        if horizon < self.now:
            raise TaskGraphError(
                f"horizon {horizon} precedes current time {self.now}"
            )
        while self.now < horizon - _TIME_EPSILON:
            self._cycle(horizon)
        return self.trace

    def _cycle(self, horizon: float) -> None:
        if not self._charge_full(horizon):
            return
        self.trace.record_state(self.now, "booting")
        if not self._run_load(self.board.boot_load(), horizon):
            self._power_failure()
            return
        self.trace.record_state(self.now, "running")
        while self.now < horizon - _TIME_EPSILON:
            if not self._execute_current_task(horizon):
                return

    # ------------------------------------------------------------------
    # Task execution with checkpoint/restore
    # ------------------------------------------------------------------

    def _execute_current_task(self, horizon: float) -> bool:
        task_name = self.nv.get(TASK_KEY, self.graph.entry)
        task = self.graph.task(task_name)
        record: Optional[CheckpointRecord] = self.nv.get(CHECKPOINT_KEY)
        if record is not None and record.task != task.name:
            record = None  # stale snapshot from a different task

        context = TaskContext(self.nv, lambda: self.now)
        generator = task.body(context)
        sent_values: List[Any] = []
        ops_completed = 0

        if record is not None:
            # Restore: pay the restore cost, then replay the recorded
            # prefix for free (state is being copied, not recomputed).
            if not self._run_load(self.cost.restore_load(), horizon):
                self._power_failure()
                return False
            self.trace.bump("checkpoint_restores")
            if self.telemetry.enabled:
                self.telemetry.inc("kernel.checkpoint_restores")
                self.telemetry.event(
                    self.now, "kernel", "checkpoint_restore", task=task.name
                )
            try:
                replayed = self._replay(generator, record)
            except StopIteration:
                replayed = None
            if replayed is None:
                # Body shorter than the snapshot (graph changed?): drop it.
                self.nv.delete(CHECKPOINT_KEY)
                return True
            for key, value in record.staged.items():
                self.nv.stage(key, value)
            sent_values = list(record.sent_values)
            ops_completed = record.ops_completed

        to_send = sent_values[-1] if sent_values else None
        first = ops_completed == 0
        while True:
            if self.now >= horizon - _TIME_EPSILON:
                self.nv.abort()
                return False
            try:
                operation = (
                    generator.send(None)
                    if first
                    else generator.send(to_send)
                )
            except StopIteration as stop:
                return self._complete(task, stop.value)
            first = False
            outcome = self._perform(operation, horizon)
            if outcome is _FAILED:
                self.nv.abort()
                self._power_failure()
                self._note_no_progress(task, ops_completed)
                return False
            to_send = outcome
            sent_values.append(to_send)
            ops_completed += 1
            self._cycles_without_progress = 0
            self._maybe_checkpoint(task, ops_completed, sent_values, horizon)

    def _replay(self, generator, record: CheckpointRecord):
        """Fast-forward a fresh generator to the snapshot point."""
        operation = generator.send(None)
        for index in range(record.ops_completed):
            if index == record.ops_completed - 1:
                return operation
            operation = generator.send(record.sent_values[index])
        return operation

    def _complete(self, task, next_name: Optional[str]) -> bool:
        self.nv.commit()
        self.nv.delete(CHECKPOINT_KEY)
        target = next_name if next_name is not None else task.name
        if target not in self.graph:
            raise TaskGraphError(
                f"task {task.name!r} transitioned to unknown task {target!r}"
            )
        self.nv.put(TASK_KEY, target)
        self.trace.bump(f"task_done:{task.name}")
        return True

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _maybe_checkpoint(
        self,
        task,
        ops_completed: int,
        sent_values: List[Any],
        horizon: float,
    ) -> None:
        if self.policy is CheckpointPolicy.VOLTAGE_THRESHOLD:
            voltage = self.power_system.reservoir.active_voltage(self.now)
            due = self._checkpoint_armed and voltage <= self.checkpoint_threshold
        else:
            due = ops_completed % self.checkpoint_period_ops == 0
        if not due:
            return
        if not self._run_load(self.cost.write_load(), horizon):
            # Died while writing the snapshot: the old one (if any)
            # remains valid — exactly the double-buffering real systems
            # use.
            self._power_failure()
            return
        record = CheckpointRecord(
            task=task.name,
            ops_completed=ops_completed,
            sent_values=list(sent_values),
            staged=self.nv.staged_items(),
        )
        self.nv.put(CHECKPOINT_KEY, record)
        self.trace.bump("checkpoints")
        if self.telemetry.enabled:
            self.telemetry.inc("kernel.checkpoints")
            self.telemetry.event(
                self.now,
                "kernel",
                "checkpoint",
                task=task.name,
                ops_completed=ops_completed,
            )
        self._checkpoint_armed = False

    # ------------------------------------------------------------------
    # Operations and energy plumbing (shared semantics with the
    # task-based executor)
    # ------------------------------------------------------------------

    def _perform(self, operation, horizon: float):
        if isinstance(operation, Compute):
            load = self.board.compute_load(operation.ops)
            return None if self._run_load(load, horizon) else _FAILED
        if isinstance(operation, Sample):
            load = self.board.sense_load(operation.sensor, operation.samples)
            if not self._run_load(load, horizon):
                return _FAILED
            reading = self.sensor_binding(operation.sensor, self.now)
            self.trace.record_sample(
                self.now, operation.sensor, reading.value, reading.event_id
            )
            return reading
        if isinstance(operation, Transmit):
            load = self.board.transmit_load(operation.size_bytes)
            if not self._run_load(load, horizon):
                return _FAILED
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
            return delivered
        if isinstance(operation, Sleep):
            load = self.board.sleep_load(operation.duration)
            return None if self._run_load(load, horizon) else _FAILED
        raise TaskGraphError(f"unknown operation {operation!r}")

    def _run_load(self, load: LoadPoint, horizon: float) -> bool:
        duration = min(load.duration, max(0.0, horizon - self.now))
        elapsed = self.power_system.drain(self.now, load.power, duration)[0]
        self.now += elapsed
        return elapsed >= duration - _TIME_EPSILON

    def _charge_full(self, horizon: float) -> bool:
        self.trace.record_state(self.now, "charging")
        ps = self.power_system
        start = self.now
        while not ps.is_charged(self.now):
            if self.now >= horizon - _TIME_EPSILON:
                return False
            result = ps.charge(self.now, min(120.0, horizon - self.now))
            self.now += result.elapsed
            if result.reached_target:
                break
        self.trace.bump("charge_cycles")
        self.trace.record_duration("charge", self.now - start)
        self._checkpoint_armed = True
        return True

    def _power_failure(self) -> None:
        self.trace.bump("power_failures")
        if self.telemetry.enabled:
            self.telemetry.inc("kernel.power_failures")
            self.telemetry.event(self.now, "kernel", "power_failure")
        self.volatile.power_fail()
        self.nv.power_fail()
        self.trace.record_state(self.now, "off", "power failure")

    def _note_no_progress(self, task, ops_completed: int) -> None:
        record: Optional[CheckpointRecord] = self.nv.get(CHECKPOINT_KEY)
        anchored = record.ops_completed if record and record.task == task.name else 0
        if ops_completed <= anchored:
            self._cycles_without_progress += 1
        else:
            self._cycles_without_progress = 0
        if self._cycles_without_progress > self.max_cycles_without_progress:
            raise ProvisioningError(
                f"task {task.name!r} makes no forward progress between "
                "checkpoints; the buffer cannot fund even one operation "
                "plus a checkpoint"
            )


class _Failed:
    """Sentinel: an operation ended in a power failure."""


_FAILED = _Failed()
