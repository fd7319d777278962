"""The `Telemetry` object: one handle over metrics + tracing.

Instrumented components (:class:`~repro.sim.engine.Simulator`,
:class:`~repro.core.powersystem.CapybaraPowerSystem`, the kernel
executors, the experiment runner) each hold a ``Telemetry`` resolved at
construction time:

* pass one explicitly (``Simulator(telemetry=t)``), or
* construct inside a :func:`telemetry_scope` and the ambient telemetry
  is picked up, or
* do neither and you get :data:`NULL_TELEMETRY` — a no-op sink whose
  ``enabled`` flag is ``False``.

The contract instrumented code follows is::

    self.telemetry = resolve_telemetry(telemetry)
    ...
    if self.telemetry.enabled:            # one attribute load + branch
        self.telemetry.inc("kernel.reboots")

so the disabled path costs a single predictable branch and never touches
the registry.  The context-scoped default is what lets deep call stacks
(experiment modules building apps building power systems) opt a whole
run into instrumentation without threading a parameter through every
layer — exactly how the experiment pool wraps each worker job.

Snapshots are plain dicts (JSON-serialisable, picklable), so telemetry
collected in a worker process merges losslessly into the parent's
suite-level telemetry.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.observability.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    MetricsRegistry,
    Number,
    iter_metric_records,
)
from repro.observability.tracing import (
    FieldValue,
    Tracer,
    events_from_dicts,
)


class Telemetry:
    """A metrics registry plus a trace sink behind one convenience API.

    Attributes:
        enabled: whether instrumentation points should do work.  Checked
            by instrumented components before composing record payloads,
            so a disabled telemetry costs one branch per site.
        metrics: the :class:`MetricsRegistry`.
        tracer: the :class:`Tracer`.
    """

    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        # Counters this handle has resolved, by name: the simulation hot
        # paths increment the same few counters hundreds of thousands of
        # times per run, and a registry lookup re-checks the kind on each.
        self._counters: Dict[str, Counter] = {}

    # ------------------------------------------------------------------
    # Metric shortcuts
    # ------------------------------------------------------------------

    def inc(self, name: str, amount: Number = 1) -> None:
        """Increment counter *name* by *amount*."""
        try:
            counter = self._counters[name]
        except KeyError:
            counter = self._counters[name] = self.metrics.counter(name)
        counter.inc(amount)

    def set_gauge(self, name: str, value: Number) -> None:
        """Set gauge *name* to *value*."""
        self.metrics.gauge(name).set(value)

    def observe(
        self,
        name: str,
        value: Number,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        """Record *value* into histogram *name* (created with *buckets*)."""
        self.metrics.histogram(name, buckets=buckets).observe(value)

    # ------------------------------------------------------------------
    # Trace shortcuts
    # ------------------------------------------------------------------

    def event(self, time: float, kind: str, name: str, **fields: FieldValue) -> None:
        """Record an instantaneous trace event at simulation *time*."""
        self.tracer.event(time, kind, name, **fields)

    def span(
        self, start: float, end: float, kind: str, name: str, **fields: FieldValue
    ) -> None:
        """Record a trace span over simulation time [start, end]."""
        self.tracer.span(start, end, kind, name, **fields)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Picklable/JSON-able state: metrics + trace records."""
        return {
            "metrics": self.metrics.snapshot(),
            "events": self.tracer.as_dicts(),
            "dropped": self.tracer.dropped,
        }

    def merge_snapshot(
        self, snapshot: Mapping[str, object], prefix: str = ""
    ) -> None:
        """Fold a worker :meth:`snapshot` into this telemetry.

        Metrics merge through the registry (counters/histograms add,
        gauges last-write-win) under *prefix*; trace records append in
        order, untouched — their times are simulation times and need no
        rebasing.
        """
        self.metrics.merge_snapshot(
            snapshot.get("metrics") or {}, prefix=prefix  # type: ignore[arg-type]
        )
        for record in events_from_dicts(snapshot.get("events") or ()):  # type: ignore[arg-type]
            if len(self.tracer.records) >= self.tracer.max_records:
                self.tracer.dropped += 1
            else:
                self.tracer.records.append(record)
        self.tracer.dropped += int(snapshot.get("dropped") or 0)  # type: ignore[arg-type]

    def metric_records(self, scope: str = "run") -> List[Dict[str, object]]:
        """JSONL-ready metric record dicts for ``--metrics-out``."""
        return list(iter_metric_records(self.metrics.snapshot(), scope))

    def trace_records(self) -> List[Dict[str, object]]:
        """JSONL-ready trace record dicts for ``--trace-out``."""
        return self.tracer.as_dicts()


class NullTelemetry(Telemetry):
    """The default no-op sink: ``enabled`` is False, methods do nothing.

    Components that forget the ``enabled`` guard still behave correctly
    (every recording method is a no-op); the guard only buys speed.
    """

    enabled = False

    def __init__(self) -> None:
        # No registry/tracer allocation: the null sink is a shared
        # singleton and must stay stateless.
        pass

    def inc(self, name: str, amount: Number = 1) -> None:
        pass

    def set_gauge(self, name: str, value: Number) -> None:
        pass

    def observe(
        self,
        name: str,
        value: Number,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        pass

    def event(self, time: float, kind: str, name: str, **fields: FieldValue) -> None:
        pass

    def span(
        self, start: float, end: float, kind: str, name: str, **fields: FieldValue
    ) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"metrics": {}, "events": [], "dropped": 0}

    def merge_snapshot(
        self, snapshot: Mapping[str, object], prefix: str = ""
    ) -> None:
        raise TypeError("cannot merge into the null telemetry sink")


#: The process-wide no-op sink.  Identity comparisons are allowed
#: (``telemetry is NULL_TELEMETRY``) but the ``enabled`` flag is the
#: supported way to test for instrumentation.
NULL_TELEMETRY = NullTelemetry()

_CURRENT: contextvars.ContextVar[Telemetry] = contextvars.ContextVar(
    "repro_telemetry", default=NULL_TELEMETRY
)


def current_telemetry() -> Telemetry:
    """The ambient telemetry (:data:`NULL_TELEMETRY` outside any scope)."""
    return _CURRENT.get()


def resolve_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """The telemetry a component should use: the explicit argument if
    given, else the ambient context's."""
    return telemetry if telemetry is not None else _CURRENT.get()


@contextlib.contextmanager
def telemetry_scope(
    telemetry: Optional[Telemetry] = None,
) -> Iterator[Telemetry]:
    """Make *telemetry* (a fresh one if omitted) ambient for the block.

    Components constructed inside the block without an explicit
    telemetry argument report into it::

        with telemetry_scope() as tel:
            app = build_temp_alarm(SystemKind.CAPY_P, seed=1)
            app.run(600.0)
        print(tel.metrics.counter("kernel.reboots").value)
    """
    scoped = telemetry if telemetry is not None else Telemetry()
    token = _CURRENT.set(scoped)
    try:
        yield scoped
    finally:
        _CURRENT.reset(token)
