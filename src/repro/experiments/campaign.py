"""Campaign helpers: run one application across the power systems.

The paper's Sections 6.2-6.4 all reuse the same runs — every
application executed under Pwr / Fixed / Capy-R / Capy-P on an
identical event schedule.  An experiment names its campaigns as
:data:`Point` values; each (point, system) run is one declared
:class:`~repro.experiments.registry.Run` of :func:`run_scenario`, so
the dispatcher can run it as its own task, and :func:`campaigns` pairs
the returned traces with each scenario's schedule (a
:data:`Campaign`) for the figure modules to project metrics out of.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.apps.rigs import EventSchedule
from repro.core.builder import SystemKind
from repro.errors import ConfigurationError
from repro.experiments.registry import Run
from repro.sim.trace import Trace
from repro.spec import ScenarioSpec, build_scenario_app, canonical_json

#: Display order of the paper's bar groups.
DEFAULT_KINDS = [
    SystemKind.CONTINUOUS,
    SystemKind.FIXED,
    SystemKind.CAPY_R,
    SystemKind.CAPY_P,
]

#: One campaign: (name, declared scenario, system kinds, seconds each
#: run simulates past its schedule's horizon).
Point = Tuple[str, ScenarioSpec, Sequence[SystemKind], float]


#: What the metric helpers read of a finished run.
RunView = NamedTuple("RunView", [("schedule", EventSchedule), ("trace", Trace)])


#: The system runs of one application on one event schedule, by kind.
Campaign = Dict[SystemKind, RunView]


def run_scenario(scenario_json: str, kind: str, slack: float) -> Trace:
    """One campaign run: build the scenario under *kind*, run it to its
    schedule's horizon plus *slack* seconds, return the trace."""
    instance = build_scenario_app(scenario_json, kind=kind)
    instance.run(instance.schedule.horizon + slack)
    return instance.trace


def campaign_runs(points: Sequence[Point]) -> List[Run]:
    """One :func:`run_scenario` run per (point, kind), labelled
    ``<name>/<kind>``.

    Raises:
        ConfigurationError: a point's scenario is not a declared
            :class:`~repro.spec.ScenarioSpec` (e.g. a bare builder).
    """
    runs = []
    for name, scenario, kinds, slack in points:
        if not isinstance(scenario, ScenarioSpec):
            raise ConfigurationError(f"campaign runs take a ScenarioSpec, got {scenario!r}")
        scenario_json = canonical_json(scenario)
        runs += [
            Run(f"{name}/{kind.value}", run_scenario, (scenario_json, kind.value, slack))
            for kind in kinds
        ]
    return runs


def campaigns(
    points: Sequence[Point], traces: Optional[Iterable[Trace]] = None
) -> Iterator[Tuple[str, Campaign]]:
    """Each point's name and :data:`Campaign`, in declared order, from
    the traces of :func:`campaign_runs` (``None`` runs them in this
    process).  Lazy: a caller that drops each campaign before taking
    the next holds one point's traces at a time.

    Every kind replays the same schedule, so each point's traces pair
    with the schedule of one locally built, un-run instance.
    """
    if traces is None:
        traces = (run.fn(*run.args) for run in campaign_runs(points))
    traces = iter(traces)
    for name, scenario, kinds, _ in points:
        schedule = build_scenario_app(scenario).schedule
        yield name, {kind: RunView(schedule, next(traces)) for kind in kinds}
