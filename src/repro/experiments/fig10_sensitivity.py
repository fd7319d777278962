"""Figure 10: sensitivity of accuracy to event inter-arrival time.

Repeats the accuracy measurement for Poisson event sequences with
decreasing means: TA over 100-400 s inter-arrivals (Pwr / Fixed /
Capy-R / Capy-P) and GRC-Fast over 10-30 s (Pwr / Fixed / Capy-P — the
paper's legend omits Capy-R, which reports nothing on GRC).

Paper shapes to reproduce: all systems improve as events spread out,
but a lower event frequency does **not** rescue the Fixed system the
way it does Capybara — Fixed still burns a full large-capacitor
recharge per cycle regardless of events.

Run: ``python -m repro.experiments.fig10_sensitivity``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.apps import APPS
from repro.core.builder import SystemKind
from repro.experiments import metrics
from repro.experiments.campaign import Point, campaign_runs, campaigns
from repro.experiments.registry import Run
from repro.experiments.runner import ExperimentResult, percent, print_result
from repro.sim.trace import Trace

TA_KINDS = [
    SystemKind.CONTINUOUS,
    SystemKind.FIXED,
    SystemKind.CAPY_R,
    SystemKind.CAPY_P,
]
GRC_KINDS = [SystemKind.CONTINUOUS, SystemKind.FIXED, SystemKind.CAPY_P]

DEFAULT_TA_MEANS = (100.0, 200.0, 300.0, 400.0)
DEFAULT_GRC_MEANS = (10.0, 20.0, 30.0)


@dataclass
class SensitivityData:
    result: ExperimentResult
    ta_series: Dict[str, List[float]]
    grc_series: Dict[str, List[float]]


def _points(seed, ta_events, grc_events, ta_means, grc_means) -> List[Point]:
    """One campaign per inter-arrival point, TA first."""
    points = []
    for app, name, events, means, kinds, slack in (
        ("TempAlarm", "temp-alarm", ta_events, ta_means, TA_KINDS, 120.0),
        ("GestureFast", "grc-fast", grc_events, grc_means, GRC_KINDS, 60.0),
    ):
        for mean in means:
            scenario = APPS[name].scenario(
                seed=seed, event_count=events, mean_interarrival=mean
            )
            points.append((f"{app}/{mean:.0f}", scenario, kinds, slack))
    return points


def declared_runs(
    seed: int = 0,
    ta_events: int = 15,
    grc_events: int = 25,
    ta_means: Sequence[float] = DEFAULT_TA_MEANS,
    grc_means: Sequence[float] = DEFAULT_GRC_MEANS,
) -> List[Run]:
    """One run per (inter-arrival point, system kind), TA first
    (registry hook: each run is its own dispatcher task)."""
    return campaign_runs(_points(seed, ta_events, grc_events, ta_means, grc_means))


def run(
    seed: int = 0,
    ta_events: int = 15,
    grc_events: int = 25,
    ta_means: Sequence[float] = DEFAULT_TA_MEANS,
    grc_means: Sequence[float] = DEFAULT_GRC_MEANS,
    traces: Optional[Iterable[Trace]] = None,
) -> SensitivityData:
    """Run the Figure 10 experiment; *traces* are the results of
    :func:`declared_runs` with the same arguments, in declared order
    (``None`` runs them in this process)."""
    result = ExperimentResult(
        experiment="fig10-sensitivity",
        columns=["App", "MeanInterarrival", "System", "Accuracy"],
    )
    result.notes.append(
        f"seed={seed} ta_events={ta_events} grc_events={grc_events}"
    )
    ta_series: Dict[str, List[float]] = {kind.value: [] for kind in TA_KINDS}
    grc_series: Dict[str, List[float]] = {kind.value: [] for kind in GRC_KINDS}

    points = _points(seed, ta_events, grc_events, ta_means, grc_means)
    for label, campaign in campaigns(points, traces):
        app, mean = label.split("/")
        for kind, instance in campaign.items():
            if app == "TempAlarm":
                value = metrics.ta_accuracy(
                    instance, campaign[SystemKind.CONTINUOUS]
                )
                ta_series[kind.value].append(value)
            else:
                # The paper plots the fraction of *reported* events
                # here (correct or misclassified both count as
                # reported).
                outcomes = metrics.grc_outcomes(instance)
                value = outcomes.fraction(
                    metrics.GRC_CORRECT
                ) + outcomes.fraction(metrics.GRC_MISCLASSIFIED)
                grc_series[kind.value].append(value)
            result.values[f"{label}/{kind.value}"] = value
            result.rows.append([app, f"{mean}s", kind.value, percent(value)])
    return SensitivityData(
        result=result, ta_series=ta_series, grc_series=grc_series
    )


def main(seed: int = 0, traces=None) -> ExperimentResult:
    data = run(seed=seed, traces=traces)
    print_result(data.result)
    return data.result


if __name__ == "__main__":
    main()
