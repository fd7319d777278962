"""Figure 8: event detection accuracy.

Reproduces the paper's accuracy comparison: each application (TempAlarm,
GestureFast, GestureCompact, CorrSense) runs on Pwr / Fixed / Capy-R /
Capy-P against a Poisson event sequence (TA: 50 events over 120 min;
GRC and CSR: 80 events over 42 min), and we report the fraction of
events each system detects — with GRC further broken into the
correct / misclassified / proximity-only / missed taxonomy.

Paper shapes to reproduce: Fixed detects only ~18% (GRC) / ~46% (TA) /
~56% (CSR); Capybara variants reach >= 89% (CSR), ~98% (TA), and
Capy-P ~75% (GRC); Capy-R reports no GRC events at all.

Run: ``python -m repro.experiments.fig08_accuracy``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.apps import csr, grc, temp_alarm
from repro.apps.grc import GRCVariant
from repro.core.builder import SystemKind
from repro.experiments import metrics
from repro.experiments.campaign import (
    DEFAULT_KINDS,
    Campaign,
    Point,
    campaign_runs,
    campaigns,
)
from repro.experiments.registry import Run
from repro.experiments.runner import ExperimentResult, percent, print_result
from repro.sim.trace import Trace
from repro.spec import ScenarioSpec

#: Scaled-down defaults keep a full figure regeneration to a couple of
#: minutes; pass scale=1.0 for the paper-sized event counts.
DEFAULT_SCALE = 0.5

#: Display name of each declared scenario, in declared order.
APP_NAMES = ("TempAlarm", "GestureFast", "GestureCompact", "CorrSense")


@dataclass
class AccuracyData:
    """Campaigns plus per-(app, system) accuracies."""

    campaigns: Dict[str, Campaign]
    result: ExperimentResult


def declared_scenarios(seed: int, scale: float) -> List[ScenarioSpec]:
    """The declarative scenarios this experiment simulates, in display
    order — registered with the experiment registry so their canonical
    hash joins the result-cache key."""
    ta_events = max(5, int(50 * scale))
    grc_events = max(5, int(80 * scale))
    return [
        temp_alarm.scenario(seed=seed, event_count=ta_events),
        grc.scenario(variant=GRCVariant.FAST, seed=seed, event_count=grc_events),
        grc.scenario(variant=GRCVariant.COMPACT, seed=seed, event_count=grc_events),
        csr.scenario(seed=seed, event_count=grc_events),
    ]


def _points(seed: int, scale: float) -> List[Point]:
    """Each declared scenario under the four systems, with recovery
    slack past its schedule."""
    return [
        (name, scenario, DEFAULT_KINDS, 120.0)
        for name, scenario in zip(APP_NAMES, declared_scenarios(seed, scale))
    ]


def declared_runs(seed: int, scale: float) -> List[Run]:
    """One run per (declared scenario, system kind), in display order
    (registry hook: each run is its own dispatcher task)."""
    return campaign_runs(_points(seed, scale))


def run(
    seed: int = 0,
    scale: float = DEFAULT_SCALE,
    traces: Optional[Iterable[Trace]] = None,
) -> AccuracyData:
    """Run the Figure 8 experiment.

    Args:
        seed: root seed for schedules and noise.
        scale: fraction of the paper's event counts (duration scales
            with it; inter-arrival statistics are preserved).
        traces: the results of :func:`declared_runs` with the same
            arguments, in declared order; ``None`` runs them in this
            process.
    """
    ta_events = max(5, int(50 * scale))
    grc_events = max(5, int(80 * scale))
    by_app = dict(campaigns(_points(seed, scale), traces))
    result = ExperimentResult(
        experiment="fig08-accuracy",
        columns=["App", "System", "Correct", "Misclassified", "ProxOnly", "Missed"],
    )
    result.notes.append(
        f"seed={seed} scale={scale} ta_events={ta_events} grc_events={grc_events}"
    )
    for app_name, campaign in by_app.items():
        for kind in DEFAULT_KINDS:
            instance = campaign[kind]
            if app_name.startswith("Gesture"):
                outcomes = metrics.grc_outcomes(instance)
                correct = outcomes.fraction(metrics.GRC_CORRECT)
                miscls = outcomes.fraction(metrics.GRC_MISCLASSIFIED)
                prox = outcomes.fraction(metrics.GRC_PROXIMITY_ONLY)
                missed = outcomes.fraction(metrics.GRC_MISSED)
            elif app_name == "TempAlarm":
                correct = metrics.ta_accuracy(instance, campaign[SystemKind.CONTINUOUS])
                miscls = prox = 0.0
                missed = 1.0 - correct
            else:  # CorrSense
                correct = metrics.csr_accuracy(instance)
                miscls = prox = 0.0
                missed = 1.0 - correct
            result.values[f"{app_name}/{kind.value}/accuracy"] = correct
            result.values[f"{app_name}/{kind.value}/missed"] = missed
            result.rows.append(
                [
                    app_name,
                    kind.value,
                    percent(correct),
                    percent(miscls),
                    percent(prox),
                    percent(missed),
                ]
            )
    return AccuracyData(campaigns=by_app, result=result)


def main(seed: int = 0, scale: float = DEFAULT_SCALE, traces=None) -> ExperimentResult:
    data = run(seed=seed, scale=scale, traces=traces)
    print_result(data.result)
    return data.result


if __name__ == "__main__":
    main()
