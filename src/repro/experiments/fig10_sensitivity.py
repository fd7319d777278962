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
from typing import Dict, List, Sequence

from repro.apps import APPS
from repro.core.builder import SystemKind
from repro.experiments import metrics
from repro.experiments.parallel import run_campaign_parallel
from repro.experiments.runner import ExperimentResult, percent, print_result
from repro.spec import ScenarioBuilder

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


def run(
    seed: int = 0,
    ta_events: int = 15,
    grc_events: int = 25,
    ta_means: Sequence[float] = DEFAULT_TA_MEANS,
    grc_means: Sequence[float] = DEFAULT_GRC_MEANS,
) -> SensitivityData:
    result = ExperimentResult(
        experiment="fig10-sensitivity",
        columns=["App", "MeanInterarrival", "System", "Accuracy"],
    )
    result.notes.append(
        f"seed={seed} ta_events={ta_events} grc_events={grc_events}"
    )
    ta_series: Dict[str, List[float]] = {kind.value: [] for kind in TA_KINDS}
    grc_series: Dict[str, List[float]] = {kind.value: [] for kind in GRC_KINDS}

    for mean in ta_means:
        builder = ScenarioBuilder(
            APPS["temp-alarm"].scenario(
                seed=seed, event_count=ta_events, mean_interarrival=mean
            )
        )
        probe = builder(SystemKind.CONTINUOUS)
        campaign = run_campaign_parallel(
            builder, probe.schedule.horizon + 120.0, kinds=list(TA_KINDS)
        )
        for kind in TA_KINDS:
            accuracy = metrics.ta_accuracy(
                campaign.instance(kind), campaign.reference
            )
            ta_series[kind.value].append(accuracy)
            result.values[f"TempAlarm/{mean:.0f}/{kind.value}"] = accuracy
            result.rows.append(
                ["TempAlarm", f"{mean:.0f}s", kind.value, percent(accuracy)]
            )

    for mean in grc_means:
        builder = ScenarioBuilder(
            APPS["grc-fast"].scenario(
                seed=seed, event_count=grc_events, mean_interarrival=mean
            )
        )
        probe = builder(SystemKind.CONTINUOUS)
        campaign = run_campaign_parallel(
            builder, probe.schedule.horizon + 60.0, kinds=list(GRC_KINDS)
        )
        for kind in GRC_KINDS:
            # The paper plots the fraction of *reported* events here
            # (correct or misclassified both count as reported).
            outcomes = metrics.grc_outcomes(campaign.instance(kind))
            reported = outcomes.fraction(metrics.GRC_CORRECT) + outcomes.fraction(
                metrics.GRC_MISCLASSIFIED
            )
            grc_series[kind.value].append(reported)
            result.values[f"GestureFast/{mean:.0f}/{kind.value}"] = reported
            result.rows.append(
                ["GestureFast", f"{mean:.0f}s", kind.value, percent(reported)]
            )
    return SensitivityData(
        result=result, ta_series=ta_series, grc_series=grc_series
    )


def main(seed: int = 0) -> ExperimentResult:
    data = run(seed=seed)
    print_result(data.result)
    return data.result


if __name__ == "__main__":
    main()
