"""Figure 9: report latency for detected events.

For every event that was successfully reported in the Figure 8 runs,
measure the latency between the event and the packet's arrival at the
sniffer.  TA latency is measured relative to the continuously-powered
reference board (the paper's methodology); GRC and CSR latencies are
absolute from the pendulum actuation.

Paper shapes to reproduce:

* Capy-P keeps TA latency near the reference (~2.5 s) while Capy-R
  pays the full large-bank charge (~64 s) on the critical path;
* Fixed's mean latency is inflated by first-attempt transmission
  failures that retry after a recharge;
* GRC-Fast's latency is lower than GRC-Compact's, which pays a
  recharge between decode and transmit for a substantial fraction of
  events.

Run: ``python -m repro.experiments.fig09_latency``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.builder import SystemKind
from repro.experiments import fig08_accuracy, metrics
from repro.experiments.campaign import DEFAULT_KINDS
from repro.experiments.runner import ExperimentResult, print_result


@dataclass
class LatencyData:
    result: ExperimentResult
    raw: Dict[str, Dict[str, list]]


def run(
    seed: int = 0,
    scale: float = fig08_accuracy.DEFAULT_SCALE,
    accuracy: "fig08_accuracy.AccuracyData" = None,
) -> LatencyData:
    """Project latency from the Figure 8 campaigns.

    Pass *accuracy* (a prior :func:`fig08_accuracy.run` result) to reuse
    its runs instead of re-running the campaigns.
    """
    data = (
        accuracy
        if accuracy is not None
        else fig08_accuracy.run(seed=seed, scale=scale)
    )
    result = ExperimentResult(
        experiment="fig09-latency",
        columns=["App", "System", "MeanLatency", "MaxLatency", "Reported"],
    )
    result.notes.append(
        "TA latency is relative to the continuously-powered reference; "
        "GRC/CSR latency is absolute from the pendulum actuation"
    )
    raw: Dict[str, Dict[str, list]] = {}
    for app_name, campaign in data.campaigns.items():
        raw[app_name] = {}
        for kind in DEFAULT_KINDS:
            instance = campaign[kind]
            if app_name == "TempAlarm":
                if kind is SystemKind.CONTINUOUS:
                    latencies = [0.0] * len(
                        metrics.reported_ids(instance.trace)
                    )
                else:
                    latencies = metrics.relative_latencies(
                        instance, campaign[SystemKind.CONTINUOUS]
                    )
            else:
                latencies = metrics.event_latencies(instance)
            raw[app_name][kind.value] = latencies
            mean = metrics.mean(latencies)
            worst = max(latencies) if latencies else 0.0
            result.values[f"{app_name}/{kind.value}/mean_latency"] = mean
            result.values[f"{app_name}/{kind.value}/max_latency"] = worst
            result.values[f"{app_name}/{kind.value}/reported"] = float(
                len(latencies)
            )
            result.rows.append(
                [
                    app_name,
                    kind.value,
                    f"{mean:.2f}s",
                    f"{worst:.2f}s",
                    str(len(latencies)),
                ]
            )
    return LatencyData(result=result, raw=raw)


def main(seed: int = 0, scale: float = fig08_accuracy.DEFAULT_SCALE) -> ExperimentResult:
    data = run(seed=seed, scale=scale)
    print_result(data.result)
    return data.result


if __name__ == "__main__":
    main()
