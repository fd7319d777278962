"""Compare the four power systems of the paper's evaluation.

Runs the Gesture Remote Control (GRC-Fast) on continuous power, the
statically-provisioned Fixed baseline, and both Capybara variants —
all against the *same* pendulum event sequence — and prints a
Figure 8/9-style summary: the detection-outcome taxonomy and the
report latencies.

Run:  python examples/compare_power_systems.py
"""

from repro.apps import APPS
from repro.core import SystemKind
from repro.experiments import metrics
from repro.experiments.runner import format_table, percent
from repro.spec import ScenarioBuilder

KINDS = [
    SystemKind.CONTINUOUS,
    SystemKind.FIXED,
    SystemKind.CAPY_R,
    SystemKind.CAPY_P,
]


def main() -> None:
    # The same seed means the same Poisson gesture schedule; only the
    # power system changes.  The builder rebuilds the app's declared
    # scenario under each system.
    builder = ScenarioBuilder(APPS["grc-fast"].scenario(seed=11, event_count=20))
    horizon = builder(SystemKind.CONTINUOUS).schedule.horizon + 30.0

    rows = []
    for kind in KINDS:
        app = builder(kind)
        app.run(horizon)
        outcomes = metrics.grc_outcomes(app)
        latencies = metrics.event_latencies(app)
        rows.append(
            [
                kind.value,
                percent(outcomes.fraction(metrics.GRC_CORRECT)),
                percent(outcomes.fraction(metrics.GRC_MISCLASSIFIED)),
                percent(outcomes.fraction(metrics.GRC_PROXIMITY_ONLY)),
                percent(outcomes.fraction(metrics.GRC_MISSED)),
                f"{metrics.mean(latencies):.2f}s" if latencies else "-",
            ]
        )
    print(
        format_table(
            ["System", "Correct", "Misclassified", "ProxOnly", "Missed", "MeanLatency"],
            rows,
            title="GRC-Fast: 20 pendulum gestures, four power systems",
        )
    )
    print(
        "\nExpected shapes (paper Figure 8/9): the Fixed baseline spends"
        "\nmost of its life recharging its worst-case bank and misses most"
        "\nswings; Capy-R detects proximity but cannot charge the gesture"
        "\nengine in time (reports nothing); Capy-P pre-charges the burst"
        "\nbanks and approaches continuous-power accuracy."
    )


if __name__ == "__main__":
    main()
