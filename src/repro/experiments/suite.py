"""The built-in experiment catalogue.

Every paper figure and study registers itself here with the
:func:`~repro.experiments.registry.experiment` decorator; the registry
(not a hand-maintained list) is what ``run_all`` and the CLI iterate.
Runners are module-level functions so the ``run_all`` process pool can
pickle them by qualified name, and each imports its experiment module
lazily so merely loading the catalogue stays cheap.

Registration order is display order and follows the paper's figure
numbering.
"""

from __future__ import annotations

import contextlib
import io
from typing import Callable

from repro.experiments.registry import experiment


def _capture(fn: Callable[..., object], *args, **kwargs) -> str:
    """Run *fn*, returning everything it printed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        fn(*args, **kwargs)
    return buffer.getvalue()


def _campaign_scenarios(seed: int, scale: float):
    """Declarative scenarios behind the fig08/fig09 campaigns; their
    canonical hash joins those experiments' cache keys, so editing a
    campaign scenario invalidates exactly the campaign jobs."""
    from repro.experiments.fig08_accuracy import declared_scenarios

    return declared_scenarios(seed, scale)


@experiment("fig02", "Figure 2: fixed-capacity execution")
def fig02(seed: int, scale: float) -> str:
    from repro.experiments import fig02_fixed_capacity

    return _capture(fig02_fixed_capacity.main, horizon=600.0)


@experiment("fig03", "Figure 3: atomicity vs capacitance")
def fig03(seed: int, scale: float) -> str:
    from repro.experiments import fig03_design_space

    return _capture(fig03_design_space.main)


@experiment("fig04", "Figure 4: atomicity by volume and technology")
def fig04(seed: int, scale: float) -> str:
    from repro.experiments import fig04_volume

    return _capture(fig04_volume.main)


@experiment(
    "fig08",
    "Figure 8: event-detection accuracy",
    uses_seed=True,
    uses_scale=True,
    in_suite=False,  # the suite runs it via the shared "campaigns" job
    scenarios=_campaign_scenarios,
)
def fig08(seed: int, scale: float) -> str:
    from repro.experiments import fig08_accuracy

    return _capture(fig08_accuracy.main, seed=seed, scale=scale)


@experiment(
    "fig09",
    "Figure 9: reaction latency",
    uses_seed=True,
    uses_scale=True,
    in_suite=False,  # the suite runs it via the shared "campaigns" job
    scenarios=_campaign_scenarios,
)
def fig09(seed: int, scale: float) -> str:
    from repro.experiments import fig09_latency

    return _capture(fig09_latency.main, seed=seed, scale=scale)


@experiment(
    "campaigns",
    "Figures 8 and 9: accuracy and latency campaigns",
    uses_seed=True,
    uses_scale=True,
    scenarios=_campaign_scenarios,
)
def campaigns(seed: int, scale: float) -> str:
    """Figures 8 and 9 share their campaigns, so they form one job."""
    from repro.experiments import fig08_accuracy, fig09_latency
    from repro.experiments.runner import print_result

    def both() -> None:
        accuracy = fig08_accuracy.run(seed=seed, scale=scale)
        print_result(accuracy.result)
        print()
        latency = fig09_latency.run(seed=seed, scale=scale, accuracy=accuracy)
        print_result(latency.result)

    return _capture(both)


@experiment(
    "fig10", "Figure 10: sensitivity to event inter-arrival", uses_seed=True
)
def fig10(seed: int, scale: float) -> str:
    from repro.experiments import fig10_sensitivity

    return _capture(fig10_sensitivity.main, seed=seed)


@experiment("fig11", "Figure 11: inter-sample distributions", uses_seed=True)
def fig11(seed: int, scale: float) -> str:
    from repro.experiments import fig11_intersample

    return _capture(fig11_intersample.main, seed=seed)


@experiment("characterization", "Section 6.5: characterization")
def characterization(seed: int, scale: float) -> str:
    from repro.experiments import characterization as module

    return _capture(module.main)


@experiment("capysat", "Section 6.6: CapySat case study", uses_seed=True)
def capysat(seed: int, scale: float) -> str:
    from repro.experiments import capysat_study

    return _capture(capysat_study.main, seed=seed)


@experiment("ablation", "Section 5 ablations")
def ablation(seed: int, scale: float) -> str:
    from repro.experiments import ablation as module

    return _capture(module.main)


@experiment("debs", "Related work: DEBS comparison", uses_seed=True)
def debs(seed: int, scale: float) -> str:
    from repro.experiments import debs_comparison

    return _capture(debs_comparison.main, seed=seed)


@experiment("checkpoint", "Related work: checkpoint study")
def checkpoint(seed: int, scale: float) -> str:
    from repro.experiments import checkpoint_study

    return _capture(checkpoint_study.main)


@experiment("power-sweep", "Related work: input-power sweep", uses_seed=True)
def power_sweep(seed: int, scale: float) -> str:
    from repro.experiments import power_sweep as module

    return _capture(module.main, seed=seed)


def _fleet_scenarios(seed: int, scale: float):
    from repro.experiments.fleet_campaign import declared_scenarios

    return declared_scenarios(seed, scale)


@experiment(
    "fleet",
    "Fleet campaign: planner-batched duty-cycle availability",
    uses_seed=True,
    uses_scale=True,
    scenarios=_fleet_scenarios,
)
def fleet(seed: int, scale: float) -> str:
    from repro.experiments import fleet_campaign

    return _capture(fleet_campaign.main, seed=seed, scale=scale)


@experiment("versatility", "Related work: versatility study", uses_seed=True)
def versatility(seed: int, scale: float) -> str:
    from repro.experiments import versatility as module

    return _capture(module.main, seed=seed)


@experiment("interrupt", "Related work: interrupt study", uses_seed=True)
def interrupt(seed: int, scale: float) -> str:
    from repro.experiments import interrupt_study

    return _capture(interrupt_study.main, seed=seed)
