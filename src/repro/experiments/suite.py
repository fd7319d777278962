"""The built-in experiment catalogue.

Every paper figure and study registers itself here with the
:func:`~repro.experiments.registry.experiment` decorator; the registry
(not a hand-maintained list) is what ``run_all`` and the CLI iterate.
Each runner imports its experiment module on first call
(:func:`_module`), so merely loading the catalogue stays cheap.  The
campaign figures and the power sweep declare their scalar runs
(``runs=``): the dispatcher runs each as its own task, and their
runners format the printed tables from the run results.

Registration order is display order and follows the paper's figure
numbering.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from types import ModuleType
from typing import Callable

from repro.experiments.registry import experiment
from repro.experiments.runner import print_result


def _capture(fn: Callable[..., object], *args, **kwargs) -> str:
    """Run *fn*, returning everything it printed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        fn(*args, **kwargs)
    return buffer.getvalue()


def _module(name: str) -> ModuleType:
    """``repro.experiments.<name>``, imported on first use."""
    return importlib.import_module(f"repro.experiments.{name}")


def _campaign_scenarios(seed: int, scale: float):
    """Declarative scenarios behind the fig08/fig09 campaigns; their
    canonical hash joins those experiments' cache keys, so editing a
    campaign scenario invalidates exactly the campaign jobs."""
    return _module("fig08_accuracy").declared_scenarios(seed, scale)


def _campaign_runs(seed: int, scale: float):
    """The fig08/fig09 campaigns' runs: one per (scenario, system)."""
    return _module("fig08_accuracy").declared_runs(seed, scale)


@experiment("fig02", "Figure 2: fixed-capacity execution")
def fig02(seed: int, scale: float) -> str:
    return _capture(_module("fig02_fixed_capacity").main, horizon=600.0)


@experiment("fig03", "Figure 3: atomicity vs capacitance")
def fig03(seed: int, scale: float) -> str:
    return _capture(_module("fig03_design_space").main)


@experiment("fig04", "Figure 4: atomicity by volume and technology")
def fig04(seed: int, scale: float) -> str:
    return _capture(_module("fig04_volume").main)


@experiment(
    "fig08",
    "Figure 8: event-detection accuracy",
    uses_seed=True,
    uses_scale=True,
    in_suite=False,  # the suite runs it via the shared "campaigns" job
    scenarios=_campaign_scenarios,
    runs=_campaign_runs,
)
def fig08(seed: int, scale: float, traces) -> str:
    return _capture(_module("fig08_accuracy").main, seed, scale, traces)


@experiment(
    "fig09",
    "Figure 9: reaction latency",
    uses_seed=True,
    uses_scale=True,
    in_suite=False,  # the suite runs it via the shared "campaigns" job
    scenarios=_campaign_scenarios,
    runs=_campaign_runs,
)
def fig09(seed: int, scale: float, traces) -> str:
    accuracy = _module("fig08_accuracy").run(seed, scale, traces)
    latency = _module("fig09_latency").run(seed, scale, accuracy)
    return _capture(print_result, latency.result)


@experiment(
    "campaigns",
    "Figures 8 and 9: accuracy and latency campaigns",
    uses_seed=True,
    uses_scale=True,
    scenarios=_campaign_scenarios,
    runs=_campaign_runs,
)
def campaigns(seed: int, scale: float, traces) -> str:
    """Figures 8 and 9 share their campaigns, so they form one job."""
    accuracy = _module("fig08_accuracy").run(seed, scale, traces)
    latency = _module("fig09_latency").run(seed, scale, accuracy)
    return "\n".join(_capture(print_result, data.result) for data in (accuracy, latency))


@experiment(
    "fig10",
    "Figure 10: sensitivity to event inter-arrival",
    uses_seed=True,
    runs=lambda seed, scale: _module("fig10_sensitivity").declared_runs(seed),
)
def fig10(seed: int, scale: float, traces) -> str:
    return _capture(_module("fig10_sensitivity").main, seed, traces)


@experiment("fig11", "Figure 11: inter-sample distributions", uses_seed=True)
def fig11(seed: int, scale: float) -> str:
    return _capture(_module("fig11_intersample").main, seed=seed)


@experiment("characterization", "Section 6.5: characterization")
def characterization(seed: int, scale: float) -> str:
    return _capture(_module("characterization").main)


@experiment("capysat", "Section 6.6: CapySat case study", uses_seed=True)
def capysat(seed: int, scale: float) -> str:
    return _capture(_module("capysat_study").main, seed=seed)


@experiment("ablation", "Section 5 ablations")
def ablation(seed: int, scale: float) -> str:
    return _capture(_module("ablation").main)


@experiment("debs", "Related work: DEBS comparison", uses_seed=True)
def debs(seed: int, scale: float) -> str:
    return _capture(_module("debs_comparison").main, seed=seed)


@experiment("checkpoint", "Related work: checkpoint study")
def checkpoint(seed: int, scale: float) -> str:
    return _capture(_module("checkpoint_study").main)


@experiment(
    "power-sweep",
    "Related work: input-power sweep",
    uses_seed=True,
    runs=lambda seed, scale: _module("power_sweep").declared_runs(seed),
)
def power_sweep(seed: int, scale: float, traces) -> str:
    return _capture(_module("power_sweep").main, seed, traces)


@experiment(
    "fleet",
    "Fleet campaign: planner-batched duty-cycle availability",
    uses_seed=True,
    uses_scale=True,
    scenarios=lambda seed, scale: _module("fleet_campaign").declared_scenarios(
        seed, scale
    ),
)
def fleet(seed: int, scale: float) -> str:
    return _capture(_module("fleet_campaign").main, seed=seed, scale=scale)


@experiment("versatility", "Related work: versatility study", uses_seed=True)
def versatility(seed: int, scale: float) -> str:
    return _capture(_module("versatility").main, seed=seed)


@experiment("interrupt", "Related work: interrupt study", uses_seed=True)
def interrupt(seed: int, scale: float) -> str:
    return _capture(_module("interrupt_study").main, seed=seed)
