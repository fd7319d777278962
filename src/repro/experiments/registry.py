"""Decorator-based experiment registry.

Experiments self-register with the :func:`experiment` decorator instead
of being hand-listed in ``run_all``::

    @experiment("fig10", "Figure 10: sensitivity", uses_seed=True)
    def fig10(seed: int, scale: float) -> str:
        return _capture(fig10_sensitivity.main, seed=seed)

The registry is the single source of truth for the CLI's ``list`` and
``experiment`` commands and for ``run_all``'s suite; adding a new
experiment is one decorated function in
:mod:`repro.experiments.suite` — no other file changes.

Registered runners share one uniform signature ``(seed, scale) -> str``
(the experiment's printed output); which arguments an experiment
actually depends on is declared via ``uses_seed``/``uses_scale`` so the
result cache keys on exactly the inputs that matter.

The built-in catalogue lives in :mod:`repro.experiments.suite` and is
imported lazily on first registry query, keeping ``import
repro.experiments`` fast and cycle-free.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.observability.telemetry import Telemetry, telemetry_scope

#: Runner signature: (seed, scale) -> captured printed output.
ExperimentRunner = Callable[[int, float], str]

#: Scenario declaration: (seed, scale) -> the declarative
#: :class:`~repro.spec.ScenarioSpec` objects the experiment simulates.
ScenarioFactory = Callable[[int, float], List["object"]]


@dataclass(frozen=True)
class Experiment:
    """One registered, independently runnable, cacheable experiment."""

    job_id: str
    title: str
    runner: ExperimentRunner
    uses_seed: bool = False
    uses_scale: bool = False
    #: Whether ``run_all`` includes this experiment (CLI-only entries
    #: like the standalone fig08/fig09 halves of the campaign job set
    #: this False).
    in_suite: bool = True
    #: Optional declarative scenario declaration.  When set, the
    #: canonical hash of the declared specs joins the cache key, so
    #: editing one experiment's scenario parameters invalidates only
    #: that experiment's cached results.
    scenarios: Optional[ScenarioFactory] = None

    def params(self, seed: int, scale: float) -> Dict[str, object]:
        """The cache-key parameters this experiment actually depends on."""
        params: Dict[str, object] = {}
        if self.uses_seed:
            params["seed"] = seed
        if self.uses_scale:
            params["scale"] = scale
        return params

    def spec_hash(self, seed: int, scale: float) -> Optional[str]:
        """Canonical hash over the declared scenarios, or ``None``."""
        if self.scenarios is None:
            return None
        from repro.spec import combined_spec_hash

        return combined_spec_hash(list(self.scenarios(seed, scale)))


class ExperimentRegistry:
    """Ordered mapping of job id -> :class:`Experiment`."""

    def __init__(self) -> None:
        self._experiments: Dict[str, Experiment] = {}
        self._catalogue_loaded = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, exp: Experiment) -> Experiment:
        if exp.job_id in self._experiments:
            raise ConfigurationError(
                f"experiment {exp.job_id!r} is already registered"
            )
        self._experiments[exp.job_id] = exp
        return exp

    def experiment(
        self,
        job_id: str,
        title: str,
        *,
        uses_seed: bool = False,
        uses_scale: bool = False,
        in_suite: bool = True,
        scenarios: Optional[ScenarioFactory] = None,
    ) -> Callable[[ExperimentRunner], ExperimentRunner]:
        """Decorator: register the function as experiment *job_id*."""

        def decorate(runner: ExperimentRunner) -> ExperimentRunner:
            self.register(
                Experiment(
                    job_id=job_id,
                    title=title,
                    runner=runner,
                    uses_seed=uses_seed,
                    uses_scale=uses_scale,
                    in_suite=in_suite,
                    scenarios=scenarios,
                )
            )
            return runner

        return decorate

    # ------------------------------------------------------------------
    # Queries (catalogue loads lazily on first use)
    # ------------------------------------------------------------------

    def _ensure_catalogue(self) -> None:
        if not self._catalogue_loaded:
            self._catalogue_loaded = True
            importlib.import_module("repro.experiments.suite")

    def get(self, job_id: str) -> Experiment:
        self._ensure_catalogue()
        if job_id not in self._experiments:
            raise KeyError(
                f"unknown experiment {job_id!r}; registered: {self.ids()}"
            )
        return self._experiments[job_id]

    def ids(self) -> List[str]:
        """All registered ids, in registration (= display) order."""
        self._ensure_catalogue()
        return list(self._experiments)

    def all(self) -> List[Experiment]:
        self._ensure_catalogue()
        return list(self._experiments.values())

    def suite(self) -> List[Experiment]:
        """The experiments ``run_all`` executes, in display order."""
        self._ensure_catalogue()
        return [exp for exp in self._experiments.values() if exp.in_suite]

    def __contains__(self, job_id: str) -> bool:
        self._ensure_catalogue()
        return job_id in self._experiments

    def __len__(self) -> int:
        self._ensure_catalogue()
        return len(self._experiments)


#: The process-wide registry the decorator writes into.
REGISTRY = ExperimentRegistry()

#: Module-level decorator: ``@experiment("fig03", "Figure 3: ...")``.
experiment = REGISTRY.experiment


def get_experiment(job_id: str) -> Experiment:
    """Look up one registered experiment (loads the catalogue)."""
    return REGISTRY.get(job_id)


def list_experiments(suite_only: bool = False) -> List[Experiment]:
    """All registered experiments, in display order."""
    return REGISTRY.suite() if suite_only else REGISTRY.all()


def run_experiment(
    name: str,
    seed: int = 0,
    scale: float = 1.0,
    telemetry: Optional[Telemetry] = None,
) -> str:
    """Run one registered experiment and return its printed output.

    The public facade entry point (``from repro import run_experiment``).
    When *telemetry* is given, the run executes inside a
    :func:`~repro.observability.telemetry_scope` so every instrumented
    component reports into it.

    Raises:
        KeyError: for unknown experiment names.
    """
    exp = get_experiment(name)
    if telemetry is None:
        return exp.runner(seed, scale)
    with telemetry_scope(telemetry):
        text = exp.runner(seed, scale)
    # Baseline metrics so even purely analytic experiments (fig03, fig04)
    # produce a non-empty metrics export.  Both values are deterministic.
    if telemetry.enabled:
        telemetry.inc("experiment.runs")
        telemetry.set_gauge("experiment.output_chars", float(len(text)))
    return text
