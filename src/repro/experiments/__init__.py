"""Experiment harnesses — one module per evaluation figure.

Each ``fig*`` module exposes a ``run(...)`` function returning a
structured result plus a ``main()`` that prints the same rows/series
the paper reports.  ``python -m repro.experiments.<module>`` regenerates
any single figure; the benchmark suite under ``benchmarks/`` wraps the
same entry points.
"""

from repro.experiments import metrics
from repro.experiments.dag import DagReport, build_report
from repro.experiments.registry import (
    REGISTRY,
    Experiment,
    experiment,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.runner import ExperimentResult, format_table

__all__ = [
    "metrics",
    "ExperimentResult",
    "format_table",
    "REGISTRY",
    "Experiment",
    "experiment",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "DagReport",
    "build_report",
]
