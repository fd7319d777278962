"""The paper's evaluation applications (Section 6.1) and their rigs.

Each application module exposes a ``build_*`` function that assembles
the full stack — banks, modes, harvester, board, task graph, rig — for
any of the four evaluated systems (Pwr / Fixed / Capy-R / Capy-P), and
returns an :class:`~repro.apps.base.AppInstance` ready to ``run``.

:data:`APPS` is the one catalogue of the evaluated applications: the
CLI, ``spec dump`` and :func:`repro.spec.build_scenario_app` all read
it, so adding an app is one entry here.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Tuple

from repro.apps import csr, grc, temp_alarm
from repro.apps.base import AppInstance, assemble_app
from repro.apps.csr import build_csr
from repro.apps.grc import GRCVariant, build_grc
from repro.apps.rigs import (
    EventSchedule,
    PendulumRig,
    ScheduledEvent,
    ThermalRig,
)
from repro.apps.temp_alarm import build_temp_alarm
from repro.apps.capysat import build_capysat


@dataclass(frozen=True)
class App:
    """One evaluated application, as a scenario and as a builder.

    ``scenario(seed=, event_count=, ...)`` declares the app's
    :class:`~repro.spec.ScenarioSpec`; ``build(kind, platform=,
    **workload)`` assembles it, accepting exactly ``workload_fields``
    from the scenario's workload.
    """

    scenario: Callable
    build: Callable[..., AppInstance]
    workload_fields: Tuple[str, ...]


_WORKLOAD = ("seed", "event_count", "mean_interarrival")

#: Application name -> :class:`App`, in the paper's display order.
APPS: Dict[str, App] = {
    "temp-alarm": App(
        temp_alarm.scenario, build_temp_alarm, _WORKLOAD + ("horizon",)
    ),
    "grc-fast": App(
        partial(grc.scenario, variant=GRCVariant.FAST),
        partial(build_grc, variant=GRCVariant.FAST),
        _WORKLOAD,
    ),
    "grc-compact": App(
        partial(grc.scenario, variant=GRCVariant.COMPACT),
        partial(build_grc, variant=GRCVariant.COMPACT),
        _WORKLOAD,
    ),
    "csr": App(csr.scenario, build_csr, _WORKLOAD),
}

__all__ = [
    "APPS",
    "App",
    "AppInstance",
    "assemble_app",
    "EventSchedule",
    "ScheduledEvent",
    "PendulumRig",
    "ThermalRig",
    "build_grc",
    "GRCVariant",
    "build_temp_alarm",
    "build_csr",
    "build_capysat",
]
