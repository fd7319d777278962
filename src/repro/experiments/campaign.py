"""Campaign helpers: run one application across the four systems.

The paper's Sections 6.2-6.4 all reuse the same runs — every
application executed under Pwr / Fixed / Capy-R / Capy-P on an
identical event schedule.  A :class:`Campaign` holds that bundle
(:func:`~repro.experiments.parallel.run_campaign_parallel` produces it);
figure modules project different metrics out of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.apps.base import AppInstance
from repro.core.builder import SystemKind

#: Display order of the paper's bar groups.
DEFAULT_KINDS = [
    SystemKind.CONTINUOUS,
    SystemKind.FIXED,
    SystemKind.CAPY_R,
    SystemKind.CAPY_P,
]


@dataclass
class Campaign:
    """All four system runs of one application on one event schedule."""

    app_name: str
    instances: Dict[SystemKind, AppInstance]
    horizon: float

    def instance(self, kind: SystemKind) -> AppInstance:
        return self.instances[kind]

    @property
    def reference(self) -> AppInstance:
        """The continuously-powered reference board."""
        return self.instances[SystemKind.CONTINUOUS]

