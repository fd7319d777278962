"""Vectorized fleet backend: N devices as struct-of-arrays NumPy state.

The scalar engine (:mod:`repro.sim`, :mod:`repro.core`) models one
device faithfully through Python objects; this package advances a whole
fleet in lockstep for grid-shaped experiments.  See
``docs/performance.md`` for when to use which, the supported feature
subset, and the differential-testing tolerance.

Public names:

* :class:`~repro.vec.state.FleetState` — struct-of-arrays device state.
* :class:`~repro.vec.kernel.FleetKernel` — fixed-timestep kernel.
* :func:`~repro.vec.kernel.charge_times`,
  :func:`~repro.vec.kernel.times_to_brownout`,
  :func:`~repro.vec.kernel.atomicity_ops` — vectorized design-space
  sweeps (Figures 3/4, ablations).
* :func:`~repro.vec.batch.build_fleet`,
  :func:`~repro.vec.batch.fleet_from_banks` — batch builders.
* :func:`~repro.vec.batch.check_scenario`,
  :func:`~repro.vec.batch.ensure_supported`,
  :func:`~repro.vec.batch.vec_capabilities` — capability layer
  (`repro info`, `repro info --check FILE... --backend vec`).
* :func:`~repro.vec.batch.compile_operating_segments`,
  :func:`~repro.vec.batch.harvester_change_times` — piecewise-constant
  trace compilation for segment-driven batches
  (:meth:`FleetKernel.run_segments`).
* :class:`~repro.vec.compat.ScalarFleet` — the scalar-compat reference.
"""

from repro.vec.batch import (
    ALL_BANKS_MODE,
    DEFAULT_LOAD_POWER,
    FIXED_BANK_MODE,
    active_bank_spec,
    build_fleet,
    check_platform,
    check_scenario,
    compile_operating_segments,
    ensure_supported,
    fleet_from_banks,
    harvester_change_times,
    vec_capabilities,
)
from repro.vec.compat import ScalarFleet
from repro.vec.kernel import (
    FleetKernel,
    atomicity_ops,
    charge_times,
    drain_power_vec,
    leak_decay,
    times_to_brownout,
)
from repro.vec.state import FleetState

__all__ = [
    "ALL_BANKS_MODE",
    "DEFAULT_LOAD_POWER",
    "FIXED_BANK_MODE",
    "FleetKernel",
    "FleetState",
    "ScalarFleet",
    "active_bank_spec",
    "atomicity_ops",
    "build_fleet",
    "charge_times",
    "check_platform",
    "check_scenario",
    "compile_operating_segments",
    "drain_power_vec",
    "harvester_change_times",
    "ensure_supported",
    "fleet_from_banks",
    "leak_decay",
    "times_to_brownout",
    "vec_capabilities",
]
