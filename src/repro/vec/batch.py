"""Build fleet state from canonical scenario specs, with capability checks.

The spec layer (:mod:`repro.spec`) is the wire format; this module is
the bridge from a *batch* of :class:`~repro.spec.ScenarioSpec`
documents to one :class:`~repro.vec.state.FleetState`.  Because the
vectorized kernel advances every device on one clock with no per-device
Python dispatch, it supports a deliberately static subset of the
scenario language:

* **harvesters** must resolve to a *piecewise-constant* operating
  point: ``regulated``, ``rf``, ``solar`` over a ``constant``,
  ``dimmed_lamp``, ``piecewise``, or hold-interpolated ``replay``
  irradiance trace, and ``scaled`` wrappers over any of those.
  Time-varying-but-stepwise traces compile into per-segment operating
  points (:func:`compile_operating_segments`) advanced by
  :meth:`~repro.vec.kernel.FleetKernel.run_segments`; continuously
  varying sources — ``orbit``, linear-interpolated replays — are still
  rejected (record them to a trace at your chosen ``dt`` to batch
  them).
* **reconfiguration** is static per device: each device simulates one
  active bank set (the fixed bank for Pwr/Fixed systems, a named energy
  mode — or the union of all banks — for CB systems).  Dynamic
  mode switching mid-run is the scalar engine's job.
* **faults** are not supported: any simulation fault kind in an armed
  schedule is rejected.
* **workloads** are abstracted to a constant regulated-rail load; the
  task graphs, radios, and schedules of the scalar apps do not run.

:func:`check_scenario` returns the list of violations for a scenario
(empty means supported) and :func:`ensure_supported` raises
:class:`~repro.errors.VecCapabilityError` listing every reason — the
backend never silently falls back to the scalar engine.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.mcu import MCU_MSP430FR5969
from repro.energy.bank import BankSpec
from repro.energy.booster import InputBooster, OutputBooster
from repro.energy.environment import ConstantTrace, DimmedLampTrace, PiecewiseTrace
from repro.energy.harvester import (
    FaultyHarvester,
    Harvester,
    RegulatedSupply,
    RFHarvester,
    ScaledHarvester,
    SolarPanel,
)
from repro.energy.limiter import InputVoltageLimiter
from repro.errors import ConfigurationError, VecCapabilityError
from repro.spec.build import bank_from_spec, booster_from_spec, harvester_from_spec
from repro.spec.model import PlatformSpecV1, ScenarioSpec
from repro.vec.state import FleetState

__all__ = [
    "DEFAULT_LOAD_POWER",
    "FIXED_BANK_MODE",
    "ALL_BANKS_MODE",
    "vec_capabilities",
    "check_scenario",
    "check_platform",
    "ensure_supported",
    "active_bank_spec",
    "build_fleet",
    "fleet_from_banks",
    "harvester_change_times",
    "compile_operating_segments",
]

#: Default regulated-rail demand per device: the paper's measurement
#: MCU computing at full clock.
DEFAULT_LOAD_POWER = MCU_MSP430FR5969.active_power

#: Mode sentinel: simulate the hardwired fixed bank.
FIXED_BANK_MODE = "__fixed__"
#: Mode sentinel: simulate every declared bank in parallel.
ALL_BANKS_MODE = "__all__"

#: Trace kinds whose level is constant in time.
_STATIC_TRACES = (ConstantTrace, DimmedLampTrace)


def _is_piecewise_constant(trace) -> bool:
    """True for traces the segment compiler can batch (stepwise levels)."""
    if isinstance(trace, _STATIC_TRACES) or isinstance(trace, PiecewiseTrace):
        return True
    from repro.traces import ReplayTrace

    return isinstance(trace, ReplayTrace) and trace.interpolation == "hold"


def vec_capabilities() -> dict:
    """The feature matrix `repro info` prints, as plain data."""
    return {
        "backend": "vec",
        "harvesters": {
            "regulated": "supported",
            "rf": "supported",
            "solar": "supported with constant, dimmed_lamp, piecewise, or "
            "hold-interpolated replay irradiance traces (compiled into "
            "per-segment operating points); orbit and linear-interpolated "
            "replay traces vary continuously and are rejected — record "
            "them to a trace file (`repro trace record`) to batch them",
            "scaled": "supported over any supported inner harvester",
        },
        "systems": {
            "Pwr": "fixed bank, always-on load",
            "Fixed": "fixed bank",
            "CB-R": "one static energy mode (or all banks in parallel)",
            "CB-P": "one static energy mode (or all banks in parallel)",
        },
        "boosters": "full input/output converter models (cold start, "
        "bypass diode, efficiency ramp, ESR droop, regulation floor)",
        "limiter": "folded into each segment's harvester operating point",
        "traces": "piecewise-constant traces (piecewise, replay with hold "
        "interpolation) batch via FleetKernel.run_segments with segment "
        "boundaries aligned to the step contract",
        "reconfiguration": "static per device; dynamic mode switching "
        "requires the scalar engine",
        "faults": "unsupported — any simulation fault kind is rejected",
        "workloads": "abstracted to a constant regulated-rail load; task "
        "graphs and radios require the scalar engine",
    }


# ---------------------------------------------------------------------------
# Capability checks
# ---------------------------------------------------------------------------


def _harvester_reasons(harvester: Harvester) -> List[str]:
    if isinstance(harvester, ScaledHarvester):
        return _harvester_reasons(harvester.inner)
    if isinstance(harvester, FaultyHarvester):
        return [
            "fault-injected harvester: the vec backend does not support "
            "fault schedules"
        ]
    if isinstance(harvester, (RegulatedSupply, RFHarvester)):
        return []
    if isinstance(harvester, SolarPanel):
        trace = harvester.irradiance
        if _is_piecewise_constant(trace):
            return []
        from repro.traces import ReplayTrace

        if isinstance(trace, ReplayTrace):
            return [
                f"replay trace with {trace.interpolation!r} interpolation: "
                f"the vec backend batches hold-interpolated (piecewise-"
                f"constant) replays only"
            ]
        return [
            f"continuously time-varying irradiance trace "
            f"{type(trace).__name__}: the vec backend batches piecewise-"
            f"constant traces only — record it to a trace file "
            f"(`repro trace record`) and replay with hold interpolation"
        ]
    return [
        f"harvester {type(harvester).__name__} has no vectorized model"
    ]


def _platform_harvester(
    platform: PlatformSpecV1,
) -> Tuple[Optional[Harvester], List[str]]:
    """*platform*'s harvester (``None`` if its spec does not build) and
    the reasons the vec backend cannot simulate it (empty = ok)."""
    try:
        harvester = harvester_from_spec(platform.harvester)
    except Exception as error:  # invalid spec: report, don't crash
        return None, [f"harvester spec does not build: {error}"]
    return harvester, _harvester_reasons(harvester)


def check_platform(platform: PlatformSpecV1) -> List[str]:
    """Reasons the vec backend cannot simulate *platform* (empty = ok)."""
    return _platform_harvester(platform)[1]


def check_scenario(scenario: ScenarioSpec, fault_schedule=None) -> List[str]:
    """Reasons the vec backend cannot simulate *scenario* (empty = ok).

    *fault_schedule* is an optional :mod:`repro.faults` schedule the
    caller intends to arm; every simulation fault in it is a reason.
    """
    reasons = check_platform(scenario.platform)
    if fault_schedule is not None:
        kinds = sorted({fault.kind for fault in fault_schedule.sim_faults()})
        if kinds:
            reasons.append(
                f"fault schedule {fault_schedule.name!r} arms simulation "
                f"fault kind(s) {kinds}: the vec backend supports none"
            )
    return reasons


def ensure_supported(scenario: ScenarioSpec, fault_schedule=None) -> None:
    """Raise :class:`VecCapabilityError` unless *scenario* is supported."""
    reasons = check_scenario(scenario, fault_schedule)
    if reasons:
        raise _unsupported(scenario, reasons)


def _unsupported(scenario: ScenarioSpec, reasons: List[str]) -> VecCapabilityError:
    listing = "; ".join(reasons)
    return VecCapabilityError(
        f"scenario {scenario.name!r} is not supported by the vec "
        f"backend: {listing}. Use the scalar engine, or see `repro "
        f"info` for the supported feature set."
    )


# ---------------------------------------------------------------------------
# Fleet construction
# ---------------------------------------------------------------------------


def operating_point(
    harvester: Harvester, v_clamp: Optional[float] = None, time: float = 0.0
):
    """The ``(voltage, power)`` a supported harvester provides at *time*.

    Applies the input voltage limiter exactly as the scalar power system
    does (``v_clamp=None`` uses the default limiter).  Static harvesters
    ignore *time*; piecewise-constant traces make this the per-segment
    operating point.
    """
    voltage, power = harvester.output(time)
    limiter = (
        InputVoltageLimiter() if v_clamp is None else InputVoltageLimiter(v_clamp)
    )
    return limiter.limit(voltage, power)


def harvester_change_times(
    harvester: Harvester, horizon: float
) -> List[float]:
    """Times in ``(0, horizon)`` where the operating point steps.

    Static harvesters return ``[]``; piecewise and hold-replay solar
    traces return their level-change times; scaled wrappers delegate to
    their inner harvester.  Callers must have passed the capability
    check — continuously varying harvesters have no meaningful answer.
    """
    if isinstance(harvester, ScaledHarvester):
        return harvester_change_times(harvester.inner, horizon)
    if not isinstance(harvester, SolarPanel):
        return []
    trace = harvester.irradiance
    if isinstance(trace, _STATIC_TRACES):
        return []
    if isinstance(trace, PiecewiseTrace):
        changes = trace.change_times()
    else:
        from repro.traces import ReplayTrace

        if not isinstance(trace, ReplayTrace):
            raise VecCapabilityError(
                f"trace {type(trace).__name__} has no segment compilation"
            )
        changes = trace.change_times(until=horizon)
    return [time for time in changes if 0.0 < time < horizon]


def compile_operating_segments(
    scenarios: Sequence[ScenarioSpec],
    horizon: float,
    dt: float,
    power_scales: Union[float, Sequence[float]] = 1.0,
) -> List:
    """Compile a batch's traces into kernel segments.

    Returns ``[(steps, harvest_voltage, harvest_power), ...]`` covering
    ``int(round(horizon / dt))`` steps — the exact step count
    :meth:`FleetKernel.run` would take.  Each device's level-change
    times map to the first step whose *start* is at or past the change
    (``ceil(t/dt)``), the union of all devices' boundaries splits the
    run, and every segment's operating point is evaluated at its start
    time through the folded limiter.

    Because the kernel evaluates harvester power at step-start times,
    a compiled run is **bit-identical** to hypothetically re-evaluating
    every trace at every step: within a segment the trace is constant
    at exactly the evaluated level, and spurious (union) boundaries
    merely re-assign identical values.  Static batches compile to a
    single segment equal to :func:`build_fleet`'s columns.
    """
    if not scenarios:
        raise ConfigurationError(
            "compile_operating_segments needs at least one scenario"
        )
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if horizon < 0.0:
        raise ConfigurationError(f"horizon must be non-negative, got {horizon}")
    n = len(scenarios)
    scales = np.asarray([float(scale) for scale in _broadcast(power_scales, n)])
    total_steps = int(round(horizon / dt))

    # One harvester per distinct platform; devices gather its row.
    rows: Dict[int, int] = {}
    harvesters = []
    clamps = []
    index = np.empty(n, dtype=np.intp)
    boundary_steps = {0, total_steps}
    for i, scenario in enumerate(scenarios):
        platform = scenario.platform
        row = rows.get(id(platform))
        if row is None:
            row = rows[id(platform)] = len(harvesters)
            harvester = harvester_from_spec(platform.harvester)
            harvesters.append(harvester)
            clamps.append(platform.limiter_v_clamp)
            for change in harvester_change_times(harvester, horizon):
                step = int(math.ceil(change / dt - 1e-9))
                if 0 < step < total_steps:
                    boundary_steps.add(step)
        index[i] = row
    boundaries = sorted(boundary_steps)

    # A zero-duration horizon still needs one (zero-step) segment.
    spans = list(zip(boundaries[:-1], boundaries[1:])) or [(0, 0)]
    segments = []
    for start, stop in spans:
        points = [
            operating_point(harvester, clamp, time=start * dt)
            for harvester, clamp in zip(harvesters, clamps)
        ]
        hv, hp = np.asarray(points, dtype=float).T
        segments.append((stop - start, hv[index], hp[index] * scales))
    return segments


def active_bank_spec(
    platform: PlatformSpecV1, system: str, mode: Optional[str] = None
) -> BankSpec:
    """The aggregate bank set one vec device simulates.

    ``Pwr``/``Fixed`` systems (and the :data:`FIXED_BANK_MODE`
    sentinel) use the hardwired fixed bank; CB systems use the named
    energy mode, or every declared bank in parallel when *mode* is
    ``None``/:data:`ALL_BANKS_MODE`.  Aggregation reuses the scalar
    :class:`~repro.energy.bank.BankSpec` parallel rules, so capacitance,
    ESR, leakage, and rated voltage match the scalar reservoir exactly.
    """
    if mode == FIXED_BANK_MODE or (mode is None and system in ("Pwr", "Fixed")):
        return bank_from_spec(platform.fixed_bank)
    banks = {bank.name: bank_from_spec(bank) for bank in platform.banks}
    if mode is None or mode == ALL_BANKS_MODE:
        names = list(banks)
    else:
        modes = dict(platform.modes)
        if mode not in modes:
            raise ConfigurationError(
                f"unknown energy mode {mode!r}; declared: {sorted(modes)}"
            )
        names = list(modes[mode])
    groups = []
    for name in names:
        if name not in banks:
            raise ConfigurationError(
                f"mode {mode!r} references unknown bank {name!r}"
            )
        groups.extend(banks[name].groups)
    return BankSpec(name=f"vec[{'+'.join(names)}]", groups=tuple(groups))


def _broadcast(option, n: int):
    if option is None or isinstance(option, (str, float, int)):
        return [option] * n
    option = list(option)
    if len(option) != n:
        raise ConfigurationError(
            f"per-device option needs {n} entries, got {len(option)}"
        )
    return option


def build_fleet(
    scenarios: Sequence[ScenarioSpec],
    modes: Union[None, str, Sequence[Optional[str]]] = None,
    load_power: Union[float, Sequence[float]] = DEFAULT_LOAD_POWER,
    power_scales: Union[float, Sequence[float]] = 1.0,
    initial_voltage: Union[float, Sequence[float]] = 0.0,
    check: bool = True,
) -> FleetState:
    """One :class:`FleetState` from a batch of canonical scenarios.

    Args:
        scenarios: one :class:`ScenarioSpec` per device (repeat an entry
            to replicate a platform across grid points).
        modes: active bank set per device (see :func:`active_bank_spec`).
        load_power: regulated-rail demand per device while on, watts.
        power_scales: harvest-power multiplier per device — the grid
            axis of the power sweep.
        initial_voltage: starting terminal voltage per device.
        check: run :func:`ensure_supported` on each scenario first
            (disable only for pre-validated batches).

    Raises:
        VecCapabilityError: when *check* finds an unsupported scenario.
    """
    if not scenarios:
        raise ConfigurationError("build_fleet needs at least one scenario")
    n = len(scenarios)
    modes = _broadcast(modes, n)
    loads = _broadcast(load_power, n)
    scales = _broadcast(power_scales, n)
    volts = _broadcast(initial_voltage, n)

    # The work runs once per distinct platform (support check, boosters,
    # harvester operating point) and once per distinct (platform,
    # system, mode) bank set; each device then gathers its rows.  A row
    # is the object a per-device build would make, so no column changes.
    platform_rows: Dict[int, int] = {}
    bank_rows: Dict[Tuple[int, str, Optional[str]], int] = {}
    banks: List[BankSpec] = []
    input_boosters: List[InputBooster] = []
    output_boosters: List[OutputBooster] = []
    points = []
    quiescent = []
    platform_index = np.empty(n, dtype=np.intp)
    bank_index = np.empty(n, dtype=np.intp)
    for i, (scenario, mode) in enumerate(zip(scenarios, modes)):
        platform = scenario.platform
        row = platform_rows.get(id(platform))
        if row is None:
            if check:
                harvester, reasons = _platform_harvester(platform)
                if reasons:
                    raise _unsupported(scenario, reasons)
            else:
                harvester = harvester_from_spec(platform.harvester)
            row = platform_rows[id(platform)] = len(points)
            input_boosters.append(
                InputBooster()
                if platform.input_booster is None
                else booster_from_spec(platform.input_booster)
            )
            output_boosters.append(
                OutputBooster()
                if platform.output_booster is None
                else booster_from_spec(platform.output_booster)
            )
            points.append(operating_point(harvester, platform.limiter_v_clamp))
            quiescent.append(platform.quiescent_power)
        platform_index[i] = row
        key = (id(platform), scenario.system, mode)
        bank_row = bank_rows.get(key)
        if bank_row is None:
            bank_row = bank_rows[key] = len(banks)
            banks.append(active_bank_spec(platform, scenario.system, mode))
        bank_index[i] = bank_row

    hv, hp = np.asarray(points, dtype=float).T
    return _assemble(
        banks, bank_index, input_boosters, output_boosters, platform_index,
        hv[platform_index],
        hp[platform_index] * np.asarray([float(scale) for scale in scales]),
        np.asarray([float(load) for load in loads]),
        np.asarray(quiescent, dtype=float)[platform_index],
        np.asarray([float(v) for v in volts]),
    )


def fleet_from_banks(
    banks: Sequence[BankSpec],
    input_booster: Union[InputBooster, Sequence[InputBooster]] = InputBooster(),
    output_booster: Union[OutputBooster, Sequence[OutputBooster]] = OutputBooster(),
    harvester_voltage: Union[float, Sequence[float]] = 3.0,
    harvest_power: Union[float, Sequence[float]] = 1.0e-3,
    load_power: Union[float, Sequence[float]] = DEFAULT_LOAD_POWER,
    quiescent_power: Union[float, Sequence[float]] = 0.0,
    initial_voltage: Union[float, Sequence[float], str] = 0.0,
) -> FleetState:
    """A fleet directly from runtime bank specs (design-space sweeps).

    The Figure 3/4 grids and the ablations sweep synthetic banks that
    never pass through the scenario layer; this builder takes the
    runtime objects directly.  ``initial_voltage="target"`` starts each
    device at its charge target (the fully-charged sweeps).
    """
    if not banks:
        raise ConfigurationError("fleet_from_banks needs at least one bank")
    n = len(banks)
    if isinstance(input_booster, InputBooster):
        input_boosters = [input_booster] * n
    else:
        input_boosters = list(input_booster)
    if isinstance(output_booster, OutputBooster):
        output_boosters = [output_booster] * n
    else:
        output_boosters = list(output_booster)
    if len(input_boosters) != n or len(output_boosters) != n:
        raise ConfigurationError(
            "booster lists must match the number of banks"
        )
    hv = np.broadcast_to(np.asarray(harvester_voltage, dtype=float), (n,)).copy()
    hp = np.broadcast_to(np.asarray(harvest_power, dtype=float), (n,)).copy()
    loads = np.broadcast_to(np.asarray(load_power, dtype=float), (n,)).copy()
    quiescent = np.broadcast_to(
        np.asarray(quiescent_power, dtype=float), (n,)
    ).copy()
    if isinstance(initial_voltage, str):
        if initial_voltage != "target":
            raise ConfigurationError(
                f"initial_voltage: expected a number or 'target', "
                f"got {initial_voltage!r}"
            )
        volts = np.asarray(
            [
                min(booster.v_charge_target, bank.rated_voltage)
                for booster, bank in zip(input_boosters, banks)
            ]
        )
    else:
        volts = np.broadcast_to(
            np.asarray(initial_voltage, dtype=float), (n,)
        ).copy()
    identity = np.arange(n)
    return _assemble(
        list(banks), identity, input_boosters, output_boosters, identity,
        hv, hp, loads, quiescent, volts,
    )


def _assemble(
    banks: List[BankSpec],
    bank_index: np.ndarray,
    input_boosters: List[InputBooster],
    output_boosters: List[OutputBooster],
    booster_index: np.ndarray,
    hv: np.ndarray,
    hp: np.ndarray,
    loads: np.ndarray,
    quiescent: np.ndarray,
    volts: np.ndarray,
) -> FleetState:
    """A fleet whose device ``i`` takes ``banks[bank_index[i]]`` and the
    boosters at ``booster_index[i]``; the other columns are per device."""

    def bank_column(values):
        return np.asarray(values)[bank_index]

    def column(objects, attribute):
        values = [getattr(obj, attribute) for obj in objects]
        return np.asarray(values)[booster_index]

    return FleetState(
        voltage=volts,
        capacitance=bank_column([bank.capacitance for bank in banks]),
        esr=bank_column([bank.esr for bank in banks]),
        leak_tau=bank_column(
            [bank.leak_resistance * bank.capacitance for bank in banks]
        ),
        rated_voltage=bank_column([bank.rated_voltage for bank in banks]),
        harvest_voltage=hv,
        harvest_power=hp,
        load_power=loads,
        quiescent_power=quiescent,
        in_efficiency=column(input_boosters, "efficiency"),
        in_v_cold_start=column(input_boosters, "v_cold_start"),
        in_cold_start_efficiency=column(input_boosters, "cold_start_efficiency"),
        in_bypass=column(input_boosters, "bypass"),
        in_v_diode_drop=column(input_boosters, "v_diode_drop"),
        in_v_charge_target=column(input_boosters, "v_charge_target"),
        in_min_input_voltage=column(input_boosters, "min_input_voltage"),
        in_low_voltage_efficiency=column(
            input_boosters, "low_voltage_efficiency"
        ),
        in_v_full_efficiency=column(input_boosters, "v_full_efficiency"),
        out_efficiency=column(output_boosters, "efficiency"),
        out_quiescent=column(output_boosters, "quiescent_power"),
        out_v_in_min=column(output_boosters, "v_in_min"),
    )
