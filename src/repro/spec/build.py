"""Bridge between declarative specs and runtime objects.

:func:`platform_from_spec` rebuilds the electrical stack — capacitor
parts, banks, harvester, boosters, limiter — from a
:class:`~repro.spec.model.PlatformSpecV1`; :func:`platform_to_spec`
extracts one back.  Round-trips are exact: JSON serialises Python floats
losslessly, so a platform rebuilt from its spec is value-identical to
the original and simulations driven by either are bit-identical.

:func:`build_scenario_app` turns a whole :class:`ScenarioSpec` into a
ready-to-run :class:`~repro.apps.base.AppInstance`, dispatching on the
workload's ``app`` name.  :class:`ScenarioBuilder` wraps that as a
picklable ``builder(kind)`` callable whose only state is the canonical
scenario JSON — which is what the process pool ships to workers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.builder import PlatformSpec, SystemKind
from repro.energy.bank import BankSpec
from repro.energy.booster import InputBooster, OutputBooster
from repro.energy.capacitor import CapacitorSpec
from repro.energy.environment import (
    ConstantTrace,
    DimmedLampTrace,
    OrbitTrace,
    PiecewiseTrace,
    Trace,
)
from repro.energy.harvester import (
    Harvester,
    RegulatedSupply,
    RFHarvester,
    ScaledHarvester,
    SolarPanel,
)
from repro.energy.limiter import InputVoltageLimiter
from repro.energy.switch import SwitchPolarity
from repro.errors import SpecError
from repro.spec.model import (
    BankSpecV1,
    BoosterSpec,
    HarvesterSpec,
    PartSpecV1,
    PlatformSpecV1,
    ScenarioSpec,
    canonical_json,
    load_scenario,
)

import dataclasses
import hashlib
import math

# ---------------------------------------------------------------------------
# Electrical components
# ---------------------------------------------------------------------------


def part_from_spec(spec: PartSpecV1) -> CapacitorSpec:
    """Rebuild a :class:`CapacitorSpec` (``None`` endurance -> unlimited)."""
    return CapacitorSpec(
        name=spec.name,
        technology=spec.technology,
        capacitance=spec.capacitance,
        esr=spec.esr,
        leak_resistance=spec.leak_resistance,
        rated_voltage=spec.rated_voltage,
        volume=spec.volume,
        cycle_endurance=(
            math.inf if spec.cycle_endurance is None else spec.cycle_endurance
        ),
        derating=spec.derating,
    )


def bank_from_spec(spec: BankSpecV1) -> BankSpec:
    """Rebuild a runtime :class:`BankSpec` from its declarative form."""
    return BankSpec(
        name=spec.name,
        groups=tuple(
            (part_from_spec(group.part), group.count) for group in spec.groups
        ),
    )


def trace_from_dict(data: Mapping[str, Any]) -> Trace:
    """Rebuild an environment trace from its spec dict."""
    kind = data.get("kind")
    body = {key: value for key, value in data.items() if key != "kind"}
    if kind == "constant":
        return ConstantTrace(**body)
    if kind == "dimmed_lamp":
        return DimmedLampTrace(**body)
    if kind == "orbit":
        return OrbitTrace(**body)
    if kind == "piecewise":
        return PiecewiseTrace(
            breakpoints=[
                (float(time), float(level)) for time, level in body["breakpoints"]
            ],
            initial=body.get("initial", 0.0),
        )
    if kind == "replay":
        # Imported lazily: repro.traces is only needed by trace-bearing
        # scenarios, and environment.py's record() exporters reach back
        # into it.
        from repro.spec.model import TraceSpecV1
        from repro.traces import ReplayTrace

        trace_spec = TraceSpecV1.from_dict(data)
        if trace_spec.samples is not None:
            return ReplayTrace.from_samples(
                trace_spec.samples, interpolation=trace_spec.interpolation
            )
        return ReplayTrace.open(
            trace_spec.path,
            interpolation=trace_spec.interpolation,
            expected_hash=trace_spec.trace_hash,
        )
    raise SpecError(f"unknown trace kind {kind!r}")


def harvester_from_spec(spec: HarvesterSpec) -> Harvester:
    """Rebuild a harvester (recursively, for the scaled wrapper)."""
    params = dict(spec.params)
    if spec.kind == "regulated":
        return RegulatedSupply(**params)
    if spec.kind == "solar":
        if "irradiance" in params:
            params["irradiance"] = trace_from_dict(params["irradiance"])
        return SolarPanel(**params)
    if spec.kind == "rf":
        return RFHarvester(**params)
    if spec.kind == "scaled":
        inner = params.pop("inner")
        return ScaledHarvester(inner=harvester_from_spec(inner), **params)
    raise SpecError(f"unknown harvester kind {spec.kind!r}")


def booster_from_spec(spec: BoosterSpec):
    """Rebuild an :class:`InputBooster` or :class:`OutputBooster`."""
    if spec.kind == "input":
        return InputBooster(**spec.params)
    if spec.kind == "output":
        return OutputBooster(**spec.params)
    raise SpecError(f"unknown booster kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Platforms
# ---------------------------------------------------------------------------


def platform_from_spec(spec: PlatformSpecV1) -> PlatformSpec:
    """Rebuild the runtime :class:`PlatformSpec` a declarative spec names."""
    if not isinstance(spec, PlatformSpecV1):
        raise SpecError(
            f"platform_from_spec needs a PlatformSpecV1, got {type(spec).__name__}"
        )
    return PlatformSpec(
        banks=[bank_from_spec(bank) for bank in spec.banks],
        modes={mode: list(banks) for mode, banks in spec.modes},
        fixed_bank=bank_from_spec(spec.fixed_bank),
        harvester=harvester_from_spec(spec.harvester),
        switch_polarity=SwitchPolarity(spec.switch_polarity),
        input_booster=(
            None if spec.input_booster is None else booster_from_spec(spec.input_booster)
        ),
        output_booster=(
            None
            if spec.output_booster is None
            else booster_from_spec(spec.output_booster)
        ),
        limiter=(
            None
            if spec.limiter_v_clamp is None
            else InputVoltageLimiter(v_clamp=spec.limiter_v_clamp)
        ),
        quiescent_power=spec.quiescent_power,
    )


def platform_to_spec(platform: PlatformSpec) -> PlatformSpecV1:
    """Extract the declarative spec of a runtime :class:`PlatformSpec`.

    Raises :class:`SpecError` if a component (e.g. a hand-written
    harvester class) does not support extraction.
    """
    try:
        return PlatformSpecV1.from_dict(platform.spec_dict())
    except NotImplementedError as error:
        raise SpecError(str(error)) from error


# ---------------------------------------------------------------------------
# Recorded-trace resolution
# ---------------------------------------------------------------------------


def _collect_replay_traces(spec: HarvesterSpec) -> "list[Mapping[str, Any]]":
    """Every replay-trace dict reachable from a harvester spec."""
    found: "list[Mapping[str, Any]]" = []
    if spec.kind == "solar":
        irradiance = spec.params.get("irradiance")
        if isinstance(irradiance, Mapping) and irradiance.get("kind") == "replay":
            found.append(irradiance)
    if spec.kind == "scaled":
        inner = spec.params.get("inner")
        if isinstance(inner, HarvesterSpec):
            found.extend(_collect_replay_traces(inner))
    return found


def _map_replay_traces(
    spec: HarvesterSpec,
    transform: Callable[[Mapping[str, Any]], Mapping[str, Any]],
) -> HarvesterSpec:
    """Rebuild a harvester spec with *transform* applied to replay traces."""
    params = dict(spec.params)
    changed = False
    if spec.kind == "solar":
        irradiance = params.get("irradiance")
        if isinstance(irradiance, Mapping) and irradiance.get("kind") == "replay":
            replaced = dict(transform(irradiance))
            if replaced != irradiance:
                params["irradiance"] = replaced
                changed = True
    if spec.kind == "scaled":
        inner = params.get("inner")
        if isinstance(inner, HarvesterSpec):
            rebuilt = _map_replay_traces(inner, transform)
            if rebuilt is not inner:
                params["inner"] = rebuilt
                changed = True
    if not changed:
        return spec
    return HarvesterSpec(kind=spec.kind, params=params)


def resolve_scenario_traces(scenario: ScenarioSpec) -> ScenarioSpec:
    """Verify and pin every trace file reference in *scenario*.

    For each replay trace that references a file, streams the whole file
    (bounded memory), checks every chunk checksum plus the footer digest,
    and pins the verified ``trace_hash`` into the returned scenario.  A
    missing or corrupt file — or a pinned hash the content no longer
    matches — raises :class:`~repro.errors.TraceFormatError` (a
    :class:`SpecError`, so service edges map it to a 4xx).  Scenarios
    without trace references are returned unchanged.

    This is the edge step: the service and the CLI resolve before
    computing cache keys or touching the worker pool, so every key
    downstream embeds the *actual* content hash.
    """
    from repro.spec.model import TraceSpecV1

    if not _collect_replay_traces(scenario.platform.harvester):
        return scenario

    from repro.errors import TraceFormatError
    from repro.traces import compute_trace_hash

    def pin(data: Mapping[str, Any]) -> Mapping[str, Any]:
        trace_spec = TraceSpecV1.from_dict(data)
        if trace_spec.path is None:
            return data
        verified = compute_trace_hash(trace_spec.path)
        if trace_spec.trace_hash is not None and trace_spec.trace_hash != verified:
            raise TraceFormatError(
                f"trace {trace_spec.path!r} content hash {verified} does not "
                f"match the scenario's pinned trace_hash {trace_spec.trace_hash}"
            )
        return trace_spec.pinned(verified).to_dict()

    harvester = _map_replay_traces(scenario.platform.harvester, pin)
    if harvester is scenario.platform.harvester:
        return scenario
    platform = dataclasses.replace(scenario.platform, harvester=harvester)
    return dataclasses.replace(scenario, platform=platform)


def scenario_trace_hashes(scenario: ScenarioSpec) -> "list[str]":
    """Content hashes of every recorded trace a scenario replays.

    Inline samples hash directly; pinned file references use their pin.
    An *unpinned* file reference forces a full verify of the file here —
    edges are expected to :func:`resolve_scenario_traces` first, which
    makes this lookup free.
    """
    from repro.spec.model import TraceSpecV1
    from repro.traces import compute_trace_hash, content_hash

    hashes = []
    for data in _collect_replay_traces(scenario.platform.harvester):
        trace_spec = TraceSpecV1.from_dict(data)
        if trace_spec.samples is not None:
            hashes.append(
                content_hash(
                    trace_spec.samples, interpolation=trace_spec.interpolation
                )
            )
        elif trace_spec.trace_hash is not None:
            hashes.append(trace_spec.trace_hash)
        else:
            hashes.append(compute_trace_hash(trace_spec.path))
    return hashes


def scenario_trace_hash(scenario: ScenarioSpec) -> Optional[str]:
    """One stable trace identity for cache keys and planner cohorts.

    ``None`` when the scenario replays no recorded traces (the common
    case — existing cache keys stay byte-identical); the single
    ``trace_hash`` when it replays one; a sha256 over the ordered hashes
    when it replays several.
    """
    hashes = scenario_trace_hashes(scenario)
    if not hashes:
        return None
    if len(hashes) == 1:
        return hashes[0]
    digest = hashlib.sha256()
    for value in hashes:
        digest.update(value.encode())
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Scenarios -> applications
# ---------------------------------------------------------------------------

def _workload_kwargs(
    scenario: ScenarioSpec, allowed: Tuple[str, ...]
) -> Dict[str, Any]:
    """*scenario*'s workload fields as app keyword arguments, parsed.

    Raises :class:`SpecError` naming the field for a field *allowed*
    does not list or a value that is not a number.
    """
    app = scenario.app
    workload = {k: v for k, v in scenario.workload.items() if k != "app"}
    unknown = sorted(set(workload) - set(allowed))
    if unknown:
        raise SpecError(
            f"scenario {scenario.name!r}: workload fields {unknown} not "
            f"accepted by app {app!r}; allowed: {sorted(allowed)}"
        )
    kwargs: Dict[str, Any] = {}
    for key, value in workload.items():
        try:
            kwargs[key] = (int if key in ("seed", "event_count") else float)(value)
        except (TypeError, ValueError, OverflowError):
            raise SpecError(
                f"scenario {scenario.name!r}: workload field {key!r} must be "
                f"a number, got {value!r}"
            ) from None
    return kwargs


def build_scenario_app(
    scenario: "ScenarioSpec | str",
    kind: "str | SystemKind | None" = None,
):
    """Assemble the :class:`~repro.apps.base.AppInstance` a scenario names.

    *scenario* may be a :class:`ScenarioSpec`, a JSON document string, or
    a path to one.  *kind* overrides the scenario's declared system (the
    campaign harness runs one scenario across all four).
    """
    if not isinstance(scenario, ScenarioSpec):
        scenario = load_scenario(scenario)
    app = scenario.app
    if app is None:
        raise SpecError(
            f"scenario {scenario.name!r} names no application (workload "
            f"'app' field); use platform_from_spec/build_system for "
            f"bare platforms"
        )
    # Imported here: the app modules import repro.core.builder, which in
    # turn reaches back into repro.spec for build_system's spec path.
    from repro.apps import APPS

    if app not in APPS:
        raise SpecError(
            f"scenario {scenario.name!r}: unknown app {app!r}; "
            f"known: {sorted(APPS)}"
        )
    entry = APPS[app]
    system = SystemKind.from_name(kind if kind is not None else scenario.system)
    platform = platform_from_spec(scenario.platform)
    kwargs = _workload_kwargs(scenario, entry.workload_fields)
    return entry.build(system, platform=platform, **kwargs)


class ScenarioBuilder:
    """A picklable ``builder(kind) -> AppInstance`` closed over a scenario.

    The only state is the canonical scenario JSON string, so instances
    always pickle cleanly — the process pool ships the JSON to workers
    instead of a closure over live simulator objects.
    """

    __slots__ = ("scenario_json",)

    def __init__(self, scenario: "ScenarioSpec | str") -> None:
        if isinstance(scenario, ScenarioSpec):
            self.scenario_json = canonical_json(scenario)
        else:
            self.scenario_json = canonical_json(load_scenario(scenario))

    @property
    def scenario(self) -> ScenarioSpec:
        """The scenario this builder assembles (parsed on demand)."""
        return load_scenario(self.scenario_json)

    def __call__(self, kind: "str | SystemKind | None" = None):
        return build_scenario_app(self.scenario, kind=kind)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ScenarioBuilder)
            and self.scenario_json == other.scenario_json
        )

    def __hash__(self) -> int:
        return hash(self.scenario_json)

    def __repr__(self) -> str:
        return f"ScenarioBuilder({self.scenario.name!r})"
