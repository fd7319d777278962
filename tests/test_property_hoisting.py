"""Hoisted discharge constants never go stale (hypothesis).

A discharge reads everything that is constant for the active set from
the reservoir's active-set cache entry (:class:`ActiveSetView`): the
capacitance, ESR and rated voltage, and a per-load memo of the
discharge floor and the booster's input power.  The entry is rebuilt
on reconfiguration, latch reversion and fault-window edges.  These
tests drive random sequences of reconfigurations, charges, discharges,
long unpowered idles (latch reversion, both switch polarities), fault
windows (ESR and leakage spikes, stuck switches) and swapped boosters
or quiescent draws, and check at every drain that:

* the view the drain reads agrees with the public queries
  (``discharge_floor``, ``charge_target_voltage``,
  ``active_capacitance``, ``active_esr``) at that time; and
* both agree with the active set recomputed from the raw switch,
  override and multiplier state, with no cache at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.powersystem import CapybaraPowerSystem
from repro.energy.bank import BankSpec
from repro.energy.booster import OutputBooster
from repro.energy.capacitor import (
    CERAMIC_X5R,
    EDLC_CPH3225A,
    TANTALUM_POLYMER,
    parallel_esr,
)
from repro.energy.harvester import RegulatedSupply
from repro.energy.reservoir import ReconfigurableReservoir, ReservoirConfig
from repro.energy.switch import BankSwitch, SwitchPolarity
from repro.faults import FaultScheduleSpec, FaultSpec, build_injector

SMALL = BankSpec.single("small", CERAMIC_X5R, 5)
MID = BankSpec.single("mid", TANTALUM_POLYMER, 3)
BIG = BankSpec.single("big", EDLC_CPH3225A, 1)
CONFIGS = (
    ReservoirConfig.of("small", ["small"]),
    ReservoirConfig.of("mid", ["small", "mid"]),
    ReservoirConfig.of("big", ["small", "big"]),
    ReservoirConfig.of("all", ["small", "mid", "big"]),
)
BOOSTERS = (OutputBooster(), OutputBooster(v_in_min=0.9, efficiency=0.7))


def build(faults):
    reservoir = ReconfigurableReservoir()
    reservoir.add_bank(SMALL, initial_voltage=2.0)
    reservoir.add_bank(
        MID, switch=BankSwitch("mid", polarity=SwitchPolarity.NORMALLY_OPEN)
    )
    reservoir.add_bank(
        BIG, switch=BankSwitch("big", polarity=SwitchPolarity.NORMALLY_CLOSED)
    )
    # The NC bank starts connected: bring it to the shared voltage.
    reservoir.equalize_active(0.0)
    if faults:
        reservoir.set_fault_injector(
            build_injector(FaultScheduleSpec(name="hoist", faults=tuple(faults)))
        )
    return CapybaraPowerSystem(
        harvester=RegulatedSupply(voltage=3.0, max_power=2e-3),
        reservoir=reservoir,
    )


def reference(ps, time, load_power):
    """(capacitance, esr, rated voltage, floor) of the active set at
    *time*, recomputed from raw state without touching any cache."""
    reservoir = ps.reservoir
    injector = reservoir._fault_injector
    overrides = injector.switch_overrides(time) if injector is not None else {}
    banks = []
    for name in reservoir.bank_names:
        if name in reservoir.hardwired_names:
            banks.append(reservoir.bank(name))
            continue
        switch = reservoir.switch(name)
        if name in overrides:
            closed = overrides[name]
        elif time - switch._last_replenished > switch.retention_time:
            closed = switch.default_closed
        else:
            closed = switch._commanded_closed
        if closed:
            banks.append(reservoir.bank(name))
    capacitance = sum(bank.capacitance for bank in banks)
    esr = parallel_esr(bank.esr for bank in banks)
    if injector is not None:
        esr *= injector.esr_multiplier(time)
    rated = min(bank.spec.rated_voltage for bank in banks)
    floor = ps.output_booster.min_bank_voltage(esr, load_power + ps.quiescent_power)
    return capacitance, esr, rated, floor


def check_drain(ps, time, load_power, duration):
    """Drain, asserting the view's constants are current at *time*."""
    expected = reference(ps, time, load_power)
    public = (
        ps.reservoir.active_capacitance(time),
        ps.reservoir.active_esr(time),
        ps.reservoir.active_rated_voltage(time),
        ps.discharge_floor(time, load_power),
    )
    target = ps.charge_target_voltage(time)
    view = ps.reservoir.active_view(time)
    elapsed = ps.drain(time, load_power, duration)[0]
    _, floor = view.loads[load_power + ps.quiescent_power][:2]
    cached = (view.capacitance, view.esr, view.rated_voltage, floor)
    assert cached == public == expected
    assert min(ps.input_booster.v_charge_target, view.rated_voltage) == target
    return elapsed


windows = st.tuples(
    st.floats(min_value=0.0, max_value=600.0),
    st.floats(min_value=1.0, max_value=300.0),
)
fault_specs = st.one_of(
    windows.map(
        lambda w: FaultSpec(
            kind="esr_spike", params={"start": w[0], "duration": w[1], "factor": 4.0}
        )
    ),
    windows.map(
        lambda w: FaultSpec(
            kind="leakage_spike",
            params={"start": w[0], "duration": w[1], "factor": 20.0},
        )
    ),
    st.tuples(
        windows, st.sampled_from(["mid", "big"]), st.sampled_from(["open", "closed"])
    ).map(
        lambda f: FaultSpec(
            kind="switch_stuck",
            params={
                "start": f[0][0],
                "duration": f[0][1],
                "bank": f[1],
                "stuck": f[2],
            },
        )
    ),
)
operations = st.one_of(
    st.tuples(st.just("configure"), st.integers(0, len(CONFIGS) - 1)),
    st.tuples(st.just("charge"), st.floats(min_value=0.1, max_value=60.0)),
    st.tuples(
        st.just("drain"),
        st.floats(min_value=1e-4, max_value=20e-3),
        st.floats(min_value=1e-3, max_value=5.0),
    ),
    st.tuples(st.just("idle"), st.floats(min_value=1.0, max_value=400.0)),
    st.tuples(st.just("booster"), st.integers(0, len(BOOSTERS) - 1)),
    st.tuples(st.just("quiescent"), st.sampled_from([0.0, 2e-6, 5e-5])),
)


@settings(max_examples=80, deadline=None)
@given(
    faults=st.lists(fault_specs, max_size=3),
    ops=st.lists(operations, min_size=8, max_size=40),
)
def test_drain_constants_match_fresh_queries(faults, ops):
    ps = build(faults)
    reservoir = ps.reservoir
    time = 0.0
    for op in ops:
        kind = op[0]
        if kind == "configure":
            toggle = reservoir.configure(CONFIGS[op[1]], time)
            if toggle > 0.0:
                reservoir.extract(toggle, time)
        elif kind == "charge":
            time += ps.charge(time, op[1]).elapsed
        elif kind == "drain":
            # Top up first so the drain has energy to move.
            time += ps.charge(time, 60.0).elapsed
            time += check_drain(ps, time, op[1], op[2])
        elif kind == "idle":
            # Unpowered: banks leak and latches are not replenished, so
            # a switch may revert.  A reverting NC switch reconnects its
            # bank at the voltage it held; the reconnection shares
            # charge, which the reservoir does not model by itself.
            reservoir.leak_all(op[1], time)
            time += op[1]
            reservoir.equalize_active(time)
        elif kind == "booster":
            ps.output_booster = BOOSTERS[op[1]]
        else:
            ps.quiescent_power = op[1]
    # One last drain after the sequence, so every example checks one.
    time += ps.charge(time, 60.0).elapsed
    check_drain(ps, time, 1e-3, 0.5)


def test_swapped_booster_is_not_served_a_stale_floor():
    """The per-load memo is keyed by total power but remembers which
    booster it was derived from: swapping ``output_booster`` between two
    drains at the same load gives the new booster's floor."""
    ps = build([])
    for booster in BOOSTERS:
        ps.output_booster = booster
        check_drain(ps, 0.0, 2e-3, 0.01)
