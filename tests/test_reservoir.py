"""The reconfigurable reservoir: bank arrays behind switches."""

import pytest

from repro.energy.bank import BankSpec
from repro.energy.capacitor import CERAMIC_X5R, TANTALUM_POLYMER
from repro.energy.reservoir import ReconfigurableReservoir, ReservoirConfig
from repro.energy.switch import BankSwitch, SwitchPolarity
from repro.errors import BankConfigurationError, PowerSystemError


def build_reservoir(polarity=SwitchPolarity.NORMALLY_OPEN):
    reservoir = ReconfigurableReservoir()
    small = BankSpec.single("small", CERAMIC_X5R, 3)
    big = BankSpec.single("big", TANTALUM_POLYMER, 4)
    reservoir.add_bank(small)  # hardwired
    reservoir.add_bank(big, switch=BankSwitch(name="big", polarity=polarity))
    return reservoir


class TestConstruction:
    def test_hardwired_always_active(self):
        reservoir = build_reservoir()
        assert reservoir.active_names(0.0) == ["small"]

    def test_nc_switch_active_by_default(self):
        reservoir = build_reservoir(SwitchPolarity.NORMALLY_CLOSED)
        assert reservoir.active_names(0.0) == ["small", "big"]

    def test_duplicate_bank_rejected(self):
        reservoir = build_reservoir()
        with pytest.raises(BankConfigurationError):
            reservoir.add_bank(BankSpec.single("small", CERAMIC_X5R, 1))

    def test_unknown_bank_lookup(self):
        reservoir = build_reservoir()
        with pytest.raises(BankConfigurationError):
            reservoir.bank("nope")

    def test_switch_lookup(self):
        reservoir = build_reservoir()
        assert reservoir.switch("big").name == "big"
        with pytest.raises(BankConfigurationError):
            reservoir.switch("small")  # hardwired, no switch


class TestConfigure:
    def test_activating_a_bank(self):
        reservoir = build_reservoir()
        reservoir.configure(ReservoirConfig.of("both", ["small", "big"]), 0.0)
        assert reservoir.active_names(1.0) == ["small", "big"]

    def test_deactivating_retains_charge(self):
        reservoir = build_reservoir()
        reservoir.configure(ReservoirConfig.of("both", ["small", "big"]), 0.0)
        reservoir.store(1e-3, 0.0)
        big_voltage = reservoir.bank("big").voltage
        reservoir.configure(ReservoirConfig.of("small", ["small"]), 1.0)
        assert reservoir.bank("big").voltage == pytest.approx(big_voltage)

    def test_cannot_disconnect_hardwired(self):
        reservoir = build_reservoir()
        with pytest.raises(BankConfigurationError):
            reservoir.configure(ReservoirConfig.of("bad", ["big"]), 0.0)

    def test_unknown_banks_rejected(self):
        reservoir = build_reservoir()
        with pytest.raises(BankConfigurationError):
            reservoir.configure(ReservoirConfig.of("bad", ["small", "huge"]), 0.0)

    def test_reconfiguration_count(self):
        reservoir = build_reservoir()
        assert reservoir.reconfiguration_count == 0
        reservoir.configure(ReservoirConfig.of("both", ["small", "big"]), 0.0)
        assert reservoir.reconfiguration_count == 1
        # no-op configure does not count
        reservoir.configure(ReservoirConfig.of("both", ["small", "big"]), 1.0)
        assert reservoir.reconfiguration_count == 1

    def test_toggle_energy_returned(self):
        reservoir = build_reservoir()
        energy = reservoir.configure(
            ReservoirConfig.of("both", ["small", "big"]), 0.0
        )
        assert energy > 0.0


class TestChargeRedistribution:
    def test_connecting_banks_equalizes_voltage(self):
        reservoir = build_reservoir()
        reservoir.bank("small").set_voltage(2.4)
        reservoir.bank("big").set_voltage(1.0)
        reservoir.configure(ReservoirConfig.of("both", ["small", "big"]), 0.0)
        voltage = reservoir.active_voltage(0.0)
        c_small = reservoir.bank("small").capacitance
        c_big = reservoir.bank("big").capacitance
        expected = (c_small * 2.4 + c_big * 1.0) / (c_small + c_big)
        assert voltage == pytest.approx(expected)

    def test_equalization_loses_energy(self):
        reservoir = build_reservoir()
        reservoir.bank("small").set_voltage(2.4)
        reservoir.bank("big").set_voltage(0.5)
        before = reservoir.bank("small").energy + reservoir.bank("big").energy
        lost = reservoir.equalize_active(0.0)  # only small is active: no-op
        assert lost == 0.0
        reservoir.configure(ReservoirConfig.of("both", ["small", "big"]), 0.0)
        after = reservoir.bank("small").energy + reservoir.bank("big").energy
        assert after < before


class TestAggregateEnergy:
    def test_store_splits_by_capacitance(self):
        reservoir = build_reservoir()
        reservoir.configure(ReservoirConfig.of("both", ["small", "big"]), 0.0)
        reservoir.store(1e-3, 0.0)
        assert reservoir.bank("small").voltage == pytest.approx(
            reservoir.bank("big").voltage
        )

    def test_store_saturates_at_rated(self):
        reservoir = build_reservoir()
        absorbed = reservoir.store(1e6, 0.0)
        assert absorbed < 1e6
        assert reservoir.active_voltage(0.0) == pytest.approx(
            reservoir.bank("small").spec.rated_voltage
        )

    def test_extract_returns_delivered(self):
        reservoir = build_reservoir()
        reservoir.store(1e-3, 0.0)
        delivered = reservoir.extract(0.5e-3, 0.0)
        assert delivered == pytest.approx(0.5e-3)

    def test_extract_clips_at_empty(self):
        reservoir = build_reservoir()
        reservoir.store(1e-4, 0.0)
        delivered = reservoir.extract(1.0, 0.0)
        assert delivered == pytest.approx(1e-4)

    def test_active_energy_consistency(self):
        reservoir = build_reservoir()
        reservoir.store(2e-4, 0.0)
        assert reservoir.active_energy(0.0) == pytest.approx(2e-4)

    def test_no_active_banks_raises(self):
        reservoir = ReconfigurableReservoir()
        reservoir.add_bank(
            BankSpec.single("only", CERAMIC_X5R, 1),
            switch=BankSwitch(name="only"),
        )
        with pytest.raises(PowerSystemError):
            reservoir.active_voltage(0.0)


class TestLeakage:
    def test_leak_all_affects_dormant_banks(self):
        reservoir = build_reservoir()
        reservoir.bank("big").set_voltage(2.0)
        lost = reservoir.leak_all(10_000.0, 0.0)
        assert lost > 0.0
        assert reservoir.bank("big").voltage < 2.0

    def test_leak_preserves_shared_voltage_invariant(self):
        reservoir = build_reservoir()
        reservoir.configure(ReservoirConfig.of("both", ["small", "big"]), 0.0)
        reservoir.store(1e-3, 0.0)
        reservoir.leak_all(10_000.0, 0.0)
        # active_voltage raises if banks diverged
        reservoir.active_voltage(0.0)


class TestReversionInteraction:
    def test_no_darkness_reverts_active_set(self):
        reservoir = build_reservoir()
        reservoir.configure(ReservoirConfig.of("both", ["small", "big"]), 0.0)
        # Long unpowered gap: the NO switch forgets and the big bank
        # silently drops out of the active set.
        assert reservoir.active_names(10_000.0) == ["small"]

    def test_replenish_holds_configuration(self):
        reservoir = build_reservoir()
        reservoir.configure(ReservoirConfig.of("both", ["small", "big"]), 0.0)
        for t in range(0, 1000, 60):
            reservoir.replenish_switches(float(t))
        assert reservoir.active_names(1000.0) == ["small", "big"]

    def test_nc_bank_rejoining_after_darkness_is_equalized(self):
        """An NC bank that reverts closed rejoins at the active set's
        voltage, with charge conserved, and no fault injector armed."""
        reservoir = build_reservoir(SwitchPolarity.NORMALLY_CLOSED)
        reservoir.configure(ReservoirConfig.of("small", ["small"]), 0.0)
        reservoir.store(1e-4, 1.0)
        reservoir.leak_all(400.0, 1.0)
        small, big = reservoir.bank("small"), reservoir.bank("big")
        assert big.voltage == 0.0
        charge = small.capacitance * small.voltage
        # Past the latch's retention the NC switch has reverted closed.
        assert reservoir.active_names(401.0) == ["small", "big"]
        voltage = reservoir.active_voltage(401.0)
        assert big.voltage == small.voltage == voltage
        assert voltage == pytest.approx(
            charge / (small.capacitance + big.capacitance)
        )
        assert reservoir.store(1e-4, 401.0) > 0.0

    def test_snapshot(self):
        reservoir = build_reservoir()
        snap = reservoir.snapshot()
        assert snap["small"][1] is False  # hardwired
        assert snap["big"][1] is True  # switched
