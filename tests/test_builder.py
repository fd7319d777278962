"""System builders and platform specs."""

import pytest

from repro.core.builder import (
    PlatformSpec,
    SystemKind,
    build_capybara_system,
    build_fixed_system,
)
from repro.energy.bank import BankSpec
from repro.energy.capacitor import CERAMIC_X5R, TANTALUM_POLYMER
from repro.energy.harvester import RegulatedSupply
from repro.energy.switch import SwitchPolarity
from repro.errors import ConfigurationError
from repro.kernel.capybara import RuntimeVariant

from tests.helpers import make_platform


class TestPlatformSpecValidation:
    def base_kwargs(self):
        small = BankSpec.single("small", CERAMIC_X5R, 2)
        return dict(
            banks=[small],
            modes={"m": ["small"]},
            fixed_bank=small,
            harvester=RegulatedSupply(),
        )

    def test_valid_spec(self):
        PlatformSpec(**self.base_kwargs())

    def test_no_banks_rejected(self):
        kwargs = self.base_kwargs()
        kwargs["banks"] = []
        with pytest.raises(ConfigurationError):
            PlatformSpec(**kwargs)

    def test_no_modes_rejected(self):
        kwargs = self.base_kwargs()
        kwargs["modes"] = {}
        with pytest.raises(ConfigurationError):
            PlatformSpec(**kwargs)

    def test_duplicate_bank_names_rejected(self):
        kwargs = self.base_kwargs()
        kwargs["banks"] = [
            BankSpec.single("small", CERAMIC_X5R, 2),
            BankSpec.single("small", TANTALUM_POLYMER, 1),
        ]
        with pytest.raises(ConfigurationError):
            PlatformSpec(**kwargs)

    def test_mode_with_unknown_bank_rejected(self):
        kwargs = self.base_kwargs()
        kwargs["modes"] = {"m": ["small", "huge"]}
        with pytest.raises(ConfigurationError):
            PlatformSpec(**kwargs)


class TestCapybaraBuilder:
    def test_first_bank_is_hardwired(self):
        assembly = build_capybara_system(make_platform(), SystemKind.CAPY_P)
        assert assembly.power_system.reservoir.hardwired_names == ["small"]

    def test_other_banks_get_switches(self):
        assembly = build_capybara_system(make_platform(), SystemKind.CAPY_P)
        switch = assembly.power_system.reservoir.switch("big")
        assert switch.polarity is SwitchPolarity.NORMALLY_OPEN

    def test_polarity_honoured(self):
        spec = make_platform()
        spec.switch_polarity = SwitchPolarity.NORMALLY_CLOSED
        assembly = build_capybara_system(spec, SystemKind.CAPY_P)
        switch = assembly.power_system.reservoir.switch("big")
        assert switch.polarity is SwitchPolarity.NORMALLY_CLOSED

    def test_modes_include_hardwired_banks(self):
        assembly = build_capybara_system(make_platform(), SystemKind.CAPY_P)
        for name in assembly.modes.names:
            assert "small" in assembly.modes.get(name).banks

    def test_variant_mapping(self):
        assert (
            build_capybara_system(make_platform(), SystemKind.CAPY_P).runtime.variant
            is RuntimeVariant.CAPY_P
        )
        assert (
            build_capybara_system(make_platform(), SystemKind.CAPY_R).runtime.variant
            is RuntimeVariant.CAPY_R
        )

    def test_rejects_non_capybara_kinds(self):
        with pytest.raises(ConfigurationError):
            build_capybara_system(make_platform(), SystemKind.FIXED)

    def test_runtime_shares_nv_with_assembly(self):
        assembly = build_capybara_system(make_platform(), SystemKind.CAPY_P)
        assert assembly.runtime.nv is assembly.nv


class TestFixedBuilder:
    def test_single_hardwired_bank(self):
        assembly = build_fixed_system(make_platform())
        reservoir = assembly.power_system.reservoir
        assert reservoir.bank_names == ["fixed"]
        assert reservoir.hardwired_names == ["fixed"]

    def test_fixed_variant(self):
        assembly = build_fixed_system(make_platform())
        assert assembly.runtime.variant is RuntimeVariant.FIXED

    def test_fixed_bank_capacitance_matches_spec(self):
        spec = make_platform()
        assembly = build_fixed_system(spec)
        assert assembly.power_system.reservoir.bank(
            "fixed"
        ).capacitance == pytest.approx(spec.fixed_bank.capacitance)


class TestSystemBuilder:
    """The v1 facade's fluent front door builds the same system as the
    declarative spec, and that system runs through the drain path."""

    def _parts(self):
        small = BankSpec.single("small", CERAMIC_X5R, 4)
        burst = BankSpec.single("burst", TANTALUM_POLYMER, 3)
        return small, burst, RegulatedSupply(voltage=3.0, max_power=2e-3)

    def _cycle(self, assembly):
        """Charge, switch to the burst mode, recharge, drain a heavy
        load to brownout; returns the drain's start time and outcome."""
        ps = assembly.power_system
        reservoir = ps.reservoir
        now = ps.charge(0.0, 600.0).elapsed
        toggle = reservoir.configure(assembly.modes.get("burst").to_config(), now)
        reservoir.extract(toggle, now)
        now += ps.charge(now, 600.0).elapsed
        assert ps.is_charged(now)
        return now, ps.drain(now, 15e-3, 60.0)

    def test_builds_cb_p_and_runs_a_charge_drain_cycle(self):
        from repro import SystemBuilder, Telemetry

        small, burst, harvester = self._parts()
        telemetry = Telemetry()
        assembly = (
            SystemBuilder(SystemKind.CAPY_P)
            .bank(small)
            .bank(burst)
            .mode("sense", "small")
            .mode("burst", "small", "burst")
            .harvester(harvester)
            .telemetry(telemetry)
            .build()
        )
        assert assembly.kind is SystemKind.CAPY_P
        assert assembly.runtime.variant is RuntimeVariant.CAPY_P
        assert assembly.power_system.reservoir.hardwired_names == ["small"]

        start, outcome = self._cycle(assembly)
        elapsed, browned_out, delivered, end_voltage = outcome
        assert 0.0 < elapsed < 60.0 and browned_out
        assert delivered == pytest.approx(15e-3 * elapsed)
        reservoir = assembly.power_system.reservoir
        assert reservoir.active_names(start + elapsed) == ["small", "burst"]
        assert end_voltage == reservoir.active_voltage(start + elapsed)
        assert end_voltage <= assembly.power_system.discharge_floor(
            start + elapsed, 15e-3
        ) + 1e-9
        counter = telemetry.metrics.counter
        assert counter("power.discharge_calls").value == 1
        assert counter("power.brownouts").value == 1
        assert counter("reservoir.reconfigurations").value == 1

        # The spec route builds the same system, bit for bit.
        spec = PlatformSpec(
            banks=[small, burst],
            modes={"sense": ["small"], "burst": ["small", "burst"]},
            fixed_bank=small,
            harvester=harvester,
        )
        assert self._cycle(build_capybara_system(spec, SystemKind.CAPY_P)) == (
            start,
            outcome,
        )

    def test_continuous_kind_rejected(self):
        from repro import SystemBuilder

        with pytest.raises(ConfigurationError):
            SystemBuilder(SystemKind.CONTINUOUS)
