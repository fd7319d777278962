"""The Board: an MCU, peripherals, a radio, and a power system.

A :class:`Board` is the hardware half of a Capybara platform (Figure 1):
it validates that the output rail can serve every component's minimum
voltage, and converts logical operations ("sample the magnetometer",
"transmit 25 bytes") into *(duration, rail power)* load points the
intermittent executor drains from the reservoir.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.core.powersystem import CapybaraPowerSystem
from repro.device.mcu import MCUModel
from repro.device.radio import RadioModel
from repro.device.sensors import SensorModel


@dataclass(frozen=True)
class LoadPoint:
    """A constant-power load segment: *duration* seconds at *power* watts."""

    duration: float
    power: float

    def energy(self) -> float:
        """Rail energy of the segment, joules."""
        return self.duration * self.power


class Board:
    """A complete platform: MCU + sensors + radio + power system.

    Args:
        mcu: the microcontroller model.
        power_system: the assembled power system.
        sensors: sensors and simple actuators by name.
        radio: the packet radio, if the board has one.

    Raises:
        ConfigurationError: if any component's minimum voltage exceeds
            the output booster's regulated rail (Section 5.1: output
            boosting exists exactly so 2.5 V sensors and 2.0 V radios
            can run from a drooping capacitor).
    """

    def __init__(
        self,
        mcu: MCUModel,
        power_system: CapybaraPowerSystem,
        sensors: Optional[Sequence[SensorModel]] = None,
        radio: Optional[RadioModel] = None,
    ) -> None:
        self.mcu = mcu
        self.power_system = power_system
        self.sensors: Dict[str, SensorModel] = {
            sensor.name: sensor for sensor in (sensors or [])
        }
        if sensors and len(self.sensors) != len(sensors):
            raise ConfigurationError("duplicate sensor names on board")
        self.radio = radio
        rail = power_system.output_booster.v_out
        for name, sensor in self.sensors.items():
            if sensor.min_voltage > rail:
                raise ConfigurationError(
                    f"sensor {name!r} needs {sensor.min_voltage} V but the "
                    f"rail is {rail} V"
                )
        if radio is not None and radio.min_voltage > rail:
            raise ConfigurationError(
                f"radio {radio.name!r} needs {radio.min_voltage} V but the "
                f"rail is {rail} V"
            )
        if mcu.min_voltage > rail:
            raise ConfigurationError(
                f"MCU {mcu.name!r} needs {mcu.min_voltage} V but the rail "
                f"is {rail} V"
            )
        # Load points are frozen and a task graph asks for the same few
        # over and over, so each distinct one is built once.
        self._compute_loads: Dict[float, LoadPoint] = {}
        self._sense_loads: Dict[Tuple[str, int], LoadPoint] = {}

    # ------------------------------------------------------------------
    # Load-point calculators
    # ------------------------------------------------------------------

    def sensor(self, name: str) -> SensorModel:
        if name not in self.sensors:
            raise ConfigurationError(f"board has no sensor {name!r}")
        return self.sensors[name]

    def boot_load(self) -> LoadPoint:
        """Cold-boot cost (hardware init plus runtime state restore)."""
        return LoadPoint(self.mcu.boot_time, self.mcu.active_power)

    def compute_load(self, ops: float) -> LoadPoint:
        """ALU work of *ops* operations."""
        load = self._compute_loads.get(ops)
        if load is None:
            load = LoadPoint(self.mcu.compute_time(ops), self.mcu.active_power)
            self._compute_loads[ops] = load
        return load

    def sense_load(self, sensor_name: str, samples: int = 1) -> LoadPoint:
        """Acquire *samples* from a sensor (warm-up amortised per call).

        Power is the sensor draw plus the MCU's sense-mode draw — the
        MCU waits on the peripheral rather than computing.
        """
        key = (sensor_name, samples)
        load = self._sense_loads.get(key)
        if load is None:
            sensor = self.sensor(sensor_name)
            duration = sensor.acquisition_time(samples)
            load = LoadPoint(duration, sensor.active_power + self.mcu.sense_power)
            self._sense_loads[key] = load
        return load

    def transmit_load(self, size_bytes: int) -> LoadPoint:
        """Transmit a packet of *size_bytes* (startup + airtime).

        The two radio phases are folded into one constant-power segment
        with the same total energy, which is what brownout accounting
        cares about.
        """
        if self.radio is None:
            raise ConfigurationError("board has no radio")
        duration = self.radio.transmit_time(size_bytes)
        energy = self.radio.transmit_energy(size_bytes) + (
            self.mcu.sense_power * duration
        )
        return LoadPoint(duration, energy / duration)

    def sleep_load(self, duration: float) -> LoadPoint:
        """Memory-retaining sleep for *duration* seconds."""
        if duration < 0.0:
            raise ConfigurationError("duration must be non-negative")
        return LoadPoint(duration, self.mcu.sleep_power)

    # ------------------------------------------------------------------
    # Task energy accounting (provisioning input, Section 3)
    # ------------------------------------------------------------------

    def load_energy(self, loads: Sequence[LoadPoint]) -> float:
        """Total rail energy of a load sequence, joules."""
        return sum(load.energy() for load in loads)

    def storage_energy_estimate(self, loads: Sequence[LoadPoint]) -> float:
        """Approximate energy drawn *from storage* for a load sequence.

        Divides rail energy by the output booster efficiency and adds
        the quiescent overhead — the quantity provisioning compares
        against bank capacity.
        """
        booster = self.power_system.output_booster
        total = 0.0
        for load in loads:
            rail = load.energy()
            overhead = (
                self.power_system.quiescent_power + booster.quiescent_power
            ) * load.duration
            total += rail / booster.efficiency + overhead
        return total
