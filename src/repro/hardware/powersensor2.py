"""PowerSensor2 comparison model (the paper's predecessor tool).

The paper's introduction lists PowerSensor3's improvements over
PowerSensor2 (Romein & Veenboer, ISPASS'18):

* sampling rate raised from 2.8 kHz to 20 kHz,
* current sensors that are hardly sensitive to external magnetic fields
  (PS2's open-loop single-ended sensors couple ambient fields into the
  reading),
* measurement of *both* voltage and current per channel (PS2 assumes the
  configured nominal rail voltage, so supply droop under load becomes a
  power error),
* a modular board design and a simplified one-time calibration.

This model exists so the improvement claims can be quantified in the
ablation benchmarks: it reuses the same Hall-sensor physics with PS2-era
parameters (single-ended field coupling, higher noise, 2.8 kHz sampling,
fixed assumed voltages).
"""

from __future__ import annotations

import numpy as np

from repro.common.clock import uniform_times
from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream
from repro.hardware.adc import Adc
from repro.hardware.baseboard import PowerRail
from repro.hardware.sensors import CurrentSensor, ExternalField

#: PowerSensor2's output sample rate (paper, Section I).
PS2_SAMPLE_RATE_HZ = 2800.0

#: Single-ended open-loop Hall coupling to a uniform external field, A/mT.
#: Two orders of magnitude worse than the differential MLX91221.
PS2_FIELD_COUPLING_A_PER_MT = 0.25

#: ACS712-class sensor noise, input-referred.
PS2_CURRENT_NOISE_RMS_A = 0.080


class PowerSensor2:
    """A PowerSensor2-style meter: current-only channels at 2.8 kHz.

    Channels are attached to rails but only the *current* is measured;
    power is computed against the configured nominal voltage of each
    channel, exactly the simplification PowerSensor3 removed.
    """

    def __init__(
        self,
        nominal_voltages: list[float],
        seed: int = 0,
        external_field: ExternalField | None = None,
    ) -> None:
        if not nominal_voltages:
            raise ConfigurationError("PowerSensor2 needs at least one channel")
        if len(nominal_voltages) > 5:
            raise ConfigurationError("PowerSensor2 supports at most five channels")
        rng = RngStream(seed, "ps2")
        self.nominal_voltages = [float(v) for v in nominal_voltages]
        self.adc = Adc(bits=10)
        self.sensors = [
            CurrentSensor(
                sensitivity_v_per_a=0.100,
                noise_rms_a=PS2_CURRENT_NOISE_RMS_A,
                rng=rng.child(f"ch{i}"),
                offset_a=float(rng.child(f"off{i}").normal(0.0, 0.05)),
                field_coupling_a_per_mt=PS2_FIELD_COUPLING_A_PER_MT,
                external_field=external_field,
            )
            for i in range(len(nominal_voltages))
        ]
        self.rails: list[PowerRail | None] = [None] * len(nominal_voltages)
        self._offsets = [0.0] * len(nominal_voltages)

    @property
    def sample_rate(self) -> float:
        return PS2_SAMPLE_RATE_HZ

    def attach(self, channel: int, rail: PowerRail) -> None:
        self._check_channel(channel)
        self.rails[channel] = rail

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < len(self.sensors):
            raise ConfigurationError(f"channel {channel} out of range")

    def calibrate(self, n_samples: int = 4096, start: float = 0.0) -> None:
        """Zero-current offset calibration (rails must be unloaded)."""
        dt = 1.0 / self.sample_rate
        for channel, sensor in enumerate(self.sensors):
            analog = sensor.transduce_uniform(np.zeros(n_samples), start, dt)
            codes = self.adc.quantize(analog)
            mean_v = float(self.adc.to_volts(codes).mean())
            self._offsets[channel] = (
                mean_v - sensor.zero_current_voltage
            ) / sensor.sensitivity

    def measure(self, start: float, duration: float) -> tuple[np.ndarray, np.ndarray]:
        """Measure all channels; returns (times, total_power_watts).

        Power uses the configured nominal voltages — the true rail voltage
        is never observed, so droop under load becomes a systematic error.
        """
        n = max(int(round(duration * self.sample_rate)), 1)
        dt = 1.0 / self.sample_rate
        times = uniform_times(start, dt, n)
        total = np.zeros(n)
        for channel, sensor in enumerate(self.sensors):
            rail = self.rails[channel]
            if rail is None:
                continue
            _, amps = rail.sample_uniform(start, dt, n)
            analog = sensor.transduce_uniform(amps, start, dt)
            codes = self.adc.quantize(analog)
            reading = (
                self.adc.to_volts(codes) - sensor.zero_current_voltage
            ) / sensor.sensitivity - self._offsets[channel]
            total += self.nominal_voltages[channel] * reading
        return times, total

    def measure_energy(self, start: float, duration: float) -> float:
        """Rectangle-integrated energy over the window (J)."""
        _, watts = self.measure(start, duration)
        return float(watts.sum() / self.sample_rate)
