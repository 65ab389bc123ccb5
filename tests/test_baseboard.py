"""Baseboard: slots, wiring, and raw ADC acquisition."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RngStream
from repro.dut.base import ConstantRail
from repro.dut.gpu import Gpu, KernelLaunch
from repro.hardware.baseboard import CHANNELS, Baseboard
from repro.hardware.modules import SensorModule


def make_board(slots=(0,)) -> Baseboard:
    board = Baseboard()
    for slot in slots:
        module = SensorModule.manufacture(
            "pcie_slot_12v", RngStream(slot, "board"), perfect=True
        )
        board.attach(slot, module)
    return board


def test_attach_and_populated():
    board = make_board((0, 2))
    assert [c.slot for c in board.populated_slots()] == [0, 2]


def test_attach_twice_fails():
    board = make_board((1,))
    with pytest.raises(ConfigurationError, match="already populated"):
        board.attach(1, SensorModule.manufacture("usbc", RngStream(9)))


def test_attach_out_of_range():
    board = Baseboard()
    with pytest.raises(ConfigurationError):
        board.attach(4, SensorModule.manufacture("usbc", RngStream(9)))


def test_connect_requires_module():
    board = Baseboard()
    with pytest.raises(ConfigurationError, match="not populated"):
        board.connect(0, ConstantRail(12.0, 1.0))


def test_detach():
    board = make_board((0,))
    board.detach(0)
    assert board.populated_slots() == []


def test_read_codes_shape():
    board = make_board((0,))
    board.connect(0, ConstantRail(12.0, 2.0))
    codes = board.read_codes(0.0, 10)
    assert codes.shape == (10, board.timing.averages, CHANNELS)


def test_unpopulated_channels_read_zero():
    board = make_board((0,))
    board.connect(0, ConstantRail(12.0, 2.0))
    codes = board.read_codes(0.0, 5)
    assert (codes[:, :, 2:] == 0).all()


def test_unconnected_module_reads_zero_input():
    board = make_board((0,))
    codes = board.averaged_codes(0.0, 200)
    # Current channel sits at midscale (1.65 V ~ code 512), voltage at 0.
    assert abs(codes[:, 0].mean() - 512) < 3
    assert codes[:, 1].max() <= 2


def test_averaged_codes_track_load():
    board = make_board((0,))
    board.connect(0, ConstantRail(12.0, 5.0))
    codes = board.averaged_codes(0.0, 500)
    lsb = board.adc.lsb
    volts_u = (codes[:, 1].mean() + 0.5) * lsb
    volts_i = (codes[:, 0].mean() + 0.5) * lsb
    assert volts_u == pytest.approx(12.0 * 0.125, rel=0.01)
    assert volts_i == pytest.approx(1.65 + 5.0 * 0.12, rel=0.01)


def test_averaged_codes_are_10bit():
    board = make_board((0,))
    board.connect(0, ConstantRail(26.4, 10.0))
    codes = board.averaged_codes(0.0, 50)
    assert codes.max() <= 1023
    assert codes.min() >= 0


def test_display_present_with_precomputed_fonts():
    board = Baseboard()
    assert board.display.stats.glyph_cache_misses > 0  # precompute ran


def _noisy_gpu_board(seed: int) -> Baseboard:
    """Four production-spread modules, three on GPU feeds, one unconnected."""
    gpu = Gpu("rtx4000ada", RngStream(seed, "gpu"))
    gpu.launch(KernelLaunch(start=0.01, duration=0.3, n_waves=6))
    rails = gpu.rails(gpu.render(t_end=0.5, dt=1e-4))
    board = Baseboard()
    for slot, key in enumerate(["pcie_slot_12v", "pcie8pin", "pcie_slot_3v3", "usbc"]):
        board.attach(slot, SensorModule.manufacture(key, RngStream(seed, f"slot{slot}")))
    for slot, feed in enumerate(["slot_12v", "ext_12v", "slot_3v3"]):
        board.connect(slot, rails[feed])
    return board


@pytest.mark.parametrize("start,n", [(0.0, 0), (0.0, 1), (0.013, 777), (0.2, 4000)])
def test_averaged_codes_are_the_rounded_mean_of_read_codes(start, n):
    # Noise is stateful, so each call gets its own identically seeded board.
    raw = _noisy_gpu_board(5).read_codes(start, n)
    averaged = _noisy_gpu_board(5).averaged_codes(start, n)
    assert averaged.shape == (n, CHANNELS)
    np.testing.assert_array_equal(averaged, (raw.sum(axis=1) + 3) // 6)
