"""Golden digests of the simulated device's output.

The simulation layers below decode (rail lookup, sensor drift and noise,
ADC quantisation and averaging, firmware packets) may be rewritten for
speed, but what they emit must not change.  These tests pin the sha256
of three seeded outputs:

* the wire bytes a 4-module bench measuring a rendered GPU trace sends
  through ``link.pump_samples``, pumped in uneven chunks;
* the decoded blocks of a ``sim://…?dut=gpu:rtx4000ada`` bench;
* the uint16 ``averaged_codes`` of a direct-path bench, read in
  6000-sample batches.

A digest that moves is a behaviour change to find and fix, not a value
to regenerate.
"""

from __future__ import annotations

import hashlib

from repro.common.clock import VirtualClock
from repro.common.rng import RngStream
from repro.core.fleet import build_bench
from repro.core.setup import SimulatedSetup
from repro.dut.gpu import Gpu, KernelLaunch

MODULES = ["pcie_slot_12v", "pcie8pin", "pcie_slot_3v3", "usbc"]
FEEDS = ("slot_12v", "ext_12v", "slot_3v3")
CHUNKS = (20000, 3, 777, 20000)

WIRE_SHA256 = "321404108df0b0f264647bc0caf3b220eea18846fb321aad9b38a235a4d8590b"
SIM_BLOCKS_SHA256 = "6daf6aba9dc14c9308b78479fcafe30785c41033ec2eeea30181daed8535da02"
RING_CODES_SHA256 = "352d00a288ec5296ae9b4e286b0573246f577f9334b7838626869d83a00e543d"


def _gpu_rails(seed: int) -> list:
    """The three PCIe feeds of a seeded RTX 4000 Ada running waved kernels."""
    gpu = Gpu("rtx4000ada", RngStream(seed, "golden/gpu"))
    for k, (start, duration, waves) in enumerate(
        [(0.1, 0.7, 4), (1.0, 1.2, 12), (2.4, 0.9, 1), (3.4, 0.5, 6)]
    ):
        gpu.launch(
            KernelLaunch(
                start=start,
                duration=duration,
                utilization=0.5 + 0.1 * k,
                n_waves=waves,
            )
        )
    rails = gpu.rails(gpu.render(t_end=4.0, dt=1e-3))
    return [rails[feed] for feed in FEEDS]


def _gpu_bench(seed: int, **kwargs) -> SimulatedSetup:
    setup = SimulatedSetup(MODULES, seed=seed, calibration_samples=2048, **kwargs)
    for slot, rail in enumerate(_gpu_rails(seed)):
        setup.connect(slot, rail)
    return setup


def test_wire_bytes_of_a_gpu_bench_are_pinned():
    setup = _gpu_bench(41)
    digest = hashlib.sha256()
    for n in CHUNKS:
        data = setup.link.pump_samples(n)
        assert len(data) > 0
        digest.update(bytes(data))
    setup.close()
    assert digest.hexdigest() == WIRE_SHA256


def test_sim_gpu_member_blocks_are_pinned():
    setup = build_bench(
        "sim://pcie_slot_12v,pcie8pin?seed=23&dut=gpu:rtx4000ada&calibration_samples=2048"
    )
    digest = hashlib.sha256()
    # A fleet-style 2 ms poll cadence, then one long read across a kernel.
    for n in (40,) * 25 + (30000,):
        block = setup.ps.pump(n)
        assert len(block) == n
        for array in (block.times, block.values, block.markers):
            digest.update(array.tobytes())
    setup.close()
    assert digest.hexdigest() == SIM_BLOCKS_SHA256


def test_batched_averaged_codes_are_pinned():
    setup = _gpu_bench(77, direct=True)
    clock = VirtualClock(start=0.25)
    clock.configure_ticks(setup.baseboard.timing.output_interval_s)
    digest = hashlib.sha256()
    for _ in range(4):
        codes = setup.baseboard.averaged_codes(clock.now, 6000)
        clock.tick(6000)
        assert codes.shape == (6000, 8)
        digest.update(codes.astype("<u2").tobytes())
    setup.close()
    assert digest.hexdigest() == RING_CODES_SHA256
