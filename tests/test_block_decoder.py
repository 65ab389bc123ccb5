"""Pin the vectorised decode path to the scalar reference implementation.

``StreamDecoder`` is the reference: byte-at-a-time, obviously correct.
These tests fuzz ``decode_block``/``BlockDecoder`` against it — same
events, same resync/packet accounting, for every chunking of the input —
and then pin ``ProtocolSampleSource`` to :class:`ScalarReferenceSource`,
the original per-event source decoder kept here as the oracle, on
byte-identical wire streams, clean and fault-injected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.health import StreamHealth
from repro.core.setup import SimulatedSetup
from repro.core.sources import ProtocolSampleSource, SampleBlock
from repro.dut.instruments import ElectronicLoad, LabSupply, LoadedSupplyRail
from repro.firmware.protocol import (
    BlockDecoder,
    SensorReading,
    StreamDecoder,
    Timestamp,
    decode_block,
    encode_sensor_packet,
    encode_timestamp_packet,
)
from repro.hardware.eeprom import SENSORS


def _reference(chunks: list[bytes]) -> tuple[list, int, int, int | None]:
    """Events and counters from the scalar decoder fed the same chunks."""
    dec = StreamDecoder()
    events = []
    for chunk in chunks:
        events.extend(dec.feed(chunk))
    return events, dec.resync_count, dec.packet_count, dec._pending_first


def _sample_stream(markers: bool = True) -> bytes:
    """A well-formed stream: timestamp + sensors 0..3 per sample set."""
    out = bytearray()
    for i in range(12):
        out += encode_timestamp_packet(50 * i)
        for sensor in range(4):
            value = (37 * i + 100 * sensor) % 1024
            out += encode_sensor_packet(
                sensor, value, marker=markers and sensor == 0 and i % 5 == 0
            )
    return bytes(out)


def _corrupt(data: bytes) -> bytes:
    """Deterministically mangle a stream: drops, flips, garbage runs."""
    raw = bytearray(data)
    del raw[7]  # orphan a second byte
    del raw[40]
    raw[21] ^= 0x80  # flip a framing bit
    raw[55] ^= 0x80
    raw[33:33] = b"\x00\x7f\x00"  # dangling second bytes
    raw[10:10] = b"\xff\xff"  # back-to-back first bytes
    return bytes(raw)


# --------------------------------------------------------------------- #
# decode_block (stateless core)                                         #
# --------------------------------------------------------------------- #


def test_decode_block_clean_stream_matches_scalar():
    data = _sample_stream()
    block, pending, resyncs = decode_block(data)
    ref_events, ref_resyncs, ref_packets, ref_pending = _reference([data])
    assert block.events() == ref_events
    assert len(block) == ref_packets
    assert resyncs == ref_resyncs == 0
    assert pending is ref_pending is None


def test_decode_block_corrupted_stream_matches_scalar():
    data = _corrupt(_sample_stream())
    block, pending, resyncs = decode_block(data)
    ref_events, ref_resyncs, ref_packets, ref_pending = _reference([data])
    assert block.events() == ref_events
    assert len(block) == ref_packets
    assert resyncs == ref_resyncs > 0
    assert pending == ref_pending


def test_decode_block_empty_and_ndarray_inputs():
    block, pending, resyncs = decode_block(b"")
    assert len(block) == 0 and pending is None and resyncs == 0
    block, pending, resyncs = decode_block(b"", pending_first=0x85)
    assert len(block) == 0 and pending == 0x85 and resyncs == 0

    data = _sample_stream()
    as_bytes = decode_block(data)
    as_array = decode_block(np.frombuffer(data, dtype=np.uint8))
    assert as_bytes[0].events() == as_array[0].events()
    assert as_bytes[1:] == as_array[1:]


def test_decode_block_pending_first_chains_across_calls():
    """Manually threading pending_first equals one scalar pass."""
    data = _corrupt(_sample_stream())
    for split in (1, 7, 20, len(data) - 1):
        events, resyncs, pending = [], 0, None
        for chunk in (data[:split], data[split:]):
            block, pending, r = decode_block(chunk, pending)
            events.extend(block.events())
            resyncs += r
        ref_events, ref_resyncs, _, ref_pending = _reference([data])
        assert events == ref_events
        assert resyncs == ref_resyncs
        assert pending == ref_pending


@pytest.mark.parametrize("seed", range(10))
def test_decode_block_random_byte_soup_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=int(rng.integers(0, 400)), dtype=np.uint8).tobytes()
    block, pending, resyncs = decode_block(data)
    ref_events, ref_resyncs, ref_packets, ref_pending = _reference([data])
    assert block.events() == ref_events
    assert len(block) == ref_packets
    assert resyncs == ref_resyncs
    assert pending == ref_pending


# --------------------------------------------------------------------- #
# BlockDecoder (stateful wrapper)                                       #
# --------------------------------------------------------------------- #


def _assert_block_decoder_matches(chunks: list[bytes]) -> None:
    vec = BlockDecoder()
    events = []
    for chunk in chunks:
        events.extend(vec.feed(chunk))
    ref_events, ref_resyncs, ref_packets, ref_pending = _reference(chunks)
    assert events == ref_events
    assert vec.resync_count == ref_resyncs
    assert vec.packet_count == ref_packets
    assert vec._pending_first == ref_pending


def test_block_decoder_split_at_every_offset():
    """Chunk boundaries anywhere — mid-packet, mid-garbage — change nothing."""
    data = _corrupt(_sample_stream())
    for split in range(len(data) + 1):
        _assert_block_decoder_matches([data[:split], data[split:]])


@pytest.mark.parametrize("seed", range(10))
def test_block_decoder_random_chunking_fuzz(seed):
    rng = np.random.default_rng(1000 + seed)
    soup = rng.integers(0, 256, size=600, dtype=np.uint8).tobytes()
    data = _sample_stream() + soup[:300] + _sample_stream() + soup[300:]
    chunks, i = [], 0
    while i < len(data):
        n = int(rng.integers(0, 9))  # zero-length chunks included
        chunks.append(data[i : i + n])
        i += n
    _assert_block_decoder_matches(chunks)


def test_block_decoder_reset_clears_state():
    dec = BlockDecoder()
    dec.decode(b"\xff")  # leaves a pending first byte
    assert dec._pending_first == 0xFF
    dec.reset()
    assert dec._pending_first is None
    assert dec.resync_count == 0
    assert dec.packet_count == 0
    block = dec.decode(_sample_stream())
    assert len(block) == dec.packet_count


# --------------------------------------------------------------------- #
# ProtocolSampleSource vs the scalar reference source                   #
# --------------------------------------------------------------------- #


class ScalarReferenceSource(ProtocolSampleSource):
    """The original per-event source decoder: the oracle for both tiers.

    Feeds :class:`StreamDecoder` events one at a time and closes a sample
    set at each timestamp once every enabled sensor has reported.
    """

    def __init__(self, link, **kwargs) -> None:
        super().__init__(link, **kwargs)
        self._decoder = StreamDecoder()

    def _decode(self, data: bytes, n_expected: int) -> SampleBlock:
        times: list[float] = []
        rows: list[np.ndarray] = []
        markers: list[bool] = []
        n_enabled = sum(1 for c in self.configs if c.enabled)
        self.health.bytes_read += len(data)
        resyncs_before = self._decoder.resync_count
        packets_decoded = 0
        for event in self._decoder.feed(data):
            packets_decoded += 1
            if isinstance(event, Timestamp):
                self._flush_sample(times, rows, markers, n_enabled)
                self._current_time = self._unwrapper.update(event.micros)
                self._have_timestamp = True
            elif isinstance(event, SensorReading):
                if not self._have_timestamp:
                    continue  # wait for the first timestamp to anchor time
                self._pending_sample[event.sensor] = event.value
                self._pending_marker = self._pending_marker or event.marker
        self._flush_sample(times, rows, markers, n_enabled)
        self.health.packets_decoded += packets_decoded
        self.health.packets_dropped += self._decoder.resync_count - resyncs_before
        self.health.samples_decoded += len(times)
        if not times:
            return self._empty_block()
        return SampleBlock(
            times=np.asarray(times),
            values=self._convert(np.array(rows)),
            markers=np.asarray(markers, dtype=bool),
            enabled=self._enabled_mask.copy(),
        )

    def _flush_sample(self, times, rows, markers, n_enabled: int) -> None:
        """Close out the sample set being accumulated, if complete."""
        if not self._have_timestamp or len(self._pending_sample) < n_enabled:
            return
        row = np.zeros(SENSORS, dtype=np.int64)
        for sensor, value in self._pending_sample.items():
            row[sensor] = value
        times.append(self._current_time)
        rows.append(row)
        markers.append(self._pending_marker)
        self._pending_sample = {}
        self._pending_marker = False


_MODULES = ["pcie_slot_12v", "pcie8pin", "pcie_slot_3v3", "usbc"]
_READS = (7, 64, 3, 128, 1, 500, 9)


def _source_over(setup, source_cls):
    """A fresh ``source_cls`` decoding the bench's link.

    The bench's own source is stopped first, so both decoders under
    comparison see the same command history and the same wire bytes.
    """
    setup.source.stop()
    return source_cls(setup.link)


def _collect(n_pairs: int, faults: str | None, seed: int, source_cls):
    """Run one source over a deterministic read schedule; return its output."""
    setup = SimulatedSetup(
        _MODULES[:n_pairs],
        seed=123,
        calibration_samples=1024,
        faults=faults,
        fault_seed=seed,
    )
    load = ElectronicLoad()
    load.set_current(4.0)
    setup.connect(0, LoadedSupplyRail(LabSupply(12.0), load))
    source = _source_over(setup, source_cls)
    source.start()
    blocks = []
    for i, n in enumerate(_READS):
        if i % 2:
            source.mark()
        blocks.append(source.read_block(n))
    source.stop()
    times = np.concatenate([b.times for b in blocks])
    values = np.concatenate([b.values for b in blocks])
    markers = np.concatenate([b.markers for b in blocks])
    health = source.health.as_dict()
    # StreamHealth is a view over registry counters: both sides of the
    # view must agree byte-for-byte in every fuzzed fault scenario.
    assert health == StreamHealth.counters_in(source.registry)
    enabled = blocks[0].enabled
    setup.close()
    return times, values, markers, health, enabled


@pytest.mark.parametrize(
    "n_pairs,faults,seed",
    [
        (1, None, 0),
        (2, None, 0),
        (4, None, 0),
        (1, "drop:0.01", 0),
        (1, "drop:0.01", 1),
        (2, "flip:0.005", 2),
        (4, "partial:0.3", 3),
        (2, "drop:0.01, flip:0.005", 4),
        (1, "burst:0.002", 0),
        (2, "stall:0.01", 1),
        (4, "drop:0.02, partial:0.5", 2),
    ],
)
def test_vectorized_source_matches_scalar(n_pairs, faults, seed):
    """Byte-identical wire streams must decode byte-identically.

    Two independent benches with the same seeds produce the same wire
    bytes (fault injection included); the production source and the
    scalar oracle must then agree exactly — samples, markers, and
    health accounting.
    """
    v_times, v_values, v_markers, v_health, v_enabled = _collect(
        n_pairs, faults, seed, ProtocolSampleSource
    )
    s_times, s_values, s_markers, s_health, s_enabled = _collect(
        n_pairs, faults, seed, ScalarReferenceSource
    )
    assert v_times.size > 0
    assert np.array_equal(v_enabled, s_enabled)
    assert np.array_equal(v_times, s_times)
    assert np.array_equal(v_values, s_values)
    assert np.array_equal(v_markers, s_markers)
    assert v_health == s_health


def test_vectorized_source_marker_interleaving_matches_scalar():
    """Markers land on the same sample index on both decode paths."""
    results = []
    for source_cls in (ProtocolSampleSource, ScalarReferenceSource):
        setup = SimulatedSetup(_MODULES[:2], seed=7, calibration_samples=1024)
        source = _source_over(setup, source_cls)
        source.start()
        marked = []
        for n in (40, 25, 60, 10):
            source.mark()
            block = source.read_block(n)
            marked.append(np.flatnonzero(block.markers))
        source.stop()
        setup.close()
        results.append(marked)
    vec, ref = results
    assert all(np.array_equal(a, b) for a, b in zip(vec, ref))
    assert sum(a.size for a in vec) == 4  # one marker attached per read
