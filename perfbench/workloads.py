"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, runs a closed loop
in one process until a deadline, records every call and query latency,
and checks its own outputs.  With a :class:`~spans.SpanRecorder` it also
wraps the calls into each layer on its own instances, so the
traced run can attribute time per layer; the program itself is not
touched.

Why these four:

* ``bulk_gpu`` -- the paper's headline use: one 4-module bench reading a
  rendered GPU kernel trace in 1-second blocks.  The sensor model does
  most of the work.
* ``fleet_poll`` -- 8 two-module benches polled at the PMT-style 2 ms
  cadence (40 samples per member per call): cost per call dominates.
* ``serve_tape`` -- the asyncio psserve core, recording what it serves,
  fans a stored capture out to 2 subscribers and then answers history
  queries over the wire.  A tape, not a simulated device, so serving
  does the work.
* ``store_history`` -- ingest into the telemetry store, reopen it cold,
  and answer history queries.  No simulation: writes beside reads.
"""

from __future__ import annotations

import contextlib
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.errors import ReproError
from repro.common.rng import RngStream
from repro.core.fleet import Fleet
from repro.core.setup import SimulatedSetup
from repro.core.sources import SampleBlock
from repro.core.state import joules, watts
from repro.dut.gpu import Gpu, KernelLaunch
from repro.experiments.table1 import PAPER_TABLE1
from repro.observability import MetricsRegistry
from repro.server import PowerSensorServer
from repro.server.client import RemoteSampleSource
from repro.server.loadgen import run_swarm
from repro.store import TelemetryStore
from repro.store.source import StoreSampleSource

from spans import SpanRecorder

#: Every layer the traced run reports, in pipeline order.
LAYERS = [
    "rail",
    "sensor.drift",
    "sensor.noise",
    "sensor.transduce",
    "adc.quantize",
    "adc.codes",
    "packetize",
    "link",
    "decode",
    "fold",
    "fleet",
    "state",
    "serve",
    "client",
    "store.append",
    "store.query",
    "store.read",
    "calibration",
]

#: Extra per-layer counts, reported by every workload (zero where unused).
COUNTS = [
    "decode.bytes",
    "fold.gaps_bridged",
    "serve.frames_encoded",
    "serve.frames_delivered",
    "serve.encode_ratio",
    "store.segments_sealed",
    "store.query_rows",
]

SAMPLE_RATE = 20_000.0
PAIR_NAMES = ["pair0", "pair1", "pair2", "pair3"]


@dataclass
class Measure:
    """What one run of a workload observed."""

    rates: list[float] = field(default_factory=list)  # samples/s per call
    call_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0.0))

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One correctness check: an attempted operation that may fail."""
        self.attempted += 1
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.fail(f"check {name}: {detail}")


def _seeds(seed: int, purpose: str, n: int = 1) -> list[int]:
    """``n`` independent 31-bit seeds for one purpose, derived from ``seed``."""
    return [
        int(x) for x in RngStream(seed, f"perfbench/{purpose}").integers(0, 2**31 - 1, n)
    ]


def _call(rec: SpanRecorder | None, name: str, fn, *args, **kwargs):
    if rec is None:
        return fn(*args, **kwargs)
    return rec.call(name, fn, *args, **kwargs)


@contextlib.contextmanager
def _traced_calibration(rec: SpanRecorder | None):
    """Span ``calibrate_all`` as the bench constructor calls it."""
    if rec is None:
        yield
        return
    import repro.core.setup as setup_module

    original = setup_module.calibrate_all

    def calibrate_all(*args, **kwargs):
        return rec.call("calibration", original, *args, **kwargs)

    setup_module.calibrate_all = calibrate_all
    try:
        yield
    finally:
        setup_module.calibrate_all = original


def _instrument_bench(setup: SimulatedSetup, rec: SpanRecorder) -> None:
    """Wrap every simulation layer of one protocol-path bench."""
    baseboard = setup.baseboard
    rails_seen: set[int] = set()
    for channel in baseboard.populated_slots():
        rail = channel.rail
        if rail is not None and id(rail) not in rails_seen:
            rails_seen.add(id(rail))
            rec.wrap_attr(rail, "sample_uniform", "rail")
        current = channel.module.current_sensor
        voltage = channel.module.voltage_sensor
        rec.wrap_attr(getattr(current, "_drift", None), "offset_at", "sensor.drift")
        for sensor in (current, voltage):
            rec.wrap_attr(getattr(sensor, "_noise", None), "sample_uniform", "sensor.noise")
            rec.wrap_attr(sensor, "transduce_uniform", "sensor.transduce")
    rec.wrap_attr(baseboard.adc, "quantize", "adc.quantize")
    rec.wrap_attr(baseboard, "read_codes", "adc.codes")
    rec.wrap_attr(baseboard, "averaged_codes", "adc.codes")
    rec.wrap_attr(setup.firmware, "produce", "packetize")
    rec.wrap_attr(setup.link, "pump_samples", "link")
    rec.wrap_attr(setup.source, "read_block", "decode")


def _interval_query(ps, prev, pairs: int):
    """The State interval question: ``read()``, then joules and watts per pair.

    psrun asks it once before and once after the measured command
    (``repro.cli.psrun``); the benchmark asks it after every call, a
    synthetic cadence that gives the State path enough samples to time.
    Returns the new state.
    """
    state = ps.read()
    for pair in range(pairs):
        joules(prev, state, pair)
        watts(prev, state, pair)
    return state


def _fleet_interval_query(fleet: Fleet, prev):
    """:func:`_interval_query` over every member of a fleet (2 pairs each)."""
    states = fleet.read()
    for name, state in states.items():
        for pair in range(2):
            joules(prev[name], state, pair)
            watts(prev[name], state, pair)
    return states


# --------------------------------------------------------------------- #
# bulk_gpu                                                              #
# --------------------------------------------------------------------- #


class BulkGpu:
    """One 4-module bench measuring the three feeds of a rendered GPU trace."""

    name = "bulk_gpu"
    MODULES = ["pcie_slot_12v", "pcie8pin", "pcie_slot_3v3", "usbc"]
    #: ``Gpu.rails`` feed per slot; slot 3 (usbc) stays unconnected.
    FEEDS = ("slot_12v", "ext_12v", "slot_3v3")
    #: Long enough that a run never reads past the end of the trace (a 20 s
    #: run covers ~330 s of stream on an idle host); past it the rail is
    #: much cheaper, which would make the per-call cost depend on how far a
    #: run got.
    TRACE_SECONDS = 600.0
    TRACE_DT = 1e-3
    SETUPS = 3
    ONE_CPU = False
    #: The percentile each ``*_p99`` metric carries: 8 to 16 calls per
    #: second (busy to idle host), so p99 would need a run of minutes, and
    #: p90 of a few hundred calls moves with the host's noise.
    TAILS = {"call": 75.0, "query": 75.0}

    def __init__(self, seed: int, rec: SpanRecorder | None, workdir: Path) -> None:
        self.seed = seed
        self.rec = rec

    def build(self) -> None:
        bench_seed, gpu_seed, schedule_seed = _seeds(self.seed, "bulk_gpu", 3)
        with _traced_calibration(self.rec):
            self.setup = SimulatedSetup(self.MODULES, seed=bench_seed)
        gpu = Gpu("rtx4000ada", RngStream(gpu_seed, "perfbench/gpu"))
        schedule = np.random.default_rng(schedule_seed)
        t = 0.2
        while t < self.TRACE_SECONDS:
            duration = float(schedule.uniform(1.0, 8.0))
            gpu.launch(
                KernelLaunch(
                    start=t,
                    duration=duration,
                    utilization=float(schedule.uniform(0.4, 1.0)),
                    n_waves=int(schedule.integers(1, 16)),
                )
            )
            t += duration + float(schedule.uniform(0.2, 2.0))
        rails = gpu.rails(gpu.render(t_end=self.TRACE_SECONDS, dt=self.TRACE_DT))
        self.rails = [rails[feed] for feed in self.FEEDS]
        for slot, rail in enumerate(self.rails):
            self.setup.connect(slot, rail)
        if self.rec is not None:
            _instrument_bench(self.setup, self.rec)
            self.rec.wrap_attr(self.setup.ps, "pump", "fold")
        self.block = int(round(self.setup.sample_rate))  # 1 s of stream
        self.calls = 0

    def run(self, deadline: float, m: Measure) -> None:
        ps = self.setup.ps
        prev = ps.read()
        while time.perf_counter() < deadline:
            m.attempted += 1
            t0 = time.perf_counter()
            try:
                block = ps.pump(self.block)
            except ReproError as error:
                m.fail(f"pump raised {error!r}")
                return
            dt = time.perf_counter() - t0
            self.calls += 1
            if len(block) != self.block:
                m.fail(f"short read: {len(block)} of {self.block} samples")
            m.call_s.append(dt)
            m.rates.append(len(block) / dt)
            m.attempted += 1
            t0 = time.perf_counter()
            prev = _call(self.rec, "state", _interval_query, ps, prev, len(self.FEEDS))
            m.query_s.append(time.perf_counter() - t0)

    def check(self, m: Measure) -> None:
        ps = self.setup.ps
        expected = self.calls * self.block
        m.check(
            "bulk.sample_count",
            ps.samples_seen == expected,
            f"{ps.samples_seen} samples folded, {expected} expected",
        )
        # Ground truth: the rail's own sample_uniform (the class method, so
        # no span) integrated on the output-sample grid, which the 1 ms
        # sample-and-hold trace steps fall on exactly.
        rate = self.setup.sample_rate
        span = ps.samples_seen / rate
        chunk = int(10 * rate)
        band = {key: ep for key, _, _, ep in PAPER_TABLE1}
        for pair, rail in enumerate(self.rails):
            truth = 0.0
            for lo in range(0, ps.samples_seen, chunk):
                n = min(chunk, ps.samples_seen - lo)
                volts, amps = type(rail).sample_uniform(rail, lo / rate, 1.0 / rate, n)
                truth += float(np.dot(volts, amps)) / rate
            measured = ps.total_energy(pair)
            limit = band[self.MODULES[pair]] * span
            m.check(
                f"bulk.energy.pair{pair}",
                abs(measured - truth) <= limit,
                f"{measured:.3f} J vs {truth:.3f} J ground truth, error "
                f"{100 * abs(measured - truth) / truth:.3f} % (Table I band {limit:.3f} J)",
            )
        m.counts["decode.bytes"] += self.setup.link.bytes_to_host
        m.counts["fold.gaps_bridged"] += ps.health.gaps_bridged

    def close(self) -> None:
        self.setup.close()


# --------------------------------------------------------------------- #
# fleet_poll                                                            #
# --------------------------------------------------------------------- #


class FleetPoll:
    """8 two-module GPU benches polled with ``Fleet.read_all(0.002)``."""

    name = "fleet_poll"
    MEMBERS = 8
    POLL_SECONDS = 0.002
    SETUPS = 3
    ONE_CPU = False
    #: The percentile each ``*_p99`` metric carries: p99 of ~2000 polls is
    #: set by a handful of host hiccups; p95 is steady.
    TAILS = {"call": 95.0, "query": 95.0}

    def __init__(self, seed: int, rec: SpanRecorder | None, workdir: Path) -> None:
        self.seed = seed
        self.rec = rec

    def build(self) -> None:
        seeds = np.random.default_rng(_seeds(self.seed, "fleet_poll")[0]).choice(
            2**31 - 1, size=self.MEMBERS, replace=False
        )
        specs = [
            f"sim://pcie_slot_12v,pcie8pin?seed={int(s)}&dut=gpu:rtx4000ada&device=m{k}"
            for k, s in enumerate(seeds)
        ]
        with _traced_calibration(self.rec):
            self.fleet = Fleet.from_specs(specs)
        if self.rec is not None:
            for member in self.fleet:
                _instrument_bench(member.bench, self.rec)
            self.rec.wrap_attr(self.fleet, "read_all", "fleet")
        self.per_member = int(round(self.POLL_SECONDS * SAMPLE_RATE))
        self.polls = 0

    def _gaps(self) -> int:
        return sum(member.health.gaps_bridged for member in self.fleet)

    def run(self, deadline: float, m: Measure) -> None:
        fleet = self.fleet
        prev = fleet.read()
        while time.perf_counter() < deadline:
            m.attempted += 1
            gaps = self._gaps()
            t0 = time.perf_counter()
            try:
                polled = fleet.read_all(self.POLL_SECONDS)
            except ReproError as error:
                m.fail(f"read_all raised {error!r}")
                return
            dt = time.perf_counter() - t0
            self.polls += 1
            short = [name for name, block in polled.items() if len(block) != self.per_member]
            if short or self._gaps() != gaps:
                m.fail(f"poll {self.polls}: short members {short}, gaps {self._gaps() - gaps}")
            m.call_s.append(dt)
            m.rates.append(polled.total_samples / dt)
            m.attempted += 1
            t0 = time.perf_counter()
            prev = _call(self.rec, "state", _fleet_interval_query, fleet, prev)
            m.query_s.append(time.perf_counter() - t0)

    def check(self, m: Measure) -> None:
        times = {member.ps.read().time for member in self.fleet}
        seen = {member.ps.samples_seen for member in self.fleet}
        expected = self.polls * self.per_member
        m.check(
            "fleet.aligned",
            len(times) == 1 and seen == {expected},
            f"member times {sorted(times)}, samples {sorted(seen)}, {expected} expected",
        )
        gaps = self._gaps()
        m.check("fleet.no_gaps", gaps == 0, f"{gaps} gaps bridged")
        for member in self.fleet:
            m.counts["decode.bytes"] += member.bench.link.bytes_to_host
        m.counts["fold.gaps_bridged"] += gaps

    def close(self) -> None:
        self.fleet.close()


# --------------------------------------------------------------------- #
# seeded sample blocks (serve_tape and store_history)                   #
# --------------------------------------------------------------------- #


def make_capture(seed: int, purpose: str, rows: int, block_rows: int) -> list[SampleBlock]:
    """Seeded 8-column blocks on a 20 kHz grid: 4 pairs of (amps, volts)."""
    rng = np.random.default_rng(_seeds(seed, purpose)[0])
    times = np.arange(rows) / SAMPLE_RATE
    amps = rng.uniform(0.5, 8.0, size=4) + rng.normal(0.0, 0.3, size=(rows, 4))
    volts = np.array([12.0, 12.0, 3.3, 20.0]) + rng.normal(0.0, 0.01, size=(rows, 4))
    values = np.empty((rows, 8))
    values[:, 0::2] = amps
    values[:, 1::2] = volts
    markers = rng.random(rows) < 1e-3
    enabled = np.ones(8, dtype=bool)
    return [
        SampleBlock(
            times=times[lo : lo + block_rows],
            values=values[lo : lo + block_rows],
            markers=markers[lo : lo + block_rows],
            enabled=enabled,
        )
        for lo in range(0, rows, block_rows)
    ]


def write_store(path: Path, blocks: list[SampleBlock]) -> None:
    """Append ``blocks`` into a new store at ``path`` and close it."""
    with TelemetryStore(path, sample_rate=SAMPLE_RATE, pair_names=PAIR_NAMES) as store:
        for block in blocks:
            store.append(block)


def random_window(rng, t_end: float, min_s: float, max_s: float) -> tuple[float, float]:
    length = float(rng.uniform(min_s, max_s))
    t0 = float(rng.uniform(0.0, max(t_end - length, 0.0)))
    return t0, t0 + length


# --------------------------------------------------------------------- #
# serve_tape                                                            #
# --------------------------------------------------------------------- #


class ServeTape:
    """psserve fans a stored capture out to 2 ``run_swarm`` subscribers.

    The server records what it serves (``psserve --record-store``).  Once
    the subscribers have their end of stream, one history client asks the
    server for seeded windows of the served second over the wire, as
    ``psplot --remote … --history`` does.
    """

    name = "serve_tape"
    SUBSCRIBERS = 2
    CHUNK = 100
    TAPE_ROWS = 20_000  # 1 s of stream: 200 frames per subscriber
    #: History queries per session.  psplot asks one per connection; the
    #: count here is a synthetic cadence that gives the HISTORY path enough
    #: samples to time without letting it outweigh the fan-out.
    QUERIES_PER_SESSION = 5
    MAX_POINTS = 4096  # psplot's default point budget
    #: A set-up takes ~6 ms, so many of them give a steady median cheaply.
    SETUPS = 31
    #: Run the whole process on one CPU.  The server's loop thread and the
    #: subscribers' thread hand every frame to each other and hold the GIL
    #: in turn, so a second CPU adds no throughput (on an idle 2-vCPU VM
    #: pinned sessions were 1-2 % faster); it only adds cross-CPU
    #: wake-ups, whose latency depends on whether the other CPU is idle,
    #: not on the program.
    ONE_CPU = True
    #: The percentile each ``*_p99`` metric carries.  Sessions take ~50 ms
    #: each, and their p95 moves with the host's noise (two busy threads).
    TAILS = {"call": 75.0, "query": 90.0}

    def __init__(self, seed: int, rec: SpanRecorder | None, workdir: Path) -> None:
        self.seed = seed
        self.rec = rec
        self.workdir = workdir
        # The capture is the workload's input, written before set-up starts.
        self.dir = workdir / "capture"
        if not self.dir.exists():
            write_store(self.dir, make_capture(seed, "serve_tape", self.TAPE_ROWS, 2000))
        self.tape_times = np.arange(self.TAPE_ROWS) / SAMPLE_RATE

    def build(self) -> None:
        self.source = StoreSampleSource(self.dir)
        if self.rec is not None:
            self.rec.wrap_attr(self.source, "read_block", "store.read")
        # First sample ready: the server is up and both subscribers are past
        # the handshake and fed one chunk.
        server, swarm, _ = self.session(self.CHUNK, record=None)
        server.close()
        if len(swarm.completed) != self.SUBSCRIBERS:
            raise ReproError("serve_tape: subscribers did not complete the handshake")
        self.windows = np.random.default_rng(_seeds(self.seed, "serve_tape/windows")[0])
        self.sessions = 0

    def session(self, rows: int, record: Path | None):
        """Serve ``rows`` tape samples to the subscribers.

        Returns ``(server, swarm, wall)``.  The server stays up, so its
        recorded history can still be queried; the caller closes it.
        """
        self.source.rewind()
        server = PowerSensorServer(
            self.source,
            "127.0.0.1:0",
            policy="block",
            chunk=self.CHUNK,
            wait_clients=self.SUBSCRIBERS,
            max_clients=self.SUBSCRIBERS,
            client_timeout=10.0,
            time_scale=0.0,
            record_store=None if record is None else str(record),
            registry=MetricsRegistry(),
        )
        if self.rec is not None:
            # The server works on its event-loop thread, whose body is
            # _run_loop; serve() only waits for it on the calling thread.
            self.rec.wrap_attr(server, "_run_loop", "serve")
            for device in server.devices.values():
                if device.store is not None:
                    self.rec.wrap_attr(device.store, "append", "store.append")
                    self.rec.wrap_attr(device.store, "close", "store.append")
                    self.rec.wrap_attr(device.store, "query", "store.query")
        errors: list[BaseException] = []

        def pump() -> None:
            try:
                server.serve(rows / SAMPLE_RATE)
            except BaseException as error:  # reported by the caller
                errors.append(error)

        t0 = time.perf_counter()
        try:
            server.start()
            thread = threading.Thread(target=pump, name="perfbench-pump")
            thread.start()
            try:
                swarm = _call(
                    self.rec, "client", run_swarm,
                    server.address, self.SUBSCRIBERS, timeout=20.0,
                )
            finally:
                thread.join(timeout=20.0)
            wall = time.perf_counter() - t0
            if errors:
                raise ReproError(f"serve raised {errors[0]!r}")
        except BaseException:
            server.close()
            raise
        return server, swarm, wall

    def run(self, deadline: float, m: Measure) -> None:
        expected_frames = -(-self.TAPE_ROWS // self.CHUNK)
        while time.perf_counter() < deadline:
            record = self.workdir / f"record-{self.sessions}"
            m.attempted += self.SUBSCRIBERS
            try:
                server, swarm, wall = self.session(self.TAPE_ROWS, record)
            except ReproError as error:
                m.fail(f"session raised {error!r}")
                return
            try:
                self.sessions += 1
                encoded = int(
                    sum(
                        metric.value
                        for metric in server.registry.metrics()
                        if metric.name == "server_frames_encoded_total"
                    )
                )
                delivered = 0
                for client in swarm.clients:
                    eos = client.eos or {}
                    lossless = (
                        client.ok
                        and client.frames == encoded == expected_frames
                        and client.seq_gaps == 0
                        and eos.get("frames_dropped", 0) == 0
                        and eos.get("samples_sent") == self.TAPE_ROWS
                    )
                    if lossless:
                        delivered += self.TAPE_ROWS
                    else:
                        m.fail(
                            f"session {self.sessions} subscriber {client.index}: "
                            f"{client.frames} frames of {encoded} encoded "
                            f"({expected_frames} expected), gaps {client.seq_gaps}, "
                            f"error {client.error}, eos {eos}"
                        )
                m.call_s.append(wall)
                m.rates.append(delivered / wall)
                m.counts["serve.frames_encoded"] += encoded
                m.counts["serve.frames_delivered"] += swarm.total_frames
                self.history(server.address, m)
            finally:
                server.close()
                shutil.rmtree(record, ignore_errors=True)

    def history(self, address: str, m: Measure) -> None:
        """Query the served second back through the server's HISTORY path."""
        t_end = self.TAPE_ROWS / SAMPLE_RATE
        try:
            client = _call(self.rec, "client", RemoteSampleSource, address)
        except ReproError as error:
            m.attempted += 1
            m.fail(f"history client could not connect: {error!r}")
            return
        try:
            for _ in range(self.QUERIES_PER_SESSION):
                m.attempted += 1
                lo, hi = random_window(self.windows, t_end, 0.01, t_end)
                t0 = time.perf_counter()
                try:
                    result = _call(
                        self.rec, "client", client.query_history, lo, hi, self.MAX_POINTS
                    )
                except ReproError as error:
                    m.fail(f"history query [{lo}, {hi}] raised {error!r}")
                    continue
                m.query_s.append(time.perf_counter() - t0)
                m.counts["store.query_rows"] += len(result)
                expected = int(
                    np.searchsorted(self.tape_times, hi, side="right")
                    - np.searchsorted(self.tape_times, lo, side="left")
                )
                if not (0 < len(result) <= self.MAX_POINTS and result.n_source == expected):
                    m.fail(
                        f"history query [{lo}, {hi}] returned {len(result)} rows "
                        f"covering {result.n_source} samples, {expected} expected"
                    )
        finally:
            client.close()

    def check(self, m: Measure) -> None:
        encoded = m.counts["serve.frames_encoded"]
        delivered = m.counts["serve.frames_delivered"]
        m.check(
            "serve.encode_once_lossless",
            delivered == self.SUBSCRIBERS * encoded
            and encoded == self.sessions * -(-self.TAPE_ROWS // self.CHUNK),
            f"{delivered:.0f} frames delivered, {encoded:.0f} encoded "
            f"over {self.sessions} sessions",
        )
        if encoded:
            m.counts["serve.encode_ratio"] = delivered / (self.SUBSCRIBERS * encoded)

    def close(self) -> None:
        self.source.close()


# --------------------------------------------------------------------- #
# store_history                                                         #
# --------------------------------------------------------------------- #


class StoreHistory:
    """Ingest seeded blocks, reopen the store cold, answer history queries."""

    name = "store_history"
    ROWS = 200_000  # 10 s of stream per round
    BLOCK_ROWS = 2_000
    ROLL = 50_000  # four seals per round
    #: Many queries per cold reopen, so the first touch of each segment (CRC
    #: check, page faults) stays a small share of them.  They also space the
    #: rounds out: each writes ~15 MB of segments, and at 200 queries per
    #: round (~2.5 times as many rounds) a shared disk throttled appends and
    #: seals alike by 20-50 % from one run to the next.
    TIERED_QUERIES = 1000
    RAW_QUERIES = 1000
    MAX_POINTS = 1000
    SETUPS = 9
    ONE_CPU = False
    #: The percentile each ``*_p99`` metric carries.  The slowest 4 % of
    #: appends are seals, whose fsync the disk sets, and the p90 of appends
    #: follows the disk's write-back throttling (a 15 % quartile spread over
    #: ten runs); p75 is a plain append.  The slowest queries are first
    #: touches of a segment after the cold reopen.
    TAILS = {"call": 75.0, "query": 95.0}

    def __init__(self, seed: int, rec: SpanRecorder | None, workdir: Path) -> None:
        self.seed = seed
        self.rec = rec
        self.workdir = workdir

    def build(self) -> None:
        self.blocks = make_capture(self.seed, "store_history", self.ROWS, self.BLOCK_ROWS)
        self.times = np.concatenate([b.times for b in self.blocks])
        self.values = np.concatenate([b.values for b in self.blocks])
        self.windows = np.random.default_rng(_seeds(self.seed, "store_history/windows")[0])
        self.rounds = 0

    def run(self, deadline: float, m: Measure) -> None:
        t_end = self.ROWS / SAMPLE_RATE
        while time.perf_counter() < deadline:
            path = self.workdir / f"round-{self.rounds}"
            self.rounds += 1
            store = TelemetryStore(
                path, roll_samples=self.ROLL, sample_rate=SAMPLE_RATE, pair_names=PAIR_NAMES
            )
            ingest = 0.0
            for block in self.blocks:
                m.attempted += 1
                t0 = time.perf_counter()
                _call(self.rec, "store.append", store.append, block)
                dt = time.perf_counter() - t0
                m.call_s.append(dt)
                ingest += dt
            t0 = time.perf_counter()
            _call(self.rec, "store.append", store.close)  # seals the last journal
            ingest += time.perf_counter() - t0
            m.rates.append(self.ROWS / ingest)  # seals included

            reader = TelemetryStore(path)
            m.counts["store.segments_sealed"] += len(reader.segments)
            for k in range(self.TIERED_QUERIES + self.RAW_QUERIES):
                tiered = k % 2 == 0
                if tiered:
                    lo, hi = random_window(self.windows, t_end, 0.05, t_end)
                else:
                    lo, hi = random_window(self.windows, t_end, 0.005, 0.1)
                m.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = _call(
                        self.rec, "store.query", reader.query, lo, hi,
                        self.MAX_POINTS if tiered else None,
                    )
                except ReproError as error:
                    m.fail(f"query [{lo}, {hi}] raised {error!r}")
                    continue
                m.query_s.append(time.perf_counter() - t0)
                m.counts["store.query_rows"] += len(result)
                if not self._correct(result, lo, hi, tiered):
                    m.fail(f"query [{lo}, {hi}] tiered={tiered} returned wrong rows")
            reader.close()
            shutil.rmtree(path, ignore_errors=True)

    def _correct(self, result, lo: float, hi: float, tiered: bool) -> bool:
        if tiered:
            return 0 < len(result) <= self.MAX_POINTS
        # The generated times are sorted: [i, j) is every row in [lo, hi].
        i = np.searchsorted(self.times, lo, side="left")
        j = np.searchsorted(self.times, hi, side="right")
        return (
            result.factor == 1
            and np.array_equal(result.times, self.times[i:j])
            and np.array_equal(result.values, self.values[i:j])
        )

    def check(self, m: Measure) -> None:
        sealed = m.counts["store.segments_sealed"]
        expected = self.rounds * -(-self.ROWS // self.ROLL)
        m.check(
            "store.sealed", sealed == expected, f"{sealed:.0f} segments, {expected} expected"
        )

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (BulkGpu, FleetPoll, ServeTape, StoreHistory)}
