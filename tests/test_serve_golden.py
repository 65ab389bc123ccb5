"""Golden digests of what psserve puts on the wire for a seeded bench.

One subscriber streams ``served_engine(seed=11, duration=0.2)`` to EOS,
raw and with an 8-sample server-side window.  The HELLO, the SUBACK and
every DATA/WINDOW frame's ``(type, seq, payload)`` are hashed into one
sha256; the EOS statistics are pinned exactly.  A moved digest means
the serving core changed what subscribers receive — a defect to fix,
not a value to regenerate.
"""

from __future__ import annotations

import hashlib
import json
import struct

import pytest

from repro.firmware.commands import Command
from repro.server import PowerSensorServer, RemoteLink
from tests.test_async_server import served_engine

#: (mode, window) -> (sha256, samples_sent, frames_sent)
GOLDEN = {
    ("raw", 1): (
        "26ce46151ae2e165ea74cb1470570b867cf3c19afb683240f5037efdc16a8e15",
        4000,
        10,
    ),
    ("window", 8): (
        "3379bba49a3f19ed245b8d78669058b9c249ba1ea8f2c334807ba0ac8b752bad",
        4000,
        10,
    ),
}


def _control_bytes(obj: dict) -> bytes:
    """A control frame's JSON payload, re-encoded the way the server sends it."""
    return json.dumps(obj, separators=(",", ":")).encode()


def _collect_stream(spec, mode="raw", window=1):
    """Subscribe once and collect every DATA/WINDOW frame until EOS."""
    link = RemoteLink(spec, mode=mode, window=window, recovery=None)
    link.write(Command.START_STREAMING.value)
    frames = []
    while True:
        frame = link.next_data()
        if frame is None:
            break
        frames.append((int(frame.type), frame.seq, frame.payload))
    hello, suback, eos = link.hello, link.suback, link.eos
    link.close()
    return hello, suback, frames, eos


def stream_digest(hello: dict, suback: dict, frames: list) -> str:
    h = hashlib.sha256()
    h.update(_control_bytes(hello))
    h.update(_control_bytes(suback))
    for ftype, seq, payload in frames:
        h.update(struct.pack(">BII", ftype, seq, len(payload)))
        h.update(payload)
    return h.hexdigest()


@pytest.mark.parametrize("mode,window", list(GOLDEN))
def test_served_stream_matches_golden_digest(tmp_path, mode, window):
    with served_engine(tmp_path, PowerSensorServer, duration=0.2, seed=11) as server:
        hello, suback, frames, eos = _collect_stream(
            server.address, mode=mode, window=window
        )
    digest, samples_sent, frames_sent = GOLDEN[(mode, window)]
    assert frames
    assert stream_digest(hello, suback, frames) == digest
    assert eos is not None
    assert eos["samples_sent"] == samples_sent
    assert eos["frames_sent"] == frames_sent
    assert eos["frames_dropped"] == 0
