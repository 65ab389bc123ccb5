"""In-memory span recorder and the self-time arithmetic of the waterfall.

The benchmark measures each layer from outside: it replaces a method on
its own bench instances with a wrapper that opens a span around the call
(:meth:`SpanRecorder.wrap_attr`).  Spans are kept in memory, one stack
per thread, and written out when the run ends.

A span records its wall interval and the CPU time its own thread used
inside it (``time.thread_time``).  Self time is CPU time: the span's
minus that of its child spans, which are always on the same thread.  A
thread that only waits -- on a socket, a lock, another thread's result,
the GIL -- is charged nothing, so two threads that hand work to each
other are each charged what they did.  ``residual = wall - sum(self)``
is then the wall time no span was working: code outside any span, and
waits inside spans (fsync, sockets, idle event loops).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    """One recorded call.

    ``start``/``end`` are ``time.perf_counter`` seconds; ``cpu`` is the
    CPU time the span's thread used between them.
    """

    id: int
    name: str
    start: float
    end: float
    cpu: float
    parent: int | None
    thread: int


class SpanRecorder:
    """Records spans with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        The parent is this thread's innermost open span, if any.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        # The wall interval encloses the CPU one, so no span reads more CPU
        # time than wall time.
        start = time.perf_counter()
        cpu0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu = time.thread_time() - cpu0
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL, so threads share one list.
            self.spans.append(
                Span(span_id, name, start, end, cpu, parent, threading.get_ident())
            )

    def wrap_attr(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a spanned wrapper on this instance only.

        Raises :class:`AttributeError` when there is nothing to wrap: a
        layer whose call a later version of the program renamed must
        fail the traced run, not read zero calls.
        """
        fn = getattr(obj, attr, None)
        if obj is None or not callable(fn):
            raise AttributeError(
                f"perfbench: layer {name!r} wraps {type(obj).__name__}.{attr}, "
                "which does not exist; update perfbench/workloads.py"
            )

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(obj, attr, spanned)

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.start):
                out.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start - origin,
                            "end": s.end - origin,
                            "cpu": s.cpu,
                            "parent": s.parent,
                            "thread": s.thread,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """``{id: (cpu self, wall self)}``: each span minus its child spans."""
    child_cpu: dict[int, float] = defaultdict(float)
    child_wall: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_cpu[s.parent] += s.cpu
            child_wall[s.parent] += s.end - s.start
    return {
        s.id: (s.cpu - child_cpu[s.id], s.end - s.start - child_wall[s.id]) for s in spans
    }


@dataclass
class LayerCost:
    name: str
    self_s: float  # CPU seconds, children excluded
    wait_s: float  # wall seconds inside the layer's own code not on the CPU
    calls: int


def waterfall(
    spans: list[Span], wall_s: float, layers: list[str]
) -> tuple[list[LayerCost], float]:
    """Per-layer self time and call count, plus the residual.

    ``layers`` lists every layer name to report (absent ones read zero);
    the residual is ``wall_s`` minus the summed self times.
    """
    charged = self_times(spans)
    per_layer = {name: LayerCost(name, 0.0, 0.0, 0) for name in layers}
    for s in spans:
        cost = per_layer.setdefault(s.name, LayerCost(s.name, 0.0, 0.0, 0))
        cpu, wall = charged[s.id]
        cost.self_s += cpu
        cost.wait_s += wall - cpu
        cost.calls += 1
    costs = list(per_layer.values())
    residual = wall_s - sum(c.self_s for c in costs)
    return costs, residual
