import threading
import time

import pytest

from spans import Span, SpanRecorder, self_times, waterfall


def span(id, name, start, end, cpu=None, parent=None, thread=1):
    cpu = end - start if cpu is None else cpu
    return Span(id, name, float(start), float(end), float(cpu), parent, thread)


def test_nested_spans_self_time_is_span_minus_children():
    spans = [
        span(1, "fold", 0, 10),
        span(2, "decode", 1, 4, parent=1),
        span(3, "link", 2, 3, parent=2),
        span(4, "decode", 5, 6, parent=1),
    ]
    cpu = {k: v[0] for k, v in self_times(spans).items()}
    assert cpu == {1: pytest.approx(6), 2: pytest.approx(2), 3: pytest.approx(1),
                   4: pytest.approx(1)}
    costs, residual = waterfall(spans, 12.0, ["fold", "decode", "link", "rail"])
    by_name = {c.name: c for c in costs}
    assert by_name["decode"].self_s == pytest.approx(3) and by_name["decode"].calls == 2
    assert by_name["rail"].self_s == 0 and by_name["rail"].calls == 0
    assert residual == pytest.approx(2)  # wall not covered by any span
    assert sum(c.self_s for c in costs) + residual == pytest.approx(12.0)


def test_self_time_is_cpu_time_and_waits_are_reported_apart():
    # fold ran 10 s but was on the CPU for 7 s; its child decode for 2 of 3 s.
    spans = [span(1, "fold", 0, 10, cpu=7), span(2, "decode", 1, 4, cpu=2, parent=1)]
    assert self_times(spans) == {1: (pytest.approx(5), pytest.approx(7)),
                                 2: (pytest.approx(2), pytest.approx(3))}
    costs, residual = waterfall(spans, 10.0, [])
    by_name = {c.name: c for c in costs}
    assert by_name["fold"].wait_s == pytest.approx(2)
    assert by_name["decode"].wait_s == pytest.approx(1)
    assert residual == pytest.approx(3)  # the waits are nobody's work


def test_spans_on_two_threads_are_each_charged_their_own_cpu():
    # The server's loop thread works 6 s of a 10 s session; the client
    # thread is open all along but on the CPU for 3 s.  A store read on the
    # loop thread is the server span's child.
    spans = [
        span(1, "serve", 0, 10, cpu=6, thread=1),
        span(2, "store.read", 3, 5, cpu=1.5, parent=1, thread=1),
        span(3, "client", 0, 10, cpu=3, thread=2),
    ]
    costs, residual = waterfall(spans, 10.0, [])
    by_name = {c.name: c.self_s for c in costs}
    assert by_name == {"serve": pytest.approx(4.5), "store.read": pytest.approx(1.5),
                       "client": pytest.approx(3)}
    assert residual == pytest.approx(1)
    assert sum(by_name.values()) + residual == pytest.approx(10)


def _burn(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_recorder_keeps_one_stack_per_thread_and_a_waiting_thread_costs_nothing():
    rec = SpanRecorder()
    started = threading.Event()
    release = threading.Event()

    def worker():
        def inner():
            started.set()
            release.wait(5)

        rec.call("waiter", inner)

    def outer():
        thread = threading.Thread(target=worker)
        thread.start()
        started.wait(5)
        rec.call("child", _burn, 0.05)
        release.set()
        thread.join(5)
        assert not thread.is_alive()

    rec.call("outer", outer)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["child"].parent == by_name["outer"].id
    assert by_name["waiter"].parent is None  # another thread: its own stack
    assert by_name["waiter"].thread != by_name["outer"].thread
    assert by_name["child"].cpu >= 0.05
    assert by_name["waiter"].cpu < 0.5 * by_name["child"].cpu
    wall = by_name["outer"].end - by_name["outer"].start
    costs, residual = waterfall(rec.spans, wall, [])
    assert sum(c.self_s for c in costs) + residual == pytest.approx(wall)


def test_wrap_attr_wraps_one_instance_and_refuses_missing_attributes():
    class Layer:
        def work(self, x):
            return x + 1

    rec = SpanRecorder()
    wrapped, plain = Layer(), Layer()
    rec.wrap_attr(wrapped, "work", "layer")
    assert wrapped.work(1) == 2 and plain.work(1) == 2
    assert [s.name for s in rec.spans] == ["layer"]
    with pytest.raises(AttributeError, match="missing"):
        rec.wrap_attr(wrapped, "missing", "layer")
    with pytest.raises(AttributeError):
        rec.wrap_attr(None, "work", "layer")
