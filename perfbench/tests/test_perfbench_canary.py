import pytest

import run
from canary import REFERENCE_S, UNITS, HostClock, unit
from workloads import Measure


def test_a_window_is_scaled_by_the_median_of_the_slices_on_either_side():
    clock = HostClock()
    clock.slices = [
        [REFERENCE_S] * UNITS,
        [2 * REFERENCE_S] * UNITS,
        [2 * REFERENCE_S] * (UNITS - 1) + [50 * REFERENCE_S],  # one paused unit
    ]
    assert clock.factor(0) == pytest.approx(1.5)
    assert clock.factor(1) == pytest.approx(2.0)


def test_a_tick_times_a_slice_of_units():
    clock = HostClock()
    clock.tick()
    clock.tick()
    assert [len(s) for s in clock.slices] == [UNITS, UNITS]
    assert clock.factor(0) > 0
    assert unit() == unit()


def test_rescale_touches_only_what_the_window_recorded():
    m = Measure(rates=[100.0, 100.0], call_s=[1.0, 1.0], query_s=[0.5])
    run.rescale(m, (1, 1, 0), 2.0)
    assert m.rates == [100.0, 200.0]
    assert m.call_s == [1.0, 0.5]
    assert m.query_s == [0.25]
