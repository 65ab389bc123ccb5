"""Power-rail abstractions and traces."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import MeasurementError
from repro.dut.base import (
    ConstantRail,
    FunctionRail,
    PowerTrace,
    ScaledRail,
    SegmentRail,
    SplitRail,
    TraceRail,
    hold_index,
)


def make_trace():
    return PowerTrace(
        times=np.array([0.0, 1.0, 2.0]),
        volts=np.array([12.0, 12.0, 12.0]),
        amps=np.array([1.0, 2.0, 0.5]),
    )


def test_trace_validation():
    with pytest.raises(MeasurementError):
        PowerTrace(times=np.array([0.0, 1.0]), volts=np.array([1.0]), amps=np.array([1.0, 1.0]))
    with pytest.raises(MeasurementError):
        PowerTrace(times=np.array([]), volts=np.array([]), amps=np.array([]))
    with pytest.raises(MeasurementError):
        PowerTrace(
            times=np.array([1.0, 0.5]),
            volts=np.array([1.0, 1.0]),
            amps=np.array([1.0, 1.0]),
        )


def test_trace_energy_sample_and_hold():
    trace = make_trace()
    # 12 W for 1 s + 24 W for 1 s.
    assert trace.energy() == pytest.approx(36.0)
    assert trace.mean_power() == pytest.approx(18.0)
    assert trace.duration == pytest.approx(2.0)


def test_constant_rail():
    volts, amps = ConstantRail(3.3, 1.5).sample_uniform(0.0, 0.1, 4)
    assert np.allclose(volts, 3.3)
    assert np.allclose(amps, 1.5)


def test_function_rail_broadcasts_scalars():
    rail = FunctionRail(lambda t: (12.0, np.sin(t)))
    volts, amps = rail.sample_uniform(0.0, 0.5, 3)
    assert np.allclose(volts, 12.0)
    assert amps.shape == (3,)


def test_trace_rail_sample_and_hold():
    rail = TraceRail(make_trace())
    volts, amps = rail.sample_uniform(0.5, 1.0, 3)  # t = 0.5, 1.5, 2.5
    assert np.allclose(amps, [1.0, 2.0, 0.5])


def test_trace_rail_clamps_outside():
    rail = TraceRail(make_trace())
    _, amps = rail.sample_uniform(-1.0, 5.0, 2)  # t = -1, 4
    assert amps[0] == 1.0
    assert amps[1] == 0.5


def test_trace_rail_offset_shifts_timeline():
    rail = TraceRail(make_trace(), offset=10.0)
    _, amps = rail.sample_uniform(11.5, 1.0, 1)  # trace time 1.5
    assert amps[0] == 2.0


def test_scaled_rail():
    rail = ScaledRail(ConstantRail(12.0, 2.0), volt_scale=0.5, amp_scale=2.0)
    volts, amps = rail.sample_uniform(0.0, 1.0, 1)
    assert volts[0] == 6.0
    assert amps[0] == 4.0


def test_split_rail_shares_power():
    total = lambda t: np.full_like(t, 100.0)
    rail = SplitRail(total, share=0.3, volts=12.0)
    volts, amps = rail.sample_uniform(0.0, 1.0, 4)
    assert np.allclose(volts * amps, 30.0)


def test_split_rail_droop():
    total = lambda t: np.full_like(t, 120.0)
    rail = SplitRail(total, share=1.0, volts=12.0, droop_ohms=0.01)
    volts, amps = rail.sample_uniform(0.0, 1.0, 1)
    assert volts[0] < 12.0
    assert volts[0] * amps[0] == pytest.approx(120.0)


def test_split_rail_share_bounds():
    with pytest.raises(MeasurementError):
        SplitRail(lambda t: t, share=1.5, volts=12.0)


def test_segment_rail_idle_and_segments():
    rail = SegmentRail(volts=12.0, idle_watts=10.0)
    rail.schedule(1.0, 2.0, 100.0)
    volts, amps = rail.sample_uniform(0.5, 0.5, 4)  # 0.5, 1.0, 1.5, 2.0
    power = volts * amps
    assert np.allclose(power, [10.0, 100.0, 100.0, 10.0])


def test_segment_rail_requires_time_order():
    rail = SegmentRail(12.0, 5.0)
    rail.schedule(1.0, 2.0, 50.0)
    with pytest.raises(MeasurementError):
        rail.schedule(1.5, 3.0, 60.0)
    with pytest.raises(MeasurementError):
        rail.schedule(5.0, 5.0, 60.0)


def test_segment_rail_prune():
    rail = SegmentRail(12.0, 5.0)
    rail.schedule(0.0, 1.0, 50.0)
    rail.schedule(2.0, 3.0, 60.0)
    rail.prune_before(1.5)
    _, amps = rail.sample_uniform(2.5, 1.0, 1)
    assert amps[0] * 12.0 == pytest.approx(60.0)


def test_power_trace_save_load_roundtrip(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.npz"
    trace.save(path)
    restored = PowerTrace.load(path)
    assert np.array_equal(restored.times, trace.times)
    assert np.array_equal(restored.amps, trace.amps)
    assert restored.energy() == pytest.approx(trace.energy())


# Grids on quarter-integer times: exact floats, with repeated points.
hold_grids = st.lists(st.integers(-40, 40), min_size=1, max_size=40).map(
    lambda xs: np.sort(np.array(xs, dtype=float) / 4.0)
)
# Queries reach before the first and past the last grid point.
scattered_times = st.lists(
    st.one_of(
        st.floats(-15.0, 15.0, allow_nan=False),
        st.integers(-60, 60).map(lambda k: k / 4.0),  # exactly on grid times
    ),
    max_size=60,
).map(lambda xs: np.array(xs, dtype=float))
uniform_times = st.tuples(
    st.one_of(
        st.floats(-15.0, 15.0, allow_nan=False),
        st.integers(-60, 60).map(lambda k: k / 4.0),
    ),
    st.sampled_from([0.0, 1e-3, 0.05, 0.25, 0.7]),
    st.integers(0, 80),
).map(lambda t: t[0] + t[1] * np.arange(t[2]))


def _reference_hold(grid, times):
    return np.clip(np.searchsorted(grid, times, "right") - 1, 0, grid.size - 1)


@given(hold_grids, st.one_of(scattered_times, uniform_times))
def test_hold_index_equals_full_searchsorted(grid, times):
    idx = hold_index(grid, times)
    assert idx.shape == times.shape
    np.testing.assert_array_equal(idx, _reference_hold(grid, times))


def test_hold_index_edges():
    grid = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
    assert hold_index(grid, np.zeros(0)).shape == (0,)
    # Before the first point reads index 0; past the last holds the last;
    # a repeated time holds its last copy.
    np.testing.assert_array_equal(
        hold_index(grid, np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 9.0])),
        [0, 0, 0, 3, 3, 4, 4],
    )
    # Block ends that fall exactly on grid times, repeated or not.
    np.testing.assert_array_equal(hold_index(grid, np.array([1.5, 2.0])), [0, 3])
    np.testing.assert_array_equal(hold_index(grid, np.array([2.0, 3.0])), [3, 4])
