import pytest

from stats import beyond, percentile, rank, reportable


@pytest.mark.parametrize(
    "p, n, ok",
    [
        (99, 1000, True),  # rank 990: exactly ten beyond
        (99, 999, False),
        (95, 200, True),
        (95, 199, False),
        (90, 100, True),
        (90, 99, False),
        (75, 40, True),
        (75, 39, False),
        (50, 20, True),
        (50, 19, False),
        (50, 0, False),
    ],
)
def test_a_percentile_needs_ten_samples_beyond_it(p, n, ok):
    assert reportable(p, n) is ok


def test_samples_beyond_a_percentile():
    assert beyond(90, 190) == 19
    assert beyond(75, 190) == 47
    assert beyond(99, 0) == 0


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert rank(50, 100) == 50
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 99) == 99
