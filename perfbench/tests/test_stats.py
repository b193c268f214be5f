"""The median / tail-percentile reporting rule."""

import pytest

from perfbench import stats


def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail(list(range(19))) is None
    assert stats.tail(list(range(20)))[0] == 50.0
    assert stats.tail(list(range(100)))[0] == 90.0
    assert stats.tail(list(range(1000)))[0] == 99.0
    assert stats.tail(list(range(10000)))[0] == 99.9


def test_tail_counts_samples_strictly_beyond():
    # Ties at the percentile value are not beyond it.
    assert stats.tail([1.0] * 15 + [2.0] * 9) is None
    level, value = stats.tail([1.0] * 10 + [2.0] * 10)
    assert (level, value) == (50.0, 1.5)


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5], 99) == 5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_describe_reports_sample_count():
    assert stats.describe([3.0, 1.0, 2.0]) == "median 2 (n=3)"
    assert "p50" in stats.describe([float(i) for i in range(20)])
