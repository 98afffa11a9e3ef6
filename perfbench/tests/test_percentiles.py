"""The benchmark's percentile convention: nearest rank, ten samples beyond."""

import pytest

from perfbench import stats


def test_nearest_rank_on_unsorted_values():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_rank_is_not_pushed_up_by_float_rounding():
    # 0.99 * 1000 is 990.0000000000001 in binary floating point.
    assert stats.rank(1000, 99) == 990
    assert stats.rank(100, 90) == 90


def test_ten_samples_must_lie_beyond_a_reported_percentile():
    assert stats.beyond(1000, 99) == 10
    assert stats.supported(1000, 99)
    assert not stats.supported(999, 99)
    assert stats.supported(100, 90) and not stats.supported(99, 90)
    assert stats.supported(20, 50) and not stats.supported(19, 50)


@pytest.mark.parametrize("n, p", [(0, 50), (10, 0), (10, 101)])
def test_rank_rejects_bad_arguments(n, p):
    with pytest.raises(ValueError):
        stats.rank(n, p)
