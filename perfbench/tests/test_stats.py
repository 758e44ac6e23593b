import pytest

import stats


@pytest.mark.parametrize("n, q", [
    (1, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (300, 95.0), (999, 95.0), (1000, 99.0),
    (4000, 99.0), (9999, 99.0), (10000, 99.9), (20000, 99.9),
])
def test_tail_percentile_for_workload_sizes(n, q):
    assert stats.tail_percentile(n) == q


def test_tail_has_ten_samples_beyond_and_no_higher_rung_does():
    for n in range(1, 25000, 7):
        q = stats.tail_percentile(n)
        if q == 50.0:
            assert all(n - stats.rank(p, n) < 10 for p in stats.TAIL_LADDER)
            continue
        assert n - stats.rank(q, n) >= 10
        higher = [p for p in stats.TAIL_LADDER if p > q]
        assert all(n - stats.rank(p, n) < 10 for p in higher)


def test_fewer_than_forty_samples_report_the_median():
    assert all(stats.tail_percentile(n) == 50.0 for n in range(1, 40))


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile(list(range(1, 10001)), 99.9) == 9990

