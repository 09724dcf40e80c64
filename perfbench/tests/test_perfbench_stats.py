import statistics

import pytest

from perfbench import stats


@pytest.mark.parametrize("n,p,rank", [
    (11, 9, 1), (12, 16, 2), (20, 50, 10), (60, 83, 50), (100, 90, 90),
    (101, 90, 91), (1000, 99, 990), (1665, 99, 1649)])
def test_tail_percentile_known_values(n, p, rank):
    assert stats.tail_percentile(n) == (p, rank)


@pytest.mark.parametrize("n", range(11, 400))
def test_tail_percentile_is_highest_with_ten_beyond(n):
    p, rank = stats.tail_percentile(n)
    assert rank == -(-p * n // 100)
    assert n - rank >= 10
    next_rank = -(-(p + 1) * n // 100)
    assert n - next_rank < 10


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_tail_percentile_rejects_small_n(n):
    with pytest.raises(ValueError):
        stats.tail_percentile(n)


def test_op_summary_ranks():
    times = [float(t) for t in range(100, 0, -1)]
    s = stats.op_summary(times)
    assert s["op_tail_s"] == 90.0
    assert s["tail_percentile"] == 90
    assert s["samples_beyond_tail"] == 10
    assert s["op_p50_s"] == 50.5
    assert s["ops_per_s"] == 100 / sum(times)


def test_op_summary_small_n_still_leaves_ten_beyond():
    s = stats.op_summary([1.0] * 5 + [2.0] * 6)
    assert s["tail_percentile"] == 9
    assert s["op_tail_s"] == 1.0
    assert s["samples_beyond_tail"] == 10


def test_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.3]
    q1, med, q3 = statistics.quantiles(values, n=4)
    s = stats.spread(values)
    assert (s["q1"], s["median"], s["q3"]) == (q1, med, q3)
    assert s["spread"] == pytest.approx((q3 - q1) / med)


def span(name, start, end, parent, op=0):
    return (name, start, end, parent, op)


def test_self_time_nested_children():
    spans = [span("op", 0, 10, -1), span("a", 1, 9, 0),
             span("b", 2, 5, 1), span("c", 3, 4, 2)]
    assert stats.self_times(spans) == [2, 5, 2, 1]


def test_self_time_sibling_children():
    spans = [span("op", 0, 10, -1), span("a", 1, 3, 0),
             span("b", 4, 7, 0), span("c", 8, 9, 0)]
    assert stats.self_times(spans) == [4, 2, 3, 1]


def test_self_time_overlapping_and_clipped_children():
    spans = [span("p", 0, 10, -1), span("a", 1, 5, 0),
             span("b", 3, 7, 0), span("c", 9, 12, 0)]
    assert stats.self_times(spans)[0] == 10 - 6 - 1


def test_covered_union():
    assert stats.covered(0, 10, []) == 0
    assert stats.covered(0, 10, [(2, 4), (3, 6), (8, 20)]) == 6
