import statistics

import pytest

from stats import Timing, median, percentile


@pytest.mark.parametrize("values", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0],
                                    [float(v) for v in range(1, 12)]])
def test_percentiles_match_the_inclusive_quantile_method(values):
    if len(values) > 1:
        deciles = statistics.quantiles(values, n=10, method="inclusive")
        assert percentile(values, 90) == pytest.approx(deciles[8])
        assert percentile(values, 10) == pytest.approx(deciles[0])
    assert median(values) == pytest.approx(statistics.median(values))
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)


def test_percentile_rejects_empty_samples_and_bad_ranks():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_timing_reports_sample_count_and_tail_size():
    values = [float(v) for v in range(1, 101)]  # 1..100
    t = Timing.of(values)
    assert t.n == 100
    assert t.p50 == pytest.approx(50.5)
    assert t.p90 == pytest.approx(90.1)
    assert t.beyond_p90 == 10
    single = Timing.of([7.0])
    assert (single.p50, single.p90, single.n, single.beyond_p90) == (7.0, 7.0, 1, 0)
