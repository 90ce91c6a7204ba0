"""The tail is the highest percentile with ten samples beyond it."""

import pytest

import run


def test_samples_needed_per_workload_percentile():
    assert run.samples_needed(90.0) == 100
    assert run.samples_needed(98.0) == 500
    assert run.samples_needed(99.0) == 1000


@pytest.mark.parametrize("pct", [90.0, 98.0, 99.0])
def test_tail_leaves_ten_samples_beyond(pct):
    count = run.samples_needed(pct)
    samples = list(range(count))
    value = run.tail(samples, pct)
    assert sum(1 for s in samples if s > value) >= run.TAIL_BEYOND
    with pytest.raises(run.BenchError):
        run.tail(samples[:-1], pct)


def test_p50_takes_each_verdicts_median_first():
    # three verdicts over three passes; one pass is slow throughout
    passes = [[1.0, 2.0, 30.0], [1.2, 2.2, 31.0], [5.0, 9.0, 90.0]]
    assert run.verdict_p50(passes) == 2.2


def test_tail_is_order_free():
    samples = [float(x) for x in range(100)]
    assert run.tail(list(reversed(samples)), 90.0) == 89.0

