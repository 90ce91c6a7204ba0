"""Span bookkeeping: self time, uncovered time, distinct ratios."""

import pytest

from spans import Patches, Tracer, covered, distinct_ratio, self_times


class FakeClock:
    """Each call returns the next scripted instant."""

    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 10)], 2, 5) == 3
    assert covered([(1, 2), (3, 4)], 5, 9) == 0
    assert covered([]) == 0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("mid", 1.0, 6.0, 0),
        ("leaf", 2.0, 5.0, 1),
        ("mid", 7.0, 8.0, 0),
    ]
    assert self_times(spans) == [10.0 - 5.0 - 1.0, 5.0 - 3.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_nests_recursive_calls():
    # outer start, inner start, inner end, outer end
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0]))

    def fact(n):
        return 1 if n == 0 else n * traced(n - 1)

    traced = tracer.span("fact", fact)
    assert traced(1) == 1
    per, counts, unattributed = tracer.summary(0.0, 5.0)
    assert per["fact"]["calls"] == 2
    assert per["fact"]["self_s"] == pytest.approx(4.0)   # 2 own + 2 inner
    assert [s[3] for s in tracer.spans] == [-1, 0]
    assert unattributed == pytest.approx(1.0)


def test_distinct_ratio_and_counter():
    tracer = Tracer()
    square = tracer.span("sq", lambda x: x * x, key=lambda a, k: a[0],
                         size=lambda r: r, count=lambda a, r: 1)
    bump = tracer.counter("bump", lambda: None)
    for x in (2, 3, 2, 2):
        square(x)
    bump()
    bump()
    per, counts, _ = tracer.summary(0.0, 0.0 + 1e9)
    assert per["sq"]["distinct_ratio"] == 0.5
    assert per["sq"]["peak"] == 9
    assert counts == {"sq": 4, "bump": 2}
    assert distinct_ratio([]) == 0.0


def test_patches_restore_in_reverse_order():
    class Box:
        value = 1

    patches = Patches()
    patches.replace(Box, "value", lambda v: v + 1)
    patches.replace(Box, "value", lambda v: v * 10)
    assert Box.value == 20
    patches.undo()
    assert Box.value == 1
