"""In-memory spans around the public functions of each so4atom layer.

The traced run replaces module and class attributes with wrappers that
record one span per call: (name, start, end, parent).  Nothing inside the
program changes; a wrapper's own bookkeeping runs outside its span, so it
lands in the caller's self time and shows up as trace overhead.  Per-layer
numbers are computed once the timed section has ended.
"""

import time
from collections import Counter, defaultdict


def covered(intervals, lo=None, hi=None):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    spans is a list of (name, start, end, parent) with parent an index into
    the same list, or -1 for a top-level span.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, _parent) in enumerate(spans):
        out.append(end - start - covered(children.get(idx, ()), start, end))
    return out


class Tracer:
    """Collects spans, call counters and per-call observations."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()     # extra counters: calls of unspanned functions, sizes
        self.keys = defaultdict(list)   # span name -> argument keys, for distinct ratios
        self.peaks = Counter()      # span name -> largest observed result size
        self._stack = []

    def span(self, name, fn, key=None, size=None, count=None):
        """Wrap fn so each call records a span named `name`.

        key(args, kwargs) gives a hashable value identifying the call's input
        (kept until the end, so distinctness is judged by value equality);
        size(result) feeds a peak; count(args, result) adds to a counter
        named after the span.  All three run after the span has closed.
        """
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if key is not None:
                self.keys[name].append(key(args, kwargs))
            if size is not None:
                self.peaks[name] = max(self.peaks[name], size(result))
            if count is not None:
                self.counts[name] += count(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so each call bumps a counter; its time stays with the caller."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self, window_start, window_end):
        """Calls, self time, distinct ratio and peak per span name, plus the
        part of the window covered by no span."""
        per = {}
        for (name, start, end, parent), own in zip(self.spans, self_times(self.spans)):
            entry = per.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        for name, keys in self.keys.items():
            per.setdefault(name, {"calls": 0, "self_s": 0.0})
            per[name]["distinct_ratio"] = distinct_ratio(keys)
        for name, peak in self.peaks.items():
            per.setdefault(name, {"calls": 0, "self_s": 0.0})["peak"] = peak
        top = [(start, end) for name, start, end, parent in self.spans if parent < 0]
        unattributed = (window_end - window_start) - covered(top, window_start, window_end)
        return per, dict(self.counts), unattributed


def distinct_ratio(keys):
    """Distinct inputs over calls; 0.0 when there were no calls."""
    if not keys:
        return 0.0
    return len(set(keys)) / len(keys)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
