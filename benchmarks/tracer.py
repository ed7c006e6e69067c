"""In-memory spans and counters for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: ``patch`` swaps a
module's public function for a wrapper that opens a span around each call
and restores the original on ``unpatch``.  Calls the library makes through
its module globals (``precision.compare`` calling ``eval_limsup``) pass
through the wrappers too, so nested spans get their parent.  Spans stay in
memory until ``write`` dumps them at the end of the run.
"""

import collections
import contextlib
import json
import time


class Tracer:
    def __init__(self):
        # one entry per span: [name, start_ns, end_ns, parent index or -1]
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(span_index, args, result)`` runs
        once the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def count_calls(self, owner, attr, counter):
        """Count calls of ``owner.attr`` without a span (for per-event calls)."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return original(*args)

        setattr(owner, attr, counted)

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        idx = len(spans)
        spans.append([name, clock(), 0, stack[-1] if stack else -1])
        stack.append(idx)
        try:
            yield idx
        finally:
            stack.pop()
            spans[idx][2] = clock()

    def duration_s(self, idx):
        name, start, end, parent = self.spans[idx]
        return (end - start) / 1e9

    def totals(self):
        """Per span name: (calls, total seconds, self seconds), where self
        time is a span's duration minus the durations of its direct children."""
        child_ns = collections.Counter()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, total + dur / 1e9, own + (dur - child_ns[idx]) / 1e9)
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
