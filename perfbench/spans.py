"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around each call it makes
into a pathae layer, or around a layer function it interposes for the length
of a ``with interposed(...)`` block.  Spans stay in memory and are written out
once, when the run ends.  The untraced run uses ``NullTracer``, which records
nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Spans: name, start, end and the span that caused it.

    ``op`` tags every span with the operation it belongs to, so the spans of
    one operation share an identifier (-1 for set-up).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median_ms(self, *names: str) -> float:
        """Sum over ``names`` of the median span duration, in ms; a name with
        no spans contributes 0 (the layer was not exercised)."""
        total = 0.0
        for name in names:
            d = self.durations(name)
            if d:
                total += statistics.median(d) * 1e3
        return total

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it covered by direct children."""
        kids = sorted(
            (s["start"], s["end"]) for s in self.spans if s["parent"] == span["id"]
        )
        covered = 0.0
        cur_start = cur_end = None
        for start, end in kids:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return span["end"] - span["start"] - covered

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class NullTracer:
    """Stand-in used by the untraced run: calls go straight through."""

    op = -1

    @contextmanager
    def span(self, name: str):
        yield None

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@contextmanager
def interposed(tracer: Tracer, module, labels: dict):
    """Replace ``module.<name>`` for each key of ``labels`` with a wrapper
    that records a span around the call; restore the originals on exit.

    A label is a span name, or a function of the call's positional
    arguments that returns one.  This reaches calls a layer makes through
    module attributes (``cli`` calling ``dataio.load_expression_tsv``, say)
    without changing pathae.
    """
    originals = {name: getattr(module, name) for name in labels}

    def wrap(label, fn):
        def traced(*args, **kwargs):
            name = label(args) if callable(label) else label
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    try:
        for name, fn in originals.items():
            setattr(module, name, wrap(labels[name], fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)
