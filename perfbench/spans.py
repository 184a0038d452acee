"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name (``<layer>.<function>``), the
index of the span that was open when it started (its parent, -1 for
none), and its start and end times.  Spans are kept in flat arrays so
that millions of them stay small, and are written out once the run
ends.  A span's self time is its duration minus the time its child
spans cover; single-threaded calls nest, so children never overlap.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from array import array
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter, *, memory: bool = False):
        self.clock = clock
        self.memory = memory          # measure tracemalloc peaks in `wrap(..., peak=True)`
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("I")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        i = len(self.starts)
        self.name_ids.append(self._id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts[i] = self.clock()
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, *, count_out: str | None = None,
             peak: bool = False):
        """Return ``fn`` recording one span per call.  ``count_out`` adds
        the length of each result to that counter; ``peak`` records the
        tracemalloc peak of each call when the tracer measures memory."""
        self._id(name)
        measure = peak and self.memory

        def traced(*args, **kwargs):
            tracing = measure and not tracemalloc.is_tracing()
            if tracing:
                tracemalloc.start()
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
                if tracing:
                    top = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0), top)
            if count_out is not None:
                self.counts[count_out] += len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """Return ``fn`` counting its calls, without a span."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        return self_times(self.parents, self.starts, self.ends)

    def by_name(self) -> dict[str, dict]:
        """Per span name: number of calls, total and self seconds."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for nid, dur, own in zip(self.name_ids, self.durations(), self.self_times()):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += own
        return out

    def write(self, path) -> None:
        """Write the span table: one JSON header line, then the four
        arrays (name id, parent, start, end) in native binary form."""
        header = {"names": self.names, "count": len(self.starts),
                  "arrays": [["name_id", "I"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def read_spans(path) -> dict:
    """Read a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays[field] = arr
    return {"names": header["names"], **arrays}
