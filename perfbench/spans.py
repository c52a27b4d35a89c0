"""In-memory span tracer that wraps module-level functions from outside.

The package looks its helpers up as module globals at call time, so
replacing ``module.name`` with a timing wrapper traces every call made
through that namespace without changing a source file. Spans are kept in
flat arrays (name, start, end, parent) and summarised or written out when
the run ends.
"""

import functools
from array import array
from time import perf_counter

import numpy as np


class SpanTracer:
    """Records one span per call of each wrapped function while installed."""

    def __init__(self, targets):
        # targets: (module, attribute, span name); several attributes may
        # share one span name when a module imports a function by name.
        self._targets = list(targets)
        self._saved = []
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _name_id(self, span_name):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._ids[span_name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self):
        """Replace every target with its timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, span_name in self._targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, self._name_id(span_name)))

    def uninstall(self):
        """Put the original functions back."""
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def summary(self, scale=None):
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are strictly nested in one thread, so children never
        overlap each other. ``scale``, one divisor per span, turns each
        span's inclusive and self time into its time at another speed.
        """
        name, parent, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        if scale is not None:
            dur, own = dur / scale, own / scale
        out = {}
        for nid, span_name in enumerate(self.names):
            sel = name == nid
            out[span_name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out

    def durations(self, span_name, scale=None):
        """Durations in seconds of every span with this name, divided by
        ``scale`` (one divisor per span) if given."""
        name, _, dur = self._arrays()
        if scale is not None:
            dur = dur / scale
        return dur[name == self._ids[span_name]] if span_name in self._ids else np.zeros(0)

    def intervals(self):
        """Start and end stamps of every span, in recording order."""
        return np.array(self.start, dtype=float), np.array(self.end, dtype=float)

    def _arrays(self):
        """Copies of the name and parent columns, and the span durations."""
        start, end = self.intervals()
        return np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32), end - start

    def save(self, path):
        """Write all spans to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )
