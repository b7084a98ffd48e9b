"""Outside-in tracing: timing spans and counters kept in memory.

A span records its name, start, end, parent span and the run it belongs to.
Spans are appended to flat typed arrays (a few dozen bytes each, so a pass
with a million layer calls stays small) and are only turned into per-name
totals, or written to disk, once the run is over.

The benchmark never edits the program: ``Tracer.wrap`` returns a timed copy
of a public function, and ``layers.install`` swaps those copies in.
"""

from __future__ import annotations

import contextlib
import functools
import json
from array import array
from time import perf_counter

import numpy as np


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.  Child
    intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return out
    par = parent[child]
    cs = np.maximum(start[child], start[par])
    ce = np.maximum(np.minimum(end[child], end[par]), cs)
    order = np.lexsort((cs, par))
    par, cs, ce = par[order], cs[order], ce[order]
    # sweep each parent's children in start order; shifting every parent
    # group past the previous one lets a single running maximum do the sweep
    group = np.cumsum(np.r_[True, par[1:] != par[:-1]]) - 1
    shift = group * (float(end.max() - start.min()) + 1.0) - float(start.min())
    cs, ce = cs + shift, ce + shift
    reach = np.r_[-np.inf, np.maximum.accumulate(ce)[:-1]]
    covered = np.maximum(ce - np.maximum(cs, reach), 0.0)
    return out - np.bincount(par, weights=covered, minlength=out.size)


class Tracer:
    """Spans and counters for one run, identified by ``run_id``."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: the workload operation being run, set by the caller
        self.scope = None
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []
        self._name = array("i")
        self._parent = array("i")
        self._outer = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._distinct: dict[str, set] = {}

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def _begin(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        # only the outermost span of a name counts towards its inclusive time
        self._outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(idx)
        self._end.append(0.0)
        self._start.append(perf_counter())
        return idx

    def _finish(self, idx: int):
        self._end[idx] = perf_counter()
        self._stack.pop()
        self._active[self._name[idx]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(self._name_id(name))
        try:
            yield
        finally:
            self._finish(idx)

    def count(self, name: str, k: float = 1):
        self.counters[name] = self.counters.get(name, 0) + k

    def distinct(self, name: str, key):
        self._distinct.setdefault(name, set()).add(key)

    def wrap(self, fn, name: str, after=None):
        """A copy of ``fn`` that records a span per call.

        ``after(tracer, args, kwargs, result)`` may add counters once the
        call has returned.
        """
        nid = self._name_id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "outer": np.frombuffer(self._outer, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds ``s`` and ``self_s``."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=np.where(a["outer"], dur, 0.0), minlength=k)
        own = np.bincount(a["name"], weights=self_times(a["start"], a["end"], a["parent"]),
                          minlength=k)
        spans = {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
                 for i, name in enumerate(self.names)}
        counters = dict(self.counters)
        counters.update({f"{name}.distinct": len(keys) for name, keys in self._distinct.items()})
        return {"run_id": self.run_id, "spans": spans, "counters": counters}

    def dump(self, path: str):
        """Write every span to ``path`` (a compressed .npz)."""
        a = self.arrays()
        np.savez_compressed(path, run_id=np.array(self.run_id),
                            names=np.array(json.dumps(self.names)), **a)


class NullTracer:
    """Stands in for ``Tracer`` when tracing is off: records nothing."""

    enabled = False
    scope = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, k: float = 1):
        pass

    def distinct(self, name: str, key):
        pass
