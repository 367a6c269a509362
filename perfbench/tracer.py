"""Span tracing from outside the program.

The tracer replaces module and class attributes that imcflow calls through
(for example ``imcflow.warp.warp_at_phi`` or ``AxisphereBase.grad``) with
wrappers that record one span per call, and puts the originals back on
``uninstall``.  No imcflow source file is touched: every patched name is
looked up at call time by the code that uses it.

A span is (id, name, start, end, parent id, iteration id).  Spans live in
compact in-memory arrays and are written to disk only by ``write``, once
the run has ended.  Each thread keeps its own stack of open spans, so the
sweep's worker threads nest their spans correctly; ids come from a shared
counter and finished spans are appended under a lock.

Self time of a span is its duration minus the durations of its direct
children.  Because spans nest strictly within a thread, that is exactly
the time the span's own code ran while no other traced call was open.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

SETUP_ITERATION = -1


class Tracer:
    def __init__(self):
        self.iteration = SETUP_ITERATION
        self._names = []
        self._name_ids = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self.missing = set()
        self._span_id = array("q")
        self._span_name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._iter = array("i")
        self._cells = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        """Return fn wrapped so that every call records a span `name`."""
        nid = self._name_id(name)
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            sid = next(self._ids)
            it = self.iteration
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                with self._lock:
                    self._span_id.append(sid)
                    self._span_name.append(nid)
                    self._start.append(t0)
                    self._end.append(t1)
                    self._parent.append(parent)
                    self._iter.append(it)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def counter(self, name):
        """A one-element list whose value adds to counter `name`.

        The cell belongs to the current iteration.  Only one thread may
        increment a given cell, which keeps per-event counting lock-free.
        """
        cell = [0]
        with self._lock:
            self._cells.append((name, self.iteration, cell))
        return cell

    def patch(self, owner, attr, name):
        """Replace owner.attr by a traced wrapper until uninstall()."""
        self.patch_with(owner, attr, lambda original: self.wrap(name, original))

    def patch_with(self, owner, attr, replacement):
        """Replace owner.attr by replacement(owner.attr) until uninstall().

        An attribute the program no longer has is skipped and remembered in
        ``missing``, so a renamed entry point costs its spans, not the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def _columns(self):
        with self._lock:
            return (np.frombuffer(self._span_id, dtype=np.int64).copy(),
                    np.frombuffer(self._span_name, dtype=np.int32).copy(),
                    np.frombuffer(self._start, dtype=np.float64).copy(),
                    np.frombuffer(self._end, dtype=np.float64).copy(),
                    np.frombuffer(self._parent, dtype=np.int64).copy(),
                    np.frombuffer(self._iter, dtype=np.int32).copy())

    def summary(self):
        """{iteration: {span name: {calls, total_s, self_s, calls_under}}}.

        ``calls_under`` maps a parent span name (None at the top of a
        thread) to the number of calls of this span made directly inside it.
        """
        sid, name, start, end, parent, it = self._columns()
        dur = end - start
        order = np.argsort(sid)
        has_parent = parent >= 0
        prow = np.full(len(sid), -1, dtype=np.int64)
        prow[has_parent] = order[np.searchsorted(sid[order], parent[has_parent])]
        child = np.zeros(len(sid))
        np.add.at(child, prow[has_parent], dur[has_parent])
        self_time = dur - child
        pname = np.where(has_parent, name[np.maximum(prow, 0)], -1)

        keys = np.stack([it.astype(np.int64), name, pname], axis=1)
        uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        inv = inv.ravel()
        calls = np.bincount(inv, minlength=len(uniq))
        total = np.bincount(inv, weights=dur, minlength=len(uniq))
        selfs = np.bincount(inv, weights=self_time, minlength=len(uniq))
        out = {}
        for (i, n, p), c, tot, slf in zip(uniq.tolist(), calls.tolist(),
                                          total.tolist(), selfs.tolist()):
            rec = out.setdefault(i, {}).setdefault(
                self._names[n], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "calls_under": {}})
            rec["calls"] += c
            rec["total_s"] += tot
            rec["self_s"] += slf
            rec["calls_under"][self._names[p] if p >= 0 else None] = c
        return out

    def counts(self):
        """{(counter name, iteration): total}."""
        out = defaultdict(int)
        with self._lock:
            for name, it, cell in self._cells:
                out[(name, it)] += cell[0]
        return dict(out)

    def n_spans(self):
        with self._lock:
            return len(self._span_id)

    def write(self, path):
        """Write every span as CSV: id, name, start, end, parent, iteration."""
        sid, name, start, end, parent, it = self._columns()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,iteration\n")
            names = self._names
            for row in zip(sid.tolist(), name.tolist(), start.tolist(),
                           end.tolist(), parent.tolist(), it.tolist()):
                fh.write(f"{row[0]},{names[row[1]]},{row[2]!r},{row[3]!r},"
                         f"{row[4]},{row[5]}\n")
