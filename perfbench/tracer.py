"""Span recording around reductionlab's public entry points.

`Tracer.installed()` swaps span-recording wrappers in for

* every public function of `reduction`;
* `ensemble.run_*_ensemble`;
* `noise.trajectory_generator`, in every reductionlab module that holds it,
  and the `standard_normal` draws of the generators it returns;
* `composite.hartree_vs_full`;

and restores the originals on exit.  Nothing in the package is edited.
Spans stay in memory as tuples (id, parent, name, thread, start, end,
samples).  A span's parent is the innermost open span on its own thread,
or, on a worker thread with nothing open, the innermost open span on the
thread that installed the tracer: that is the ensemble call whose thread
pool runs the worker.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

import reductionlab
from reductionlab import composite, ensemble, noise, reduction

# span tuple fields
ID, PARENT, NAME, TID, T0, T1, SAMPLES = range(7)


def _package_modules():
    return [m for m in vars(reductionlab).values() if inspect.ismodule(m)]


def _entry_points():
    """(module, attribute) pairs that get a plain call span."""
    pts = [(reduction, n) for n in reduction.__all__
           if inspect.isfunction(getattr(reduction, n))]
    pts += [(ensemble, n) for n in ensemble.__all__
            if n.startswith("run_") and n.endswith("_ensemble")]
    pts.append((composite, "hartree_vs_full"))
    return pts


class _TracedGenerator:
    """Proxy for a numpy Generator that records each standard_normal draw."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._gen.standard_normal(*args, **kwargs)
        t1 = time.perf_counter()
        self._tracer._leaf("noise.draw", t0, t1, out.size)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._home = threading.get_ident()

    def _parent(self):
        stack = self._stacks[threading.get_ident()] or self._stacks[self._home]
        return stack[-1] if stack else 0

    def _leaf(self, name, t0, t1, samples=0):
        self.spans.append((next(self._ids), self._parent(), name,
                           threading.get_ident(), t0, t1, samples))

    def _wrap(self, name, fn, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._parent()
            tid = threading.get_ident()
            stack = self._stacks[tid]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, tid, t0, t1, 0))
            return out if post is None else post(out)
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def swap(mod, attr, new):
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)

        try:
            for mod, attr in _entry_points():
                short = mod.__name__.rsplit(".", 1)[-1]
                swap(mod, attr, self._wrap(f"{short}.{attr}", getattr(mod, attr)))
            original = noise.trajectory_generator
            gen = self._wrap("noise.trajectory_generator", original,
                             post=lambda g: _TracedGenerator(g, self))
            for mod in _package_modules():
                if getattr(mod, "trajectory_generator", None) is original:
                    swap(mod, "trajectory_generator", gen)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path, meta):
        """Write the spans, with run metadata, as gzip-compressed JSON."""
        fields = ["id", "parent", "name", "thread", "start", "end", "samples"]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({**meta, "fields": fields, "spans": self.spans}, fh)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[T0], s[T1]))
    return {s[ID]: (s[T1] - s[T0]) - _covered(children[s[ID]], s[T0], s[T1])
            for s in spans}


@contextlib.contextmanager
def captured_runs():
    """Keep every EnsembleRun the ensemble layer returns, without timing."""
    runs = []
    saved = []
    try:
        for mod, attr in _entry_points():
            if mod is ensemble:
                fn = getattr(mod, attr)
                saved.append((attr, fn))

                def keep(*args, _fn=fn, **kwargs):
                    out = _fn(*args, **kwargs)
                    runs.append(out)
                    return out
                setattr(mod, attr, keep)
        yield runs
    finally:
        for attr, fn in saved:
            setattr(ensemble, attr, fn)
