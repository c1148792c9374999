"""Span tracing around the package's layer boundaries, from outside it.

The package has no tracing of its own, so the benchmark wraps each boundary
function wherever it is bound: a function imported by name into another
module (``from .iso import search_iso`` in ``classify``) is a separate
binding, and each one is replaced.  Spans are kept in memory as
``[name, start, end, parent]`` and written out when the run ends.

Scalar arithmetic is counted in a separate pass (``Counting``), because a
wrapper around every ``Scalar.__mul__`` would inflate the span times of the
layers above it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

# Layer boundaries, named <module>.<function> or <module>.<Class>.<method>.
BOUNDARIES = (
    "cli.main",
    "classify.classify_doubles",
    "classify.find_certificate",
    "iso.search_iso",
    "iso.verify_certificate",
    "algebra.commutant_series",
    "triples.check_compatibility",
    "triples.build_double",
    "forms.check_ad_invariance",
    "iso.solve_r",
    "catalog.catalog_triple",
    "catalog.appendix_certificate",
    "parsing.parse_catalog",
    "algebra.SuperAlgebra.transport_dual",
    "classify.reduce_orbits",
    "classify.enumerate_duals",
)

# Counted, not timed: name -> the attributes whose calls add to it.
COUNTED = {
    "scalars.Scalar.mul": ("scalars.Scalar.__mul__", "scalars.Scalar.__rmul__"),
    "scalars.Scalar.add": ("scalars.Scalar.__add__", "scalars.Scalar.__radd__"),
    "scalars.Scalar.inv": ("scalars.Scalar.inv",),
    "matrices.f_matmul": ("matrices.f_matmul",),
}

PACKAGE = "supertriples"


def _tally(counters, name, result):
    """Outcome counters read from a boundary's return value."""
    if name == "iso.search_iso":
        tried = getattr(result, "tried", None)
        if tried is None:
            counters["iso.search_iso.hits"] += 1
        else:
            counters["iso.search_iso.candidates"] += tried
    elif name == "classify.find_certificate":
        if result is not None:
            counters["classify.find_certificate.found"] += 1
    elif name == "iso.verify_certificate":
        if not result[0]:
            counters["iso.verify_certificate.failed"] += 1
    elif name == "classify.reduce_orbits":
        counters["classify.reduce_orbits.orbits"] += len(result)
    elif name == "classify.enumerate_duals":
        counters["classify.enumerate_duals.solutions"] += len(result)


def _resolve(path):
    """(owner, attribute, original) for 'module.func' or 'module.Class.meth'."""
    parts = path.split(".")
    owner = importlib.import_module("%s.%s" % (PACKAGE, parts[0]))
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Patches:
    """Replaces functions at every binding and restores them on exit."""

    def __init__(self):
        self._undo = []

    def replace(self, path, make_wrapper):
        owner, attr, original = _resolve(path)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(mod, name)
                       for mod_name, mod in sorted(sys.modules.items())
                       if mod is not None and (mod_name == PACKAGE
                                               or mod_name.startswith(PACKAGE + "."))
                       for name, value in sorted(vars(mod).items())
                       if value is original]
        for obj, name in targets:
            self._undo.append((obj, name, getattr(obj, name)))
            setattr(obj, name, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)
        return False


class Tracer(Patches):
    """Records one span per call of each boundary while active."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []

    def __enter__(self):
        for name in BOUNDARIES:
            self.replace(name, lambda fn, name=name: self._wrap(name, fn))
        return self

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            _tally(counters, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class Counting(Patches):
    """Counts calls of the COUNTED functions while active."""

    def __init__(self):
        super().__init__()
        self._counters = {name: itertools.count() for name in COUNTED}

    def __enter__(self):
        for name, paths in COUNTED.items():
            for path in paths:
                self.replace(path, lambda fn, c=self._counters[name]:
                             self._wrap(fn, c))
        return self

    @staticmethod
    def _wrap(fn, counter):
        tick = counter.__next__

        def counted(*args):
            tick()
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def counts(self):
        # next() on an itertools.count returns how many times it was called
        return {name: next(c) for name, c in self._counters.items()}


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_times(spans):
    """{name: (calls, self_s, total_s)} from a span list.

    Self time is a span's duration minus the part of it its child spans
    cover.  Total time counts a span only when no ancestor has the same
    name, so recursion is not counted twice.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent) in enumerate(spans):
        kids = [(spans[k][1], spans[k][2]) for k in children[i]]
        row = out[name]
        row[0] += 1
        row[1] += (end - start) - _covered(kids, start, end)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row[2] += end - start
    return {name: tuple(row) for name, row in out.items()}


def layer_metric_names():
    """Every per-layer metric name, in report order."""
    names = []
    for b in BOUNDARIES:
        names += ["%s.calls" % b, "%s.self_s" % b, "%s.total_s" % b]
    names += ["iso.search_iso.candidates", "iso.search_iso.hits",
              "iso.search_iso.candidates_per_s",
              "classify.find_certificate.found_ratio",
              "iso.verify_certificate.failed",
              "classify.reduce_orbits.orbits",
              "classify.enumerate_duals.solutions"]
    names += ["%s.calls" % c for c in COUNTED]
    names += ["trace.spans", "trace.traced_wall_s", "trace.untraced_wall_s",
              "trace.overhead_s"]
    return names


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(tracer, counts, traced_wall, untraced_wall):
    """Per-layer metrics from a traced pass and a counting pass."""
    times = layer_times(tracer.spans)
    c = tracer.counters
    values = {}
    for b in BOUNDARIES:
        calls, self_s, total_s = times.get(b, (0, 0.0, 0.0))
        values["%s.calls" % b] = calls
        values["%s.self_s" % b] = self_s
        values["%s.total_s" % b] = total_s
    search_self = values["iso.search_iso.self_s"]
    values["iso.search_iso.candidates"] = c["iso.search_iso.candidates"]
    values["iso.search_iso.hits"] = c["iso.search_iso.hits"]
    values["iso.search_iso.candidates_per_s"] = (
        c["iso.search_iso.candidates"] / search_self if search_self else 0.0)
    finds = values["classify.find_certificate.calls"]
    values["classify.find_certificate.found_ratio"] = (
        c["classify.find_certificate.found"] / finds if finds else 0.0)
    values["iso.verify_certificate.failed"] = c["iso.verify_certificate.failed"]
    values["classify.reduce_orbits.orbits"] = c["classify.reduce_orbits.orbits"]
    values["classify.enumerate_duals.solutions"] = \
        c["classify.enumerate_duals.solutions"]
    for name, n in counts.items():
        values["%s.calls" % name] = n
    values["trace.spans"] = len(tracer.spans)
    values["trace.traced_wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: {"value": values[name], "unit": unit_of(name)}
            for name in layer_metric_names()}
