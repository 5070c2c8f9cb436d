"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits the program. It replaces module attributes and class
methods with thin wrappers that record one span per call, and puts every
original back when the ``installed`` block ends, also when the block raises.
A function is replaced at every name that is bound to it, so a call that goes
through an alias made by ``from module import name`` is timed as well.

Spans are (name, start, end, parent) tuples kept in memory; ``write`` puts
them in a gzip-compressed CSV file at the end of the run. A span's self time is its duration
minus the durations of its direct children. The run is single-threaded, so
children nest inside their parent and self times never go negative.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class FunctionStats:
    """Aggregate of the spans of one name under one root scope."""

    calls: int
    self_seconds: float
    self_p50_seconds: float


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts: dict[int, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; used for the benchmark's root scopes."""
        nid = self._name_id(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (nid, start, end, parent)

    def wrap(self, fn, name: str, count=None):
        """Return a function that calls ``fn`` inside a span called ``name``.

        ``count``, when given, is called with the same arguments and its
        value is stored for the span in ``counts``.
        """
        nid = self._name_id(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            if count is not None:
                try:
                    counts[idx] = count(*args, **kwargs)
                except Exception:  # a count that cannot be taken changes no call
                    pass
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        return traced

    def _install(self, owner, attr: str, name: str, namespaces, count) -> None:
        original = vars(owner)[attr]
        wrapper = self.wrap(original, name, count)
        seen = set()
        for ns in (owner, *namespaces):
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, value))
                    setattr(ns, key, wrapper)

    def restore(self) -> None:
        """Put back every original the tracer replaced, newest first."""
        while self._patches:
            ns, key, value = self._patches.pop()
            setattr(ns, key, value)

    @contextmanager
    def installed(self, targets, namespaces=(), counters=None):
        """Wrap each ``(owner, attribute, span name)`` for the block's duration.

        ``owner`` is a module or a class. Every binding of the same object in
        ``owner`` or in ``namespaces`` is replaced, and all are restored on
        exit. ``counters`` maps a span name to its ``count`` function.
        """
        counters = counters or {}
        try:
            for owner, attr, name in targets:
                self._install(owner, attr, name, namespaces, counters.get(name))
            yield self
        finally:
            self.restore()

    def closed_spans(self) -> list[tuple[int, float, float, int]]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return self.spans  # type: ignore[return-value]

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        spans = self.closed_spans()
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _) in enumerate(spans)]

    def roots(self) -> list[int]:
        """Index of the outermost span above each span (itself for a root)."""
        root: list[int] = []
        for i, (_, _, _, parent) in enumerate(self.closed_spans()):
            root.append(i if parent < 0 else root[parent])
        return root

    def summarize(self) -> dict[str, tuple[float, int, dict[str, FunctionStats]]]:
        """Per root name: (total root seconds, root count, stats per span name).

        The stats of a root name include the root spans themselves, so the
        self times under one root name add up to its total seconds.
        """
        spans = self.closed_spans()
        selfs = self.self_times()
        root = self.roots()
        per_root: dict[str, list] = {}
        samples: dict[tuple[str, str], list[float]] = {}
        for i, (nid, start, end, parent) in enumerate(spans):
            scope = self.names[spans[root[i]][0]]
            entry = per_root.setdefault(scope, [0.0, 0])
            if parent < 0:
                entry[0] += end - start
                entry[1] += 1
            samples.setdefault((scope, self.names[nid]), []).append(selfs[i])
        out: dict[str, tuple[float, int, dict[str, FunctionStats]]] = {
            scope: (total, count, {}) for scope, (total, count) in per_root.items()}
        for (scope, name), values in samples.items():
            out[scope][2][name] = FunctionStats(len(values), sum(values),
                                                statistics.median(values))
        return out

    def count_total(self, scope: str, name: str) -> float:
        """Sum of the stored counts of spans called ``name`` under ``scope``."""
        spans, root = self.closed_spans(), self.roots()
        return sum(value for i, value in self.counts.items()
                   if self.names[spans[i][0]] == name
                   and self.names[spans[root[i]][0]] == scope)

    def calls_within(self, scope: str, outer: str, inner: str):
        """(spans called ``outer``, spans called ``inner`` with an ``outer``
        ancestor, sum of those inner spans' counts), all under ``scope``."""
        spans, root = self.closed_spans(), self.roots()
        outer_count = inner_count = 0
        inner_total = 0.0
        for i, (nid, _, _, parent) in enumerate(spans):
            if self.names[spans[root[i]][0]] != scope:
                continue
            name = self.names[nid]
            if name == outer:
                outer_count += 1
            elif name == inner:
                p = parent
                while p >= 0 and self.names[spans[p][0]] != outer:
                    p = spans[p][3]
                if p >= 0:
                    inner_count += 1
                    inner_total += self.counts.get(i, 0.0)
        return outer_count, inner_count, inner_total

    def write(self, path) -> None:
        """Write every span as gzip-compressed ``index,name,start,end,parent``
        CSV rows."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (nid, start, end, parent) in enumerate(self.closed_spans()):
                fh.write(f"{i},{self.names[nid]},{start!r},{end!r},{parent}\n")
