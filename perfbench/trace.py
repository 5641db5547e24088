"""Outside-in span tracing of seqmine's query path.

Spans are recorded by temporarily replacing public callables of the
program with timing wrappers; nothing under ``src/`` is edited.  Each span
has an id (1-based), the id of the span open when it started (its parent,
0 for none), the query it belongs to, a layer name and start/end times in
nanoseconds.  Spans are kept in flat arrays while the benchmark runs and
written out once at the end.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterator

__all__ = ["Tracer", "LayerTotals"]


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every callable to wrap."""
    from seqmine import constraints, database, kernel, mining, propagators

    out = [
        (database, "parse_plain", "database.parse"),
        (database, "build_database", "database.build"),
        # mine() looks both up in its own module at call time
        (mining, "compile_regex", "regex.compile"),
        (mining, "build_model", "mining.build_model"),
        (kernel.SearchEngine, "solve_all", "kernel.search"),
        (constraints.RegularConstraint, "propagate", "constraints.regex"),
        (constraints.PatternLength, "propagate", "constraints.length"),
        (constraints.CardinalityConstraint, "propagate", "constraints.cardinality"),
    ]
    # whichever classes define propagate() for the projection strategies
    owners: list[type] = []
    for cls in propagators.PROPAGATORS.values():
        owner = next(c for c in cls.__mro__ if "propagate" in c.__dict__)
        if owner not in owners:
            owners.append(owner)
    out += [(owner, "propagate", "propagators.frequency") for owner in owners]
    return out


class Tracer:
    """Span recorder; `installed()` patches the program for its duration."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.query = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = [0]
        #: id stamped on every span opened from now on (-1: outside queries)
        self.query_id = -1
        #: counters recorded at the same boundaries, keyed by name
        self.counts: dict[str, int] = defaultdict(int)

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, nid: int) -> int:
        sid = len(self.start) + 1
        self.parent.append(self._stack[-1])
        self.query.append(self.query_id)
        self.name.append(nid)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid - 1] = time.perf_counter_ns()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` with a span named `name` around every call."""
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the body of a `with` statement."""
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Replace every target with its traced wrapper, then restore."""
        saved = []
        try:
            for owner, attr, name in _targets():
                original = owner.__dict__[attr]
                traced = self.wrap(name, original)
                if name == "regex.compile":
                    traced = self._count_states(traced)
                saved.append((owner, attr, original))
                setattr(owner, attr, traced)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _count_states(self, compile_fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            dfa = compile_fn(*args, **kwargs)
            counts["regex.dfa_states"] += dfa.state_count
            return dfa

        return counted

    def totals(self, queries: set[int] | None = None) -> "LayerTotals":
        """Duration, self time and calls per span name.

        Self time is a span's duration minus the durations of its direct
        children.  `queries` restricts the sums to spans of those queries.
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child_time = [0] * (n + 1)
        for i in range(n):
            if parent[i]:
                child_time[parent[i]] += end[i] - start[i]
        totals = LayerTotals()
        for i in range(n):
            if queries is not None and self.query[i] not in queries:
                continue
            name = self.names[self.name[i]]
            dur = end[i] - start[i]
            totals.duration[name] += dur
            totals.self_time[name] += dur - child_time[i + 1]
            totals.calls[name] += 1
        return totals

    def durations(self, name: str) -> list[float]:
        """Seconds taken by each span named `name`."""
        nid = self._name_ids.get(name)
        return [
            (self.end[i] - self.start[i]) / 1e9
            for i in range(len(self.start))
            if self.name[i] == nid
        ]

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated lines with a header."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\tquery\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i + 1}\t{self.parent[i]}\t{self.query[i]}\t"
                    f"{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )


class LayerTotals:
    """Nanosecond sums per span name; missing names read as 0."""

    def __init__(self) -> None:
        self.duration: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)

    def seconds(self, name: str) -> float:
        return self.duration.get(name, 0) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_time.get(name, 0) / 1e9
