"""Backtracking kernel: a trail for reversible state, domains, DFS.

State restoration uses an undo log (the trail).  Reversible objects record
their previous value on first write per search level, and restoring a level
rewinds exactly the locations written since the matching push.  The trail
serves the propagators' own state; domains are not trailed.  A propagator
prunes only the next variable, so the search engine recomputes instead:
before each node's propagation pass it resets that variable to its
template, and it branches over a snapshot of the domain.  A domain is a
dict the filters replace, never edit, so a reset is one assignment and
copies of a variable share its template.

The search is a loop over an explicit stack, so its depth is not bounded
by Python's recursion limit.  It runs each propagator once per node that
binds a symbol; the `Propagator` contract is what makes one pass enough.
The value 0 is the pattern terminator and belongs to the engine alone: a
0 branch is a leaf that emits the bound prefix and runs no propagator.
Propagators signal failure through their return value, never by raising;
an empty domain is reported as a failed removal or restriction, not
silently produced.  Everything here is single-threaded.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

__all__ = [
    "Trail",
    "TrailUnderflow",
    "ReversibleInt",
    "FDVariable",
    "Propagator",
    "SearchEngine",
]


class TrailUnderflow(Exception):
    """restore_level() was called with no open level."""


class Trail:
    """Undo log with level marks.

    Writes below an open level append (location, previous value) entries;
    ``restore_level`` pops the entries above the matching mark in reverse
    order.  A location is saved at most once per level: each slot carries a
    stamp compared against a counter that changes on every push and restore.
    Writes made while no level is open are permanent.
    """

    def __init__(self) -> None:
        self._entries: list = []
        self._marks: list[int] = []
        self._magic = 1

    @property
    def depth(self) -> int:
        """Number of currently open levels."""
        return len(self._marks)

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def level_mark(self, level: int) -> int:
        """Entry count recorded when `level` was pushed."""
        return self._marks[level]

    def push_level(self) -> int:
        """Open a new level and return its id (0 for the first push)."""
        self._marks.append(len(self._entries))
        self._magic += 1
        return len(self._marks) - 1

    def restore_level(self) -> None:
        """Undo every write made since the most recent push, newest first."""
        if not self._marks:
            raise TrailUnderflow("no open level to restore")
        mark = self._marks.pop()
        entries = self._entries
        for i in range(len(entries) - 1, mark - 1, -1):
            slot, value = entries[i]
            slot._value = value
        del entries[mark:]
        self._magic += 1

    def save(self, slot) -> None:
        """Record `slot`'s current value unless already saved at this level."""
        if self._marks and slot._stamp != self._magic:
            slot._stamp = self._magic
            self._entries.append((slot, slot._value))


class ReversibleInt:
    """Integer restored to its previous value on backtrack."""

    __slots__ = ("_trail", "_value", "_stamp")

    def __init__(self, trail: Trail, value: int = 0) -> None:
        self._trail = trail
        self._value = value
        self._stamp = 0

    @property
    def value(self) -> int:
        return self._value

    def set(self, value: int) -> None:
        if value != self._value:
            self._trail.save(self)
            self._value = value

    def __repr__(self) -> str:
        return f"ReversibleInt({self._value})"


class FDVariable:
    """Finite-domain variable over small non-negative integers.

    The domain is the keys of a dict used as an ordered set.  A variable
    holds two such dicts: its template, the full domain it was made with,
    which its copies share, and the live domain.  No filter changes a dict
    in place: `restrict`, `remove` and `assign` replace the live one, and
    `reset` points it back at the template in O(1).  Nothing is trailed:
    the search engine resets a variable before each propagation pass that
    may prune it (see `SearchEngine`), so a copy costs two references, not
    a copy of its domain.  The domain never becomes empty: a filter
    that would wipe it out leaves the domain untouched and returns False.
    """

    __slots__ = ("_template", "_live")

    def __init__(self, values: Iterable[int]) -> None:
        vals = sorted(set(values))
        if not vals or vals[0] < 0:
            raise ValueError("domain must be a non-empty set of ints >= 0")
        self._template = self._live = dict.fromkeys(vals)

    def copy(self) -> FDVariable:
        """A new variable sharing this one's template and current domain."""
        twin = FDVariable.__new__(FDVariable)
        twin._template, twin._live = self._template, self._live
        return twin

    def reset(self) -> None:
        """Make the domain the template again."""
        self._live = self._template

    @property
    def size(self) -> int:
        return len(self._live)

    def is_bound(self) -> bool:
        return len(self._live) == 1

    def value(self) -> int:
        """The assigned value; ValueError unless bound."""
        [a] = self._live
        return a

    def contains(self, a: int) -> bool:
        return a in self._live

    def remove(self, a: int) -> bool:
        """Drop `a` from the domain; False when that would empty it."""
        live = self._live
        if a not in live:
            return True
        if len(live) == 1:
            return False
        self._live = dict(live)
        del self._live[a]
        return True

    def restrict(self, keep: Iterable[int]) -> bool:
        """Reduce the domain to its intersection with `keep`, in O(|keep|).

        Duplicates and values outside the domain are ignored.  False, with
        the domain untouched, when the intersection is empty.
        """
        live = self._live
        kept = {a: None for a in keep if a in live}
        if not kept:
            return False
        if len(kept) < len(live):
            self._live = kept
        return True

    def assign(self, a: int) -> None:
        """Reduce the domain to {a}.

        `a` is not checked: the engine binds only values it took from the
        domain when it branched.
        """
        self._live = {a: None}

    def among(self, values: Iterable[int]) -> list[int]:
        """The members of `values` that are in the domain, in their order.

        Linear in `values`, not in the domain: the cheaper side when the
        domain is the larger.
        """
        live = self._live
        return [a for a in values if a in live]

    def values(self) -> list[int]:
        """Current domain in no particular order (a fresh list)."""
        return list(self._live)

    def sorted_values(self) -> list[int]:
        """Current domain in ascending order (a fresh list)."""
        return sorted(self._live)

    def branch_values(self) -> list[int]:
        """Values in branching order: ascending, with 0 tried last."""
        vals = self.sorted_values()
        if vals and vals[0] == 0:
            vals.append(vals.pop(0))
        return vals

    def __repr__(self) -> str:
        return f"FDVariable({self.sorted_values()!r})"


class Propagator:
    """Base class for constraint propagators.

    ``propagate(depth)`` is called once at the root with depth -1, before
    any variable is bound, and once per search node that binds
    ``variables[depth]`` to a symbol, never to the 0 terminator.  All
    variables at or below `depth` are then bound to symbols.  An
    implementation may read only those bound variables and may prune only
    the next variable, ``depth + 1``, which the engine has just reset to
    its template; under that contract one pass over all propagators is
    already stable, and no pruning needs undoing.  A propagator that leaves
    0 in the next domain allows the pattern to end there: the engine ends
    it without asking again.  Failure is reported by returning False.
    """

    def propagate(self, depth: int) -> bool:
        raise NotImplementedError


class _Abort(Exception):
    """Internal: unwinds the search when the node hook requests a stop."""


class SearchEngine:
    """Depth-first enumeration of all solutions, one propagation pass a node.

    Variables are branched strictly left to right; values are tried in
    ascending order with 0 (the pattern terminator) last, from a snapshot
    of the domain taken when the search reached the variable.  A branch
    assigns its symbol, resets the next variable to its template and runs
    every propagator once, in registration order.  A 0 branch is a leaf:
    it counts as a node and consults the node hook, then emits the bound
    prefix without touching the trail, a domain or any propagator, since 0
    is only left in a domain where every propagator allows the pattern to
    end.  A solution is thus complete at a 0 branch (the terminator itself
    is not part of it) or when the last variable is filled, and it reaches
    the sink as the list of its nonzero values.  The search starts with
    every domain at its template and leaves it there; it runs inside one
    trail level, so reversible propagator state is exactly restored too,
    whether the search finishes or is aborted by the node hook.
    """

    def __init__(
        self,
        trail: Trail,
        variables: Sequence[FDVariable],
        propagators: Sequence[Propagator],
        solution_sink: Callable[[list[int]], None] | None = None,
    ) -> None:
        self._trail = trail
        self._vars = list(variables)
        self._propagators = list(propagators)
        self._sink = solution_sink
        #: optional per-node callback; returning False aborts the search
        self.node_hook: Callable[[], bool] | None = None
        self.nodes = 0
        self.failures = 0
        self.solutions = 0
        self.aborted = False

    def solve_all(self) -> int:
        """Enumerate every solution; returns the solution count.

        Running twice on the same engine yields the same solutions in the
        same order: the search leaves no residue.
        """
        self.nodes = self.failures = self.solutions = 0
        self.aborted = False
        trail = self._trail
        base_depth = trail.depth
        for var in self._vars:
            var.reset()
        trail.push_level()
        try:
            if self._propagate(-1):
                self._search()
        except _Abort:
            self.aborted = True
        finally:
            # an abort can unwind past open node levels: pop them all
            while trail.depth > base_depth:
                trail.restore_level()
            for var in self._vars:
                var.reset()
        return self.solutions

    def _propagate(self, depth: int) -> bool:
        for prop in self._propagators:
            if not prop.propagate(depth):
                return False
        return True

    def _search(self) -> None:
        """Depth-first loop over a stack of branch iterators, one per depth.

        A branch's trail level stays open while its child depth is on the
        stack, so the pattern length is not limited by Python's recursion.
        """
        variables = self._vars
        last = len(variables)
        if last == 0:
            self._emit(0)
            return
        trail = self._trail
        hook = self.node_hook
        stack = [iter(variables[0].branch_values())]
        while stack:
            depth = len(stack) - 1
            var = variables[depth]
            nxt = variables[depth + 1] if depth + 1 < last else None
            for a in stack[-1]:
                self.nodes += 1
                if hook is not None and not hook():
                    raise _Abort
                if a == 0:
                    self._emit(depth)  # the terminator: a leaf
                    continue
                trail.push_level()
                var.assign(a)
                if nxt is not None:
                    nxt.reset()  # undo a sibling's pruning
                if self._propagate(depth):
                    if nxt is None:
                        # every slot filled: the pattern ends without a terminator
                        self._emit(last)
                    else:
                        stack.append(iter(nxt.branch_values()))
                        break  # descend; this branch's level stays open
                else:
                    self.failures += 1
                trail.restore_level()
            else:
                stack.pop()
                if stack:
                    trail.restore_level()  # the parent branch is done

    def _emit(self, length: int) -> None:
        self.solutions += 1
        if self._sink is not None:
            self._sink([v.value() for v in self._vars[:length]])
