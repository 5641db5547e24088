"""Trail-based backtracking kernel: reversible state, sparse-set domains, DFS.

State restoration uses an undo log (the trail).  Reversible objects record
their previous value on first write per search level, and restoring a level
rewinds exactly the locations written since the matching push.  Domains are
sparse sets whose live region is delimited by a reversible size.  Removing
one value is an O(1) swap behind the live region; `FDVariable.restrict`,
the one bulk filter, swaps the values to keep to the front and sets the
size once, in time linear in what is kept, not in the domain.  Restoring
the size recovers the previous domain as a set with no per-value
bookkeeping.

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

    The domain is ``_values[:size]``; ``_index`` maps a value to its slot.
    `remove` swaps one value to the back of the live region and shrinks the
    reversible size; `restrict` swaps the values to keep to the front and
    shrinks the size to their count, and `assign` is its one-value case.
    A later restore resurrects the dropped values (the live region is a
    permutation, only its extent is trailed).  The domain never becomes
    empty: a filter that would wipe it out leaves the domain untouched and
    returns False.
    """

    __slots__ = ("_trail", "_values", "_index", "_size")

    def __init__(self, trail: Trail, values: Iterable[int]) -> None:
        vals = sorted(set(values))
        if not vals or vals[0] < 0:
            raise ValueError("domain must be a non-empty set of ints >= 0")
        self._trail = trail
        self._values = vals
        self._index = [-1] * (vals[-1] + 1)
        for slot, a in enumerate(vals):
            self._index[a] = slot
        self._size = ReversibleInt(trail, len(vals))

    def copy(self) -> FDVariable:
        """A new variable on the same trail with this one's domain.

        The value and index lists are copied, not rebuilt, so copies of one
        template share their int objects.
        """
        twin = FDVariable.__new__(FDVariable)
        twin._trail = self._trail
        twin._values = self._values[:]
        twin._index = self._index[:]
        twin._size = ReversibleInt(self._trail, self._size.value)
        return twin

    @property
    def size(self) -> int:
        return self._size.value

    def is_bound(self) -> bool:
        return self._size.value == 1

    def value(self) -> int:
        """The assigned value; only meaningful once bound."""
        if self._size.value != 1:
            raise ValueError("variable is not bound")
        return self._values[0]

    def contains(self, a: int) -> bool:
        if a < 0 or a >= len(self._index):
            return False
        slot = self._index[a]
        return 0 <= slot < self._size.value

    def _swap(self, i: int, j: int) -> None:
        vals, index = self._values, self._index
        vi, vj = vals[i], vals[j]
        vals[i], vals[j] = vj, vi
        index[vi], index[vj] = j, i

    def remove(self, a: int) -> bool:
        """Drop `a` from the domain; False when that would empty it."""
        if not self.contains(a):
            return True
        n = self._size.value
        if n == 1:
            return False
        self._swap(self._index[a], n - 1)
        self._size.set(n - 1)
        return True

    def restrict(self, keep: Iterable[int]) -> bool:
        """Reduce the domain to its intersection with `keep`, in O(|keep|).

        Kept values are swapped to the front and the reversible size is set
        once; duplicates and values outside the domain are ignored.  False,
        with the domain untouched, when the intersection is empty.
        """
        index, n, k = self._index, self._size.value, 0
        for a in keep:
            if 0 <= a < len(index) and k <= index[a] < n:
                self._swap(index[a], k)
                k += 1
        if k:
            self._size.set(k)
        return k > 0

    def assign(self, a: int) -> bool:
        """Reduce the domain to {a}; False when `a` is not available."""
        return self.restrict((a,))

    def among(self, values: Iterable[int]) -> list[int]:
        """The members of `values` that are in the domain, in their order.

        Linear in `values`, not in the domain: the cheaper side when the
        domain is the larger.
        """
        index, n = self._index, self._size.value
        top = len(index)
        return [a for a in values if 0 <= a < top and 0 <= index[a] < n]

    def values(self) -> list[int]:
        """Current domain in no particular order (a fresh list)."""
        return self._values[: self._size.value]

    def sorted_values(self) -> list[int]:
        """Current domain in ascending order (a fresh list)."""
        return sorted(self.values())

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
    the next variable, ``depth + 1``; under that contract one pass over all
    propagators is already stable.  A propagator that leaves 0 in the next
    domain allows the pattern to end there: the engine ends it without
    asking again.  Failure is reported by returning False.
    """

    def propagate(self, depth: int) -> bool:
        raise NotImplementedError


class _Abort(Exception):
    """Internal: unwinds the search when the node hook requests a stop."""


class SearchEngine:
    """Depth-first enumeration of all solutions, one propagation pass a node.

    Variables are branched strictly left to right; values are tried in
    ascending order with 0 (the pattern terminator) last.  After each
    symbol is assigned every propagator runs once, in registration order.
    A 0 branch is a leaf: it counts as a node and consults the node hook,
    then emits the bound prefix without touching the trail, the domain or
    any propagator, since 0 is only left in a domain where every propagator
    allows the pattern to end.  A solution is thus complete at a 0 branch
    (the terminator itself is not part of it) or when the last variable is
    filled, and it reaches the sink as the list of its nonzero values.  The
    whole search runs inside one trail level, so all state (domains and any
    reversible propagator state) is exactly restored afterwards, whether the
    search finishes or is aborted by the node hook.
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
            for a in stack[-1]:
                self.nodes += 1
                if hook is not None and not hook():
                    raise _Abort
                if a == 0:
                    self._emit(depth)  # the terminator: a leaf
                    continue
                trail.push_level()
                if var.assign(a) and self._propagate(depth):
                    if depth + 1 == last:
                        # every slot filled: the pattern ends without a terminator
                        self._emit(last)
                    else:
                        stack.append(iter(variables[depth + 1].branch_values()))
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
