"""Backtracking kernel: domains, the propagator contract and DFS.

Nothing is trailed.  The search binds one variable per depth, left to
right, so backtracking never has to undo a write: it only has to stop
reading it.  A propagator keeps its own state in per-depth slots:
``propagate(depth)`` reads slot `depth`, written by the node's parent (or
set up at construction for the root), and writes slot ``depth + 1``.  A
node reads only the slots its ancestors wrote, and a sibling overwrites
the slot a backtracked branch left.  Domains follow the same rule: a
propagator prunes only the next variable, so before each node's
propagation pass the search engine resets that variable to its template,
and it branches over a snapshot of the domain.  A domain is a dict the
filters replace, never edit, so a reset is one assignment and copies of a
variable share its template.

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
    "FDVariable",
    "Propagator",
    "SearchEngine",
]


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
    already stable, and no pruning needs undoing.  State of its own goes
    in per-depth slots, slot k for the prefix of length k (slot 0, the
    empty prefix, set up before the search): a call at a node reads slot
    `depth` and writes slot ``depth + 1``, so a sibling, or a re-run at
    the same node, overwrites the same slot and backtracking undoes
    nothing.  A propagator that leaves 0 in the next domain allows the
    pattern to end there: the engine ends it without asking again.
    Failure is reported by returning False.
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
    prefix without touching a domain or any propagator, since 0 is only
    left in a domain where every propagator allows the pattern to end.  A
    solution is thus complete at a 0 branch (the terminator itself is not
    part of it) or when the last variable is filled, and it reaches the
    sink as the list of its nonzero values.  Backtracking undoes
    nothing: the propagators keep per-depth slots (see `Propagator`), and
    the next domain is reset before each pass.  The search starts with
    every domain at its template and leaves it there, whether it finishes
    or is aborted by the node hook.
    """

    def __init__(
        self,
        variables: Sequence[FDVariable],
        propagators: Sequence[Propagator],
        solution_sink: Callable[[list[int]], None] | None = None,
    ) -> None:
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
        for var in self._vars:
            var.reset()
        try:
            if self._propagate(-1):
                self._search()
        except _Abort:
            self.aborted = True
        finally:
            for var in self._vars:
                var.reset()
        return self.solutions

    def _propagate(self, depth: int) -> bool:
        for prop in self._propagators:
            if not prop.propagate(depth):
                return False
        return True

    def _search(self) -> None:
        """Depth-first loop over a stack of branch iterators, one per depth,
        so the pattern length is not limited by Python's recursion."""
        variables = self._vars
        last = len(variables)
        if last == 0:
            self._emit(0)
            return
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
                var.assign(a)
                if nxt is not None:
                    nxt.reset()  # undo a sibling's pruning
                if self._propagate(depth):
                    if nxt is None:
                        # every slot filled: the pattern ends without a terminator
                        self._emit(last)
                    else:
                        stack.append(iter(nxt.branch_values()))
                        break  # descend
                else:
                    self.failures += 1
            else:
                stack.pop()

    def _emit(self, length: int) -> None:
        self.solutions += 1
        if self._sink is not None:
            self._sink([v.value() for v in self._vars[:length]])
