"""Side constraints on patterns: length bounds, symbol cardinality, regex.

Each constraint is a kernel propagator over the pattern variables.  They
share one discipline with the frequency propagator: only the domain of the
next unbound variable is ever filtered.  The 0 terminator is removed to
force continuation; a multi-value filter is one `FDVariable.restrict` to
the values allowed (the live symbols of the automaton state for the
regex).  A length maximum needs no propagator: the model has no more
variables than the maximum.  A variable bound to 0 means the pattern is
complete (the terminator was only left available when ending there is
permitted, so completions need no further checks).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .kernel import FDVariable, Propagator, ReversibleInt, Trail
from .regex import PatternDFA

__all__ = [
    "LengthBounds",
    "SymbolCardinality",
    "PatternLength",
    "CardinalityConstraint",
    "RegularConstraint",
]


@dataclass(frozen=True)
class LengthBounds:
    """Inclusive bounds on the number of nonzero pattern symbols."""

    min_len: int
    max_len: int

    def __post_init__(self) -> None:
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")


@dataclass(frozen=True)
class SymbolCardinality:
    """Occurrence bounds for one symbol; `at_most` None means unbounded.

    Exclusion is the special case at_least=0, at_most=0.
    """

    symbol: int
    at_least: int = 0
    at_most: int | None = None

    def __post_init__(self) -> None:
        if self.at_least < 0 or self.symbol < 1:
            raise ValueError("bad cardinality spec")
        if self.at_most is not None and self.at_most < self.at_least:
            raise ValueError("need at_least <= at_most")


class PatternLength(Propagator):
    """Keep the pattern length at or above the minimum of the bounds.

    While the bound prefix is shorter than the minimum the terminator is
    removed from the next variable.  The maximum is the model's variable
    count (see `mining.build_model`), so no pattern can exceed it.
    """

    def __init__(
        self, bounds: LengthBounds, variables: Sequence[FDVariable]
    ) -> None:
        self.bounds = bounds
        self.vars = list(variables)

    def propagate(self, depth: int) -> bool:
        variables = self.vars
        if depth >= 0 and variables[depth].value() == 0:
            return True
        length = depth + 1  # bound prefix is all nonzero
        if length >= self.bounds.min_len:
            return True
        # too short: continuing is forced, so the next slot must exist
        return length < len(variables) and variables[length].remove(0)


class CardinalityConstraint(Propagator):
    """Bound the number of occurrences of one symbol in the pattern."""

    def __init__(
        self, spec: SymbolCardinality, variables: Sequence[FDVariable]
    ) -> None:
        self.spec = spec
        self.vars = list(variables)

    def propagate(self, depth: int) -> bool:
        variables = self.vars
        if depth >= 0 and variables[depth].value() == 0:
            return True
        spec = self.spec
        occurrences = 0
        for k in range(depth + 1):
            if variables[k].value() == spec.symbol:
                occurrences += 1
        remaining = len(variables) - (depth + 1)
        if occurrences + remaining < spec.at_least:
            return False
        nxt = depth + 1
        if nxt >= len(variables):
            return True
        var = variables[nxt]
        if spec.at_most is not None and occurrences >= spec.at_most:
            if not var.remove(spec.symbol):
                return False
        if occurrences < spec.at_least:
            if not var.remove(0):
                return False
        return True


class RegularConstraint(Propagator):
    """Accept only patterns whose symbol string is in the DFA's language.

    Tracks the automaton state of the bound prefix in a reversible integer.
    The next domain is restricted to the state's live symbols after which
    acceptance is still reachable within the pattern slots left (a prefix
    of `live`, which is ordered by that distance), plus the terminator when
    the current state already accepts.  So every symbol bound after that
    state has a move from it, which leads to a state that can accept.
    """

    def __init__(
        self, dfa: PatternDFA, variables: Sequence[FDVariable], trail: Trail
    ) -> None:
        self.dfa = dfa
        self.vars = list(variables)
        self._consumed = ReversibleInt(trail, 0)
        self._state = ReversibleInt(trail, dfa.start)

    def propagate(self, depth: int) -> bool:
        dfa = self.dfa
        variables = self.vars
        f = self._consumed.value
        q = self._state.value
        while f <= depth:
            a = variables[f].value()
            if a == 0:
                # complete: the prefix must be accepted
                return dfa.is_accepting(q)
            q = dfa.transitions[q][a]
            f += 1
        if f != self._consumed.value:
            self._consumed.set(f)
            self._state.set(q)
        total = len(variables)
        if f >= total:
            return dfa.is_accepting(q)
        # live symbols after which acceptance fits in the slots left
        keep = dfa.live[q][: bisect_right(dfa.live_steps[q], total - f - 1)]
        return variables[f].restrict(keep + (0,) if dfa.is_accepting(q) else keep)
