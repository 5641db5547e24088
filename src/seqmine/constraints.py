"""Side constraints on patterns: length bounds, symbol cardinality, regex.

Each constraint is a kernel propagator over the pattern variables.  They
share one discipline with the frequency propagator: only the domain of the
next unbound variable is ever filtered.  The 0 terminator is removed to
force continuation; a multi-value filter is one `FDVariable.restrict` to
the values allowed (the live symbols of the automaton state for the
regex).  A length maximum needs no propagator: the model has no more
variables than the maximum.  The search engine ends a pattern where a
branch takes 0 and runs no propagator there, so a propagator sees only
symbols and says where a pattern may end by keeping or removing 0.  The
regex constraint keeps its automaton states in per-depth slots, like the
frequency propagator's windows, so backtracking undoes nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .kernel import FDVariable, Propagator
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
        length = depth + 1
        if length >= self.bounds.min_len:
            return True
        # too short: continuing is forced, and the model must have room for
        # the minimum (at the root this fails a minimum no pattern can meet)
        return len(variables) >= self.bounds.min_len and variables[length].remove(0)


class CardinalityConstraint(Propagator):
    """Bound the number of occurrences of one symbol in the pattern."""

    def __init__(
        self, spec: SymbolCardinality, variables: Sequence[FDVariable]
    ) -> None:
        self.spec = spec
        self.vars = list(variables)

    def propagate(self, depth: int) -> bool:
        variables = self.vars
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

    Keeps the automaton state of each bound prefix in a per-depth list:
    ``_states[k]`` is the state after the first k symbols.  The search
    binds one variable per node, and a node only reads the entry its parent
    wrote, so backtracking undoes nothing; a re-run at the same node
    rewrites the same entry.  The next domain is restricted to the state's
    live symbols after which acceptance is still reachable within the
    pattern slots left (a prefix of `live`, which is ordered by that
    distance), plus the terminator when the state already accepts.  No
    acceptance check is needed when a pattern ends: 0 is kept only at
    accepting states, and at the last slot the budget of 0 steps kept only
    symbols whose successor accepts.
    """

    def __init__(self, dfa: PatternDFA, variables: Sequence[FDVariable]) -> None:
        self.dfa = dfa
        self.vars = list(variables)
        self._states = [dfa.start] * (len(self.vars) + 1)

    def propagate(self, depth: int) -> bool:
        dfa = self.dfa
        variables = self.vars
        states = self._states
        f = depth + 1
        if depth >= 0:
            states[f] = dfa.transitions[states[depth]][variables[depth].value()]
        total = len(variables)
        if f >= total:
            return True
        q = states[f]
        # live symbols after which acceptance fits in the slots left
        keep = dfa.live[q][: bisect_right(dfa.live_steps[q], total - f - 1)]
        return variables[f].restrict(keep + (0,) if dfa.is_accepting(q) else keep)
