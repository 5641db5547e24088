"""Anchored pattern expressions: parsing, NFA construction, subset DFA.

Expressions are matched against whole patterns (anchored at both ends).
Literals are symbol tokens: a single non-space character stands for itself
and multi-character tokens are written in angle brackets (``<VALINE>``).
Whitespace separates tokens and is otherwise ignored.  Supported operators,
tightest first: ``*`` ``+`` ``?`` postfix repetition, implicit
concatenation, ``|`` alternation; parentheses group.

Compilation goes expression -> syntax tree -> epsilon-NFA (Thompson
construction) -> DFA (subset construction over the symbol alphabet).  The
DFA also carries, per state, the minimum number of further symbols needed
to reach acceptance; states that can never accept get an infinite distance
and double as reject sinks.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from typing import Mapping, Sequence

__all__ = [
    "RegexError",
    "RegexSyntaxError",
    "UnknownTokenError",
    "PatternDFA",
    "parse_regex",
    "compile_regex",
    "NO_ACCEPT",
]

#: distance assigned to states from which acceptance is unreachable
NO_ACCEPT = 1 << 30


class RegexError(Exception):
    """Base class for expression compilation errors."""


class RegexSyntaxError(RegexError):
    """Malformed expression; `position` is the offending character index."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownTokenError(RegexError):
    """Expression literal not present in the symbol dictionary."""


def _tokenize(expr: str, symbol_ids: Mapping[str, int]):
    tokens: list[tuple[str, int, int]] = []  # (kind, payload, position)
    i = 0
    n = len(expr)
    while i < n:
        ch = expr[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()|*+?":
            tokens.append((ch, 0, i))
            i += 1
            continue
        if ch == "<":
            end = expr.find(">", i + 1)
            if end < 0:
                raise RegexSyntaxError("unterminated '<'", i)
            name = expr[i + 1 : end]
            if not name:
                raise RegexSyntaxError("empty token name", i)
            if name not in symbol_ids:
                raise UnknownTokenError(f"unknown token {name!r}")
            tokens.append(("lit", symbol_ids[name], i))
            i = end + 1
            continue
        if ch == ">":
            raise RegexSyntaxError("unmatched '>'", i)
        if ch not in symbol_ids:
            raise UnknownTokenError(f"unknown token {ch!r}")
        tokens.append(("lit", symbol_ids[ch], i))
        i += 1
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Grammar: alt := cat ('|' cat)* ; cat := rep+ ; rep := atom [*+?]* ;
    atom := literal | '(' alt ')'.
    """

    def __init__(self, tokens, length):
        self._tokens = tokens
        self._pos = 0
        self._length = length

    def _peek(self):
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return ("end", 0, self._length)

    def parse(self):
        node = self._alternation()
        kind, _, where = self._peek()
        if kind != "end":
            raise RegexSyntaxError(f"unexpected {kind!r}", where)
        return node

    def _alternation(self):
        node = self._concatenation()
        while self._peek()[0] == "|":
            self._pos += 1
            node = ("alt", node, self._concatenation())
        return node

    def _concatenation(self):
        parts = []
        while self._peek()[0] in ("lit", "("):
            parts.append(self._repetition())
        if not parts:
            kind, _, where = self._peek()
            raise RegexSyntaxError(f"expected a token, got {kind!r}", where)
        node = parts[0]
        for part in parts[1:]:
            node = ("cat", node, part)
        return node

    def _repetition(self):
        node = self._atom()
        while True:
            kind, _, _ = self._peek()
            if kind == "*":
                node = ("star", node)
            elif kind == "+":
                node = ("plus", node)
            elif kind == "?":
                node = ("opt", node)
            else:
                return node
            self._pos += 1

    def _atom(self):
        kind, payload, where = self._peek()
        if kind == "lit":
            self._pos += 1
            return ("sym", payload)
        if kind == "(":
            self._pos += 1
            node = self._alternation()
            kind, _, where = self._peek()
            if kind != ")":
                raise RegexSyntaxError("missing ')'", where)
            self._pos += 1
            return node
        raise RegexSyntaxError(f"expected a token, got {kind!r}", where)


def parse_regex(expr: str, symbol_ids: Mapping[str, int]):
    """Parse `expr` into a syntax tree of nested tuples."""
    return _Parser(_tokenize(expr, symbol_ids), len(expr)).parse()


class _NFA:
    """Epsilon-NFA under construction; states are integers."""

    def __init__(self) -> None:
        self.eps: list[list[int]] = []
        self.sym: list[list[tuple[int, int]]] = []  # (symbol, target)

    def state(self) -> int:
        self.eps.append([])
        self.sym.append([])
        return len(self.eps) - 1

    def build(self, node) -> tuple[int, int]:
        """Thompson fragment for `node`: returns (entry, exit) states."""
        kind = node[0]
        if kind == "sym":
            s, t = self.state(), self.state()
            self.sym[s].append((node[1], t))
            return s, t
        if kind == "cat":
            s1, t1 = self.build(node[1])
            s2, t2 = self.build(node[2])
            self.eps[t1].append(s2)
            return s1, t2
        if kind == "alt":
            s1, t1 = self.build(node[1])
            s2, t2 = self.build(node[2])
            s, t = self.state(), self.state()
            self.eps[s] += [s1, s2]
            self.eps[t1].append(t)
            self.eps[t2].append(t)
            return s, t
        if kind in ("star", "plus", "opt"):
            s1, t1 = self.build(node[1])
            s, t = self.state(), self.state()
            self.eps[s].append(s1)
            self.eps[t1].append(t)
            if kind != "plus":
                self.eps[s].append(t)
            if kind != "opt":
                self.eps[t1].append(s1)
            return s, t
        raise ValueError(f"unknown node {kind!r}")

    def closure(self, states) -> frozenset[int]:
        todo = list(states)
        seen = set(states)
        while todo:
            q = todo.pop()
            for r in self.eps[q]:
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return frozenset(seen)


class PatternDFA:
    """Deterministic automaton over symbol ids 1..N with distance table.

    `transitions[q][a]` is the successor of state `q` on symbol `a` (the
    transition function is total), `start` is state 0's id, and
    `min_steps[q]` is the length of the shortest symbol string leading from
    `q` to acceptance (0 for accepting states, NO_ACCEPT when none exists).
    `live[q]` lists the symbols whose successor can still accept, ordered
    by that successor's distance, which `live_steps[q]` holds in parallel.
    Every state is reachable from the start; states with an infinite
    distance absorb all input and can never accept.
    """

    def __init__(
        self,
        transitions: list[tuple[int, ...]],
        accepting: frozenset[int],
        symbol_count: int,
        start: int = 0,
    ) -> None:
        self.transitions = transitions
        self.accepting = accepting
        self.symbol_count = symbol_count
        self.start = start
        self.min_steps = dist = self._distances()
        self.live: list[tuple[int, ...]] = []
        self.live_steps: list[tuple[int, ...]] = []
        for row in transitions:
            live = sorted(
                (dist[t], a) for a, t in enumerate(row) if a and dist[t] < NO_ACCEPT
            )
            self.live.append(tuple(a for _, a in live))
            self.live_steps.append(tuple(d for d, _ in live))

    def _distances(self) -> list[int]:
        n = len(self.transitions)
        dist = [NO_ACCEPT] * n
        back: list[list[int]] = [[] for _ in range(n)]
        for q, row in enumerate(self.transitions):
            for a in range(1, self.symbol_count + 1):
                back[row[a]].append(q)
        queue = deque()
        for q in self.accepting:
            dist[q] = 0
            queue.append(q)
        while queue:
            q = queue.popleft()
            d = dist[q] + 1
            for p in back[q]:
                if dist[p] > d:
                    dist[p] = d
                    queue.append(p)
        return dist

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    def step(self, q: int, a: int) -> int:
        return self.transitions[q][a]

    def is_accepting(self, q: int) -> bool:
        return q in self.accepting

    def is_dead(self, q: int) -> bool:
        """True when no continuation from `q` can ever accept."""
        return self.min_steps[q] >= NO_ACCEPT

    def accepts(self, symbols: Sequence[int]) -> bool:
        q = self.start
        step = self.transitions
        for a in symbols:
            q = step[q][a]
        return q in self.accepting


def compile_regex(
    expr: str, symbol_ids: Mapping[str, int], symbol_count: int
) -> PatternDFA:
    """Compile `expr` into a PatternDFA over symbols 1..symbol_count."""
    tree = parse_regex(expr, symbol_ids)
    nfa = _NFA()
    entry, exit_ = nfa.build(tree)
    closure = cache(nfa.closure)  # symbols sharing a move set share its closure
    start = closure(frozenset([entry]))
    subsets = {start: 0}
    transitions: list[tuple[int, ...]] = []
    order = [start]
    i = 0
    while i < len(order):
        subset = order[i]
        row = [0] * (symbol_count + 1)
        moves: dict[int, set[int]] = {}
        for q in subset:
            for a, t in nfa.sym[q]:
                moves.setdefault(a, set()).add(t)
        for a in range(1, symbol_count + 1):
            target = closure(frozenset(moves[a])) if a in moves else frozenset()
            if target not in subsets:
                subsets[target] = len(order)
                order.append(target)
            row[a] = subsets[target]
        transitions.append(tuple(row))
        i += 1
    accepting = frozenset(
        idx for subset, idx in subsets.items() if exit_ in subset
    )
    return PatternDFA(transitions, accepting, symbol_count)
