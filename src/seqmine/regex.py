"""Anchored pattern expressions: parsing, NFA construction, subset DFA.

Expressions are matched against whole patterns (anchored at both ends).
Literals are symbol tokens: a single non-space character stands for itself
and multi-character tokens are written in angle brackets (``<VALINE>``).
Whitespace separates tokens and is otherwise ignored.  Supported operators,
tightest first: ``*`` ``+`` ``?`` postfix repetition, implicit
concatenation, ``|`` alternation; parentheses group, at most
`MAX_NESTING` deep.

Compilation goes expression -> syntax tree -> epsilon-NFA (Thompson
construction) -> DFA (subset construction over the moves the expression's
literals name).  A DFA row holds only the symbols with a move; every other
symbol rejects, so no dead state is built.  The DFA also carries, per
state, the minimum number of further symbols needed to reach acceptance.
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
#: deepest parenthesis nesting the parser accepts
MAX_NESTING = 100
#: postfix operator -> repetition node kind
_POSTFIX = {"*": "star", "+": "plus", "?": "opt"}


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
    i = depth = 0
    n = len(expr)
    while i < n:
        ch = expr[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()|*+?":
            depth += (ch == "(") - (ch == ")")
            if depth > MAX_NESTING:
                raise RegexSyntaxError(f"parentheses nested over {MAX_NESTING}", i)
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
    atom := literal | '(' alt ')'.  Concatenation and alternation give
    n-ary ``("cat", *parts)`` and ``("alt", *branches)`` nodes, and a run of
    postfix operators folds to one, so only parentheses nest the tree.
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
        branches = [self._concatenation()]
        while self._peek()[0] == "|":
            self._pos += 1
            branches.append(self._concatenation())
        return branches[0] if len(branches) == 1 else ("alt", *branches)

    def _concatenation(self):
        parts = []
        while self._peek()[0] in ("lit", "("):
            parts.append(self._repetition())
        if not parts:
            kind, _, where = self._peek()
            raise RegexSyntaxError(f"expected a token, got {kind!r}", where)
        return parts[0] if len(parts) == 1 else ("cat", *parts)

    def _repetition(self):
        node = self._atom()
        ops = set()
        while self._peek()[0] in _POSTFIX:
            ops.add(self._peek()[0])
            self._pos += 1
        if not ops:
            return node
        # x** = x*, x++ = x+, x?? = x?; any mix (x+?, x?+, x*+, ...) is x*
        return (_POSTFIX[ops.pop()] if len(ops) == 1 else "star", node)

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
            entry, exit_ = self.build(node[1])
            for part in node[2:]:
                s, t = self.build(part)
                self.eps[exit_].append(s)
                exit_ = t
            return entry, exit_
        if kind == "alt":
            s, t = self.state(), self.state()
            for branch in node[1:]:
                s1, t1 = self.build(branch)
                self.eps[s].append(s1)
                self.eps[t1].append(t)
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
    """Deterministic automaton over symbol ids with a distance table.

    `transitions[q]` maps each symbol with a move from state `q` to its
    successor; any other symbol rejects.  `start` is the start state, and
    `min_steps[q]` is the length of the shortest symbol string leading from
    `q` to acceptance (0 for accepting states, NO_ACCEPT when none exists,
    which happens only after a literal of a token that maps to no symbol).
    `live[q]` lists the symbols whose successor can still accept, ordered
    by that successor's distance, which `live_steps[q]` holds in parallel.
    Every state is reachable from the start.
    """

    def __init__(
        self,
        transitions: list[dict[int, int]],
        accepting: frozenset[int],
        start: int = 0,
    ) -> None:
        self.transitions = transitions
        self.accepting = accepting
        self.start = start
        self.min_steps = dist = self._distances()
        self.live: list[tuple[int, ...]] = []
        self.live_steps: list[tuple[int, ...]] = []
        for row in transitions:
            live = sorted((dist[t], a) for a, t in row.items() if dist[t] < NO_ACCEPT)
            self.live.append(tuple(a for _, a in live))
            self.live_steps.append(tuple(d for d, _ in live))

    def _distances(self) -> list[int]:
        n = len(self.transitions)
        dist = [NO_ACCEPT] * n
        back: list[list[int]] = [[] for _ in range(n)]
        for q, row in enumerate(self.transitions):
            for t in row.values():
                back[t].append(q)
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

    def step(self, q: int, a: int) -> int | None:
        """Successor of `q` on `a`, or None when `a` rejects."""
        return self.transitions[q].get(a)

    def is_accepting(self, q: int) -> bool:
        return q in self.accepting

    def accepts(self, symbols: Sequence[int]) -> bool:
        q = self.start
        step = self.transitions
        for a in symbols:
            q = step[q].get(a)
            if q is None:
                return False
        return q in self.accepting


def compile_regex(expr: str, symbol_ids: Mapping[str, int]) -> PatternDFA:
    """Compile `expr` into a PatternDFA over the ids of `symbol_ids`.

    Id 0 stands for a token that maps to no symbol: its literal has no move.
    """
    tree = parse_regex(expr, symbol_ids)
    nfa = _NFA()
    entry, exit_ = nfa.build(tree)
    closure = cache(nfa.closure)  # symbols sharing a move set share its closure
    start = closure(frozenset([entry]))
    subsets = {start: 0}
    transitions: list[dict[int, int]] = []
    order = [start]
    i = 0
    while i < len(order):
        moves: dict[int, set[int]] = {}
        for q in order[i]:
            for a, t in nfa.sym[q]:
                if a:
                    moves.setdefault(a, set()).add(t)
        row = {}
        for a, targets in moves.items():
            target = closure(frozenset(targets))
            if target not in subsets:
                subsets[target] = len(order)
                order.append(target)
            row[a] = subsets[target]
        transitions.append(row)
        i += 1
    accepting = frozenset(
        idx for subset, idx in subsets.items() if exit_ in subset
    )
    return PatternDFA(transitions, accepting)
