"""Brute-force reference miner used for differential testing.

Deliberately naive and kept independent of the search engine: support comes
from direct subsequence tests, enumeration is breadth-first pattern growth
pruned only by the antimonotonicity of support, and side constraints are
applied as an output filter (they are not antimonotone, so growth must pass
through patterns the filter rejects).  Regex filtering goes through
Python's `re` engine rather than the package's own automata.
"""

from __future__ import annotations

import re as _stdlib_re
from dataclasses import dataclass
from typing import Callable, Sequence

from .constraints import LengthBounds, SymbolCardinality
from .database import SequenceDatabase
from .regex import parse_regex

__all__ = [
    "OracleConfig",
    "is_subsequence",
    "mine_brute_force",
    "pattern_filter",
    "regex_to_python",
]


def is_subsequence(pattern: Sequence[int], seq: Sequence[int]) -> bool:
    """Greedy left-to-right embedding test."""
    idx = 0
    n = len(seq)
    for a in pattern:
        while idx < n and seq[idx] != a:
            idx += 1
        if idx == n:
            return False
        idx += 1
    return True


@dataclass(frozen=True)
class OracleConfig:
    """What the reference miner should enumerate.

    `max_len` bounds the pattern length (defaults to the database maximum);
    the side constraints carry the same specs as the engine's.
    """

    min_sup: int
    max_len: int | None = None
    length: LengthBounds | None = None
    cardinalities: tuple[SymbolCardinality, ...] = ()
    regex: str | None = None


def _pua(symbol: int) -> str:
    # private-use characters give every symbol id a unique literal
    return chr(0xE000 + symbol)


def regex_to_python(node) -> str:
    """Translate a parsed expression tree to stdlib `re` syntax.

    Symbols become private-use characters so that multi-character tokens
    stay single characters; match patterns rendered with the same mapping.
    """
    kind = node[0]
    if kind == "sym":
        return _stdlib_re.escape(_pua(node[1]))
    if kind == "cat":
        return regex_to_python(node[1]) + regex_to_python(node[2])
    if kind == "alt":
        return f"(?:{regex_to_python(node[1])}|{regex_to_python(node[2])})"
    if kind == "star":
        return f"(?:{regex_to_python(node[1])})*"
    if kind == "plus":
        return f"(?:{regex_to_python(node[1])})+"
    if kind == "opt":
        return f"(?:{regex_to_python(node[1])})?"
    raise ValueError(f"unknown node {kind!r}")


def pattern_filter(
    db: SequenceDatabase, config: OracleConfig
) -> Callable[[Sequence[int]], bool]:
    """Predicate deciding whether a pattern satisfies the side constraints."""
    checks: list[Callable[[Sequence[int]], bool]] = []
    if config.length is not None:
        lo, hi = config.length.min_len, config.length.max_len
        checks.append(lambda p: lo <= len(p) <= hi)
    for spec in config.cardinalities:
        def check(p, spec=spec):
            n = sum(1 for a in p if a == spec.symbol)
            if n < spec.at_least:
                return False
            return spec.at_most is None or n <= spec.at_most
        checks.append(check)
    if config.regex is not None:
        tree = parse_regex(config.regex, db.literal_ids())
        compiled = _stdlib_re.compile(regex_to_python(tree))
        checks.append(
            lambda p: compiled.fullmatch("".join(_pua(a) for a in p)) is not None
        )
    def accept(p: Sequence[int]) -> bool:
        return all(check(p) for check in checks)
    return accept


def mine_brute_force(
    db: SequenceDatabase, config: OracleConfig
) -> list[tuple[tuple[int, ...], int]]:
    """All frequent patterns passing the filter, sorted for comparison.

    Returns (pattern, support) pairs as a canonical sorted list.
    """
    if config.min_sup < 1:
        raise ValueError("min_sup must be at least 1")
    limit = db.max_len if config.max_len is None else min(config.max_len, db.max_len)
    accept = pattern_filter(db, config)
    symbols = range(1, db.symbol_count + 1)
    out: list[tuple[tuple[int, ...], int]] = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(limit):
        grown: list[tuple[int, ...]] = []
        for prefix in frontier:
            for a in symbols:
                candidate = prefix + (a,)
                sup = db.support(candidate)
                if sup >= config.min_sup:
                    grown.append(candidate)
                    if accept(candidate):
                        out.append((candidate, sup))
        if not grown:
            break
        frontier = grown
    return sorted(out)
