"""Sequence database loading, frequency filtering and last-position index.

A database is an immutable collection of symbol sequences.  Symbols are
remapped to contiguous ids 1..N in order of first appearance (0 is reserved
as the pattern terminator), sequence ids are 1-based, and positions in the
precomputed last-position lists and index are 1-based.  Both hold one entry
per (sequence, distinct symbol) pair, so their size is that of the data,
not sequences x alphabet.  Symbols whose sequence support falls below the
mining threshold are removed at load time; sequences emptied by that
removal are dropped.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence, TextIO

__all__ = [
    "DatasetError",
    "EmptyDatabaseError",
    "SequenceDatabase",
    "compute_last_positions",
    "parse_plain",
    "parse_spmf",
    "build_database",
    "load_database",
    "write_plain",
]


class DatasetError(Exception):
    """Malformed input data."""


class EmptyDatabaseError(Exception):
    """No sequence survived frequency filtering."""


def compute_last_positions(seq: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Last occurrence of each symbol of `seq` as (symbol, position) pairs.

    Pairs are ordered by strictly decreasing position; positions are 1-based.
    """
    seen = set()
    pairs = []
    for idx in range(len(seq) - 1, -1, -1):
        a = seq[idx]
        if a not in seen:
            seen.add(a)
            pairs.append((a, idx + 1))
    return tuple(pairs)


@dataclass(frozen=True, eq=True)
class SequenceDatabase:
    """Filtered, remapped sequence data plus last-position lists and index.

    ``seqs[sid]`` is the sequence with 1-based id `sid` (index 0 holds an
    empty placeholder).  ``names[a]`` is the original token for symbol id
    `a`.  ``last_pos_list[sid]`` holds the pairs of
    `compute_last_positions` and ``last_pos_index[a]`` maps each sid whose
    sequence contains `a` to the last position of `a` in it.  The index is
    derived from `seqs`, ``input_sequences`` is the sequence count before
    filtering and ``dropped`` holds the input tokens that filtering removed;
    none of them takes part in equality.
    """

    seqs: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    last_pos_list: tuple[tuple[tuple[int, int], ...], ...]
    max_len: int
    symbol_supports: tuple[int, ...]
    last_pos_index: tuple[dict[int, int], ...] = field(
        compare=False, repr=False, default=()
    )
    input_sequences: int = field(compare=False, default=0)
    id_of: dict = field(compare=False, repr=False, default_factory=dict)
    dropped: frozenset = field(compare=False, repr=False, default=frozenset())

    @property
    def size(self) -> int:
        """Number of sequences."""
        return len(self.seqs) - 1

    @property
    def symbol_count(self) -> int:
        return len(self.names) - 1

    @property
    def sids(self) -> range:
        return range(1, len(self.seqs))

    @cached_property
    def lengths_desc(self) -> tuple[int, ...]:
        """Sequence lengths, longest first (sorted once, on first use)."""
        return tuple(sorted(map(len, self.seqs[1:]), reverse=True))

    def support(self, pattern: Sequence[int]) -> int:
        """Number of sequences containing `pattern` as a subsequence."""
        count = 0
        for sid in self.sids:
            seq = self.seqs[sid]
            it = iter(seq)
            if all(a in it for a in pattern):
                count += 1
        return count

    def literal_ids(self) -> dict[str, int]:
        """Symbol id of every input token, 0 for the filtered-out ones.

        Expression literals resolve through this map: 0 is never a pattern
        symbol, so a literal naming an infrequent token matches nothing.
        """
        ids = dict.fromkeys(self.dropped, 0)
        ids.update(self.id_of)
        return ids

    def tokens(self, pattern: Sequence[int]) -> list[str]:
        return [self.names[a] for a in pattern]


def parse_plain(lines: Iterable[str]) -> list[list[str]]:
    """One sequence per line, whitespace-separated tokens, blanks ignored."""
    seqs = []
    for line in lines:
        tokens = line.split()
        if tokens:
            seqs.append(tokens)
    return seqs


def parse_spmf(lines: Iterable[str]) -> list[list[str]]:
    """Integer item format: -1 closes an itemset, -2 closes a sequence.

    Only single-item itemsets are supported; a multi-item itemset is a
    dataset error.  Tokens are kept as their decimal spelling.
    """
    seqs: list[list[str]] = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        current: list[str] = []
        itemset: list[str] = []
        # the end of the line closes an open itemset, as -1 does
        for tok in fields + ["-1"]:
            try:
                item = int(tok)
            except ValueError:
                raise DatasetError(f"line {lineno}: non-integer item {tok!r}")
            if item in (-1, -2):
                if len(itemset) > 1:
                    raise DatasetError(
                        f"line {lineno}: itemsets with more than one item "
                        "are not supported"
                    )
                current.extend(itemset)
                itemset = []
                if item == -2 and current:
                    seqs.append(current)
                    current = []
            elif item < 0:
                raise DatasetError(f"line {lineno}: unexpected marker {item}")
            else:
                itemset.append(tok)
        if current:
            seqs.append(current)
    return seqs


def build_database(token_seqs: Sequence[Sequence[str]], min_sup: int = 1) -> SequenceDatabase:
    """Filter, remap and index raw token sequences.

    Tokens with sequence support below `min_sup` are removed, survivors get
    ids 1..N by first appearance, and sequences left empty are dropped.
    Raises EmptyDatabaseError when nothing survives.
    """
    if min_sup < 1:
        raise ValueError("min_sup must be at least 1")
    support: dict[str, int] = {}
    order: list[str] = []
    for seq in token_seqs:
        for tok in dict.fromkeys(seq):
            if tok not in support:
                support[tok] = 0
                order.append(tok)
            support[tok] += 1
    id_of = {}
    names = [""]
    for tok in order:
        if support[tok] >= min_sup:
            id_of[tok] = len(names)
            names.append(tok)
    seqs: list[tuple[int, ...]] = [()]
    for seq in token_seqs:
        mapped = tuple(id_of[tok] for tok in seq if tok in id_of)
        if mapped:
            seqs.append(mapped)
    if len(seqs) == 1:
        raise EmptyDatabaseError(
            f"no sequence left after filtering at support {min_sup}"
        )
    pair_rows = [compute_last_positions(seq) for seq in seqs]
    index: list[dict[int, int]] = [{} for _ in names]
    for sid in range(1, len(seqs)):
        for a, p in pair_rows[sid]:
            index[a][sid] = p
    return SequenceDatabase(
        seqs=tuple(seqs),
        names=tuple(names),
        last_pos_list=tuple(pair_rows),
        max_len=max(len(s) for s in seqs[1:]),
        # no sequence holding a surviving token is emptied, so it keeps its
        # input support
        symbol_supports=(0, *(support[tok] for tok in names[1:])),
        last_pos_index=tuple(index),
        input_sequences=len(token_seqs),
        id_of=id_of,
        dropped=frozenset(support).difference(id_of),
    )


def load_database(
    source: Iterable[str] | TextIO, fmt: str = "plain", min_sup: int = 1
) -> SequenceDatabase:
    """Parse `source` lines in the given format and build the database."""
    if fmt == "plain":
        raw = parse_plain(source)
    elif fmt == "spmf":
        raw = parse_spmf(source)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if not raw:
        raise DatasetError("input contains no sequences")
    return build_database(raw, min_sup)


def loads(text: str, fmt: str = "plain", min_sup: int = 1) -> SequenceDatabase:
    """Convenience wrapper over load_database for in-memory text."""
    return load_database(io.StringIO(text), fmt, min_sup)


def write_plain(db: SequenceDatabase, out: TextIO) -> None:
    """Write the database in plain format, one sequence per line."""
    names = db.names
    for sid in db.sids:
        out.write(" ".join(names[a] for a in db.seqs[sid]))
        out.write("\n")
