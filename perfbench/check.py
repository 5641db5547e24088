"""Output checks applied to every benchmark query.

A query's output is the list of lines `seqmine mine` would print for it
(``tok1 tok2 ... #SUP: n``).  Three checks apply:

* its pattern count and the SHA-256 of its sorted lines must equal the
  reference: the pinned value for seeds in ``pins.json``, otherwise the
  output of the reference ``baseline`` strategy, mined once per query
  before timing starts;
* a seeded sample of its patterns is recounted from the raw corpus tokens
  with ``seqmine.oracle.is_subsequence``, and each sampled pattern must
  meet the threshold and pass ``seqmine.oracle.pattern_filter``;
* for unconstrained queries the single-token patterns must be exactly the
  tokens whose corpus support meets the threshold.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Sequence

from workloads import Corpus, Query

__all__ = ["Checker", "constraint_specs", "digest", "load_pins", "PINS_PATH"]

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: patterns recounted from the raw corpus per query
SAMPLE = 2


def digest(lines: Sequence[str]) -> tuple[int, str]:
    """(line count, first 16 hex digits of SHA-256 of the sorted lines)."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return len(lines), h.hexdigest()[:16]


def load_pins(workload: str, seed: int) -> list[tuple[int, str]] | None:
    """Pinned (count, digest) per pool query, or None for an unpinned seed."""
    with open(PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    entry = pins.get(workload, {}).get(str(seed))
    return None if entry is None else [tuple(pair) for pair in entry]


def parse_line(line: str) -> tuple[list[str], int]:
    body, sep, sup = line.rpartition(" #SUP: ")
    if not sep or not body:
        raise ValueError(f"malformed output line {line!r}")
    return body.split(), int(sup)


class Checker:
    """Checks query outputs against references and the raw corpus."""

    def __init__(self, corpus: Corpus, db, oracle, seed: int) -> None:
        self.corpus = corpus
        self.db = db
        self.oracle = oracle  # the seqmine.oracle module
        self.seed = seed
        self.references: dict[int, tuple[int, str]] = {}
        self._holders: dict[str, set[int]] = {}
        for sid, seq in enumerate(corpus.sequences):
            for tok in set(seq):
                self._holders.setdefault(tok, set()).add(sid)
        self._filters: dict[int, object] = {}

    def support(self, tokens: Sequence[str]) -> int:
        """Number of corpus sequences containing `tokens` in order."""
        holders = [self._holders.get(tok, set()) for tok in set(tokens)]
        candidates = set.intersection(*holders) if holders else set()
        seqs = self.corpus.sequences
        is_subsequence = self.oracle.is_subsequence
        return sum(1 for sid in candidates if is_subsequence(tokens, seqs[sid]))

    def _accepts(self, query: Query, tokens: Sequence[str]) -> bool:
        accept = self._filters.get(query.index)
        if accept is None:
            accept = self._filters[query.index] = self.oracle.pattern_filter(
                self.db, oracle_config(self.db, query, self.oracle)
            )
        return accept([self.db.id_of[tok] for tok in tokens])

    def check(self, query: Query, lines: Sequence[str], serial: int) -> str | None:
        """None when `lines` is a correct answer to `query`, else why not.

        `serial` numbers the query within the run and seeds the sample.
        """
        got = digest(lines)
        want = self.references.get(query.index)
        if want is not None and got != want:
            return f"query {query.index}: (count, digest) {got} != reference {want}"
        rng = random.Random(f"check/{self.seed}/{serial}")
        for line in rng.sample(list(lines), min(SAMPLE, len(lines))):
            tokens, reported = parse_line(line)
            if any(tok not in self.db.id_of for tok in tokens):
                return f"query {query.index}: unknown token in {line!r}"
            actual = self.support(tokens)
            if actual != reported:
                return f"query {query.index}: {line!r} has support {actual}"
            if actual < query.min_sup:
                return f"query {query.index}: {line!r} is below the threshold"
            if not self._accepts(query, tokens):
                return f"query {query.index}: {line!r} violates a constraint"
        if query.regex is None and query.min_len is None:
            singles = {}
            for line in lines:
                tokens, sup = parse_line(line)
                if len(tokens) == 1:
                    singles[tokens[0]] = sup
            expect = {
                tok: sup
                for tok, sup in self.corpus.support.items()
                if sup >= query.min_sup
            }
            if singles != expect:
                return f"query {query.index}: single-token patterns differ"
        return None


def constraint_specs(db, query: Query):
    """(LengthBounds or None, cardinality specs) of `query` against `db`.

    Mirrors the CLI: the length cap is clipped to the longest sequence and
    an excluded token that did not survive filtering is dropped.
    """
    from seqmine.constraints import LengthBounds, SymbolCardinality

    length = None
    if query.min_len is not None:
        length = LengthBounds(query.min_len, min(query.max_len, db.max_len))
    cards = ()
    if query.excluded is not None and query.excluded in db.id_of:
        cards = (SymbolCardinality(db.id_of[query.excluded], 0, 0),)
    return length, cards


def oracle_config(db, query: Query, oracle):
    """The oracle's view of `query` against `db`."""
    length, cards = constraint_specs(db, query)
    return oracle.OracleConfig(
        min_sup=query.min_sup, length=length, cardinalities=cards, regex=query.regex
    )
