"""Benchmark workloads: corpus generators and seeded query pools.

The generators live here, not in ``seqmine.generate``, so that a change to
the program cannot change what the benchmark feeds it.  The program only
ever sees the corpus text this module writes and the queries it builds.

Each query pool has 5 or 15 distinct queries and the query stream repeats
it in shuffled cycles, so every query appears equally often.  With an odd
pool of that size the 50th and 90th percentiles fall in the middle of one
query's latency band instead of on the edge between two bands.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Corpus",
    "Query",
    "Workload",
    "WORKLOADS",
    "zipf_corpus",
]


@dataclass(frozen=True)
class Corpus:
    """Generated token sequences plus what the query pools need to know."""

    sequences: list[list[str]]
    #: tokens ordered by decreasing sequence support (ties by name)
    by_support: list[str]
    support: dict[str, int]

    def text(self) -> str:
        return "".join(" ".join(seq) + "\n" for seq in self.sequences)


@dataclass(frozen=True)
class Query:
    """One mining request: a threshold plus optional side constraints.

    `min_sup` is absolute; `fraction` is what it was derived from.  The
    regex is written in seqmine's expression syntax over token names.
    """

    index: int
    fraction: float
    min_sup: int
    regex: str | None = None
    min_len: int | None = None
    max_len: int | None = None
    excluded: str | None = None

    def describe(self) -> str:
        parts = [f"minsup={self.min_sup} ({self.fraction:.2%})"]
        if self.regex is not None:
            parts.append(f"regex={self.regex!r}")
        if self.min_len is not None:
            parts.append(f"length={self.min_len}..{self.max_len}")
        if self.excluded is not None:
            parts.append(f"excludes={self.excluded}")
        return " ".join(parts)


def _finish(sequences: list[list[str]]) -> Corpus:
    support: Counter[str] = Counter()
    for seq in sequences:
        support.update(set(seq))
    by_support = sorted(support, key=lambda tok: (-support[tok], tok))
    return Corpus(sequences, by_support, dict(support))


def _lengths(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """Sequence lengths cycling evenly over low..high, in shuffled order.

    Even coverage keeps the mean length, and with it pattern supports, the
    same for every seed; only the order and the tokens vary.
    """
    span = high - low + 1
    lengths = [low + i % span for i in range(count)]
    rng.shuffle(lengths)
    return lengths


def zipf_corpus(
    rng: random.Random,
    sequences: int,
    alphabet: int,
    min_len: int,
    max_len: int,
    exponent: float,
) -> Corpus:
    """Zipf-distributed tokens: rank r gets a share r^-exponent / H.

    Each token occurs exactly its share of all positions (largest-remainder
    rounding); the seed decides which token names get which rank, where
    each occurrence goes and the order of the sequence lengths.  Fixing the
    counts keeps pattern supports, and so the cost of each query, close
    across seeds: independent draws varied the search work by +-8%.
    """
    names = [f"z{i}" for i in range(alphabet)]
    rng.shuffle(names)
    lengths = _lengths(rng, sequences, min_len, max_len)
    total = sum(lengths)
    weights = [r ** -exponent for r in range(1, alphabet + 1)]
    norm = sum(weights)
    exact = [total * w / norm for w in weights]
    counts = [math.floor(x) for x in exact]
    by_remainder = sorted(range(alphabet), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    tokens = [name for name, c in zip(names, counts) for _ in range(c)]
    rng.shuffle(tokens)
    out = []
    pos = 0
    for n in lengths:
        out.append(tokens[pos : pos + n])
        pos += n
    return _finish(out)


def _absolute(fraction: float, count: int) -> int:
    # same rounding as `seqmine mine --minsup <fraction>`
    return max(1, math.ceil(fraction * count))


#: (first token, the two last tokens, excluded token) of each constrained
#: query, as support ranks; the body is always ranks 5..29 starred
_CONSTRAINED_SHAPES = (
    (0, (1, 6), 12),
    (2, (0, 7), 15),
    (5, (3, 8), 11),
    (9, (4, 9), 17),
    (14, (2, 5), 19),
)


@dataclass(frozen=True)
class Workload:
    """A corpus shape, its query pool and why the benchmark has it."""

    name: str
    why: str
    #: thresholds as fractions of the sequence count
    fractions: tuple[float, ...]
    params: dict
    constrained: bool = False

    def corpus(self, seed: int) -> Corpus:
        """The corpus for `seed`."""
        return zipf_corpus(random.Random(f"{self.name}/corpus/{seed}"), **self.params)

    def thresholds(self, corpus: Corpus) -> list[int]:
        """Absolute thresholds of the pool."""
        return [_absolute(f, len(corpus.sequences)) for f in self.fractions]

    def lowest_min_sup(self, corpus: Corpus) -> int:
        return min(self.thresholds(corpus))

    def queries(self, corpus: Corpus) -> list[Query]:
        """The distinct queries of this workload against `corpus`."""
        count = len(corpus.sequences)
        thresholds = self.thresholds(corpus)
        if not self.constrained:
            return [Query(i, t / count, t) for i, t in enumerate(thresholds)]
        # every token used below must survive filtering at the lowest
        # threshold, or the expression would name an unknown token
        top = corpus.by_support
        if corpus.support[top[29]] < min(thresholds):
            raise ValueError(f"{self.name}: corpus too small for its queries")
        # every seed gets queries of the same shape, picked by support
        # rank; random bodies made the cost of a pool vary 2x across seeds
        body = "|".join(f"<{t}>" for t in top[5:30])
        pool = []
        for t in thresholds:
            for first, last, excluded in _CONSTRAINED_SHAPES:
                pool.append(
                    Query(
                        len(pool),
                        t / count,
                        t,
                        regex=f"<{top[first]}> ({body})* "
                        f"(<{top[last[0]]}>|<{top[last[1]]}>)",
                        min_len=2,
                        max_len=7,
                        excluded=top[excluded],
                    )
                )
        return pool

    def stream(self, seed: int, pool: Sequence[Query]):
        """Endless closed-loop order: shuffled cycles over the pool."""
        rng = random.Random(f"{self.name}/stream/{seed}")
        order = list(pool)
        while True:
            rng.shuffle(order)
            yield list(order)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense",
            # not uniform tokens: those give every pattern of one length the
            # same expected support, so the pattern count of a threshold
            # near it jumped 4x between seeds
            why=(
                "Zipf(1.0) over 20 tokens, 500 sequences of 15-45: projection "
                "windows mostly survive, so suffix scans and counting "
                "dominate; regex and constraints idle"
            ),
            fractions=(0.50, 0.55, 0.60, 0.65, 0.70),
            params=dict(sequences=500, alphabet=20, min_len=15, max_len=45, exponent=1.0),
        ),
        Workload(
            name="sparse",
            why=(
                "Zipf(0.8) over 500 tokens, 2000 short sequences: the "
                "last-position skip drops most window entries and the root "
                "scans ~95 symbols"
            ),
            fractions=(0.02, 0.0225, 0.025, 0.0275, 0.03),
            params=dict(sequences=2000, alphabet=500, min_len=5, max_len=15, exponent=0.8),
        ),
        Workload(
            name="wide",
            why=(
                "Zipf(1.0) over 2000 tokens, 10000 sequences, regex+length+"
                "exclusion queries: big tables dominate set-up and memory, "
                "regex and constraints a large share of query time"
            ),
            fractions=(0.003, 0.004, 0.005),
            params=dict(sequences=10000, alphabet=2000, min_len=5, max_len=25, exponent=1.0),
            constrained=True,
        ),
    )
}
