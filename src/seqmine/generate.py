"""Seeded random dataset generation with a target repetition profile.

Sparsity here is the mean, over sequences, of sequence length divided by
the number of distinct symbols in that sequence; 1.0 means all-distinct
symbols, larger values mean more repetition.  The generator hits the
requested sparsity by sizing each sequence's distinct-symbol pool from its
length, so the measured value stays within a few percent of the target.
"""

from __future__ import annotations

import random
from typing import Sequence

__all__ = ["GenerationError", "generate_dataset", "measured_sparsity"]


class GenerationError(ValueError):
    """Unsatisfiable generator parameters."""


def _token_name(i: int, alphabet_size: int) -> str:
    """Name of the 0-based symbol `i`: a letter in alphabets of up to 26."""
    return chr(ord("A") + i) if alphabet_size <= 26 else f"s{i + 1}"


def generate_dataset(
    num_sequences: int,
    alphabet_size: int,
    mean_length: int,
    sparsity: float = 1.0,
    seed: int = 0,
) -> list[list[str]]:
    """Random token sequences; same arguments and seed, same output.

    Lengths are uniform in [mean/2, 3*mean/2].  Each sequence draws a pool
    of length/sparsity distinct symbols, uses each at least once, and fills
    the rest by uniform draws from the pool.
    """
    if num_sequences < 1 or alphabet_size < 1 or mean_length < 1:
        raise GenerationError("sizes must be at least 1")
    if sparsity < 1.0:
        raise GenerationError("sparsity must be at least 1.0")
    if sparsity > mean_length:
        raise GenerationError("sparsity cannot exceed the mean length")
    if mean_length / sparsity > alphabet_size:
        raise GenerationError(
            "alphabet too small for the requested length/sparsity"
        )
    rng = random.Random(seed)
    low = max(1, round(mean_length * 0.5))
    high = max(low, round(mean_length * 1.5))
    length_cap = int(alphabet_size * sparsity)
    dataset: list[list[str]] = []
    for _ in range(num_sequences):
        n = min(rng.randint(low, high), length_cap)
        distinct = round(n / sparsity)
        distinct = max(1, min(distinct, n, alphabet_size))
        # a draw depends only on the population's length: index i is name i
        drawn = rng.sample(range(alphabet_size), distinct)
        pool = [_token_name(i, alphabet_size) for i in drawn]
        seq = pool + rng.choices(pool, k=n - distinct)
        rng.shuffle(seq)
        dataset.append(seq)
    return dataset


def measured_sparsity(dataset: Sequence[Sequence[str]]) -> float:
    """Mean of length / distinct-symbol-count over the dataset."""
    if not dataset:
        return 0.0
    return sum(len(s) / len(set(s)) for s in dataset) / len(dataset)
