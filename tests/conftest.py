"""Shared fixtures: the worked example database and random-corpus helpers."""

from __future__ import annotations

import random

import pytest

from seqmine import EmptyDatabaseError, MiningConfig, OracleConfig, build_database
from seqmine import loads, mine, mine_brute_force

#: four short sequences exercising every code path: repeats, absent symbols,
#: a symbol that only one sequence contains
SDB1_TEXT = "A B C B C\nB A B C\nA B\nB C D\n"


@pytest.fixture
def sdb1():
    return loads(SDB1_TEXT, min_sup=1)


@pytest.fixture
def sdb1_theta2():
    return loads(SDB1_TEXT, min_sup=2)


def bind(model, depth, symbol):
    """Bind variable `depth` of `model` to `symbol` as `SearchEngine` does:
    assign it, then reset the next variable to its template for the
    propagators to filter."""
    variables = model.variables
    variables[depth].assign(symbol)
    if depth + 1 < len(variables):
        variables[depth + 1].reset()


def random_sequences(
    rng: random.Random,
    max_sequences: int,
    max_length: int,
    alphabet: int,
    min_sequences: int = 1,
    min_length: int = 1,
) -> list[list[str]]:
    symbols = [chr(ord("a") + i) for i in range(alphabet)]
    count = rng.randint(min_sequences, max_sequences)
    return [
        rng.choices(symbols, k=rng.randint(min_length, max_length))
        for _ in range(count)
    ]


def engine_patterns(db, theta, variant="ppic", **kwargs):
    """Sorted (pattern, support) list mined by the engine."""
    config = MiningConfig(min_sup=theta, propagator=variant, **kwargs)
    return sorted(mine(db, config).patterns)


def compare_with_oracle(raw, theta, variants=("baseline", "ppic", "ppdc", "ppmixed")):
    """Mine raw sequences with every variant and the oracle; returns the
    number of disagreeing variant runs (0 when everything matches)."""
    try:
        db = build_database(raw, theta)
    except EmptyDatabaseError:
        return 0
    expected = mine_brute_force(db, OracleConfig(min_sup=theta))
    mismatches = 0
    for variant in variants:
        got = engine_patterns(db, theta, variant)
        if got != expected:
            mismatches += 1
    return mismatches
