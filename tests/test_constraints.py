"""Length, cardinality and regex side constraints on mined patterns."""

from __future__ import annotations

import random

import pytest

from seqmine import (
    EmptyDatabaseError,
    LengthBounds,
    MiningConfig,
    OracleConfig,
    PROPAGATORS,
    SymbolCardinality,
    build_database,
    build_model,
    mine,
    mine_brute_force,
)
from seqmine.oracle import pattern_filter

from conftest import engine_patterns, random_sequences


# ------------------------------------------------------------- spec validation


def test_length_bounds_validation():
    LengthBounds(1, 1)
    LengthBounds(2, 5)
    with pytest.raises(ValueError):
        LengthBounds(0, 3)
    with pytest.raises(ValueError):
        LengthBounds(3, 2)


def test_cardinality_validation():
    SymbolCardinality(1)
    SymbolCardinality(2, at_least=1)
    SymbolCardinality(2, at_least=0, at_most=0)
    with pytest.raises(ValueError):
        SymbolCardinality(0)
    with pytest.raises(ValueError):
        SymbolCardinality(1, at_least=-1)
    with pytest.raises(ValueError):
        SymbolCardinality(1, at_least=2, at_most=1)


def test_mining_config_validation():
    with pytest.raises(ValueError):
        MiningConfig(min_sup=0)
    with pytest.raises(ValueError):
        MiningConfig(min_sup=1, propagator="quantum")


# -------------------------------------------------------------- length bounds


def test_min_length_two_drops_singletons(sdb1_theta2):
    got = engine_patterns(sdb1_theta2, 2, length=LengthBounds(2, 5))
    assert got == [
        ((1, 2), 3),
        ((1, 2, 3), 2),
        ((1, 3), 2),
        ((2, 2), 2),
        ((2, 2, 3), 2),
        ((2, 3), 3),
    ]


def test_max_length_one_keeps_only_singletons(sdb1_theta2):
    got = engine_patterns(sdb1_theta2, 2, length=LengthBounds(1, 1))
    assert got == [((1,), 3), ((2,), 4), ((3,), 3)]


def test_length_propagator_shapes_domains(sdb1_theta2):
    config = MiningConfig(min_sup=2, length=LengthBounds(2, 2))
    model = build_model(sdb1_theta2, config)
    model.trail.push_level()
    assert model.variables[0].assign(1)
    for prop in model.propagators:
        assert prop.propagate(0)
    # prefix <A> is below the minimum: continuing is forced
    assert not model.variables[1].contains(0)
    model.trail.push_level()
    assert model.variables[1].assign(2)
    for prop in model.propagators:
        assert prop.propagate(1)
    # the maximum is the model size: <A B> fills the last slot and is emitted
    assert len(model.variables) == 2
    assert ((1, 2), 3) in mine(sdb1_theta2, config).patterns


# ----------------------------------------------------------------- model size


def test_model_size_is_the_min_sup_th_longest_sequence():
    # one 40-token sequence cannot support a pattern alone: at min_sup 2 the
    # second-longest sequence, 3 tokens, bounds the pattern length
    long_seq = ["a", "b", "c"] * 13 + ["a"]
    db = build_database([long_seq, ["a", "b", "c"], ["c", "b", "a"]], min_sup=2)
    assert db.max_len == 40
    assert len(build_model(db, MiningConfig(min_sup=2)).variables) == 3
    expected = mine_brute_force(db, OracleConfig(min_sup=2))
    assert max(len(p) for p, _ in expected) == 3
    for variant in PROPAGATORS:
        assert engine_patterns(db, 2, variant) == expected


def test_threshold_above_the_sequence_count_mines_nothing(sdb1):
    config = MiningConfig(min_sup=sdb1.size + 1)
    assert len(build_model(sdb1, config).variables) == 1
    for variant in PROPAGATORS:
        assert engine_patterns(sdb1, sdb1.size + 1, variant) == []


# ---------------------------------------------------------------- cardinality


def test_contains_at_least_once(sdb1_theta2):
    got = engine_patterns(
        sdb1_theta2, 2, cardinalities=(SymbolCardinality(1, at_least=1),)
    )
    assert got == [((1,), 3), ((1, 2), 3), ((1, 2, 3), 2), ((1, 3), 2)]


def test_exclusion(sdb1_theta2):
    got = engine_patterns(
        sdb1_theta2, 2, cardinalities=(SymbolCardinality(1, at_least=0, at_most=0),)
    )
    assert got == [((2,), 4), ((2, 2), 2), ((2, 2, 3), 2), ((2, 3), 3), ((3,), 3)]


def test_contains_twice(sdb1_theta2):
    got = engine_patterns(
        sdb1_theta2, 2, cardinalities=(SymbolCardinality(2, at_least=2),)
    )
    assert got == [((2, 2), 2), ((2, 2, 3), 2)]


def test_excluded_symbol_is_removed_at_the_root(sdb1_theta2):
    config = MiningConfig(
        min_sup=2, cardinalities=(SymbolCardinality(2, at_least=0, at_most=0),)
    )
    model = build_model(sdb1_theta2, config)
    for prop in model.propagators:
        assert prop.propagate(-1)
    # the next unbound variable is filtered; deeper ones wait for their node
    assert not model.variables[0].contains(2)
    assert model.variables[1].contains(2)
    model.trail.push_level()
    assert model.variables[0].assign(1)
    for prop in model.propagators:
        assert prop.propagate(0)
    assert not model.variables[1].contains(2)


def test_unattainable_minimum_yields_no_patterns(sdb1_theta2):
    # 6 occurrences cannot fit into 5 pattern slots
    got = engine_patterns(
        sdb1_theta2, 2, cardinalities=(SymbolCardinality(1, at_least=6),)
    )
    assert got == []


# ---------------------------------------------------------------------- regex


def test_regex_exact_pattern(sdb1):
    got = engine_patterns(sdb1, 1, regex="B C")
    assert got == [((2, 3), 3)]


def test_regex_prefix_language(sdb1_theta2):
    got = engine_patterns(sdb1_theta2, 2, regex="A (B|C)*")
    assert got == [((1,), 3), ((1, 2), 3), ((1, 2, 3), 2), ((1, 3), 2)]


def test_regex_requiring_infrequent_word_yields_nothing(sdb1):
    assert engine_patterns(sdb1, 1, regex="A A") == []


def test_regex_literal_filtered_out_at_load_matches_nothing(sdb1_theta2):
    # D occurs in the input, but below the threshold
    assert "D" in sdb1_theta2.dropped
    oracle_config = OracleConfig(min_sup=2, regex="A (B|D)")
    expected = mine_brute_force(sdb1_theta2, oracle_config)
    assert expected == [((1, 2), 3)]
    assert engine_patterns(sdb1_theta2, 2, regex="A (B|D)") == expected
    assert engine_patterns(sdb1_theta2, 2, regex="D") == []


def test_regex_on_full_length_patterns():
    db = build_database([["A", "B"], ["A", "B"]], 1)
    assert engine_patterns(db, 1, regex="A B") == [((1, 2), 2)]
    assert engine_patterns(db, 1, regex="A B+") == [((1, 2), 2)]
    assert engine_patterns(db, 1, regex="B A") == []


def test_regex_with_multichar_tokens():
    db = build_database([["load", "store", "load"], ["load", "store"]], 1)
    got = engine_patterns(db, 1, regex="<load> <store>")
    assert got == [((1, 2), 2)]


# ----------------------------------------------- equivalence with post-filter


def constraint_cases(db):
    n = db.symbol_count
    cases = [
        MiningConfig(min_sup=1, length=LengthBounds(1, 2)),
        MiningConfig(min_sup=1, length=LengthBounds(2, 3)),
        MiningConfig(min_sup=1, cardinalities=(SymbolCardinality(1, at_least=1),)),
        MiningConfig(
            min_sup=1, cardinalities=(SymbolCardinality(1, at_least=0, at_most=0),)
        ),
    ]
    if n >= 2:
        cases.append(
            MiningConfig(
                min_sup=1,
                length=LengthBounds(1, 3),
                cardinalities=(SymbolCardinality(2, at_least=0, at_most=1),),
            )
        )
        x, y = db.names[1], db.names[2]
        cases.append(MiningConfig(min_sup=1, regex=f"{x} ({y}|{x})*"))
        cases.append(MiningConfig(min_sup=1, regex=f"({x}|{y})+"))
    return cases


def test_constrained_mining_equals_filtered_unconstrained():
    rng = random.Random(41)
    checked = 0
    for trial in range(15):
        raw = random_sequences(rng, 6, 6, 3)
        try:
            db = build_database(raw, 1)
        except EmptyDatabaseError:
            continue
        unconstrained = {p: s for p, s in engine_patterns(db, 1)}
        for config in constraint_cases(db):
            oracle_config = OracleConfig(
                min_sup=config.min_sup,
                length=config.length,
                cardinalities=config.cardinalities,
                regex=config.regex,
            )
            accept = pattern_filter(db, oracle_config)
            expected = sorted(
                (p, s) for p, s in unconstrained.items() if accept(p)
            )
            got = sorted(mine(db, config).patterns)
            assert got == expected, (raw, config)
            assert got == mine_brute_force(db, oracle_config), (raw, config)
            checked += 1
    assert checked > 40
