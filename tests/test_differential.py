"""Randomized differential test: every strategy against the brute-force oracle.

Each example draws a small database, a threshold and an optional mix of
side constraints (length bounds, cardinality and exclusion specs, a regex
over the database's own tokens).  Hypothesis shrinks a disagreement to a
minimal database and constraint mix.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from seqmine import (
    EmptyDatabaseError,
    LengthBounds,
    MiningConfig,
    OracleConfig,
    PROPAGATORS,
    SymbolCardinality,
    build_database,
    mine,
    mine_brute_force,
)

TOKENS = "abcd"


def regexes(tokens):
    """Expressions over `tokens` with | * + ? and concatenation."""

    def extend(inner):
        return st.one_of(
            st.tuples(inner, inner).map(lambda p: f"{p[0]} {p[1]}"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]}|{p[1]})"),
            st.tuples(inner, st.sampled_from("*+?")).map(lambda p: f"({p[0]}){p[1]}"),
        )

    return st.recursive(st.sampled_from(tokens), extend, max_leaves=6)


@st.composite
def mining_cases(draw):
    alphabet = TOKENS[: draw(st.integers(1, len(TOKENS)))]
    raw = draw(
        st.lists(
            st.lists(st.sampled_from(alphabet), min_size=1, max_size=7),
            min_size=1,
            max_size=6,
        )
    )
    theta = draw(st.integers(1, len(raw)))
    try:
        db = build_database(raw, theta)
    except EmptyDatabaseError:
        assume(False)
    length = None
    if draw(st.booleans()):
        lo = draw(st.integers(1, 4))
        length = LengthBounds(lo, draw(st.integers(lo, 7)))
    specs = []
    for _ in range(draw(st.integers(0, 2))):
        symbol = draw(st.integers(1, db.symbol_count))
        at_least = draw(st.integers(0, 2))
        at_most = draw(st.one_of(st.none(), st.integers(at_least, at_least + 2)))
        specs.append(SymbolCardinality(symbol, at_least, at_most))
    # literals may name tokens dropped below the threshold: they match nothing
    present = sorted({tok for seq in raw for tok in seq})
    regex = draw(st.one_of(st.none(), regexes(present)))
    oracle = OracleConfig(
        min_sup=theta, length=length, cardinalities=tuple(specs), regex=regex
    )
    return db, oracle


@settings(max_examples=150, deadline=None)
@given(case=mining_cases())
def test_every_strategy_matches_brute_force_under_constraints(case):
    db, oracle = case
    expected = mine_brute_force(db, oracle)
    for name in PROPAGATORS:
        config = MiningConfig(
            min_sup=oracle.min_sup,
            propagator=name,
            length=oracle.length,
            cardinalities=oracle.cardinalities,
            regex=oracle.regex,
        )
        assert sorted(mine(db, config).patterns) == expected, name
