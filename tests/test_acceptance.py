"""Acceptance suite: every shipping requirement, one verdict line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
stream; without -s they appear in captured output on failure.  Each check
prints ``ACCEPTANCE <n> PASS|FAIL <label>`` and fails the test run when its
assertions do not hold.
"""

from __future__ import annotations

import random
import re as stdlib_re
import time
from contextlib import contextmanager

from seqmine import (
    EmptyDatabaseError,
    LengthBounds,
    MiningConfig,
    OracleConfig,
    SymbolCardinality,
    build_database,
    build_model,
    compile_regex,
    compute_last_positions,
    generate_dataset,
    loads,
    mine,
    mine_brute_force,
)
from seqmine.kernel import SearchEngine
from seqmine.oracle import pattern_filter

from conftest import SDB1_TEXT, bind, compare_with_oracle, random_sequences
from test_kernel import run_script

ALL_VARIANTS = ("baseline", "ppic", "ppdc", "ppmixed")


@contextmanager
def verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL {label}")
        raise
    print(f"\nACCEPTANCE {num} PASS {label}")


# --------------------------------------------------------------- criterion 1


def test_c1_last_position_tables_exact_and_fast():
    with verdict(1, "last-position tables match the worked example, under 1ms"):
        db = loads(SDB1_TEXT, min_sup=1)
        assert db.last_pos_list[1] == ((3, 5), (2, 4), (1, 1))
        assert db.last_pos_list[2] == ((3, 4), (2, 3), (1, 2))
        assert db.last_pos_list[3] == ((2, 2), (1, 1))
        assert db.last_pos_list[4] == ((4, 3), (3, 2), (2, 1))
        # per symbol: {sid: last position}, absent sequences left out
        assert db.last_pos_index == (
            {},
            {1: 1, 2: 2, 3: 1},
            {1: 4, 2: 3, 3: 2, 4: 1},
            {1: 5, 2: 4, 4: 2},
            {4: 3},
        )
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for sid in db.sids:
                compute_last_positions(db.seqs[sid])
            best = min(best, time.perf_counter() - start)
        assert best < 0.001


# --------------------------------------------------------------- criterion 2


def test_c2_projection_windows_match_worked_example():
    with verdict(2, "stacked projection windows match the worked example"):
        db = loads(SDB1_TEXT, min_sup=1)
        for variant in ALL_VARIANTS:
            model = build_model(db, MiningConfig(min_sup=1, propagator=variant))
            freq = model.frequency
            assert freq.window(0) == [(1, 0), (2, 0), (3, 0), (4, 0)]
            bind(model, 0, 1)
            assert freq.propagate(0)
            assert freq.support(1) == 3
            assert freq.window(1) == [(1, 1), (2, 2), (3, 1)]
            bind(model, 1, 2)
            assert freq.propagate(1)
            assert freq.support(2) == 3
            assert freq.window(2) == [(1, 2), (2, 3), (3, 2)]
            if variant != "ppic":
                # the list strategies stack their windows in two arrays
                proj = freq.projection
                assert proj.bounds[:3] == [(0, 4), (4, 7), (7, 10)]
                assert proj.sids[:10] == [1, 2, 3, 4, 1, 2, 3, 1, 2, 3]
                assert proj.poss[:10] == [0, 0, 0, 0, 1, 2, 1, 2, 3, 2]
            # the parent's window is still readable below the child
            assert freq.window(1) == [(1, 1), (2, 2), (3, 1)]


# --------------------------------------------------------------- criterion 3


def test_c3_projected_frequencies_along_both_counting_routes():
    with verdict(3, "projected frequencies agree on both counting routes"):
        db = loads(SDB1_TEXT, min_sup=1)
        for variant in ALL_VARIANTS:
            model = build_model(db, MiningConfig(min_sup=1, propagator=variant))
            bind(model, 0, 1)
            assert model.frequency.propagate(0)
            assert model.frequency.frequencies(1) == [0, 0, 3, 2, 0], variant
        # the decrement route starts from whole-database supports, which a
        # child's decrements leave untouched for its siblings
        model = build_model(db, MiningConfig(min_sup=1, propagator="ppdc"))
        freq = model.frequency
        assert freq.frequencies(0) == [0, 3, 4, 3, 1]
        bind(model, 0, 1)
        assert freq.propagate(0)
        assert freq.frequencies(1) == [0, 0, 3, 2, 0]
        assert freq.frequencies(0) == [0, 3, 4, 3, 1]
        bind(model, 0, 3)  # the sibling <C> projects from the same root
        assert freq.propagate(0)
        assert freq.frequencies(1) == [0, 0, 1, 1, 1]


# --------------------------------------------------------------- criterion 4


def _differential_corpus():
    rng = random.Random(20260823)
    corpus = []
    for _ in range(140):
        corpus.append(random_sequences(rng, 8, 7, rng.randint(2, 5)))
    for _ in range(40):
        corpus.append(
            random_sequences(rng, 15, 10, rng.randint(3, 6), min_sequences=5, min_length=2)
        )
    for _ in range(8):
        corpus.append(random_sequences(rng, 30, 5, 4, min_sequences=20))
    for _ in range(6):
        corpus.append(random_sequences(rng, 3, 15, 2, min_length=11))
    for _ in range(6):
        corpus.append(random_sequences(rng, 12, 6, 8, min_sequences=6))
    return corpus


def test_c4_four_variants_match_brute_force_on_200_databases():
    with verdict(4, "all variants match brute force on 200 random databases"):
        corpus = _differential_corpus()
        assert len(corpus) == 200
        started = time.perf_counter()
        mismatches = 0
        for raw in corpus:
            for theta in (1, 2, 3):
                mismatches += compare_with_oracle(raw, theta, ALL_VARIANTS)
        elapsed = time.perf_counter() - started
        assert mismatches == 0
        assert elapsed < 60.0, f"differential corpus took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 5


def _constraint_suite(db):
    n = db.symbol_count
    configs = [
        MiningConfig(min_sup=1, length=LengthBounds(1, 2)),
        MiningConfig(min_sup=1, length=LengthBounds(2, 4)),
        MiningConfig(min_sup=1, cardinalities=(SymbolCardinality(1, at_least=1),)),
        MiningConfig(
            min_sup=1, cardinalities=(SymbolCardinality(1, at_least=0, at_most=0),)
        ),
        MiningConfig(
            min_sup=1, cardinalities=(SymbolCardinality(1, at_least=0, at_most=1),)
        ),
    ]
    if n >= 2:
        x, y = db.names[1], db.names[2]
        configs += [
            MiningConfig(
                min_sup=1,
                length=LengthBounds(2, 3),
                cardinalities=(SymbolCardinality(2, at_least=1),),
            ),
            MiningConfig(min_sup=1, regex=f"{x} ({y}|{x})*"),
            MiningConfig(min_sup=1, regex=f"({x}|{y})+ {x}?"),
            MiningConfig(
                min_sup=1,
                regex=f"({x}|{y})* {y}",
                length=LengthBounds(1, 3),
            ),
        ]
    return configs


def _constraint_corpora():
    rng = random.Random(55)
    corpora = [loads(SDB1_TEXT, min_sup=1)]
    for _ in range(24):
        raw = random_sequences(rng, 7, 7, 3)
        try:
            corpora.append(build_database(raw, 1))
        except EmptyDatabaseError:
            continue
    return corpora


def test_c5_constrained_mining_equals_post_filtering():
    with verdict(5, "constrained mining equals filtering unconstrained output"):
        checked = 0
        for db in _constraint_corpora():
            unconstrained = dict(mine(db, MiningConfig(min_sup=1)).patterns)
            for config in _constraint_suite(db):
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
                assert got == expected, config
                checked += 1
        assert checked >= 200


# --------------------------------------------------------------- criterion 6


def _root_snapshot(model):
    """Domains and slot 0, the state every search starts from."""
    freq = model.frequency
    return {
        "domains": [v.sorted_values() for v in model.variables],
        "window": freq.window(0),
        "support": freq.support(0),
        "frequencies": freq.frequencies(0),
    }


def _slot_snapshot(model):
    """Every per-depth slot of the frequency propagator, stale ones too."""
    freq = model.frequency
    slots = range(len(model.variables) + 1)
    return [(freq.support(f), freq.window(f), freq.frequencies(f)) for f in slots]


def test_c6_search_leaves_no_residue_and_trail_matches_snapshots():
    # the propagators keep per-depth slots instead of a trail: a search
    # must leave the root state as it found it, and a rerun must write
    # every slot exactly as the first run did
    with verdict(6, "state is restored after every search; reruns match snapshots"):
        rng = random.Random(66)
        for trial in range(6):
            raw = random_sequences(rng, 8, 8, 4, min_sequences=3)
            db = build_database(raw, 1)
            for variant in ALL_VARIANTS:
                config = MiningConfig(min_sup=max(1, db.size // 3), propagator=variant)
                model = build_model(db, config)
                seen = []
                engine = SearchEngine(model.variables, model.propagators, seen.append)
                before = _root_snapshot(model)
                engine.solve_all()
                assert _root_snapshot(model) == before, variant
                slots, first = _slot_snapshot(model), list(seen)
                # a second run must see identical state and counters
                nodes = engine.nodes
                seen.clear()
                engine.solve_all()
                assert engine.nodes == nodes
                assert seen == first, variant
                assert _root_snapshot(model) == before, variant
                assert _slot_snapshot(model) == slots, variant
                # an aborted run leaves the root state too
                budget = [max(1, nodes // 2)]

                def hook():
                    budget[0] -= 1
                    return budget[0] > 0

                engine.node_hook = hook
                engine.solve_all()
                assert engine.aborted == (nodes > 0)
                assert _root_snapshot(model) == before, variant
                engine.node_hook = None
                seen.clear()
                engine.solve_all()
                assert seen == first, variant
        # randomized domain scripts checked against plain-set models
        run_script(20260824, 100_000)
        run_script(424242, 100_000)


# --------------------------------------------------------------- criterion 7


DENSE_CONFIGS = [
    (80, 8, 12, 2.0, 8),
    (60, 6, 15, 3.0, 6),
    (100, 10, 10, 2.5, 10),
    (50, 5, 20, 5.0, 20),
    (120, 12, 8, 2.0, 12),
    (40, 7, 25, 4.0, 16),
]


def test_c7_lastpos_variant_never_reads_more_positions_than_baseline():
    # ppmixed keeps the last-position scans; the bitmaps (ppic) read none
    with verdict(7, "position reads: ppmixed <= baseline on every dense dataset"):
        strict = False
        for sequences, alphabet, mean_length, sparsity, theta in DENSE_CONFIGS:
            raw = generate_dataset(
                sequences, alphabet, mean_length, sparsity=sparsity, seed=sequences
            )
            db = build_database(raw, theta)
            base = mine(db, MiningConfig(min_sup=theta, propagator="baseline"))
            lastpos = mine(db, MiningConfig(min_sup=theta, propagator="ppmixed"))
            assert sorted(lastpos.patterns) == sorted(base.patterns)
            assert lastpos.stats.search_nodes == base.stats.search_nodes
            assert (
                lastpos.stats.positions_visited <= base.stats.positions_visited
            ), (sequences, alphabet, mean_length)
            if lastpos.stats.positions_visited < base.stats.positions_visited:
                strict = True
        assert strict


# --------------------------------------------------------------- criterion 8


def test_c8_scale_run_keeps_lastpos_variant_competitive():
    with verdict(8, "5000x40 scale run: ppic within 2x baseline wall time"):
        raw = generate_dataset(5000, 20, 40, sparsity=10.0, seed=42)
        theta = 250  # 5% of 5000
        db = build_database(raw, theta)
        base = mine(db, MiningConfig(min_sup=theta, propagator="baseline"))
        ppic = mine(db, MiningConfig(min_sup=theta, propagator="ppic"))
        assert sorted(ppic.patterns) == sorted(base.patterns)
        assert ppic.stats.search_nodes == base.stats.search_nodes
        assert ppic.stats.solution_count > 0
        base_ms = base.stats.wall_time_ms
        ppic_ms = ppic.stats.wall_time_ms
        assert ppic_ms <= 2.0 * base_ms, (ppic_ms, base_ms)
        per_node_base = base_ms / base.stats.search_nodes
        per_node_ppic = ppic_ms / ppic.stats.search_nodes
        assert per_node_ppic <= 10.0 * per_node_base


# --------------------------------------------------------------- criterion 9


RE10 = "A*B(B|C)D*EF*(G|H)I*"
RE14 = "A*(Q | BS*(B|C)) D* E (I|S)* (F|H) G* R"


def _accepting_walk(dfa, rng, max_len=18):
    word = []
    q = dfa.start
    while len(word) < max_len:
        if dfa.is_accepting(q) and rng.random() < 0.35:
            return word
        options = sorted(dfa.live[q])
        if not options:
            return word if dfa.is_accepting(q) else None
        a = rng.choice(options)
        word.append(a)
        q = dfa.step(q, a)
    return word if dfa.is_accepting(q) else None


def _check_regex_against_python(expr: str, seed: int) -> tuple[int, int]:
    letters = sorted(set(expr) & set("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
    ids = {name: i + 1 for i, name in enumerate(letters)}
    names = {i: name for name, i in ids.items()}
    dfa = compile_regex(expr, ids)
    reference = stdlib_re.compile(expr.replace(" ", ""))
    rng = random.Random(seed)
    disagreements = 0
    positives = 0
    for trial in range(1000):
        if trial % 4 == 0:
            word = _accepting_walk(dfa, rng)
            if word is None:
                word = [rng.randint(1, len(ids)) for _ in range(rng.randint(0, 16))]
        else:
            word = [rng.randint(1, len(ids)) for _ in range(rng.randint(0, 16))]
        text = "".join(names[a] for a in word)
        ours = dfa.accepts(word)
        theirs = reference.fullmatch(text) is not None
        if ours != theirs:
            disagreements += 1
        if theirs:
            positives += 1
    return disagreements, positives


def test_c9_reference_expressions_agree_with_python_re():
    with verdict(9, "automata agree with Python re on both reference expressions"):
        for expr, seed in ((RE10, 10), (RE14, 14)):
            disagreements, positives = _check_regex_against_python(expr, seed)
            assert disagreements == 0, expr
            # the sample must actually exercise the accepting language
            assert positives >= 100, expr
