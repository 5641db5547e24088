"""Projection windows, frequency counting and the four strategy variants."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from seqmine import (
    EmptyDatabaseError,
    LengthBounds,
    MiningConfig,
    OracleConfig,
    SymbolCardinality,
    build_database,
    build_model,
    mine,
    mine_brute_force,
)
from seqmine.kernel import Propagator, SearchEngine
from seqmine.propagators import projected_symbol_counts

from conftest import SDB1_TEXT, bind, engine_patterns, random_sequences
from test_acceptance import _constraint_corpora, _constraint_suite

ALL_VARIANTS = ("baseline", "ppic", "ppdc", "ppmixed")
# the strategies that keep windows in the stacked sid/position arrays
LIST_VARIANTS = ("baseline", "ppdc", "ppmixed")

# mining SDB1 at threshold 2 yields exactly these nine patterns
SDB1_THETA2_PATTERNS = [
    ((1,), 3),
    ((1, 2), 3),
    ((1, 2, 3), 2),
    ((1, 3), 2),
    ((2,), 4),
    ((2, 2), 2),
    ((2, 2, 3), 2),
    ((2, 3), 3),
    ((3,), 3),
]


def drive(db, variant, prefix, min_sup=1):
    """Build a model and bind `prefix` one symbol at a time."""
    model = build_model(db, MiningConfig(min_sup=min_sup, propagator=variant))
    for depth, symbol in enumerate(prefix):
        bind(model, depth, symbol)
        assert model.frequency.propagate(depth)
    return model


# ----------------------------------------------------------- window stacking


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_root_window_covers_every_sequence(sdb1, variant):
    model = build_model(sdb1, MiningConfig(min_sup=1, propagator=variant))
    freq = model.frequency
    assert freq.support(0) == 4
    assert freq.window(0) == [(1, 0), (2, 0), (3, 0), (4, 0)]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_window_after_first_symbol(sdb1, variant):
    model = drive(sdb1, variant, [1])  # <A>
    freq = model.frequency
    assert freq.support(1) == 3
    assert freq.window(1) == [(1, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize("variant", LIST_VARIANTS)
def test_window_after_two_symbols_and_array_layout(sdb1, variant):
    model = drive(sdb1, variant, [1, 2])  # <A B>
    proj = model.frequency.projection
    assert proj.bounds[2] == (7, 10)
    assert proj.window(2) == [(1, 2), (2, 3), (3, 2)]
    # stacked layout: root block, then the <A> block, then the <A B> block
    assert proj.sids[:10] == [1, 2, 3, 4, 1, 2, 3, 1, 2, 3]
    assert proj.poss[:10] == [0, 0, 0, 0, 1, 2, 1, 2, 3, 2]


@pytest.mark.parametrize("variant", LIST_VARIANTS)
def test_child_extension_leaves_parent_block_untouched(sdb1, variant):
    model = drive(sdb1, variant, [1])
    proj = model.frequency.projection
    parent = (list(proj.sids[4:7]), list(proj.poss[4:7]))
    bind(model, 1, 2)
    assert model.frequency.propagate(1)
    assert (list(proj.sids[4:7]), list(proj.poss[4:7])) == parent
    assert proj.bounds[1] == (4, 7)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_ancestor_window_stays_readable_below_its_child(sdb1, variant):
    # slot 1 holds <A>'s window after <A B> is bound below it
    model = drive(sdb1, variant, [1, 2])
    freq = model.frequency
    expect = naive_window(sdb1, [1])
    assert freq.window(1) == expect == [(1, 1), (2, 2), (3, 1)]
    assert freq.support(1) == len(expect)
    assert freq.frequencies(1) == projected_symbol_counts(sdb1, expect)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_frequencies_after_first_symbol(sdb1, variant):
    model = drive(sdb1, variant, [1])
    # suffixes after <A>: <B C B C>, <B C>, <B>: B in 3, C in 2
    assert model.frequency.frequencies(1) == [0, 0, 3, 2, 0]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_infrequent_symbols_filtered_from_next_variable_only(sdb1, variant):
    model = drive(sdb1, variant, [1], min_sup=2)
    assert model.variables[1].sorted_values() == [0, 2, 3]
    # variables beyond the next one keep their full domains
    assert model.variables[2].sorted_values() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_extension_fails_when_support_drops_below_threshold(sdb1, variant):
    model = build_model(sdb1, MiningConfig(min_sup=2, propagator=variant))
    bind(model, 0, 4)  # D appears once
    assert not model.frequency.propagate(0)


def test_projected_symbol_counts_recount(sdb1):
    assert projected_symbol_counts(sdb1, [(1, 1)]) == [0, 0, 1, 1, 0]
    assert projected_symbol_counts(sdb1, []) == [0, 0, 0, 0, 0]
    window = [(sid, 0) for sid in sdb1.sids]
    assert projected_symbol_counts(sdb1, window) == [0, 3, 4, 3, 1]


# ------------------------------------------------------ index-side projection


def test_rare_symbol_projects_from_its_index():
    # X is in 3 of 1000 sequences: the root window has 1000 entries, the
    # index of X has 3, and the regex makes <X> the only extension; the
    # bitmap strategy walks no entries at all
    raw = [["A", "X", "B"] if i % 400 == 7 else ["A", "B"] for i in range(1000)]
    db = build_database(raw, 1)
    assert len(db.last_pos_index[db.id_of["X"]]) == 3
    examined = {"baseline": 1000, "ppic": 0, "ppdc": 1000, "ppmixed": 3}
    for variant, entries in examined.items():
        result = mine(db, MiningConfig(min_sup=1, propagator=variant, regex="X"))
        assert result.patterns == [((db.id_of["X"],), 3)], variant
        assert result.stats.entries_examined == entries, variant


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_index_side_child_window_equals_naive_projection(variant):
    raw = [
        ["A", "B"],
        ["X", "A", "B"],  # its only X lies before the <A> cursor
        ["A", "X"],
        ["B", "X"],  # holds X but is absent from the <A> window
        ["A", "B", "X", "A", "X"],
    ] + [["B", "A", "B"]] * 6
    db = build_database(raw, 1)
    a, x = db.id_of["A"], db.id_of["X"]
    model = drive(db, variant, [a])
    freq = model.frequency
    assert freq.support(1) == 10
    assert len(db.last_pos_index[x]) == 4  # fewer than the 10 window entries
    before = freq.entries_examined
    bind(model, 1, x)
    assert freq.propagate(1)
    assert freq.window(2) == naive_window(db, [a, x]) == [(3, 2), (5, 3)]
    # ppmixed scans from the index side; the bitmaps walk no entries
    examined = {"ppmixed": 4, "ppic": 0}.get(variant, 10)
    assert freq.entries_examined - before == examined


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_sibling_windows_with_equal_start_and_size_do_not_share_a_map(variant):
    # <A> and <B> both hold all ten sequences, so both windows open at the
    # same start with the same size; only the suffix starts differ
    raw = [["A", "B"], ["A", "X", "B"], ["B", "X", "A"]] + [["A", "B"]] * 7
    db = build_database(raw, 1)
    a, b, x = db.id_of["A"], db.id_of["B"], db.id_of["X"]
    model = build_model(db, MiningConfig(min_sup=1, propagator=variant))
    freq = model.frequency
    windows = []
    for first in (a, b):
        bind(model, 0, first)
        assert freq.propagate(0)
        if variant in LIST_VARIANTS:
            windows.append(freq.projection.bounds[1])
        bind(model, 1, x)
        assert freq.propagate(1)
        assert freq.window(2) == naive_window(db, [first, x])
    if variant in LIST_VARIANTS:
        assert windows == [(10, 20), (10, 20)]
    config = MiningConfig(min_sup=1, propagator=variant)
    assert sorted(mine(db, config).patterns) == mine_brute_force(
        db, OracleConfig(min_sup=1)
    )


# ------------------------------------------------------------ bitmap layout


def test_bitmap_blocks_hold_at_sequence_and_digit_edges():
    # each sequence is a block of len + 1 bits: the first three blocks end
    # on CPython's 30-bit digit edges (bits 30, 61 and 93 start the next),
    # later ones straddle them; A ends most sequences, often only there, so
    # <A> leaves empty suffixes that still count towards its support
    rng = random.Random(31)
    raw = []
    for n in (29, 30, 31, 59, 60, 61, 30, 61, 29):
        body = rng.choices("BCDE", k=n - 1)
        if rng.random() < 0.5:
            body[rng.randrange(n - 1)] = "A"
        raw.append(body + ["A"])
    raw += [["A"], ["B"], ["A"], ["C"]]  # length-1 blocks
    db = build_database(raw, 1)
    a = db.id_of["A"]
    lengths = [1, 1, 1, 1, 29, 29, 30, 30, 31, 59, 60, 61, 61]
    assert sorted(len(s) for s in db.seqs[1:]) == lengths
    model = drive(db, "ppic", [a])
    only_at_end = [
        (sid, len(seq))
        for sid, seq in enumerate(db.seqs)
        if a in seq[-1:] and a not in seq[:-1]
    ]
    assert len(only_at_end) >= 5
    assert set(only_at_end) <= set(model.frequency.window(1))
    assert model.frequency.support(1) == db.support([a]) == 11
    config = OracleConfig(min_sup=2, max_len=3, length=LengthBounds(1, 3))
    expected = mine_brute_force(db, config)
    for variant in ALL_VARIANTS:
        got = mine(db, MiningConfig(min_sup=2, propagator=variant, length=config.length))
        assert sorted(got.patterns) == expected, variant
    for prefix, _ in expected:
        expect = naive_window(db, prefix)
        freq, f = drive(db, "ppic", prefix).frequency, len(prefix)
        assert freq.window(f) == expect, prefix
        assert freq.support(f) == len(expect), prefix
        assert freq.frequencies(f) == projected_symbol_counts(db, expect), prefix


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("regex", ["A B", "A B C", "A C* B"])
def test_symbols_the_regex_bars_from_the_next_slot_stay_candidates(variant, regex):
    # after <A> only B (or C) may come next, so the frequency filter counts
    # only those; the rest must stay candidates for the slots after it
    raw = [["A", "B", "C"], ["A", "C", "B", "C"], ["B", "A", "C", "B"], ["C", "A"]]
    db = build_database(raw, 2)
    expected = mine_brute_force(db, OracleConfig(min_sup=2, regex=regex))
    assert expected
    config = MiningConfig(min_sup=2, propagator=variant, regex=regex)
    assert sorted(mine(db, config).patterns) == expected


def test_regex_query_builds_bitmaps_only_for_the_symbols_it_touches():
    # 5000 tokens; sequence i holds the 50 from 7i on, so neighbours overlap
    raw = [[f"t{(7 * i + j) % 5000}" for j in range(50)] for i in range(1000)]
    db = build_database(raw, 2)
    assert db.symbol_count == 5000
    regex = "<t7> (<t8>|<t9>)* <t10>"
    named = {db.id_of[t] for t in ("t7", "t8", "t9", "t10")}
    result = mine(db, MiningConfig(min_sup=2, regex=regex))
    reference = mine(db, MiningConfig(min_sup=2, propagator="baseline", regex=regex))
    assert result.patterns == reference.patterns
    assert len(result.patterns) == 4
    bitmaps = db.bitmaps
    assert db.id_of["t7"] in bitmaps.occ  # the root's only symbol was projected
    assert set(bitmaps.occ) | set(bitmaps.last) <= named


# ------------------------------------------------------------ root filtering


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_root_is_filtered_by_the_database_supports(sdb1, variant):
    # loaded at threshold 1: D (support 1) is in the root domain
    config = MiningConfig(min_sup=3, propagator=variant)
    result = mine(sdb1, config)
    assert result.stats.failures == 0
    assert sorted(result.patterns) == mine_brute_force(sdb1, OracleConfig(min_sup=3))
    # no root symbol reaches 5: the search has no node at all
    empty = mine(sdb1, MiningConfig(min_sup=5, propagator=variant))
    assert empty.patterns == []
    assert empty.stats.search_nodes == 0
    assert empty.stats.positions_visited == 0


# --------------------------------------------------------- decrement counters


def test_decrement_counters_follow_window_and_restore(sdb1):
    # a child decrements a copy: the parent's counters stay for its siblings
    model = build_model(sdb1, MiningConfig(min_sup=1, propagator="ppdc"))
    freq = model.frequency
    assert freq.frequencies(0) == [0, 3, 4, 3, 1]
    bind(model, 0, 1)
    assert freq.propagate(0)
    assert freq.frequencies(1) == [0, 0, 3, 2, 0]
    assert freq.frequencies(0) == [0, 3, 4, 3, 1]
    bind(model, 0, 2)
    assert freq.propagate(0)
    assert freq.frequencies(1) == projected_symbol_counts(sdb1, freq.window(1))


def test_adaptive_picks_scratch_for_rare_and_decrement_for_common(sdb1):
    model = build_model(sdb1, MiningConfig(min_sup=1, propagator="ppmixed"))
    freq = model.frequency
    calls = []
    orig_lastpos = freq._scan_lastpos
    orig_decrement = freq._scan_decrement

    def spy_lastpos(a, f):
        calls.append("lastpos")
        return orig_lastpos(a, f)

    def spy_decrement(a, f):
        calls.append("decrement")
        return orig_decrement(a, f)

    freq._scan_lastpos = spy_lastpos
    freq._scan_decrement = spy_decrement

    # D survives in 1 of 4 suffixes: 2*1 < 4 selects the scratch recount
    bind(model, 0, 4)
    assert freq.propagate(0)
    assert calls == ["lastpos"]
    assert freq.frequencies(1) == projected_symbol_counts(sdb1, freq.window(1))
    assert freq.frequencies(0) == [0, 3, 4, 3, 1]

    # B survives in 4 of 4: 2*4 >= 4 keeps the decrement pass
    calls.clear()
    bind(model, 0, 2)
    assert freq.propagate(0)
    assert calls == ["decrement"]
    assert freq.frequencies(1) == projected_symbol_counts(sdb1, freq.window(1))

    # the choice reads the parent window: A is in 3 of 4 sequences, but in
    # only 1 of the 4 suffixes after <B>, so 2*1 < 4 selects the recount
    calls.clear()
    bind(model, 1, 1)
    assert freq.propagate(1)
    assert calls == ["lastpos"]
    assert freq.frequencies(2) == projected_symbol_counts(sdb1, freq.window(2))


# ------------------------------------------------------------- end-to-end


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_sdb1_theta2_patterns(sdb1_theta2, variant):
    got = engine_patterns(sdb1_theta2, 2, variant)
    assert got == SDB1_THETA2_PATTERNS


class Recount(Propagator):
    """Registered last: asserts that the live window's frequencies equal a
    from-scratch recount after every successful pass."""

    def __init__(self, model):
        self.frequency = model.frequency
        self.calls = 0

    def propagate(self, depth):
        freq, f = self.frequency, depth + 1
        expect = projected_symbol_counts(freq.db, freq.window(f))
        assert freq.frequencies(f) == expect, depth
        self.calls += 1
        return True


def search_with(db, config, make_check):
    """Search the model of `config` with `make_check(model)` registered after
    its propagators, and the check's `mark`, if it has one, before them;
    returns the model, the check, the engine and the (pattern, support)
    pairs, as `mine()` reports them."""
    model = build_model(db, config)
    check = make_check(model)
    seen = []

    def sink(values):
        seen.append((tuple(values), model.frequency.support(len(values))))

    lead = [check.mark] if hasattr(check, "mark") else []
    engine = SearchEngine(model.variables, lead + model.propagators + [check], sink)
    engine.solve_all()
    return model, check, engine, seen


def symbol_nodes(model, engine, patterns):
    """Passes a propagator registered last sees: the root pass plus every node
    that bound a symbol and passed the others.  A pattern shorter than the
    model ended at a 0 branch, which runs no propagator."""
    ended = sum(1 for p, _ in patterns if len(p) < len(model.variables))
    return 1 + engine.nodes - engine.failures - ended


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_self_check_recounts_at_every_node(sdb1_theta2, variant):
    config = MiningConfig(min_sup=2, propagator=variant)
    model, check, engine, patterns = search_with(sdb1_theta2, config, Recount)
    assert sorted(patterns) == SDB1_THETA2_PATTERNS
    assert check.calls == symbol_nodes(model, engine, patterns)


# (solutions, nodes, failures, positions_visited per strategy in
# ALL_VARIANTS order, then (entries_examined, supports_counted) per
# strategy) on SDB1 at threshold 2; the bitmaps read no positions or
# entries, and count only the supports of symbols not yet found infrequent
SDB1_THETA2_COUNTERS = [
    ({}, 9, 18, 0, (73, 0, 39, 39), ((31, 27), (0, 19), (31, 27), (31, 27))),
    (
        {"regex": "A B* C?", "length": LengthBounds(1, 3)},
        4, 7, 0, (31, 0, 13, 13), ((13, 4), (0, 4), (13, 4), (13, 4)),
    ),
    (
        {"cardinalities": (SymbolCardinality(2, at_most=1),)},
        7, 14, 0, (64, 0, 33, 33), ((25, 17), (0, 13), (25, 17), (25, 17)),
    ),
]


@pytest.mark.parametrize(
    "constraints, solutions, nodes, failures, positions, entries",
    SDB1_THETA2_COUNTERS,
)
def test_worked_example_search_counters_are_pinned(
    sdb1_theta2, constraints, solutions, nodes, failures, positions, entries
):
    for variant, visited, (examined, counted) in zip(ALL_VARIANTS, positions, entries):
        config = MiningConfig(min_sup=2, propagator=variant, **constraints)
        stats = mine(sdb1_theta2, config).stats
        assert stats.solution_count == solutions, variant
        assert (stats.search_nodes, stats.failures) == (nodes, failures), variant
        assert stats.positions_visited == visited, variant
        assert stats.entries_examined == examined, variant
        assert stats.supports_counted == counted, variant


def test_all_variants_trace_identical_search_trees(sdb1_theta2):
    runs = {
        v: mine(sdb1_theta2, MiningConfig(min_sup=2, propagator=v))
        for v in ALL_VARIANTS
    }
    reference = runs["baseline"]
    for run in runs.values():
        assert run.patterns == reference.patterns
        assert run.stats.search_nodes == reference.stats.search_nodes
        assert run.stats.failures == reference.stats.failures
        assert run.stats.solution_count == 9


def test_reported_supports_are_exact(sdb1):
    for pattern, support in engine_patterns(sdb1, 2):
        assert support == sdb1.support(pattern)
        assert support >= 2


def test_peak_projection_depth(sdb1_theta2):
    result = mine(sdb1_theta2, MiningConfig(min_sup=2))
    assert result.stats.peak_projection_depth == 3
    assert result.stats.failures + result.stats.solution_count <= result.stats.search_nodes


def test_sink_receives_each_pattern_once_without_terminator(sdb1_theta2):
    # the second database has a pattern that fills every slot
    full_length = build_database([["A", "B"], ["A", "B"]], 1)
    for db, theta in ((sdb1_theta2, 2), (full_length, 1)):
        config = MiningConfig(min_sup=theta)
        model = build_model(db, config)
        seen = []
        engine = SearchEngine(model.variables, model.propagators, seen.append)
        engine.solve_all()
        patterns = [tuple(values) for values in seen]
        assert all(0 not in p for p in patterns)
        assert len(set(patterns)) == len(patterns)
        assert patterns == [p for p, _ in mine(db, config).patterns]
    assert full_length.max_len == 2
    assert patterns == [(1, 2), (1,), (2,)]


def work(freq):
    return freq.positions_visited, freq.entries_examined, freq.supports_counted


class WorkMark(Propagator):
    """Registered first: records the frequency propagator's work counters
    before each node's pass."""

    def __init__(self, frequency):
        self.frequency = frequency
        self.counters = (0, 0, 0)

    def propagate(self, depth):
        self.counters = work(self.frequency)
        return True


class StabilityCheck(Propagator):
    """Registered last: asserts that its node bound a symbol, not the 0
    terminator, then re-runs every other propagator at the same node and
    asserts that each re-run succeeds and changes no domain size, and that
    the frequency propagator's slot for the node is unchanged.

    The re-run projects the window again, so the scans count their work a
    second time, exactly as much as in the node's pass; the filter counts
    only the candidates the pass kept."""

    def __init__(self, model):
        self.others = list(model.propagators)
        self.vars = list(model.variables)
        self.frequency = model.frequency
        self.mark = WorkMark(model.frequency)
        self.calls = 0

    def propagate(self, depth):
        assert depth < 0 or self.vars[depth].value() != 0, depth
        freq, f = self.frequency, depth + 1
        sizes = [v.size for v in self.vars]
        slot = (freq.support(f), freq.window(f), freq.frequencies(f))
        done = work(freq)
        for prop in self.others:
            assert prop.propagate(depth), (prop, depth)
            assert [v.size for v in self.vars] == sizes, (prop, depth)
        assert (freq.support(f), freq.window(f), freq.frequencies(f)) == slot
        first = [b - a for a, b in zip(self.mark.counters, done)]
        again = [b - a for a, b in zip(done, work(freq))]
        assert again[:2] == first[:2] and again[2] <= first[2], (first, again)
        self.calls += 1
        return True


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_one_propagation_pass_per_node_is_stable(variant):
    checked = 0
    for db in _constraint_corpora():
        for config in _constraint_suite(db):
            config = replace(config, propagator=variant)
            model, check, engine, patterns = search_with(db, config, StabilityCheck)
            assert check.calls == symbol_nodes(model, engine, patterns)
            assert patterns == mine(db, config).patterns
            checked += 1
    assert checked >= 200


def naive_window(db, prefix):
    out = []
    for sid in db.sids:
        seq = db.seqs[sid]
        pos = 0
        ok = True
        for a in prefix:
            while pos < len(seq) and seq[pos] != a:
                pos += 1
            if pos == len(seq):
                ok = False
                break
            pos += 1
        if ok:
            out.append((sid, pos))
    return out


def test_windows_match_naive_projection_on_random_prefixes():
    rng = random.Random(7)
    for trial in range(30):
        raw = random_sequences(rng, 8, 8, 4)
        db = build_database(raw, 1)
        frequent = engine_patterns(db, 1)
        if not frequent:
            continue
        prefix, _ = rng.choice(frequent)
        expect = naive_window(db, prefix)
        for variant in ALL_VARIANTS:
            model = drive(db, variant, prefix)
            assert model.frequency.window(len(prefix)) == expect, (
                variant,
                raw,
                prefix,
            )


def test_random_corpus_variants_agree_with_self_check():
    rng = random.Random(99)
    for trial in range(25):
        raw = random_sequences(rng, 6, 7, 4)
        theta = rng.randint(1, 3)
        try:
            db = build_database(raw, theta)
        except EmptyDatabaseError:
            continue
        reference = None
        for variant in ALL_VARIANTS:
            config = MiningConfig(min_sup=theta, propagator=variant)
            *_, patterns = search_with(db, config, Recount)
            got = sorted(patterns)
            assert got == sorted(mine(db, config).patterns), (variant, raw, theta)
            if reference is None:
                reference = got
            else:
                assert got == reference, (variant, raw, theta)


def test_lastpos_scans_no_more_positions_than_full_scan():
    # ppmixed keeps the last-position scans; the bitmaps read no positions
    rng = random.Random(5)
    strict = False
    for trial in range(12):
        raw = random_sequences(rng, 10, 12, 4, min_sequences=4, min_length=4)
        db = build_database(raw, 1)
        theta = max(2, db.size // 3)
        base = mine(db, MiningConfig(min_sup=theta, propagator="baseline"))
        lastpos = mine(db, MiningConfig(min_sup=theta, propagator="ppmixed"))
        assert sorted(lastpos.patterns) == sorted(base.patterns)
        assert lastpos.stats.positions_visited <= base.stats.positions_visited
        if lastpos.stats.positions_visited < base.stats.positions_visited:
            strict = True
    assert strict
