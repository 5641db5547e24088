"""Trail, reversible slots, sparse-set domains, and the search engine."""

from __future__ import annotations

import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from seqmine import MiningConfig, build_database, build_model, loads, mine
from seqmine.kernel import (
    FDVariable,
    Propagator,
    ReversibleInt,
    SearchEngine,
    Trail,
    TrailUnderflow,
)

import pytest


# ---------------------------------------------------------------- trail basics


def test_fresh_trail_first_level_is_zero():
    trail = Trail()
    assert trail.depth == 0
    assert trail.push_level() == 0
    assert trail.depth == 1
    assert trail.level_mark(0) == 0


def test_push_after_three_writes_marks_three_entries():
    trail = Trail()
    trail.push_level()
    slots = [ReversibleInt(trail, 0) for _ in range(3)]
    for i, slot in enumerate(slots):
        slot.set(i + 10)
    assert trail.entry_count == 3
    assert trail.push_level() == 1
    assert trail.level_mark(1) == 3


def test_restore_reverts_assignment():
    trail = Trail()
    x = ReversibleInt(trail, 3)
    trail.push_level()
    trail.push_level()
    x.set(5)
    assert x.value == 5
    trail.restore_level()
    assert x.value == 3


def test_same_slot_written_twice_in_one_level_records_one_entry():
    trail = Trail()
    trail.push_level()
    x = ReversibleInt(trail, 1)
    x.set(2)
    x.set(3)
    assert trail.entry_count == 1
    trail.restore_level()
    assert x.value == 1


def test_root_writes_are_permanent():
    trail = Trail()
    x = ReversibleInt(trail, 7)
    x.set(9)
    assert trail.entry_count == 0
    trail.push_level()
    trail.restore_level()
    assert x.value == 9


def test_restore_without_level_raises():
    trail = Trail()
    with pytest.raises(TrailUnderflow):
        trail.restore_level()
    trail.push_level()
    trail.restore_level()
    with pytest.raises(TrailUnderflow):
        trail.restore_level()


def test_nested_levels_restore_newest_first():
    trail = Trail()
    x = ReversibleInt(trail, 0)
    values = []
    for v in (1, 2, 3):
        trail.push_level()
        x.set(v)
        values.append(x.value)
    assert values == [1, 2, 3]
    trail.restore_level()
    assert x.value == 2
    trail.restore_level()
    assert x.value == 1
    trail.restore_level()
    assert x.value == 0


def test_set_to_same_value_adds_no_entry():
    trail = Trail()
    trail.push_level()
    x = ReversibleInt(trail, 4)
    x.set(4)
    assert trail.entry_count == 0


# ----------------------------------------------------------------- FD domains


def test_domain_remove_and_assign():
    trail = Trail()
    var = FDVariable(trail, range(5))
    assert var.size == 5
    assert var.remove(2)
    assert var.sorted_values() == [0, 1, 3, 4]
    assert not var.contains(2)
    assert var.assign(3)
    assert var.is_bound()
    assert var.value() == 3
    assert var.size == 1


def test_domain_wipeout_leaves_domain_intact():
    trail = Trail()
    var = FDVariable(trail, [6])
    assert not var.remove(6)
    assert var.sorted_values() == [6]
    assert var.size == 1


def test_assign_absent_value_fails_without_change():
    trail = Trail()
    var = FDVariable(trail, [1, 2])
    assert not var.assign(5)
    assert var.sorted_values() == [1, 2]


def test_remove_absent_value_is_noop():
    trail = Trail()
    var = FDVariable(trail, [1, 2])
    assert var.remove(9)
    assert var.size == 2


def test_domain_restore_recovers_exact_set():
    trail = Trail()
    var = FDVariable(trail, [0, 1, 2, 3, 4])
    trail.push_level()
    var.remove(1)
    var.remove(4)
    trail.push_level()
    var.assign(2)
    assert var.sorted_values() == [2]
    trail.restore_level()
    assert var.sorted_values() == [0, 2, 3]
    trail.restore_level()
    assert var.sorted_values() == [0, 1, 2, 3, 4]


def test_branch_values_put_zero_last():
    trail = Trail()
    var = FDVariable(trail, [0, 3, 1])
    assert var.branch_values() == [1, 3, 0]
    var_nz = FDVariable(trail, [2, 1])
    assert var_nz.branch_values() == [1, 2]


def test_restrict_keeps_the_intersection_and_handles_edge_cases():
    trail = Trail()
    var = FDVariable(trail, [0, 2, 3, 5, 7])
    trail.push_level()
    # duplicates, absent values and values beyond the largest one are ignored
    assert var.restrict([5, 5, 4, 9, 100, 2, -1, 2])
    assert var.sorted_values() == [2, 5]
    assert not var.contains(0) and not var.contains(7)
    entries = trail.entry_count
    # an empty intersection fails and changes neither domain nor trail
    assert not var.restrict([0, 3, 7, 8])
    assert var.sorted_values() == [2, 5]
    assert trail.entry_count == entries
    # a restrict to the whole domain writes nothing
    assert var.restrict([2, 5, 6])
    assert trail.entry_count == entries
    trail.push_level()
    assert var.restrict((5,))
    assert var.is_bound() and var.value() == 5
    trail.restore_level()
    assert var.sorted_values() == [2, 5]
    # the restrict made below the first level is undone with it
    trail.restore_level()
    assert var.sorted_values() == [0, 2, 3, 5, 7]


def test_among_keeps_the_domain_members_in_order():
    trail = Trail()
    var = FDVariable(trail, [0, 2, 3, 5, 7])
    trail.push_level()
    assert var.restrict([2, 3, 7])
    # values outside the domain, beyond its largest value or negative drop out
    assert var.among([7, 5, 100, 2, -1, 0, 2]) == [7, 2, 2]
    assert var.among(set()) == []
    trail.restore_level()
    assert var.among([7, 5, 0]) == [7, 5, 0]


def test_copy_is_an_independent_variable_on_the_same_trail():
    trail = Trail()
    template = FDVariable(trail, range(6))
    trail.push_level()
    assert template.restrict([1, 2, 4])
    twin = template.copy()
    assert twin.sorted_values() == [1, 2, 4]
    trail.push_level()
    assert twin.assign(2)
    assert template.sorted_values() == [1, 2, 4]
    assert twin.value() == 2
    trail.restore_level()
    assert twin.sorted_values() == [1, 2, 4]
    trail.restore_level()
    # the copy's own level-0 domain is the one it was copied with
    assert template.sorted_values() == [0, 1, 2, 3, 4, 5]
    assert twin.sorted_values() == [1, 2, 4]
    assert twin.contains(4) and not twin.contains(0)


def test_duplicate_init_values_collapse():
    trail = Trail()
    var = FDVariable(trail, [2, 2, 1, 1])
    assert var.sorted_values() == [1, 2]


# ------------------------------------------------- randomized snapshot oracle


def snapshot(ints, doms):
    return (
        tuple(slot.value for slot in ints),
        tuple(frozenset(var.sorted_values()) for var in doms),
    )


def run_script(seed: int, operations: int) -> None:
    """Drive random trailed mutations and check every restore against a
    full-copy snapshot taken at the matching push."""
    rng = random.Random(seed)
    trail = Trail()
    ints = [ReversibleInt(trail, rng.randint(0, 9)) for _ in range(6)]
    doms = [FDVariable(trail, range(rng.randint(1, 10))) for _ in range(6)]
    stack = []
    for _ in range(operations):
        op = rng.random()
        if op < 0.15:
            stack.append(snapshot(ints, doms))
            trail.push_level()
        elif op < 0.3 and stack:
            trail.restore_level()
            assert snapshot(ints, doms) == stack.pop()
        elif op < 0.6:
            rng.choice(ints).set(rng.randint(0, 99))
        elif op < 0.75:
            rng.choice(doms).remove(rng.randint(0, 10))
        elif op < 0.9:
            var = rng.choice(doms)
            before = frozenset(var.sorted_values())
            keep = [rng.randint(0, 11) for _ in range(rng.randint(0, 6))]
            expect = before & set(keep)
            assert var.restrict(keep) == bool(expect)
            assert set(var.sorted_values()) == (expect or before)
        else:
            var = rng.choice(doms)
            values = var.sorted_values()
            var.assign(rng.choice(values))
    while stack:
        trail.restore_level()
        assert snapshot(ints, doms) == stack.pop()
    assert trail.depth == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_scripts_match_snapshots(seed):
    run_script(seed, 400)


def test_long_random_script_matches_snapshots():
    run_script(20260823, 100_000)


# -------------------------------------------------------------- search engine


class ForbidPair(Propagator):
    """Toy propagator: once x is bound, strike its value from y."""

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def propagate(self, depth: int) -> bool:
        if self.x.is_bound():
            return self.y.remove(self.x.value())
        return True


def build_toy_engine(sink):
    trail = Trail()
    x = FDVariable(trail, [1, 2])
    y = FDVariable(trail, [1, 2])
    engine = SearchEngine(trail, [x, y], [ForbidPair(x, y)], sink)
    return trail, (x, y), engine


def test_engine_enumerates_all_solutions():
    seen = []
    _, _, engine = build_toy_engine(seen.append)
    assert engine.solve_all() == 2
    assert seen == [[1, 2], [2, 1]]
    assert engine.solutions == 2


def test_engine_restores_state_and_reruns_identically():
    seen = []
    trail, (x, y), engine = build_toy_engine(seen.append)
    before = [x.sorted_values(), y.sorted_values()]
    engine.solve_all()
    assert [x.sorted_values(), y.sorted_values()] == before
    assert trail.depth == 0
    first = list(seen)
    seen.clear()
    engine.solve_all()
    assert seen == first
    assert engine.nodes > 0


def test_engine_counts_failures():
    trail = Trail()
    x = FDVariable(trail, [1, 2])

    class FailAlways(Propagator):
        def propagate(self, depth: int) -> bool:
            return depth < 0

    seen = []
    engine = SearchEngine(trail, [x], [FailAlways()], seen.append)
    assert engine.solve_all() == 0
    assert seen == []
    assert engine.failures == 2
    assert trail.depth == 0


def test_node_hook_aborts_search():
    seen = []
    _, (x, _), engine = build_toy_engine(seen.append)
    engine.node_hook = lambda: False
    assert engine.solve_all() == 0
    assert engine.aborted
    assert seen == []
    assert x.sorted_values() == [1, 2]


def test_abort_below_open_node_levels_restores_all_of_them():
    # aborting at the second node unwinds past the first node's open level
    seen = []
    trail, (x, y), engine = build_toy_engine(seen.append)
    budget = [2]

    def hook():
        budget[0] -= 1
        return budget[0] > 0

    engine.node_hook = hook
    engine.solve_all()
    assert engine.aborted
    assert trail.depth == 0
    assert x.sorted_values() == [1, 2]
    assert y.sorted_values() == [1, 2]


def test_deep_pattern_is_mined_without_recursion_limit():
    # one search depth per pattern symbol: far beyond Python's recursion limit
    db = loads("A " * 1500 + "\n" + "A " * 1500 + "\n", min_sup=2)
    result = mine(db, MiningConfig(min_sup=2))
    assert sorted(result.patterns) == [((1,) * k, 2) for k in range(1, 1501)]


def test_model_domains_share_one_template():
    # a permutation of 1500 tokens and its reverse: 1500 variables of 1501
    # values each, whose lists are copies of one template sharing its ints
    tokens = [f"t{i}" for i in range(1500)]
    db = build_database([tokens, tokens[::-1]], 2)
    tracemalloc.start()
    try:
        model = build_model(db, MiningConfig(min_sup=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.variables) == 1500
    assert peak < 50 * 2**20, peak / 2**20


def test_mining_is_pure_across_repeated_calls(sdb1):
    config = MiningConfig(min_sup=2)
    first = mine(sdb1, config)
    second = mine(sdb1, config)
    assert first.patterns == second.patterns
    assert first.stats.search_nodes == second.stats.search_nodes
    assert first.stats.positions_visited == second.stats.positions_visited
