"""Domains and their reset, and the search engine."""

from __future__ import annotations

import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from seqmine import MiningConfig, build_database, build_model, loads, mine
from seqmine.kernel import FDVariable, Propagator, SearchEngine


# ----------------------------------------------------------------- FD domains


def test_domain_remove_and_assign():
    var = FDVariable(range(5))
    assert var.size == 5
    assert var.remove(2)
    assert var.sorted_values() == [0, 1, 3, 4]
    assert not var.contains(2)
    var.assign(3)
    assert var.is_bound()
    assert var.value() == 3
    assert var.size == 1


def test_domain_wipeout_leaves_domain_intact():
    var = FDVariable([6])
    assert not var.remove(6)
    assert var.sorted_values() == [6]
    assert var.size == 1


def test_remove_absent_value_is_noop():
    var = FDVariable([1, 2])
    assert var.remove(9)
    assert var.size == 2


def test_reset_recovers_the_template():
    var = FDVariable([0, 1, 2, 3, 4])
    var.remove(1)
    var.remove(4)
    var.assign(2)
    assert var.sorted_values() == [2]
    var.reset()
    assert var.sorted_values() == [0, 1, 2, 3, 4]
    assert var.restrict([3, 0])
    var.reset()
    assert var.sorted_values() == [0, 1, 2, 3, 4]


def test_branch_values_put_zero_last():
    var = FDVariable([0, 3, 1])
    assert var.branch_values() == [1, 3, 0]
    var_nz = FDVariable([2, 1])
    assert var_nz.branch_values() == [1, 2]


def test_restrict_keeps_the_intersection_and_handles_edge_cases():
    var = FDVariable([0, 2, 3, 5, 7])
    # duplicates, absent values and values beyond the largest one are ignored
    assert var.restrict([5, 5, 4, 9, 100, 2, -1, 2])
    assert var.sorted_values() == [2, 5]
    assert not var.contains(0) and not var.contains(7)
    # an empty intersection fails and leaves the domain as it was
    assert not var.restrict([0, 3, 7, 8])
    assert var.sorted_values() == [2, 5]
    assert var.restrict([2, 5, 6])
    assert var.sorted_values() == [2, 5]
    assert var.restrict((5,))
    assert var.is_bound() and var.value() == 5


def test_among_keeps_the_domain_members_in_order():
    var = FDVariable([0, 2, 3, 5, 7])
    assert var.restrict([2, 3, 7])
    # values outside the domain, beyond its largest value or negative drop out
    assert var.among([7, 5, 100, 2, -1, 0, 2]) == [7, 2, 2]
    assert var.among(set()) == []
    var.reset()
    assert var.among([7, 5, 0]) == [7, 5, 0]


def test_copy_shares_the_template_and_filters_alone():
    template = FDVariable(range(6))
    assert template.restrict([1, 2, 4])
    twin = template.copy()
    assert twin.sorted_values() == [1, 2, 4]
    twin.assign(2)
    assert template.sorted_values() == [1, 2, 4]
    assert twin.value() == 2
    # a reset goes back to the shared template, not to the copied domain
    twin.reset()
    assert twin.sorted_values() == [0, 1, 2, 3, 4, 5]
    assert template.sorted_values() == [1, 2, 4]
    template.reset()
    # filters replace the shared template, never edit it
    assert template.remove(4) and template.restrict([0, 1, 4, 5])
    assert template.sorted_values() == [0, 1, 5]
    assert twin.sorted_values() == [0, 1, 2, 3, 4, 5]
    template.reset()
    assert template.sorted_values() == [0, 1, 2, 3, 4, 5]


def test_duplicate_init_values_collapse():
    var = FDVariable([2, 2, 1, 1])
    assert var.sorted_values() == [1, 2]


# ------------------------------------------------- randomized snapshot oracle


def run_script(seed: int, operations: int) -> None:
    """Drive random domain filters, resets and copies, each checked against
    a plain-set model of the domain and of the template it resets to."""
    rng = random.Random(seed)
    doms = []
    models = []  # [template set, live set] per domain
    for _ in range(6):
        full = set(range(rng.randint(1, 10)))
        doms.append(FDVariable(full))
        models.append([full, set(full)])
    for _ in range(operations):
        op = rng.random()
        k = rng.randrange(len(doms))
        var, model = doms[k], models[k]
        if op < 0.35:
            a = rng.randint(0, 10)
            expect = model[1] - {a}
            assert var.remove(a) == bool(expect)
            model[1] = expect or model[1]
        elif op < 0.7:
            keep = [rng.randint(0, 11) for _ in range(rng.randint(0, 6))]
            expect = model[1] & set(keep)
            assert var.restrict(keep) == bool(expect)
            model[1] = expect or model[1]
        elif op < 0.85:
            a = rng.choice(var.values())
            var.assign(a)
            model[1] = {a}
        elif op < 0.96:
            var.reset()
            model[1] = set(model[0])
        elif len(doms) < 12:
            doms.append(var.copy())
            models.append([model[0], set(model[1])])
        assert set(var.values()) == model[1]
        assert var.size == len(model[1])
    for var, (full, live) in zip(doms, models):
        assert set(var.values()) == live
        var.reset()
        assert set(var.values()) == full


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
    x = FDVariable([1, 2])
    y = FDVariable([1, 2])
    engine = SearchEngine([x, y], [ForbidPair(x, y)], sink)
    return (x, y), engine


def test_engine_enumerates_all_solutions():
    seen = []
    _, engine = build_toy_engine(seen.append)
    assert engine.solve_all() == 2
    assert seen == [[1, 2], [2, 1]]
    assert engine.solutions == 2


def test_engine_restores_state_and_reruns_identically():
    seen = []
    (x, y), engine = build_toy_engine(seen.append)
    before = [x.sorted_values(), y.sorted_values()]
    engine.solve_all()
    assert [x.sorted_values(), y.sorted_values()] == before
    first = list(seen)
    seen.clear()
    engine.solve_all()
    assert seen == first
    assert engine.nodes > 0


def test_engine_counts_failures():
    x = FDVariable([1, 2])

    class FailAlways(Propagator):
        def propagate(self, depth: int) -> bool:
            return depth < 0

    seen = []
    engine = SearchEngine([x], [FailAlways()], seen.append)
    assert engine.solve_all() == 0
    assert seen == []
    assert engine.failures == 2


def test_node_hook_aborts_search():
    seen = []
    (x, _), engine = build_toy_engine(seen.append)
    engine.node_hook = lambda: False
    assert engine.solve_all() == 0
    assert engine.aborted
    assert seen == []
    assert x.sorted_values() == [1, 2]


def test_abort_below_open_node_levels_restores_all_of_them():
    # aborting at the second node unwinds past the first node's open
    # branch, whose next domain the propagator had pruned
    seen = []
    (x, y), engine = build_toy_engine(seen.append)
    budget = [2]

    def hook():
        budget[0] -= 1
        return budget[0] > 0

    engine.node_hook = hook
    engine.solve_all()
    assert engine.aborted
    assert seen == []
    assert x.sorted_values() == [1, 2]
    assert y.sorted_values() == [1, 2]
    # the aborted run leaves nothing behind: a full rerun is unaffected
    engine.node_hook = None
    assert engine.solve_all() == 2
    assert seen == [[1, 2], [2, 1]]


def test_deep_pattern_is_mined_without_recursion_limit():
    # one search depth per pattern symbol: far beyond Python's recursion limit
    db = loads("A " * 1500 + "\n" + "A " * 1500 + "\n", min_sup=2)
    result = mine(db, MiningConfig(min_sup=2))
    assert sorted(result.patterns) == [((1,) * k, 2) for k in range(1, 1501)]


def test_model_domains_share_one_template():
    # a permutation of 3000 tokens and its reverse: 3000 variables over 3001
    # values each, which share one template instead of holding a copy
    tokens = [f"t{i}" for i in range(3000)]
    db = build_database([tokens, tokens[::-1]], 2)
    tracemalloc.start()
    try:
        model = build_model(db, MiningConfig(min_sup=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.variables) == 3000
    assert peak < 5 * 2**20, peak / 2**20


def test_mining_is_pure_across_repeated_calls(sdb1):
    config = MiningConfig(min_sup=2)
    first = mine(sdb1, config)
    second = mine(sdb1, config)
    assert first.patterns == second.patterns
    assert first.stats.search_nodes == second.stats.search_nodes
    assert first.stats.positions_visited == second.stats.positions_visited
