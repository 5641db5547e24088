"""Loading, filtering, remapping and the last-position tables."""

from __future__ import annotations

import gc
import io
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from seqmine import (
    DatasetError,
    EmptyDatabaseError,
    build_database,
    compute_last_positions,
    load_database,
    loads,
    write_plain,
)
from seqmine.database import parse_plain, parse_spmf

from conftest import SDB1_TEXT


# ------------------------------------------------------- last-position tables


def last_positions(db, sid):
    """{symbol: last position} of sequence `sid`, read from the index."""
    return {a: idx[sid] for a, idx in enumerate(db.last_pos_index) if sid in idx}


def test_last_positions_sid1(sdb1):
    # <A B C B C>: C last at 5, B at 4, A at 1
    assert sdb1.last_pos_list[1] == ((3, 5), (2, 4), (1, 1))
    assert last_positions(sdb1, 1) == {1: 1, 2: 4, 3: 5}


def test_last_positions_sid2(sdb1):
    # <B A B C>
    assert sdb1.last_pos_list[2] == ((3, 4), (2, 3), (1, 2))
    assert last_positions(sdb1, 2) == {1: 2, 2: 3, 3: 4}


def test_last_positions_sid3(sdb1):
    # <A B>
    assert sdb1.last_pos_list[3] == ((2, 2), (1, 1))
    assert last_positions(sdb1, 3) == {1: 1, 2: 2}


def test_last_positions_sid4(sdb1):
    # <B C D>: D only occurs here
    assert sdb1.last_pos_list[4] == ((4, 3), (3, 2), (2, 1))
    assert last_positions(sdb1, 4) == {2: 1, 3: 2, 4: 3}
    assert sdb1.last_pos_index[4] == {4: 3}


def test_compute_last_positions_empty():
    assert compute_last_positions(()) == ()


def test_index_holds_one_entry_per_sequence_symbol_pair():
    # 1000 distinct tokens, one per sequence: a dense sequences x alphabet
    # table would hold 1000 x 1001 cells
    db = build_database([[f"t{i}"] for i in range(1000)])
    assert db.symbol_count == 1000
    assert "last_pos_list" not in vars(db)  # built on first use
    entries = sum(len(idx) for idx in db.last_pos_index)
    assert entries == sum(len(pairs) for pairs in db.last_pos_list) == 1000


def test_repeated_loads_do_not_pile_up_freed_tuples():
    # sequences of 11-19 symbols: the tuples one load frees must be reused
    # by the next, not kept by the interpreter (a full garbage collection
    # would drop them, so none may run)
    rng = random.Random(3)
    raw = [rng.choices("ABCDEFGHIJ", k=rng.randint(11, 19)) for _ in range(500)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            build_database(raw)
        before = sys.getallocatedblocks()
        for _ in range(20):
            build_database(raw)
        growth = sys.getallocatedblocks() - before
    finally:
        if enabled:
            gc.enable()
    assert growth < 500, growth


def test_database_is_hashable_and_compares_by_content():
    db, again = loads(SDB1_TEXT), loads(SDB1_TEXT)
    assert db.last_pos_list  # a cached table takes no part in equality
    assert db == again
    assert hash(db) == hash(again)
    assert len({db, again}) == 1
    assert db != loads(SDB1_TEXT + "A\n")


def test_pairs_ordered_by_strictly_decreasing_position(sdb1):
    for sid in sdb1.sids:
        positions = [pos for _, pos in sdb1.last_pos_list[sid]]
        assert positions == sorted(positions, reverse=True)
        assert len(set(positions)) == len(positions)


# ----------------------------------------------------- remapping and filtering


def test_symbol_ids_follow_first_appearance(sdb1):
    assert sdb1.names == ("", "A", "B", "C", "D")
    assert sdb1.id_of == {"A": 1, "B": 2, "C": 3, "D": 4}
    assert sdb1.seqs[1] == (1, 2, 3, 2, 3)
    assert sdb1.seqs[4] == (2, 3, 4)


def test_basic_shape(sdb1):
    assert sdb1.size == 4
    assert sdb1.symbol_count == 4
    assert list(sdb1.sids) == [1, 2, 3, 4]
    assert sdb1.max_len == 5
    assert sdb1.symbol_supports == (0, 3, 4, 3, 1)
    assert sdb1.input_sequences == 4


def test_threshold_two_drops_rare_symbol(sdb1_theta2):
    db = sdb1_theta2
    assert db.names == ("", "A", "B", "C")
    assert db.seqs[4] == (2, 3)
    assert db.symbol_supports == (0, 3, 4, 3)
    assert db.max_len == 5
    assert db.size == 4


def test_threshold_five_empties_database():
    with pytest.raises(EmptyDatabaseError):
        loads(SDB1_TEXT, min_sup=5)


def test_emptied_sequences_are_dropped_and_max_len_shrinks():
    raw = [["Z", "Z", "Z", "Z", "Z"], ["A", "B"], ["A", "B"]]
    db = build_database(raw, min_sup=2)
    assert db.size == 2
    assert db.input_sequences == 3
    assert db.max_len == 2
    assert db.names == ("", "A", "B")


def test_remap_is_dense_after_filtering():
    db = build_database([["b", "a"], ["c", "b"], ["c", "x"]], min_sup=2)
    assert db.names == ("", "b", "c")
    assert db.seqs[1:] == ((1,), (2, 1), (2,))


def test_min_sup_below_one_rejected():
    with pytest.raises(ValueError):
        build_database([["a"]], min_sup=0)


# ----------------------------------------------------------- support counting


def test_support_examples(sdb1):
    assert sdb1.support((2, 3)) == 3  # <B C>
    assert sdb1.support((1,)) == 3
    assert sdb1.support((4,)) == 1
    assert sdb1.support((3, 2)) == 1  # C before B only in sid 1
    assert sdb1.support((1, 2, 3, 2, 3)) == 1
    assert sdb1.support(()) == 4
    assert sdb1.support((1, 1)) == 0


# ------------------------------------------------------------------- parsing


def test_parse_plain_skips_blank_lines():
    assert parse_plain(["a b", "", "  ", "c"]) == [["a", "b"], ["c"]]


def test_parse_spmf_basic():
    assert parse_spmf(["1 -1 2 -1 3 -1 -2"]) == [["1", "2", "3"]]


def test_parse_spmf_two_sequences_on_one_line():
    got = parse_spmf(["1 -1 2 -1 -2 3 -1 -2"])
    assert got == [["1", "2"], ["3"]]


def test_parse_spmf_missing_trailing_terminator():
    assert parse_spmf(["4 -1 5 -1"]) == [["4", "5"]]
    assert parse_spmf(["4 -1 5"]) == [["4", "5"]]


def test_parse_spmf_rejects_multi_item_itemsets():
    with pytest.raises(DatasetError, match="line 1"):
        parse_spmf(["1 2 -1 -2"])
    with pytest.raises(DatasetError, match="line 1"):
        parse_spmf(["4 -1 5 6"])


def test_parse_spmf_rejects_unknown_marker():
    with pytest.raises(DatasetError, match="line 2"):
        parse_spmf(["1 -1 -2", "-3"])


def test_parse_spmf_rejects_non_integer():
    with pytest.raises(DatasetError, match="non-integer"):
        parse_spmf(["1 x -2"])


def test_load_empty_input_is_a_dataset_error():
    with pytest.raises(DatasetError):
        loads("")
    with pytest.raises(DatasetError):
        loads("\n   \n")


def test_load_unknown_format_rejected():
    with pytest.raises(ValueError):
        load_database(["a"], fmt="csv")


def test_load_spmf_roundtrip_against_plain():
    plain = loads("1 2 3\n2 3\n")
    spmf = loads("1 -1 2 -1 3 -1 -2\n2 -1 3 -1 -2\n", fmt="spmf")
    assert plain == spmf


# -------------------------------------------------------------- properties


token_seq = st.lists(st.sampled_from("abcde"), min_size=1, max_size=8)
token_db = st.lists(token_seq, min_size=1, max_size=8)


@settings(max_examples=50, deadline=None)
@given(raw=token_db)
def test_write_then_reload_is_identity(raw):
    db = build_database(raw, min_sup=1)
    buf = io.StringIO()
    write_plain(db, buf)
    again = loads(buf.getvalue())
    assert again == db


@settings(max_examples=50, deadline=None)
@given(raw=token_db, theta=st.integers(1, 4))
def test_filtered_database_is_stable_under_reload(raw, theta):
    try:
        db = build_database(raw, min_sup=theta)
    except EmptyDatabaseError:
        return
    buf = io.StringIO()
    write_plain(db, buf)
    assert loads(buf.getvalue()) == db


@settings(max_examples=50, deadline=None)
@given(raw=token_db)
def test_last_position_tables_match_naive_scan(raw):
    db = build_database(raw, min_sup=1)
    for sid in db.sids:
        seq = db.seqs[sid]
        for a in range(1, db.symbol_count + 1):
            expect = max((i + 1 for i, b in enumerate(seq) if b == a), default=0)
            assert db.last_pos_index[a].get(sid, 0) == expect
        pairs = db.last_pos_list[sid]
        assert set(pairs) == set(last_positions(db, sid).items())
        positions = [p for _, p in pairs]
        assert positions == sorted(positions, reverse=True)
    assert db.last_pos_index[0] == {}


@settings(max_examples=50, deadline=None)
@given(raw=token_db, theta=st.integers(1, 3))
def test_symbol_supports_match_support_method(raw, theta):
    try:
        db = build_database(raw, min_sup=theta)
    except EmptyDatabaseError:
        return
    for a in range(1, db.symbol_count + 1):
        assert db.symbol_supports[a] == db.support((a,))
        assert db.symbol_supports[a] >= theta
