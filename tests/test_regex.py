"""Expression parsing, automaton construction and language agreement."""

from __future__ import annotations

import random
import re
import zlib

import pytest

from seqmine.regex import (
    MAX_NESTING,
    NO_ACCEPT,
    PatternDFA,
    RegexError,
    RegexSyntaxError,
    UnknownTokenError,
    compile_regex,
    parse_regex,
)

ABC = {"a": 1, "b": 2, "c": 3}


def dfa(expr, ids=ABC):
    return compile_regex(expr, ids)


# -------------------------------------------------------------------- parsing


def test_parse_literal_and_concatenation():
    assert parse_regex("a b", ABC) == ("cat", ("sym", 1), ("sym", 2))


def test_parse_precedence():
    # repetition binds tighter than concatenation, which binds tighter than |
    tree = parse_regex("a b* | c", ABC)
    assert tree == (
        "alt",
        ("cat", ("sym", 1), ("star", ("sym", 2))),
        ("sym", 3),
    )


def test_parse_whitespace_is_insignificant():
    assert parse_regex(" a(b|c) * ", ABC) == parse_regex("a (b | c)*", ABC)


def test_parse_multichar_tokens():
    ids = {"load": 1, "store": 2, "a": 3}
    tree = parse_regex("<load> (<store> | a)+", ids)
    assert tree == ("cat", ("sym", 1), ("plus", ("alt", ("sym", 2), ("sym", 3))))


def test_parse_stacked_repetition():
    # a run of postfix operators folds to one node
    assert parse_regex("a*?", ABC) == ("star", ("sym", 1))
    assert parse_regex("a++", ABC) == ("plus", ("sym", 1))
    assert parse_regex("a??", ABC) == ("opt", ("sym", 1))
    assert parse_regex("a+?", ABC) == ("star", ("sym", 1))
    assert parse_regex("a?+", ABC) == ("star", ("sym", 1))
    assert parse_regex("a" + "*" * 5000, ABC) == ("star", ("sym", 1))


def test_parse_concatenation_and_alternation_are_flat():
    assert parse_regex("a b c", ABC) == ("cat", ("sym", 1), ("sym", 2), ("sym", 3))
    assert parse_regex("a|b|c", ABC) == ("alt", ("sym", 1), ("sym", 2), ("sym", 3))
    long = parse_regex("a " * 1200, ABC)
    assert long == ("cat",) + (("sym", 1),) * 1200


def test_parse_nesting_limit():
    deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_regex(deepest, ABC) == ("sym", 1)
    too_deep = "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1)
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex(too_deep, ABC)
    assert err.value.position == MAX_NESTING


@pytest.mark.parametrize(
    "expr, position",
    [
        ("a )", 2),
        ("(a", 2),
        ("a |", 3),
        ("* a", 0),
        ("", 0),
        ("<a", 0),
        ("a <> b", 2),
        ("a > b", 2),
    ],
)
def test_syntax_errors_carry_positions(expr, position):
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex(expr, ABC)
    assert err.value.position == position


def test_unknown_tokens_rejected():
    with pytest.raises(UnknownTokenError):
        parse_regex("a x", ABC)
    with pytest.raises(UnknownTokenError):
        parse_regex("<missing>", ABC)
    assert issubclass(UnknownTokenError, RegexError)


# ------------------------------------------------------------------ automaton


def test_transition_function_is_total():
    # rows hold only the symbols with a move, and every successor is a state
    m = dfa("a (b|c)* a")
    assert m.state_count >= 1
    assert sorted(m.transitions[m.start]) == [1]
    for q, row in enumerate(m.transitions):
        assert set(row) <= {1, 2, 3}
        for a, t in row.items():
            assert 0 <= m.step(q, a) == t < m.state_count


def test_dead_states_absorb():
    # there is no dead state: a symbol absent from a row rejects
    m = dfa("a b")
    assert m.state_count == 3
    for q in range(m.state_count):
        assert m.min_steps[q] < NO_ACCEPT
        for a in range(1, 4):
            if a not in m.transitions[q]:
                assert m.step(q, a) is None
    assert m.step(m.start, 2) is None
    assert not m.accepts([2])
    assert not m.accepts([1, 2, 1])


def test_min_steps_examples():
    m = dfa("a b c")
    q = m.start
    assert m.min_steps[q] == 3
    q = m.step(q, 1)
    assert m.min_steps[q] == 2
    q = m.step(q, 2)
    assert m.min_steps[q] == 1
    q = m.step(q, 3)
    assert m.min_steps[q] == 0
    assert m.is_accepting(q)
    assert m.step(m.start, 2) is None


def test_min_steps_zero_only_at_accepting_states():
    m = dfa("(a|b)+ c?")
    for q in range(m.state_count):
        assert (m.min_steps[q] == 0) == m.is_accepting(q)


def test_accepts_examples():
    m = dfa("a (b|c)* a")
    assert m.accepts([1, 1])
    assert m.accepts([1, 2, 3, 2, 1])
    assert not m.accepts([1])
    assert not m.accepts([1, 2])
    assert not m.accepts([])
    assert dfa("a*").accepts([])
    assert not dfa("a+").accepts([])
    assert dfa("a?").accepts([1])


# ------------------------------------------------- agreement with stdlib re


FIXED_EXPRESSIONS = [
    "a",
    "a b c",
    "a*",
    "a+ b",
    "(a|b)* c",
    "a (b|c)+ a?",
    "((a b)|(c a))* b?",
    "a? b? c?",
    "(a|b|c) (a|b|c) a*",
]


@pytest.mark.parametrize("expr", FIXED_EXPRESSIONS)
def test_language_matches_python_re(expr):
    m = dfa(expr)
    reference = re.compile(expr.replace(" ", ""))
    names = {1: "a", 2: "b", 3: "c"}
    # str hashes change per process; crc32 draws the same words every run
    rng = random.Random(zlib.crc32(expr.encode()))
    for _ in range(300):
        word = [rng.randint(1, 3) for _ in range(rng.randint(0, 8))]
        text = "".join(names[a] for a in word)
        assert m.accepts(word) == bool(reference.fullmatch(text)), (expr, text)


def test_large_alphabet_symbols_outside_expression_are_rejected():
    ids = {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}
    m = compile_regex("a b", ids)
    assert m.accepts([1, 2])
    assert not m.accepts([1, 5])
    assert m.step(m.start, 4) is None


def test_rows_grow_with_the_expression_not_the_alphabet():
    ids = {"a": 1, "b": 2} | {f"t{i}": i for i in range(3, 100_001)}
    m = compile_regex("a b", ids)
    assert sum(len(row) for row in m.transitions) == 2
    assert m.state_count == 3
    assert m.live[m.start] == (1,)


def test_literal_of_a_token_without_symbol_has_no_move():
    # id 0 marks a token filtered out at load time: its literal matches nothing
    m = compile_regex("a (b | d)", {"a": 1, "b": 2, "d": 0})
    assert m.accepts([1, 2])
    assert all(0 not in row for row in m.transitions)
    assert m.live[m.step(m.start, 1)] == (2,)
    n = compile_regex("a d", {"a": 1, "d": 0})
    assert n.live[n.start] == ()
    assert n.min_steps[n.step(n.start, 1)] == NO_ACCEPT
