"""Randomized contract test of the command line, run in-process.

Each example draws a `mine` or `gen` command line: corpus bytes (plain or
SPMF, well formed or broken, invalid UTF-8 included), flag values
(junk, `nan`, `inf`, `1e400` and `-0` among them), regexes from a small
grammar or as raw text, timeouts and output paths (a missing directory
among them).  Whatever is drawn, `main` must return 0, 2, 3 or 4 without
raising, and stderr must hold no traceback.  A `mine` run that exits 0
finished its search, so its patterns must equal the brute-force miner's
under the same flags, translated here independently of the CLI.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from seqmine import (
    EmptyDatabaseError,
    LengthBounds,
    OracleConfig,
    PROPAGATORS,
    SymbolCardinality,
    build_database,
    generate_dataset,
    mine_brute_force,
)
from seqmine.cli import main
from seqmine.database import parse_plain, parse_spmf

#: the tokens of the drawn corpora, by --format
TOKENS = {"plain": ["A", "B", "C", "tok"], "spmf": ["1", "2", "3", "4"]}
JUNK_NUMBERS = ["nan", "inf", "-inf", "1e400", "-0", "0", "-1", "1.5", "x", ""]


def mostly(valid, junk):
    """Draws from `valid` seven times in eight, else from `junk`."""
    return st.integers(0, 7).flatmap(lambda n: junk if n == 7 else valid)


#: where output goes: standard output or a new file, else a file in a
#: missing directory or a path that is a directory
OUTPUTS = mostly(
    st.sampled_from([None, "out.txt"]),
    st.sampled_from([os.path.join("missing", "out.txt"), "."]),
)


def numbers(valid):
    """Flag text: one of `valid`, or else a junk number or short text with
    no digit (so no size drawn is large)."""
    junk_text = st.text(max_size=4).filter(
        lambda t: not any(c.isdecimal() for c in t)
    )
    junk = st.one_of(st.sampled_from(JUNK_NUMBERS), junk_text)
    return mostly(st.sampled_from(valid), junk)


def optional(strategy):
    return st.one_of(st.none(), strategy)


# ---------------------------------------------------------------- corpora


def lines_of(sequences, render):
    return st.lists(sequences, min_size=1, max_size=6).flatmap(
        lambda seqs: st.sampled_from(["\n", "\r\n", "\r"]).map(
            lambda end: "".join(render(seq) + end for seq in seqs)
        )
    )


CORPUS_TEXT = {
    "plain": lines_of(
        st.lists(st.sampled_from(TOKENS["plain"]), min_size=1, max_size=7),
        " ".join,
    ),
    "spmf": lines_of(
        st.lists(st.sampled_from(TOKENS["spmf"]), min_size=1, max_size=7),
        lambda seq: "".join(f"{item} -1 " for item in seq) + "-2",
    ),
}
BROKEN_SPMF = st.lists(
    st.sampled_from(["1", "2", "-1", "-2", "-3", "x", "1.0", "\n"]), max_size=12
).map(" ".join)
DAMAGE = ["missing", "binary", "bad utf-8", "broken spmf", "other format", "csv"]


@st.composite
def corpora(draw):
    """(bytes of the input file, None for a missing file; its --format)."""
    fmt = draw(st.sampled_from(["plain", "spmf"]))
    data = draw(CORPUS_TEXT[fmt]).encode()
    damage = draw(mostly(st.none(), st.sampled_from(DAMAGE)))
    if damage == "missing":
        data = None
    elif damage == "binary":
        data = draw(st.binary(max_size=24))
    elif damage == "bad utf-8":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    elif damage == "broken spmf":
        data, fmt = draw(BROKEN_SPMF).encode(), "spmf"
    elif damage == "other format":
        fmt = "spmf" if fmt == "plain" else "plain"
    elif damage == "csv":
        fmt = "csv"
    return data, fmt


# ---------------------------------------------------------------- regexes


def regexes(tokens):
    """Expressions over `tokens`, now and then naming a missing token, or
    raw text."""
    known = [*tokens[:3], f"<{tokens[3]}>", f"<{tokens[0]}>"]
    literals = mostly(st.sampled_from(known), st.sampled_from(["Z", "<nope>"]))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, inner).map(lambda p: f"{p[0]} {p[1]}"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]}|{p[1]})"),
            st.tuples(inner, st.sampled_from("*+?")).map(lambda p: f"({p[0]}){p[1]}"),
        )

    raw = st.text("".join(tokens[:3]) + "Z<>()|*+? ", max_size=8)
    return mostly(st.recursive(literals, extend, max_leaves=5), raw)


# ------------------------------------------------------------ command lines


@st.composite
def mine_commands(draw):
    """(argv after the data path, input file bytes or None, output)."""
    data, fmt = draw(corpora())
    tokens = TOKENS["spmf" if fmt == "spmf" else "plain"]
    argv = ["--format", fmt]
    argv += ["--minsup", draw(numbers(["1", "2", "3", "9", "0.5", "0.3", "5e-1"]))]
    if draw(st.booleans()):
        propagator = mostly(st.sampled_from(sorted(PROPAGATORS)), st.just("magic"))
        argv += ["--propagator", draw(propagator)]
    for flag in ("--min-size", "--max-size"):
        value = draw(optional(numbers(["1", "2", "3", "9"])))
        if value is not None:
            argv += [flag, value]
    for _ in range(draw(st.integers(0, 2))):
        token = draw(mostly(st.sampled_from(tokens), st.sampled_from(["Z", ""])))
        count = mostly(
            st.sampled_from(["", ":1", ":2"]), st.sampled_from([":0", ":²", ":x", ":"])
        )
        argv += ["--contains", token + draw(count)]
    for _ in range(draw(st.integers(0, 2))):
        argv += ["--excludes", draw(st.sampled_from([*tokens, "Z"]))]
    regex = draw(optional(regexes(tokens)))
    if regex is not None:
        argv += ["--regex", regex]
    timeout = draw(optional(numbers(["0", "3600", "1e400"])))
    if timeout is not None:
        argv += ["--timeout", timeout]
    if draw(st.booleans()):
        argv.append("--stats")
    return argv, data, draw(OUTPUTS)


@st.composite
def gen_commands(draw):
    argv = [
        "--sequences", draw(numbers(["1", "3", "5"])),
        "--alphabet", draw(numbers(["3", "26", "27", "1000000"])),
        "--mean-length", draw(numbers(["1", "2", "4"])),
    ]
    sparsity = st.one_of(
        numbers(["1", "1.5", "2"]),
        st.sampled_from(["nan", "inf", "1e400", "-0"]),
        st.floats(1.0, 4.0).map(repr),
    )
    sparsity = draw(optional(sparsity))
    if sparsity is not None:
        argv += ["--sparsity", sparsity]
    seed = draw(optional(numbers(["0", "7", "-3", str(2**70)])))
    if seed is not None:
        argv += ["--seed", seed]
    return argv, draw(OUTPUTS)


def run_main(argv):
    """Exit code, stdout and stderr of an in-process `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err):
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err, err


def output_text(out, output, workdir):
    if output is None:
        return out
    with open(os.path.join(workdir, output), encoding="utf-8") as handle:
        return handle.read()


# ------------------------------------------------- flags, translated anew


def option(argv, flag):
    """Value of the last `flag` in `argv`, or None."""
    values = [argv[i + 1] for i, a in enumerate(argv) if a == flag]
    return values[-1] if values else None


def options(argv, flag):
    return [argv[i + 1] for i, a in enumerate(argv) if a == flag]


def expected_patterns(argv, path):
    """Sorted `tok ... #SUP: n` lines that the flags ask for, by brute force."""
    fmt = option(argv, "--format")
    with open(path, encoding="utf-8") as handle:
        raw = parse_plain(handle) if fmt == "plain" else parse_spmf(handle)
    minsup = option(argv, "--minsup")
    if re.fullmatch(r"[0-9]+", minsup):
        theta = int(minsup)
    else:
        theta = max(1, math.ceil(float(minsup) * len(raw)))
    try:
        db = build_database(raw, theta)
    except EmptyDatabaseError:
        return []
    min_size = option(argv, "--min-size")
    max_size = option(argv, "--max-size")
    length = None
    if min_size is not None or max_size is not None:
        lo = int(min_size or 1)
        hi = int(max_size) if max_size is not None else max(lo, db.max_len)
        length = LengthBounds(lo, hi)
    cards = []
    for spec in options(argv, "--contains"):
        match = re.fullmatch(r"(.+):([0-9]+)", spec)
        token, at_least = (match[1], int(match[2])) if match else (spec, 1)
        if token not in db.id_of:
            return []  # an infrequent token is in no frequent pattern
        cards.append(SymbolCardinality(db.id_of[token], at_least=at_least))
    for token in options(argv, "--excludes"):
        if token in db.id_of:
            cards.append(SymbolCardinality(db.id_of[token], at_least=0, at_most=0))
    config = OracleConfig(
        min_sup=theta,
        length=length,
        cardinalities=tuple(cards),
        regex=option(argv, "--regex"),
    )
    return sorted(
        " ".join(db.names[a] for a in pattern) + f" #SUP: {support}"
        for pattern, support in mine_brute_force(db, config)
    )


# ------------------------------------------------------------------ tests


@settings(max_examples=300, deadline=None)
@given(command=mine_commands())
def test_mine_keeps_the_exit_code_contract(command):
    flags, corpus, output = command
    with tempfile.TemporaryDirectory() as workdir:
        data = os.path.join(workdir, "data.txt")
        if corpus is not None:
            with open(data, "wb") as handle:
                handle.write(corpus)
        argv = ["mine", data, *flags]
        if output is not None:
            argv += ["--output", os.path.join(workdir, output)]
        code, out, err = run_main(argv)
        assert_contract(code, err)
        if code == 0:
            # exit 0 means the search finished, whatever the timeout
            lines = output_text(out, output, workdir).splitlines()
            got = sorted(line for line in lines if not line.startswith("# "))
            assert got == expected_patterns(argv, data), argv


@settings(max_examples=100, deadline=None)
@given(command=gen_commands())
def test_gen_keeps_the_exit_code_contract(command):
    flags, output = command
    with tempfile.TemporaryDirectory() as workdir:
        argv = ["gen", *flags]
        if output is not None:
            argv.insert(1, os.path.join(workdir, output))
        code, out, err = run_main(argv)
        assert_contract(code, err)
        if code == 0:
            dataset = generate_dataset(
                int(option(argv, "--sequences")),
                int(option(argv, "--alphabet")),
                int(option(argv, "--mean-length")),
                sparsity=float(option(argv, "--sparsity") or 1.0),
                seed=int(option(argv, "--seed") or 0),
            )
            text = output_text(out, output, workdir)
            assert text == "".join(" ".join(seq) + "\n" for seq in dataset)
