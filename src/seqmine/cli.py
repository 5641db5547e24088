"""Command line interface: mine and gen subcommands.

``mine`` streams frequent patterns as ``tok1 tok2 ... #SUP: n`` lines in
depth-first branching order; with ``--stats`` a block of ``# key=value``
lines is appended, and a run cut short by ``--timeout`` ends with a
trailing ``# TIMEOUT`` line.  ``gen`` writes a reproducible random
dataset.  Exit codes: 0 success (including zero patterns), 2 bad flags
(including a negative or NaN ``--timeout``, and a ``--regex`` naming a
token the input lacks, whatever the threshold), 3 dataset or output
errors (input unreadable, not UTF-8 or malformed; output that cannot be
opened or written, including a closed pipe), 4 timeout.  Any other
status is a crash.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import ExitStack, suppress
from itertools import chain
from typing import Sequence, TextIO

from .constraints import LengthBounds, SymbolCardinality
from .database import (
    DatasetError,
    EmptyDatabaseError,
    SequenceDatabase,
    build_database,
    parse_plain,
    parse_spmf,
)
from .generate import GenerationError, generate_dataset
from .mining import MiningConfig, RunStats, mine
from .propagators import PROPAGATORS
from .regex import RegexError, parse_regex

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TIMEOUT = 4


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmine",
        description="Frequent subsequence mining over sequence databases.",
    )
    sub = parser.add_subparsers(dest="command", metavar="{mine,gen}")

    p_mine = sub.add_parser("mine", help="enumerate frequent patterns")
    p_mine.add_argument("data", metavar="DATA", help="input dataset path")
    p_mine.add_argument(
        "--format",
        choices=["plain", "spmf"],
        default="plain",
        help="input format (default: plain)",
    )
    p_mine.add_argument(
        "--minsup",
        required=True,
        metavar="N|FRAC",
        help="absolute count, or a fraction in (0,1) of the input sequences",
    )
    p_mine.add_argument(
        "--propagator",
        choices=sorted(PROPAGATORS),
        default="ppic",
        help="projection strategy (default: ppic)",
    )
    p_mine.add_argument(
        "--min-size", type=_positive, metavar="N", help="minimum pattern length"
    )
    p_mine.add_argument(
        "--max-size", type=_positive, metavar="N", help="maximum pattern length"
    )
    p_mine.add_argument(
        "--contains",
        action="append",
        type=_required_token,
        default=[],
        metavar="TOK[:K]",
        help="require the token at least K times (default 1); repeatable",
    )
    p_mine.add_argument(
        "--excludes",
        action="append",
        default=[],
        metavar="TOK",
        help="forbid the token; repeatable",
    )
    p_mine.add_argument("--regex", metavar="EXPR", help="anchored pattern expression")
    p_mine.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    p_mine.add_argument("--stats", action="store_true", help="append run counters")
    p_mine.add_argument(
        "--timeout",
        type=_timeout,
        default=3600.0,
        metavar="SECONDS",
        help="abort the search after this long (default 3600)",
    )

    p_gen = sub.add_parser("gen", help="write a random dataset")
    p_gen.add_argument("output", nargs="?", metavar="PATH")
    p_gen.add_argument("--sequences", type=int, required=True)
    p_gen.add_argument("--alphabet", type=int, required=True)
    p_gen.add_argument("--mean-length", type=int, required=True)
    p_gen.add_argument("--sparsity", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    return parser


def _timeout(text: str) -> float:
    """A non-negative number of seconds (argparse ``type``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value >= 0.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text}")
    return value


def _positive(text: str) -> int:
    """An integer of at least 1 (argparse ``type``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _required_token(text: str) -> tuple[str, int]:
    """``TOK`` or ``TOK:K`` as (token, K), K at least 1 (argparse ``type``)."""
    token, _, count = text.rpartition(":")
    if not (token and count.isdecimal()):
        return text, 1
    if int(count) < 1:
        raise argparse.ArgumentTypeError(f"count must be at least 1: {text!r}")
    return token, int(count)


def _parse_minsup(text: str) -> int | float:
    try:
        if "." in text or "e" in text or "E" in text:
            value = float(text)
            if not 0.0 < value < 1.0:
                raise _UsageError(
                    f"fractional --minsup must be in (0,1), got {text}"
                )
            return value
        count = int(text)
    except ValueError:
        raise _UsageError(f"--minsup must be an integer or fraction, got {text!r}")
    if count < 1:
        raise _UsageError("--minsup must be at least 1")
    return count


def _read_raw(path: str, fmt: str) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = parse_plain(handle) if fmt == "plain" else parse_spmf(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path}: {exc}")
    if not raw:
        raise DatasetError(f"{path}: input contains no sequences")
    return raw


def _absolute_minsup(spec: int | float, input_count: int) -> int:
    if isinstance(spec, float):
        return max(1, math.ceil(spec * input_count))
    return spec


def _check_flags(args, raw: list[list[str]]) -> None:
    """Reject flags that are bad on any threshold, before filtering the
    input can make the result provably empty."""
    min_size = args.min_size
    max_size = args.max_size
    if min_size is not None and max_size is not None and min_size > max_size:
        raise _UsageError("--min-size exceeds --max-size")
    if args.regex is not None:
        # every input token is a literal, frequent or not (literal_ids)
        parse_regex(args.regex, dict.fromkeys(chain.from_iterable(raw), 0))


def _mining_config(args, db: SequenceDatabase, theta: int) -> MiningConfig | None:
    """Translate checked flags into a config; None means provably empty."""
    min_size = args.min_size
    max_size = args.max_size
    length = None
    if min_size is not None or max_size is not None:
        lo = min_size or 1
        hi = db.max_len if max_size is None else min(max_size, db.max_len)
        if lo > db.max_len:
            return None  # no pattern can be that long here
        length = LengthBounds(lo, hi)
    cards: list[SymbolCardinality] = []
    for token, at_least in args.contains:
        symbol = db.id_of.get(token)
        if symbol is None:
            return None  # the required token is not frequent
        cards.append(SymbolCardinality(symbol, at_least=at_least))
    for token in args.excludes:
        symbol = db.id_of.get(token)
        if symbol is not None:
            cards.append(SymbolCardinality(symbol, at_least=0, at_most=0))
    return MiningConfig(
        min_sup=theta,
        propagator=args.propagator,
        length=length,
        cardinalities=tuple(cards),
        regex=args.regex,
    )


def _open_output(stack: ExitStack, path: str | None) -> TextIO:
    if path:
        return stack.enter_context(open(path, "w", encoding="utf-8"))
    return sys.stdout


def _emit_stats(out: TextIO, stats: RunStats) -> None:
    out.write(f"# solution_count={stats.solution_count}\n")
    out.write(f"# search_nodes={stats.search_nodes}\n")
    out.write(f"# failures={stats.failures}\n")
    out.write(f"# positions_visited={stats.positions_visited}\n")
    out.write(f"# entries_examined={stats.entries_examined}\n")
    out.write(f"# supports_counted={stats.supports_counted}\n")
    out.write(f"# wall_time_ms={stats.wall_time_ms:.1f}\n")
    out.write(f"# peak_projection_depth={stats.peak_projection_depth}\n")


def _run_mine(args) -> int:
    raw = _read_raw(args.data, args.format)
    theta = _absolute_minsup(_parse_minsup(args.minsup), len(raw))
    _check_flags(args, raw)
    with ExitStack() as stack:
        out = _open_output(stack, args.output)
        try:
            db = build_database(raw, theta)
            config = _mining_config(args, db, theta)
        except EmptyDatabaseError:
            config = None
        if config is None:
            if args.stats:
                _emit_stats(out, RunStats())
            return EXIT_OK
        names = db.names
        def emit(pattern: tuple[int, ...], support: int) -> None:
            out.write(" ".join(names[a] for a in pattern))
            out.write(f" #SUP: {support}\n")
        deadline = time.monotonic() + args.timeout
        result = mine(
            db,
            config,
            on_pattern=emit,
            node_hook=lambda: time.monotonic() <= deadline,
        )
        if args.stats:
            _emit_stats(out, result.stats)
        if result.timed_out:
            out.write("# TIMEOUT\n")
            out.flush()
            return EXIT_TIMEOUT
    return EXIT_OK


def _run_gen(args) -> int:
    try:
        data = generate_dataset(
            args.sequences,
            args.alphabet,
            args.mean_length,
            sparsity=args.sparsity,
            seed=args.seed,
        )
    except GenerationError as exc:
        raise _UsageError(str(exc))
    with ExitStack() as stack:
        out = _open_output(stack, args.output)
        for seq in data:
            out.write(" ".join(seq))
            out.write("\n")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    runner = {"mine": _run_mine, "gen": _run_gen}[args.command]
    try:
        code = runner(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"seqmine: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RegexError as exc:
        print(f"seqmine: bad --regex: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DatasetError as exc:
        print(f"seqmine: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # input read errors are DatasetErrors, so this is the output
        if not args.output:
            # the interpreter's final flush of stdout must not fail again
            with suppress(OSError, ValueError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        target = args.output or "standard output"
        reason = exc.strerror or exc
        print(f"seqmine: cannot write {target}: {reason}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
