"""Command line interface: mine, bench and gen subcommands.

``mine`` streams frequent patterns as ``tok1 tok2 ... #SUP: n`` lines in
depth-first branching order; with ``--stats`` a block of ``# key=value``
lines is appended, and a run cut short by ``--timeout`` ends with a
trailing ``# TIMEOUT`` line.  ``bench`` emits a CSV table comparing
propagators across thresholds and fails when their solution counts
disagree.  ``gen`` writes a reproducible random dataset.  Exit codes:
0 success (including zero patterns), 1 ``bench`` strategies disagree,
2 bad flags, 3 dataset errors, 4 timeout.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import ExitStack
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
from .mining import MiningConfig, MiningResult, RunStats, mine
from .oracle import OracleConfig, mine_brute_force
from .propagators import PROPAGATORS
from .regex import RegexError

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_DISAGREE = 1
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
    sub = parser.add_subparsers(dest="command", metavar="{mine,bench,gen}")

    p_mine = sub.add_parser("mine", help="enumerate frequent patterns")
    _dataset_args(p_mine)
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
    _constraint_args(p_mine)
    _run_args(p_mine)

    p_bench = sub.add_parser("bench", help="compare propagators")
    _dataset_args(p_bench)
    p_bench.add_argument(
        "--minsup",
        action="append",
        required=True,
        metavar="N|FRAC",
        help="threshold; repeat the flag for several",
    )
    p_bench.add_argument(
        "--propagators",
        default=",".join(sorted(PROPAGATORS)),
        metavar="LIST",
        help="comma-separated propagator names (default: all)",
    )
    _constraint_args(p_bench)
    _run_args(p_bench)

    p_gen = sub.add_parser("gen", help="write a random dataset")
    p_gen.add_argument("output", nargs="?", metavar="PATH")
    p_gen.add_argument("--sequences", type=int, required=True)
    p_gen.add_argument("--alphabet", type=int, required=True)
    p_gen.add_argument("--mean-length", type=int, required=True)
    p_gen.add_argument("--sparsity", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)

    # undocumented: the brute-force reference miner, for debugging
    p_oracle = sub.add_parser("oracle")
    _dataset_args(p_oracle)
    p_oracle.add_argument("--minsup", required=True, metavar="N|FRAC")
    p_oracle.add_argument("--max-len", type=int)
    _constraint_args(p_oracle)
    p_oracle.add_argument("--output", metavar="PATH")
    return parser


def _dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("data", metavar="DATA", help="input dataset path")
    p.add_argument(
        "--format",
        choices=["plain", "spmf"],
        default="plain",
        help="input format (default: plain)",
    )


def _constraint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-size", type=int, metavar="N", help="minimum pattern length")
    p.add_argument("--max-size", type=int, metavar="N", help="maximum pattern length")
    p.add_argument(
        "--contains",
        action="append",
        default=[],
        metavar="TOK[:K]",
        help="require the token at least K times (default 1); repeatable",
    )
    p.add_argument(
        "--excludes",
        action="append",
        default=[],
        metavar="TOK",
        help="forbid the token; repeatable",
    )
    p.add_argument("--regex", metavar="EXPR", help="anchored pattern expression")


def _run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    p.add_argument("--stats", action="store_true", help="append run counters")
    p.add_argument(
        "--timeout",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="abort the search after this long (default 3600)",
    )


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
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}")
    if not raw:
        raise DatasetError(f"{path}: input contains no sequences")
    return raw


def _absolute_minsup(spec: int | float, input_count: int) -> int:
    if isinstance(spec, float):
        return max(1, math.ceil(spec * input_count))
    return spec


def _mining_config(
    args, db: SequenceDatabase, theta: int, propagator: str
) -> MiningConfig | None:
    """Translate flags into a config; None means provably empty."""
    min_size = args.min_size
    max_size = args.max_size
    if min_size is not None and min_size < 1:
        raise _UsageError("--min-size must be at least 1")
    if max_size is not None and max_size < 1:
        raise _UsageError("--max-size must be at least 1")
    if min_size is not None and max_size is not None and min_size > max_size:
        raise _UsageError("--min-size exceeds --max-size")
    length = None
    if min_size is not None or max_size is not None:
        lo = min_size or 1
        hi = db.max_len if max_size is None else min(max_size, db.max_len)
        if lo > db.max_len:
            return None  # no pattern can be that long here
        length = LengthBounds(lo, hi)
    cards: list[SymbolCardinality] = []
    for item in args.contains:
        token, _, count = item.rpartition(":")
        if token and count.isdigit():
            at_least = int(count)
        else:
            token, at_least = item, 1
        if at_least < 1:
            raise _UsageError(f"--contains count must be at least 1: {item!r}")
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
        propagator=propagator,
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
    out.write(f"# wall_time_ms={stats.wall_time_ms:.1f}\n")
    out.write(f"# peak_projection_depth={stats.peak_projection_depth}\n")


def _run_mine(args) -> int:
    raw = _read_raw(args.data, args.format)
    theta = _absolute_minsup(_parse_minsup(args.minsup), len(raw))
    with ExitStack() as stack:
        out = _open_output(stack, args.output)
        try:
            db = build_database(raw, theta)
        except EmptyDatabaseError:
            if args.stats:
                _emit_stats(out, RunStats())
            return EXIT_OK
        config = _mining_config(args, db, theta, args.propagator)
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


def _run_bench(args) -> int:
    raw = _read_raw(args.data, args.format)
    chosen = [name.strip() for name in args.propagators.split(",") if name.strip()]
    for name in chosen:
        if name not in PROPAGATORS:
            raise _UsageError(f"unknown propagator {name!r}")
    if not chosen:
        raise _UsageError("no propagators selected")
    specs = [_parse_minsup(text) for text in args.minsup]
    with ExitStack() as stack:
        out = _open_output(stack, args.output)
        out.write(
            "propagator,minsup,wall_time_ms,search_nodes,"
            "positions_visited,solution_count\n"
        )
        consistent = True
        timed_out = False
        for spec in specs:
            theta = _absolute_minsup(spec, len(raw))
            try:
                db = build_database(raw, theta)
            except EmptyDatabaseError:
                db = None
            counts: set[int] = set()
            for name in chosen:
                config = None if db is None else _mining_config(args, db, theta, name)
                if config is None:
                    result = MiningResult()
                else:
                    deadline = time.monotonic() + args.timeout
                    result = mine(
                        db,
                        config,
                        node_hook=lambda: time.monotonic() <= deadline,
                    )
                stats = result.stats
                timed_out = timed_out or result.timed_out
                counts.add(stats.solution_count)
                out.write(
                    f"{name},{theta},{stats.wall_time_ms:.1f},"
                    f"{stats.search_nodes},{stats.positions_visited},"
                    f"{stats.solution_count}\n"
                )
            if len(counts) > 1:
                consistent = False
        if timed_out:
            print("# TIMEOUT", file=sys.stderr)
            return EXIT_TIMEOUT
        if not consistent:
            print(
                "bench: propagators disagree on the solution count",
                file=sys.stderr,
            )
            return EXIT_DISAGREE
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


def _run_oracle(args) -> int:
    raw = _read_raw(args.data, args.format)
    theta = _absolute_minsup(_parse_minsup(args.minsup), len(raw))
    with ExitStack() as stack:
        out = _open_output(stack, args.output)
        try:
            db = build_database(raw, theta)
        except EmptyDatabaseError:
            return EXIT_OK
        config = _mining_config(args, db, theta, "ppic")
        if config is None:
            return EXIT_OK
        oracle_config = OracleConfig(
            min_sup=theta,
            max_len=args.max_len,
            length=config.length,
            cardinalities=config.cardinalities,
            regex=config.regex,
        )
        for pattern, support in mine_brute_force(db, oracle_config):
            out.write(" ".join(db.names[a] for a in pattern))
            out.write(f" #SUP: {support}\n")
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
    runner = {
        "mine": _run_mine,
        "bench": _run_bench,
        "gen": _run_gen,
        "oracle": _run_oracle,
    }[args.command]
    try:
        return runner(args)
    except _UsageError as exc:
        print(f"seqmine: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RegexError as exc:
        print(f"seqmine: bad --regex: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DatasetError as exc:
        print(f"seqmine: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
