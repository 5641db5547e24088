"""Regenerate ``pins.json``: the expected output of every pool query.

For each workload and seed, every distinct query is mined under all four
projection strategies; they must agree, and their (pattern count, digest)
is pinned.  Run from the root of a seqmine checkout::

    python3 perfbench/make_pins.py --seeds 0-31

Pins for seeds already in the file are kept unless ``--force`` is given.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import Runner, load_program
from check import PINS_PATH, Checker, digest
from workloads import WORKLOADS


def pin_seed(program, workload, seed: int) -> list[list]:
    database, mining, oracle, propagators = program
    corpus = workload.corpus(seed)
    db = database.build_database(corpus.sequences, workload.lowest_min_sup(corpus))
    runner = Runner(mining, db, Checker(corpus, db, oracle, seed))
    pins = []
    for query in workload.queries(corpus):
        seen = set()
        for name in propagators.PROPAGATORS:
            lines, _, _, error = runner.execute(query, name)
            if error is not None:
                raise SystemExit(f"{workload.name}/{seed} {name}: {error}")
            seen.add(digest(lines))
        if len(seen) != 1:
            raise SystemExit(f"{workload.name}/{seed}: strategies disagree on {query.describe()}")
        pins.append(list(seen.pop()))
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, metavar="FIRST-LAST")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    program = load_program()
    with open(PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    for name in args.workloads.split(","):
        table = pins.setdefault(name, {})
        for seed in seeds:
            if str(seed) in table and not args.force:
                continue
            table[str(seed)] = pin_seed(program, WORKLOADS[name], seed)
            print(f"pinned {name} seed {seed}", file=sys.stderr, flush=True)
            write_pins(pins)
    return 0


def write_pins(pins: dict) -> None:
    """One line per workload and seed, so diffs stay readable."""
    blocks = []
    for name in sorted(pins):
        rows = [
            f"    {json.dumps(seed)}: {json.dumps(pins[name][seed])}"
            for seed in sorted(pins[name], key=int)
        ]
        blocks.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n  }")
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
