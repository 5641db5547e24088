"""Query-stream benchmark for seqmine.

Models a mining service: the workload's corpus is generated from the seed,
written to a file and loaded once; then one client sends a closed loop of
mining queries (each the next only after the previous returned), every one
a ``mine(db, MiningConfig(...), on_pattern=sink)`` call with the default
projection strategy.  The sink formats lines as ``seqmine mine`` prints
them and every query's output is checked (see ``check.py``).

Usage, from the root of a seqmine checkout::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the end-to-end metrics are measured untraced.  With
``--trace 1`` the query path is traced from outside (see ``trace.py``) and
the per-layer metrics are reported instead; spans are written to
``.perfbench_work/``.  The last line of standard output is one JSON object
with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import Checker, constraint_specs, digest, load_pins  # noqa: E402
from trace import Tracer  # noqa: E402
from workloads import WORKLOADS, Query, Workload  # noqa: E402

#: a query still running after this long is stopped and counted as failed
QUERY_DEADLINE_S = 20.0
#: set-up is repeated at least this often, and until this much time is spent
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0


class ProgramMissing(Exception):
    """The seqmine sources are not next to the benchmark."""


def load_program():
    """Import seqmine from this checkout's ``src`` (never from elsewhere)."""
    src = ROOT / "src"
    if not (src / "seqmine" / "__init__.py").is_file():
        raise ProgramMissing(f"no seqmine sources under {src}")
    sys.path.insert(0, str(src))
    import seqmine
    from seqmine import database, mining, oracle, propagators

    if Path(seqmine.__file__).resolve().parent != (src / "seqmine").resolve():
        raise ProgramMissing(f"imported seqmine from {seqmine.__file__}, not {src}")
    return database, mining, oracle, propagators


def set_up(database, path: Path, min_sup: int):
    """Read, parse and build the corpus; returns (db, parse_s, build_s)."""
    t0 = time.perf_counter()
    with open(path, encoding="utf-8") as fh:
        raw = database.parse_plain(fh)
    t1 = time.perf_counter()
    db = database.build_database(raw, min_sup)
    t2 = time.perf_counter()
    return db, t1 - t0, t2 - t1


def repeated_set_up(database, path: Path, min_sup: int):
    """Set up several times; returns the last db and each rep's times."""
    times = []
    db = None
    started = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - started < SETUP_MIN_S:
        db = None  # free the previous build first so memory peaks once
        db, parse_s, build_s = set_up(database, path, min_sup)
        times.append((parse_s, build_s))
    return db, times


class Runner:
    """Runs queries of one workload against one loaded database."""

    def __init__(self, mining, db, checker: Checker, tracer: Tracer | None = None):
        self.mining = mining
        self.db = db
        self.checker = checker
        self.tracer = tracer
        self.serial = 0
        self.errors: list[str] = []

    def config(self, query: Query, propagator: str | None):
        length, cards = constraint_specs(self.db, query)
        extra = {} if propagator is None else {"propagator": propagator}
        return self.mining.MiningConfig(
            min_sup=query.min_sup,
            length=length,
            cardinalities=cards,
            regex=query.regex,
            **extra,
        )

    def execute(self, query: Query, propagator: str | None = None, traced: bool = False):
        """Mine one query; returns (lines, result or None, seconds, error)."""
        names = self.db.names
        lines: list[str] = []

        def sink(pattern, support):
            lines.append(" ".join([names[a] for a in pattern]) + f" #SUP: {support}")

        config = self.config(query, propagator)
        if traced:
            sink = self.tracer.wrap("mining.sink", sink)
        deadline = time.monotonic() + QUERY_DEADLINE_S
        hook = lambda: time.monotonic() <= deadline  # noqa: E731
        started = time.perf_counter()
        span = self.tracer.span("query") if traced else contextlib.nullcontext()
        try:
            with span:
                result = self.mining.mine(self.db, config, on_pattern=sink, node_hook=hook)
        except Exception as exc:  # a crashing query is a failed query
            return lines, None, time.perf_counter() - started, f"raised {exc!r}"
        elapsed = time.perf_counter() - started
        if result.timed_out:
            return lines, result, elapsed, "hit the per-query deadline"
        return lines, result, elapsed, None

    def run(self, query: Query, propagator: str | None = None, traced: bool = False):
        """Execute and check one query; returns (result, seconds, ok)."""
        self.serial += 1
        if traced:
            self.tracer.query_id = self.serial
        lines, result, elapsed, error = self.execute(query, propagator, traced)
        if traced:
            self.tracer.query_id = -1
        if error is None:
            try:
                error = self.checker.check(query, lines, self.serial)
            except ValueError as exc:
                error = str(exc)
        if error is not None and len(self.errors) < 10:
            self.errors.append(f"{query.describe()}: {error}")
        return result, elapsed, error is None


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method of statistics.quantiles)."""
    return statistics.quantiles(values, n=100)[q - 1]


class Phase:
    """Tallies of the closed query loop."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        #: correct queries per second of query time, one entry per cycle
        self.cycle_rates: list[float] = []
        #: traced run only: serials and results of traced queries, and the
        #: latencies of traced and untraced cycles
        self.traced_ids: set[int] = set()
        self.traced_results: list = []
        self.traced_lat: list[float] = []
        self.untraced_lat: list[float] = []

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def query_loop(runner: Runner, workload: Workload, seed: int, pool, seconds: float, phase: Phase) -> None:
    """Shuffled cycles over the pool until `seconds` of query time.

    Only whole cycles run, so every pool query is timed equally often.  In
    a traced run cycles alternate traced/untraced, ending on an untraced
    one, so the two halves give the tracing overhead.
    """
    tracer = runner.tracer
    hard_stop = time.monotonic() + 1.5 * seconds + 30
    for cycle_no, cycle in enumerate(workload.stream(seed, pool)):
        traced = tracer is not None and cycle_no % 2 == 0
        cycle_ok = 0
        cycle_busy = 0.0
        with tracer.installed() if traced else contextlib.nullcontext():
            for query in cycle:
                result, elapsed, ok = runner.run(query, traced=traced)
                phase.add(ok)
                cycle_ok += ok
                cycle_busy += elapsed
                phase.latencies.append(elapsed)
                if traced:
                    phase.traced_ids.add(runner.serial)
                    phase.traced_lat.append(elapsed)
                    if result is not None:
                        phase.traced_results.append(result)
                elif tracer is not None:
                    phase.untraced_lat.append(elapsed)
        phase.busy += cycle_busy
        phase.cycle_rates.append(cycle_ok / cycle_busy)
        if traced:
            continue
        if phase.busy >= seconds or time.monotonic() > hard_stop:
            return


def strategy_sweep(runner: Runner, propagators, pool, phase: Phase) -> dict:
    """Replay the pool's first, middle and last query under every strategy.

    Every replay is checked against the same reference, so the strategies
    must agree on every output.  Returns per-strategy means per query.
    """
    tracer = runner.tracer
    subset = [pool[i] for i in sorted({0, len(pool) // 2, len(pool) - 1})]
    metrics = {}
    for name in propagators.PROPAGATORS:
        ids = set()
        positions = 0
        with tracer.installed():
            for query in subset:
                result, _, ok = runner.run(query, propagator=name, traced=True)
                phase.add(ok)
                ids.add(runner.serial)
                if result is not None:
                    positions += result.stats.positions_visited
        totals = tracer.totals(ids)
        metrics[f"propagators.{name}.search_s"] = (totals.seconds("kernel.search") / len(subset), "s")
        metrics[f"propagators.{name}.positions_visited"] = (positions / len(subset), "count")
    return metrics


def layer_metrics(tracer: Tracer, db, phase: Phase) -> dict:
    """Per-layer metrics of the traced cycles, as means per query."""
    totals = tracer.totals(phase.traced_ids)
    n = max(1, len(phase.traced_ids))
    results = phase.traced_results
    nodes = sum(r.stats.search_nodes for r in results)
    failures = sum(r.stats.failures for r in results)
    positions = sum(r.stats.positions_visited for r in results)
    freq_s = totals.seconds("propagators.frequency")
    constraint_calls = sum(
        totals.calls[k] for k in ("constraints.regex", "constraints.length", "constraints.cardinality")
    )
    propagate_calls = constraint_calls + totals.calls["propagators.frequency"]
    parse_s = statistics.median(tracer.durations("database.parse"))
    build_s = statistics.median(tracer.durations("database.build"))
    traced_mean = statistics.mean(phase.traced_lat)
    untraced_mean = statistics.mean(phase.untraced_lat)
    per_query = lambda name: (totals.seconds(name) / n, "s")  # noqa: E731
    return {
        "database.parse_s": (parse_s, "s"),
        "database.build_s": (build_s, "s"),
        "database.table_cells": (db.size * (db.symbol_count + 1), "count"),
        "regex.compile_s": per_query("regex.compile"),
        "regex.dfa_states": (tracer.counts["regex.dfa_states"] / n, "count"),
        "constraints.regex_s": per_query("constraints.regex"),
        "constraints.length_s": per_query("constraints.length"),
        "constraints.cardinality_s": per_query("constraints.cardinality"),
        "constraints.calls": (constraint_calls / n, "count"),
        "propagators.frequency_s": (freq_s / n, "s"),
        "propagators.positions_visited": (positions / n, "count"),
        "propagators.positions_per_node": (positions / max(1, nodes), "count"),
        "propagators.ns_per_position": (freq_s * 1e9 / max(1, positions), "ns"),
        "propagators.peak_depth": (max((r.stats.peak_projection_depth for r in results), default=0), "count"),
        "kernel.search_s": per_query("kernel.search"),
        "kernel.self_s": (totals.self_seconds("kernel.search") / n, "s"),
        "kernel.nodes": (nodes / n, "count"),
        "kernel.failures": (failures / n, "count"),
        "kernel.fail_ratio": (failures / max(1, nodes), "ratio"),
        "kernel.propagate_calls_per_node": (propagate_calls / max(1, nodes), "count"),
        "mining.build_model_s": (totals.self_seconds("mining.build_model") / n, "s"),
        "mining.emit_s": per_query("mining.sink"),
        "mining.patterns": (sum(r.stats.solution_count for r in results) / n, "count"),
        "mining.query_s": per_query("query"),
        "trace.overhead_pct": ((traced_mean / untraced_mean - 1) * 100, "%"),
        "trace.spans": (len(tracer), "count"),
    }


def measure(args, program) -> dict:
    database, mining, oracle, propagators = program
    workload = WORKLOADS[args.workload]
    corpus = workload.corpus(args.seed)
    pool = workload.queries(corpus)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    path = work / f"corpus-{workload.name}-{args.seed}-{os.getpid()}.txt"
    path.write_text(corpus.text(), encoding="utf-8")
    tracer = Tracer() if args.trace else None
    min_sup = workload.lowest_min_sup(corpus)
    try:
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            db, setup_times = repeated_set_up(database, path, min_sup)
    finally:
        path.unlink(missing_ok=True)

    checker = Checker(corpus, db, oracle, args.seed)
    runner = Runner(mining, db, checker, tracer)
    phase = Phase()
    pins = load_pins(workload.name, args.seed)
    if pins is not None and len(pins) != len(pool):
        raise SystemExit(f"perfbench: pins.json has {len(pins)} queries, pool has {len(pool)}")
    for query in pool:
        if pins is not None:
            checker.references[query.index] = pins[query.index]
            continue
        lines, _, _, error = runner.execute(query, "baseline")
        if error is None:
            checker.references[query.index] = digest(lines)
        else:
            phase.add(False)
            runner.errors.append(f"{query.describe()}: reference run {error}")
    for query in pool:  # warm-up: checked, not timed
        phase.add(runner.run(query)[2])

    gc.collect()
    query_loop(runner, workload, args.seed, pool, args.seconds, phase)

    if tracer is None:
        metrics = end_to_end(setup_times, phase)
    else:
        metrics = layer_metrics(tracer, db, phase)
        metrics.update(strategy_sweep(runner, propagators, pool, phase))
        tracer.write(work / f"spans-{workload.name}-{args.seed}.tsv.gz")

    print(f"workload {workload.name} seed {args.seed}: {len(pool)} distinct queries, "
          f"references {'pinned' if pins is not None else 'from the baseline strategy'}")
    print(f"timed queries: {len(phase.latencies)} over {phase.busy:.2f} s of query time; "
          f"attempted {phase.attempted}, failed {phase.failed}, "
          f"error_rate {phase.failed / phase.attempted:.4f}")
    for error in runner.errors:
        print(f"FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:14.6g} {unit}")
    return {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def end_to_end(setup_times, phase: Phase) -> dict:
    ok = phase.attempted - phase.failed
    return {
        "setup_s": (statistics.median(p + b for p, b in setup_times), "s"),
        "latency_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(phase.latencies, 90) * 1e3, "ms"),
        # the median cycle discounts the odd stall of a shared machine
        "throughput_qps": (statistics.median(phase.cycle_rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (ok / phase.attempted, "ratio"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report = measure(args, program)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
