"""Tests of the benchmark itself; run with ``python -m pytest perfbench``.

Each workload is scaled down (fewer, shorter sequences, a smaller alphabet
and higher thresholds) until the brute-force reference miner can answer
every query of its pool, and the benchmark's query path must match it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from check import Checker, digest, oracle_config
from run import HERE, Runner
from trace import Tracer
from workloads import WORKLOADS

from seqmine import build_database, mine_brute_force
from seqmine import mining, oracle

#: workload name -> overrides giving a corpus the oracle can mine quickly
SMALL = {
    "dense": dict(
        params=dict(sequences=40, alphabet=8, min_len=6, max_len=12, exponent=1.0),
        fractions=(0.3, 0.35, 0.4, 0.45, 0.5),
    ),
    "sparse": dict(
        params=dict(sequences=120, alphabet=40, min_len=3, max_len=7, exponent=0.8),
        fractions=(0.04, 0.05, 0.06, 0.07, 0.08),
    ),
    "wide": dict(
        params=dict(sequences=60, alphabet=32, min_len=8, max_len=14, exponent=1.0),
        fractions=(0.08, 0.1, 0.12),
    ),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def loaded(workload, seed):
    corpus = workload.corpus(seed)
    db = build_database(corpus.sequences, workload.lowest_min_sup(corpus))
    return corpus, db, workload.queries(corpus)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corpus_is_a_function_of_the_seed(name):
    workload = small(name)
    assert workload.corpus(3).sequences == workload.corpus(3).sequences
    assert workload.corpus(3).sequences != workload.corpus(4).sequences
    first, _, pool = loaded(workload, 3)
    again, _, pool_again = loaded(workload, 3)
    assert pool == pool_again
    assert len(pool) in (5, 15)
    assert list(workload.stream(3, pool).__next__()) == list(
        workload.stream(3, pool_again).__next__()
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_scaled_workload_matches_brute_force(name, seed):
    workload = small(name)
    corpus, db, pool = loaded(workload, seed)
    checker = Checker(corpus, db, oracle, seed)
    runner = Runner(mining, db, checker)
    for query in pool:
        config = oracle_config(db, query, oracle)
        config = dataclasses.replace(config, max_len=query.max_len)
        expected = sorted(
            " ".join(db.names[a] for a in pattern) + f" #SUP: {support}"
            for pattern, support in mine_brute_force(db, config)
        )
        lines, result, _, error = runner.execute(query)
        assert error is None
        assert sorted(lines) == expected, query.describe()
        checker.references[query.index] = digest(expected)
        assert runner.run(query)[2], runner.errors


def test_checker_rejects_wrong_outputs():
    workload = small("dense")
    corpus, db, pool = loaded(workload, 0)
    checker = Checker(corpus, db, oracle, 0)
    runner = Runner(mining, db, checker)
    query = pool[0]
    lines = runner.execute(query)[0]
    assert checker.check(query, lines, 1) is None
    checker.references[query.index] = digest(lines)
    assert checker.check(query, lines[:-1], 1) is not None
    # without a reference, a wrong support is still caught by the recount
    checker.references.clear()
    tokens, _, sup = lines[-1].rpartition(" #SUP: ")
    bad = lines[:-1] + [f"{tokens} #SUP: {int(sup) + 1}"]
    assert any(checker.check(query, bad, serial) for serial in range(50))
    # dropping the single-token patterns is caught by the completeness check
    longer = [line for line in lines if len(line.split()) > 3]
    assert checker.check(query, longer, 1) is not None


def test_trace_spans_nest_and_account_for_search():
    workload = small("wide")
    corpus, db, pool = loaded(workload, 0)
    tracer = Tracer()
    runner = Runner(mining, db, Checker(corpus, db, oracle, 0), tracer)
    solve_all = mining.SearchEngine.solve_all
    with tracer.installed():
        for query in pool:
            assert runner.run(query, traced=True)[2], runner.errors
    assert mining.SearchEngine.solve_all is solve_all
    assert mining.build_model.__name__ == "build_model"
    n = len(tracer)
    for i in range(n):
        p = tracer.parent[i]
        assert tracer.start[i] <= tracer.end[i]
        if p:
            assert tracer.start[p - 1] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p - 1]
            assert tracer.query[p - 1] == tracer.query[i]
    totals = tracer.totals()
    children = sum(
        totals.duration[name]
        for name in (
            "propagators.frequency",
            "constraints.regex",
            "constraints.length",
            "constraints.cardinality",
            "mining.sink",
        )
    )
    assert totals.self_time["kernel.search"] + children == totals.duration["kernel.search"]
    for name in ("regex.compile", "mining.build_model", "kernel.search", "query"):
        assert totals.calls[name] == len(pool)
    assert tracer.counts["regex.dfa_states"] > 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_reports_exactly_the_declared_metrics(trace, section):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0
    assert {k: v["unit"] for k, v in report["metrics"].items()} == declared


def test_declared_workloads_are_the_defined_ones():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["workloads"]
    assert declared == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
