"""End-to-end mining driver: model construction, search, pattern collection.

The model has one variable per pattern position up to the length of the
`min_sup`-th longest sequence (no longer pattern can be frequent), or up to
the length maximum when that is smaller, each ranging over the symbol ids
plus the 0 terminator (the first position may not be 0, so every mined
pattern is non-empty).  Registered propagators run in a fixed
order: regex, length, cardinality, then projected frequency.  Patterns are
reported with their exact support, in depth-first branching order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .constraints import (
    CardinalityConstraint,
    LengthBounds,
    PatternLength,
    RegularConstraint,
    SymbolCardinality,
)
from .database import SequenceDatabase
from .kernel import FDVariable, SearchEngine, Trail
from .propagators import PROPAGATORS, ProjectionPropagator
from .regex import compile_regex

__all__ = ["MiningConfig", "RunStats", "MiningResult", "Model", "build_model", "mine"]


@dataclass(frozen=True)
class MiningConfig:
    """Threshold, propagator choice and side-constraint specifications."""

    min_sup: int
    propagator: str = "ppic"
    length: LengthBounds | None = None
    cardinalities: tuple[SymbolCardinality, ...] = ()
    regex: str | None = None

    def __post_init__(self) -> None:
        if self.min_sup < 1:
            raise ValueError("min_sup must be at least 1")
        if self.propagator not in PROPAGATORS:
            raise ValueError(f"unknown propagator {self.propagator!r}")


@dataclass
class RunStats:
    """Counters describing one search run.

    `positions_visited` counts sequence elements read by the projection
    scans; `peak_projection_depth` is the longest prefix whose window was
    materialized.  Always: failures + solution_count <= search_nodes.
    """

    solution_count: int = 0
    search_nodes: int = 0
    failures: int = 0
    positions_visited: int = 0
    wall_time_ms: float = 0.0
    peak_projection_depth: int = 0


@dataclass
class MiningResult:
    patterns: list[tuple[tuple[int, ...], int]] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)
    timed_out: bool = False


class Model(NamedTuple):
    """A ready-to-search mining model."""

    trail: Trail
    variables: list[FDVariable]
    propagators: list
    frequency: ProjectionPropagator


def build_model(
    db: SequenceDatabase, config: MiningConfig, self_check: bool = False
) -> Model:
    """Create variables and propagators for mining `db` under `config`."""
    trail = Trail()
    n = db.symbol_count
    # a pattern occurs only in sequences at least as long as it; past the
    # sequence count nothing is frequent, and one variable finds that out
    length = db.lengths_desc[config.min_sup - 1] if config.min_sup <= db.size else 1
    if config.length is not None:
        length = min(length, config.length.max_len)
    variables = [FDVariable(trail, range(1, n + 1))]
    variables += [FDVariable(trail, range(0, n + 1)) for _ in range(length - 1)]
    propagators: list = []
    if config.regex is not None:
        dfa = compile_regex(config.regex, db.literal_ids())
        propagators.append(RegularConstraint(dfa, variables, trail))
    if config.length is not None:
        propagators.append(PatternLength(config.length, variables))
    for spec in config.cardinalities:
        propagators.append(CardinalityConstraint(spec, variables))
    frequency = PROPAGATORS[config.propagator](
        db, variables, config.min_sup, trail, self_check=self_check
    )
    propagators.append(frequency)
    return Model(trail, variables, propagators, frequency)


def mine(
    db: SequenceDatabase,
    config: MiningConfig,
    on_pattern: Callable[[tuple[int, ...], int], None] | None = None,
    node_hook: Callable[[], bool] | None = None,
    self_check: bool = False,
) -> MiningResult:
    """Enumerate all frequent patterns of `db` under `config`.

    Patterns are collected in the result unless `on_pattern` is given, in
    which case each (pattern, support) is streamed to it instead.
    `node_hook` is consulted once per search node; returning False stops
    the search and marks the result as timed out.
    """
    started = time.perf_counter()
    model = build_model(db, config, self_check=self_check)
    frequency = model.frequency
    result = MiningResult()

    def sink(values: list[int]) -> None:
        pattern = tuple(values)
        support = frequency.projection.size.value
        if on_pattern is not None:
            on_pattern(pattern, support)
        else:
            result.patterns.append((pattern, support))

    engine = SearchEngine(model.trail, model.variables, model.propagators, sink)
    engine.node_hook = node_hook
    engine.solve_all()
    elapsed = (time.perf_counter() - started) * 1000.0
    result.stats = RunStats(
        solution_count=engine.solutions,
        search_nodes=engine.nodes,
        failures=engine.failures,
        positions_visited=frequency.positions_visited,
        wall_time_ms=elapsed,
        peak_projection_depth=frequency.peak_depth,
    )
    result.timed_out = engine.aborted
    return result
