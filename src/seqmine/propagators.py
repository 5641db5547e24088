"""Projected-frequency propagation over a shared stacked pseudo-projection.

The propagator enforces, over pattern variables P1..PL, that the prefix of
nonzero symbols stays frequent: a variable bound to 0 ends the pattern and
needs no work, otherwise the projection window is extended by the new
symbol, the search fails when the window support drops below the
threshold, and infrequent symbols are filtered from the next variable only.

The window lives in two arrays of (sequence id, suffix start) entries
shared by the whole search.  A child window is appended right after its
parent, never overwriting live entries, so the only reversible state is the
pair of integers delimiting the live block; suffix starts are 0-based
indexes of the first element after the matched prefix.

Four interchangeable projection strategies are provided:

* ``baseline``  - scans every suffix in full to project and count,
* ``ppic``      - skips exhausted sequences via the last-position index
                  and counts by walking the last-position list,
* ``ppdc``      - keeps reversible per-symbol counters, decremented by a
                  walk of the last-position list,
* ``ppmixed``   - picks between the two preceding strategies per node,
                  depending on how much of the window will survive.

All four produce identical windows, frequencies and search trees; they
differ only in how much work they do to get there.
"""

from __future__ import annotations

from typing import Sequence

from .database import SequenceDatabase
from .kernel import FDVariable, Propagator, ReversibleInt, Trail

__all__ = [
    "PseudoProjection",
    "ProjectionPropagator",
    "FullScanProjection",
    "LastPosProjection",
    "DecrementProjection",
    "AdaptiveProjection",
    "PROPAGATORS",
    "projected_symbol_counts",
]


class PseudoProjection:
    """Stacked projection windows over growable sid/position arrays.

    The live window is ``sids[start:start+size]`` with parallel suffix
    starts in `poss`.  Initially it covers every sequence with position 0.
    Entries at or beyond ``start + size`` are dead (left by backtracked
    children): a projection truncates the arrays there and appends the
    child window.
    """

    def __init__(self, trail: Trail, db: SequenceDatabase) -> None:
        m = db.size
        self.sids: list[int] = list(db.sids)
        self.poss: list[int] = [0] * m
        self.start = ReversibleInt(trail, 0)
        self.size = ReversibleInt(trail, m)

    def window(self) -> list[tuple[int, int]]:
        """Live window as (sid, suffix start) pairs."""
        lo = self.start.value
        hi = lo + self.size.value
        return list(zip(self.sids[lo:hi], self.poss[lo:hi]))


def projected_symbol_counts(
    db: SequenceDatabase, window: Sequence[tuple[int, int]]
) -> list[int]:
    """From-scratch recount of per-symbol window frequencies.

    Counts, for each symbol, the number of window entries whose suffix
    contains it.  Used as the reference the incremental strategies are
    checked against.
    """
    counts = [0] * (db.symbol_count + 1)
    for sid, start in window:
        seen = set()
        seq = db.seqs[sid]
        for idx in range(start, len(seq)):
            seen.add(seq[idx])
        for a in seen:
            counts[a] += 1
    return counts


class ProjectionPropagator(Propagator):
    """Shared machinery: catch-up, window stacking, frequency filtering.

    ``propagate(depth)`` replays any bound-but-unprojected variables up to
    `depth` in order, so variables bound by other constraints (singleton
    domains) are picked up at the next search node.  After extending, the
    frequencies of the newest window filter the domain of the next unbound
    variable; earlier variables are never touched.

    `positions_visited` counts sequence elements read while scanning
    (matching and, for the baseline, counting); reads of the precomputed
    last-position tables are not sequence reads and are not counted.
    """

    def __init__(
        self,
        db: SequenceDatabase,
        variables: Sequence[FDVariable],
        min_sup: int,
        trail: Trail,
        self_check: bool = False,
    ) -> None:
        if min_sup < 1:
            raise ValueError("min_sup must be at least 1")
        self.db = db
        self.vars = list(variables)
        self.min_sup = min_sup
        self.trail = trail
        self.projection = PseudoProjection(trail, db)
        self.prefix_len = ReversibleInt(trail, 0)
        self.positions_visited = 0
        self.peak_depth = 0
        self.self_check = self_check
        self._scratch: list[int] = list(db.symbol_supports)

    # -- variant hooks ----------------------------------------------------

    def _extend(self, a: int) -> bool:
        """Project the live window by symbol `a`; False when support drops
        below the threshold.  Must leave frequencies readable via _freq_of."""
        raise NotImplementedError

    def _freq_of(self, a: int) -> int:
        return self._scratch[a]

    def frequencies(self) -> list[int]:
        """Per-symbol frequency of the live window (index = symbol id).

        The scratch-counting strategies refresh this on every extension, so
        it is only meaningful right after a successful propagate; the
        counter-based strategies keep it valid across backtracking.
        """
        return [0] + [self._freq_of(a) for a in range(1, self.db.symbol_count + 1)]

    # -- propagation ------------------------------------------------------

    def propagate(self, depth: int) -> bool:
        variables = self.vars
        start = f = self.prefix_len.value
        while f <= depth:
            a = variables[f].value()
            if a == 0:
                break  # the pattern ended at length f
            if not self._extend(a):
                return False
            f += 1
        if f == start:
            return True
        self.prefix_len.set(f)
        if f > self.peak_depth:
            self.peak_depth = f
        if self.self_check:
            self._verify_counts()
        return self._filter(f)

    def _filter(self, f: int) -> bool:
        if f >= len(self.vars):
            return True
        var = self.vars[f]
        theta, freq = self.min_sup, self._freq_of
        return var.restrict([b for b in var.values() if b == 0 or freq(b) >= theta])

    def _verify_counts(self) -> None:
        expect = projected_symbol_counts(self.db, self.projection.window())
        got = self.frequencies()
        if got != expect:
            raise AssertionError(
                f"window frequencies {got} differ from recount {expect}"
            )

    # -- shared scans ------------------------------------------------------

    def _scan_lastpos(self, a: int) -> tuple[int, list[int]]:
        """Last-position-guided projection pass.

        Builds the child window and a fresh per-symbol count in one sweep:
        sequences whose last occurrence of `a` lies before the cursor are
        dropped without touching the sequence, matches are found by a plain
        scan, and counting walks the (position-descending) last-position
        list only while entries fall inside the new suffix.
        """
        db = self.db
        seqs = db.seqs
        last = db.last_pos_index[a]
        last_list = db.last_pos_list
        proj = self.projection
        sids = proj.sids
        poss = proj.poss
        lo = proj.start.value
        hi = lo + proj.size.value
        del sids[hi:], poss[hi:]
        counts = [0] * (db.symbol_count + 1)
        visited = 0
        for k in range(lo, hi):
            sid = sids[k]
            pos = poss[k]
            if sid not in last or last[sid] <= pos:
                continue
            seq = seqs[sid]
            scan_from = pos
            while seq[pos] != a:
                pos += 1
            visited += pos - scan_from + 1
            pos += 1
            sids.append(sid)
            poss.append(pos)
            for sym, p in last_list[sid]:
                if p <= pos:
                    break
                counts[sym] += 1
        self.positions_visited += visited
        sup = len(sids) - hi
        proj.start.set(hi)
        proj.size.set(sup)
        return sup, counts


class FullScanProjection(ProjectionPropagator):
    """Projection by full suffix scans (the reference strategy).

    Every window entry is scanned from its cursor to find the next match;
    sequences not containing the symbol are scanned to their end.  When the
    child window is still frequent, frequencies are recounted by reading
    every remaining suffix element once per sequence.
    """

    def __init__(self, db, variables, min_sup, trail, self_check=False):
        super().__init__(db, variables, min_sup, trail, self_check)
        self._seen = [0] * (db.symbol_count + 1)
        self._seen_token = 0

    def _extend(self, a: int) -> bool:
        db = self.db
        seqs = db.seqs
        proj = self.projection
        sids = proj.sids
        poss = proj.poss
        lo = proj.start.value
        hi = lo + proj.size.value
        del sids[hi:], poss[hi:]
        visited = 0
        for k in range(lo, hi):
            sid = sids[k]
            pos = poss[k]
            seq = seqs[sid]
            n = len(seq)
            scan_from = pos
            while pos < n and seq[pos] != a:
                pos += 1
            if pos < n:
                visited += pos - scan_from + 1
                sids.append(sid)
                poss.append(pos + 1)
            else:
                visited += n - scan_from
        sup = len(sids) - hi
        proj.start.set(hi)
        proj.size.set(sup)
        if sup < self.min_sup:
            self.positions_visited += visited
            return False
        counts = [0] * (db.symbol_count + 1)
        seen = self._seen
        for k in range(hi, len(sids)):
            seq = seqs[sids[k]]
            start = poss[k]
            self._seen_token += 1
            token = self._seen_token
            for idx in range(start, len(seq)):
                sym = seq[idx]
                if seen[sym] != token:
                    seen[sym] = token
                    counts[sym] += 1
            visited += len(seq) - start
        self.positions_visited += visited
        self._scratch = counts
        return True


class LastPosProjection(ProjectionPropagator):
    """Projection with last-position skipping and list-based counting."""

    def _extend(self, a: int) -> bool:
        sup, counts = self._scan_lastpos(a)
        if sup < self.min_sup:
            return False
        self._scratch = counts
        return True


class DecrementProjection(ProjectionPropagator):
    """Projection maintaining reversible per-symbol counters by decrements.

    The counters start at the whole-database symbol supports and always
    reflect the live window.  Projecting an entry loses the part of its
    suffix up to and including the match, or the whole suffix when the
    sequence is dropped; one walk of the sequence's last-position list
    decrements every symbol whose last occurrence lies in that lost part.
    Backtracking restores the counters through the trail.
    """

    def __init__(self, db, variables, min_sup, trail, self_check=False):
        super().__init__(db, variables, min_sup, trail, self_check)
        self._counts = [None] + [
            ReversibleInt(trail, db.symbol_supports[a])
            for a in range(1, db.symbol_count + 1)
        ]

    def _freq_of(self, a: int) -> int:
        return self._counts[a].value

    def _extend(self, a: int) -> bool:
        sup = self._scan_decrement(a)
        return sup >= self.min_sup

    def _scan_decrement(self, a: int) -> int:
        db = self.db
        seqs = db.seqs
        last = db.last_pos_index[a]
        last_list = db.last_pos_list
        counts = self._counts
        proj = self.projection
        sids = proj.sids
        poss = proj.poss
        lo = proj.start.value
        hi = lo + proj.size.value
        del sids[hi:], poss[hi:]
        visited = 0
        for k in range(lo, hi):
            sid = sids[k]
            pos = poss[k]
            seq = seqs[sid]
            if sid not in last or last[sid] <= pos:
                new = len(seq)  # dropped: its whole suffix leaves the window
            else:
                new = pos
                while seq[new] != a:
                    new += 1
                new += 1
                visited += new - pos
                sids.append(sid)
                poss.append(new)
            # symbols last occurring in the lost indexes [pos, new), i.e.
            # at 1-based positions pos < p <= new
            for sym, p in last_list[sid]:
                if p <= pos:
                    break
                if p <= new:
                    c = counts[sym]
                    c.set(c.value - 1)
        self.positions_visited += visited
        sup = len(sids) - hi
        proj.start.set(hi)
        proj.size.set(sup)
        return sup


class AdaptiveProjection(DecrementProjection):
    """Per-node choice between scratch recounting and decrement updates.

    When the projecting symbol appears in strictly fewer than half of the
    window's suffixes, most of the window is about to be dropped and a
    scratch recount over the survivors is cheaper; the fresh counts are
    then written back into the reversible counters.  Otherwise the
    decrement pass is used unchanged.
    """

    def _extend(self, a: int) -> bool:
        parent_size = self.projection.size.value
        if self._counts[a].value * 2 < parent_size:
            sup, fresh = self._scan_lastpos(a)
            if sup < self.min_sup:
                return False
            counts = self._counts
            for b in range(1, self.db.symbol_count + 1):
                c = counts[b]
                if c.value != fresh[b]:
                    c.set(fresh[b])
            return True
        return self._scan_decrement(a) >= self.min_sup


PROPAGATORS = {
    "baseline": FullScanProjection,
    "ppic": LastPosProjection,
    "ppdc": DecrementProjection,
    "ppmixed": AdaptiveProjection,
}
