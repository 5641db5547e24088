"""Projected-frequency propagation over a shared, stacked pseudo-projection.

The propagator enforces, over pattern variables P1..PL, that the bound
prefix stays frequent: each node that binds a symbol extends the
projection window by it, the search fails when the window support drops
below the threshold, and infrequent symbols are filtered from the next
variable only, which the engine resets before each pass.  The 0
terminator is the search engine's: it always passes the filter, and no
propagator runs where a pattern ends.

All state is kept in per-depth slots, slot f for the prefix of length f:
a node reads the slot its parent wrote and writes its own, so nothing is
trailed and backtracking undoes nothing.  The list strategies keep windows
in two arrays of (sequence id, suffix start) entries shared by the whole
search.  A child window is appended right after its parent, never
overwriting an ancestor's entries, so a window's slot holds only the pair
of integers delimiting its block; suffix starts are 0-based indexes of the
first element after the matched prefix.
Windows and the last-position index are both in ascending sequence-id
order, so a projection may walk either one and build the same child
window.  The bitmap strategy keeps one Python int per depth instead, over
the database's vertical bitmaps (`SymbolBitmaps`, after SPAM), and uses
the last-position idea as bits: a symbol is still in a suffix iff its last
occurrence is.

Four interchangeable projection strategies are provided:

* ``baseline``  - scans every suffix in full to project and count,
* ``ppic``      - projects with a few big-int operations per node and
                  counts a symbol as the popcount of the window and its
                  last-occurrence bitmap, only while the symbol has not
                  been counted below the threshold on the branch,
* ``ppdc``      - keeps per-symbol counters per depth: a copy of the
                  parent's, decremented by a walk of the last-position
                  list,
* ``ppmixed``   - picks per node between ``ppdc`` and a scratch recount
                  that skips exhausted sequences via the last-position
                  index (walking the symbol's index instead of the window
                  when it is the shorter), depending on how much of the
                  window will survive.

All four produce identical windows, frequencies and search trees; they
differ only in how much work they do to get there: sequence positions
read, window or index entries examined and candidate supports counted.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

from .database import SequenceDatabase
from .kernel import FDVariable, Propagator

__all__ = [
    "PseudoProjection",
    "ProjectionPropagator",
    "ListProjection",
    "FullScanProjection",
    "BitmapProjection",
    "DecrementProjection",
    "AdaptiveProjection",
    "PROPAGATORS",
    "projected_symbol_counts",
]


class PseudoProjection:
    """Stacked projection windows over growable sid/position arrays.

    ``bounds[f] = (lo, hi)`` delimits the window of the prefix of length f:
    ``sids[lo:hi]``, with parallel suffix starts in `poss`, in ascending sid
    order.  ``bounds[0]`` covers every sequence with position 0.  Each
    window is appended right after its parent's block, so the blocks of
    its ancestors lie below it, and entries past the parent's ``hi`` are
    dead (left by backtracked branches): `open_child` truncates the arrays
    there, the scan appends the child window, and `close_child` records
    its bounds.

    `window_map` gives a window's ``{sid: suffix start}`` map, built on
    first use and shared by the window's children.  The maps form a stack
    of ``(window start, map)`` pairs, one per live window at most.  A map is
    known by its window's start alone, which is sound because `open_child`
    drops every map at or past the position the child opens at: a window
    created there may be a sibling with the same start, even the same size.
    """

    def __init__(self, db: SequenceDatabase, slots: int) -> None:
        m = db.size
        self.sids: list[int] = list(db.sids)
        self.poss: list[int] = [0] * m
        self.bounds: list[tuple[int, int]] = [(0, m)] * slots
        self._maps: list[tuple[int, dict[int, int]]] = []

    def open_child(self, f: int) -> tuple[int, int]:
        """Bounds ``lo, hi`` of window ``f - 1``; window f is appended at hi.

        Drops the dead entries and the maps of windows at or past hi.
        """
        lo, hi = self.bounds[f - 1]
        del self.sids[hi:], self.poss[hi:]
        maps = self._maps
        while maps and maps[-1][0] >= hi:
            maps.pop()
        return lo, hi

    def close_child(self, f: int, hi: int) -> int:
        """Make the entries appended past `hi` window f; its size."""
        end = len(self.sids)
        self.bounds[f] = (hi, end)
        return end - hi

    def window_map(self, lo: int, hi: int) -> dict[int, int]:
        """``{sid: suffix start}`` of the window ``sids[lo:hi]``."""
        maps = self._maps
        if maps and maps[-1][0] == lo:
            return maps[-1][1]
        where = dict(zip(self.sids[lo:hi], self.poss[lo:hi]))
        maps.append((lo, where))
        return where

    def window(self, f: int) -> list[tuple[int, int]]:
        """Window f as (sid, suffix start) pairs."""
        lo, hi = self.bounds[f]
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
    """Shared machinery: the frequency filter's protocol and counters.

    ``propagate(depth)`` projects window `depth`, of the prefix before the
    symbol bound at `depth`, by that symbol into window ``f = depth + 1``;
    then the frequencies of window f filter the domain of variable f, and
    earlier variables are never touched.  Window f and its frequencies are
    slot f of per-depth state, so a re-run at the same node rewrites the
    same slot (only the work counters count twice), and the windows of the
    bound prefix's own prefixes stay readable through `support`, `window`
    and `frequencies`.  Slot 0 is the database, and at the root (depth -1)
    the database supports filter the first variable.

    `positions_visited` counts sequence elements read while scanning
    (matching and, for the baseline, counting); reads of the precomputed
    last-position tables are not sequence reads and are not counted.
    `entries_examined` counts the entries the projection scans walked:
    the parent window's, or the last-position index's on its index side.
    `supports_counted` counts the candidate supports the filter compared
    with the threshold below the root (the root reads the database's).
    """

    def __init__(
        self,
        db: SequenceDatabase,
        variables: Sequence[FDVariable],
        min_sup: int,
    ) -> None:
        if min_sup < 1:
            raise ValueError("min_sup must be at least 1")
        self.db = db
        self.vars = list(variables)
        self.min_sup = min_sup
        self.positions_visited = 0
        self.entries_examined = 0
        self.supports_counted = 0
        self.peak_depth = 0

    # -- strategy hooks ---------------------------------------------------

    def _extend(self, a: int, f: int) -> bool:
        """Project window ``f - 1`` by symbol `a` into window `f`; False when
        the support drops below the threshold."""
        raise NotImplementedError

    def _filter(self, f: int) -> bool:
        """Keep the symbols frequent in window `f` in the domain of variable
        `f`, with 0; False when that empties it."""
        raise NotImplementedError

    def support(self, f: int) -> int:
        """Number of sequences in the window of the bound prefix of length
        `f` (0 for the database)."""
        raise NotImplementedError

    def window(self, f: int) -> list[tuple[int, int]]:
        """Window `f` as (sid, suffix start) pairs in ascending sid order."""
        raise NotImplementedError

    def frequencies(self, f: int) -> list[int]:
        """Per-symbol frequency of window `f` (index = symbol id)."""
        raise NotImplementedError

    # -- propagation ------------------------------------------------------

    def _root(self) -> bool:
        """The root window is the database: its supports filter variable 0."""
        var, supports, theta = self.vars[0], self.db.symbol_supports, self.min_sup
        return var.restrict([b for b in var.values() if supports[b] >= theta])

    def propagate(self, depth: int) -> bool:
        if depth < 0:
            return self._root()
        f = depth + 1
        if not self._extend(self.vars[depth].value(), f):
            return False
        if f > self.peak_depth:
            self.peak_depth = f
        return f >= len(self.vars) or self._filter(f)


class ListProjection(ProjectionPropagator):
    """Projection over the stacked window arrays of `PseudoProjection`.

    ``_counts[f]`` holds window f's per-symbol frequencies (index = symbol
    id): the database supports in slot 0, and below it the list each
    extension stores, counted afresh or copied from the parent's slot.
    """

    def __init__(self, db, variables, min_sup):
        super().__init__(db, variables, min_sup)
        slots = len(self.vars) + 1
        self.projection = PseudoProjection(db, slots)
        self._counts: list[Sequence[int]] = [db.symbol_supports] * slots

    def support(self, f: int) -> int:
        lo, hi = self.projection.bounds[f]
        return hi - lo

    def window(self, f: int) -> list[tuple[int, int]]:
        return self.projection.window(f)

    def frequencies(self, f: int) -> list[int]:
        return list(self._counts[f])

    def _filter(self, f: int) -> bool:
        var = self.vars[f]
        values = var.values()
        self.supports_counted += len(values) - var.contains(0)
        theta, counts = self.min_sup, self._counts[f]
        return var.restrict([b for b in values if b == 0 or counts[b] >= theta])


class FullScanProjection(ListProjection):
    """Projection by full suffix scans (the reference strategy).

    Every window entry is scanned from its cursor to find the next match;
    sequences not containing the symbol are scanned to their end.  When the
    child window is still frequent, frequencies are recounted by reading
    every remaining suffix element once per sequence.
    """

    def __init__(self, db, variables, min_sup):
        super().__init__(db, variables, min_sup)
        self._seen = [0] * (db.symbol_count + 1)
        self._seen_token = 0

    def _extend(self, a: int, f: int) -> bool:
        db = self.db
        seqs = db.seqs
        proj = self.projection
        sids = proj.sids
        poss = proj.poss
        lo, hi = proj.open_child(f)
        self.entries_examined += hi - lo
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
        sup = proj.close_child(f, hi)
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
        self._counts[f] = counts
        return True


class DecrementProjection(ListProjection):
    """Projection maintaining per-symbol counters by decrements.

    Window f's counters start as a copy of window ``f - 1``'s (the
    whole-database supports at the root).  Projecting an entry loses the
    part of its suffix up to and including the match, or the whole suffix
    when the sequence is dropped; one walk of the sequence's last-position
    list decrements every symbol whose last occurrence lies in that lost
    part.  The parent's counters are never written, so backtracking has
    nothing to restore.
    """

    def _extend(self, a: int, f: int) -> bool:
        return self._scan_decrement(a, f) >= self.min_sup

    def _scan_decrement(self, a: int, f: int) -> int:
        db = self.db
        seqs = db.seqs
        last = db.last_pos_index[a]
        last_list = db.last_pos_list
        counts = list(self._counts[f - 1])
        proj = self.projection
        sids = proj.sids
        poss = proj.poss
        lo, hi = proj.open_child(f)
        self.entries_examined += hi - lo
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
                    counts[sym] -= 1
        self.positions_visited += visited
        self._counts[f] = counts
        return proj.close_child(f, hi)


class AdaptiveProjection(DecrementProjection):
    """Per-node choice between scratch recounting and decrement updates.

    When the projecting symbol appears in strictly fewer than half of the
    window's suffixes, most of the window is about to be dropped and a
    scratch recount over the survivors is cheaper: its fresh counts are
    the child's counters.  Otherwise the decrement pass is used unchanged.
    """

    def _extend(self, a: int, f: int) -> bool:
        if self._counts[f - 1][a] * 2 < self.support(f - 1):
            return self._scan_lastpos(a, f) >= self.min_sup
        return self._scan_decrement(a, f) >= self.min_sup

    def _scan_lastpos(self, a: int, f: int) -> int:
        """Last-position-guided projection pass.

        Builds the child window and a fresh per-symbol count in one sweep
        over the smaller of two sid-ascending lists: the live window, or the
        index of `a` (its sequences and last positions) joined with the
        window's map.  Sequences whose last occurrence of `a` lies at or
        before the cursor are dropped without touching the sequence: window
        sids without `a` read that position as 0, and index sids absent from
        the window read their cursor as `max_len`, past every position, so
        one test drops both.  Matches are found by a plain scan,
        and counting walks the (position-descending) last-position list
        only while entries fall inside the new suffix.
        """
        db = self.db
        seqs = db.seqs
        last = db.last_pos_index[a]
        last_list = db.last_pos_list
        proj = self.projection
        sids = proj.sids
        poss = proj.poss
        lo, hi = proj.open_child(f)
        if len(last) < hi - lo:
            where = proj.window_map(lo, hi)
            cursors = map(where.get, last, repeat(db.max_len))
            entries = zip(last, cursors, last.values())
            self.entries_examined += len(last)
        else:
            window = sids[lo:hi]
            entries = zip(window, poss[lo:hi], map(last.get, window, repeat(0)))
            self.entries_examined += hi - lo
        counts = [0] * (db.symbol_count + 1)
        visited = 0
        for sid, pos, last_at in entries:
            if last_at <= pos:
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
        self._counts[f] = counts
        return proj.close_child(f, hi)


class BitmapProjection(ProjectionPropagator):
    """Bit-parallel projection and counting on the database's bitmaps.

    A window is one int over the `SymbolBitmaps` layout: a bit at every
    position left in a window suffix, and only the guard bit in the block
    of a sequence outside the window.  ``_windows[f]`` is the window of the
    first f bound symbols and ``_supports[f]`` its size, in per-depth
    slots.  Binding `a` takes, per block, the first match at or after the
    cursor: with ``Y = F & occ[a]``, ``(Y | G) - O`` clears the lowest set
    bit of Y in each block (the guard stops the borrow where Y is empty),
    so ``L = Y ^ (Y & ((Y | G) - O))`` is that bit alone, the support is
    ``L.bit_count()`` and ``G - (L << 1)`` is the child window.  A symbol
    `b` is in a suffix iff its last occurrence is, so its support in
    window F is ``(F & last[b]).bit_count()``.

    Supports only shrink along a branch, so ``_candidates[f]`` is the set
    of symbols not yet counted below the threshold on the way to depth f.
    The filter counts only the next domain's values in that set, and the
    child's set is the parent's minus those counted below the threshold:
    an uncounted symbol (outside a domain restricted by the regex or the
    cardinality constraints) is not known to be infrequent and stays.
    """

    def __init__(self, db, variables, min_sup):
        super().__init__(db, variables, min_sup)
        self.bitmaps = bits = db.bitmaps
        slots = len(self.vars) + 1
        self._windows = [bits.guards - bits.starts] * slots
        self._supports = [db.size] * slots
        supports = db.symbol_supports
        root = {b for b in range(1, db.symbol_count + 1) if supports[b] >= min_sup}
        self._candidates: list[set[int]] = [root] * slots

    def _extend(self, a: int, f: int) -> bool:
        bits = self.bitmaps
        guards, starts = bits.guards, bits.starts
        y = self._windows[f - 1] & bits.occ[a]
        first = y ^ (y & ((y | guards) - starts))
        sup = first.bit_count()
        if sup < self.min_sup:
            return False
        self._windows[f] = guards - (first << 1)
        self._supports[f] = sup
        return True

    def _filter(self, f: int) -> bool:
        var = self.vars[f]
        parent = self._candidates[f - 1]
        # walk the smaller side: a regex leaves few domain values, an
        # unconstrained domain holds the whole alphabet
        if var.size < len(parent):
            counted = [b for b in var.values() if b in parent]
        else:
            counted = var.among(parent)
        window, last, theta = self._windows[f], self.bitmaps.last, self.min_sup
        keep = [b for b in counted if (window & last[b]).bit_count() >= theta]
        self.supports_counted += len(counted)
        if len(keep) < len(counted):
            parent = parent.difference(counted).union(keep)
        self._candidates[f] = parent
        keep.append(0)
        return var.restrict(keep)

    def support(self, f: int) -> int:
        return self._supports[f]

    def window(self, f: int) -> list[tuple[int, int]]:
        window = self._windows[f]
        offsets, seqs = self.bitmaps.offsets, self.db.seqs
        out = []
        for sid in self.db.sids:
            n = len(seqs[sid])
            block = (window >> offsets[sid]) & ((2 << n) - 1)
            if not block >> n:  # a set guard bit: outside the window
                out.append((sid, (block & -block).bit_length() - 1 if block else n))
        return out

    def frequencies(self, f: int) -> list[int]:
        window, last = self._windows[f], self.bitmaps.last
        return [0] + [
            (window & last[b]).bit_count() for b in range(1, self.db.symbol_count + 1)
        ]


PROPAGATORS = {
    "baseline": FullScanProjection,
    "ppic": BitmapProjection,
    "ppdc": DecrementProjection,
    "ppmixed": AdaptiveProjection,
}
