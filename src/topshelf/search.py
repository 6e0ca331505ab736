"""The depth-first top-k search.

Positive items are explored first (only they can head a worthwhile prefix),
and each positive prefix additionally sprouts a chain of negative-item
extensions. The collector's threshold only ever rises, and it can never
exceed the true k-th best ratio, so bound-based pruning (see bounds.py)
never discards a member of the true top-k: the result is exactly what brute
force would return.
"""

from __future__ import annotations

import sys
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from .bounds import (
    BoundArray,
    fill_negative_subtree,
    fill_subtree_and_local,
    select_negative_candidates,
    select_primary_secondary,
)
from .dataset import OnShelfDatabase
from .domain import Pattern
from .errors import InvalidK, TooManyItems
from .prepare import (
    build_item_order,
    build_working_database,
    compute_period_twu,
    initial_secondary,
    negative_keep,
    singleton_threshold,
)
from .projection import project, root_projection

MAX_DISTINCT_ITEMS = 2**16


@dataclass
class SearchStats:
    """Counters for one mining run. candidates counts ratio evaluations,
    projections counts database narrowings, merges counts the rows fused
    away when the working database was built, max_depth is the longest
    prefix reached. patterns is the final result size. threshold_rises
    counts the offers that raised the admission threshold."""

    k: int = 0
    patterns: int = 0
    candidates: int = 0
    projections: int = 0
    merges: int = 0
    max_depth: int = 0
    elapsed_ms: float = 0.0
    threshold_num: int = 0
    threshold_den: int = 1
    threshold_rises: int = 0


def stats_json(stats: SearchStats) -> dict:
    """The stats payload the CLI writes with --stats."""
    return {
        "k": stats.k,
        "patterns": stats.patterns,
        "interutil_num": stats.threshold_num,
        "interutil_den": stats.threshold_den,
        "candidates": stats.candidates,
        "projections": stats.projections,
        "merges": stats.merges,
        "max_depth": stats.max_depth,
        "threshold_rises": stats.threshold_rises,
        "elapsed_ms": stats.elapsed_ms,
    }


class TopKCollector:
    """Keeps the best k patterns seen so far under the ranking order and
    exposes the current admission threshold.

    The threshold starts at the initial value (never negative), becomes the
    k-th best ratio once k patterns are held, and is monotonically
    non-decreasing. It is stored as an immutable (num, den) tuple. Ties at
    the threshold are resolved by the full ranking key against the current
    worst entry. rises counts the offers that raised the threshold.
    """

    __slots__ = ("k", "threshold", "rises", "_entries")

    def __init__(self, k: int, initial: Fraction):
        if k < 1:
            raise InvalidK(k)
        self.k = k
        self.threshold = (initial.numerator, initial.denominator)
        self.rises = 0
        self._entries: list[tuple[tuple, Pattern]] = []

    def clears_threshold(self, utility: int, period_total: int) -> bool:
        num, den = self.threshold
        return utility * den >= num * period_total

    def offer(self, pattern: Pattern) -> bool:
        """Admit the pattern if it ranks among the best k; report acceptance."""
        num, den = self.threshold
        ru = pattern.relative_utility
        if ru.numerator * den < num * ru.denominator:
            return False
        entry = (pattern.sort_key(), pattern)
        entries = self._entries
        if len(entries) >= self.k:
            if entry[0] >= entries[-1][0]:
                return False
            insort(entries, entry)
            entries.pop()
        else:
            insort(entries, entry)
        if len(entries) >= self.k:
            kth = entries[-1][1].relative_utility
            raised = (kth.numerator, kth.denominator)
            if raised != self.threshold:
                self.threshold = raised
                self.rises += 1
        return True

    def result(self) -> list[Pattern]:
        return [p for _, p in self._entries]


class _Miner:
    """Search state plus the recursion. su and lu are the one pair of bound
    arrays every node reuses."""

    def __init__(self, working, collector, *, su_prune, lu_prune):
        self.collector = collector
        self.su_prune = su_prune
        self.lu_prune = lu_prune
        self.boundary = working.order.boundary
        self.n_items = len(working.order)
        n_periods = len(working.period_labels)
        self.su = BoundArray(n_periods, self.n_items)
        self.lu = BoundArray(n_periods, self.n_items)
        self.period_totals = working.period_totals
        self.period_labels = working.period_labels
        self.ext_id = working.order.sequence
        self._scaled: tuple[tuple[int, int] | None, list[int]] = (None, [])

    def _scaled_totals(self) -> tuple[list[int], int]:
        """Threshold numerator times each period total, and the denominator.

        Rebuilt only when the threshold has risen since the last call.
        """
        threshold = self.collector.threshold
        cached, scaled = self._scaled
        if cached != threshold:
            scaled = [threshold[0] * total for total in self.period_totals]
            self._scaled = (threshold, scaled)
        return scaled, threshold[1]

    def _emit(self, pd, occupied, prefix_ext, depth, stats) -> None:
        """Score the prefix over its projection, whose occupied periods are
        given, and offer it."""
        utility = sum(pd.utility_by_period[p] for p in occupied)
        period_total = sum(self.period_totals[p] for p in occupied)
        stats.candidates += 1
        if depth > stats.max_depth:
            stats.max_depth = depth
        collector = self.collector
        if collector.clears_threshold(utility, period_total):
            collector.offer(
                Pattern(
                    items=tuple(sorted(prefix_ext)),
                    utility=utility,
                    periods=frozenset(self.period_labels[p] for p in occupied),
                    period_total=period_total,
                    relative_utility=Fraction(utility, period_total),
                )
            )

    def expand(self, pd, prefix_ext, z, secondary, depth, stats):
        """Grow the prefix by positive item z: score it, chase its negative
        extensions, then recurse into surviving positive candidates."""
        stats.projections += 1
        child = project(pd, z)
        ext2 = prefix_ext + (self.ext_id[z],)
        occupied = child.occupied_periods
        self._emit(child, occupied, ext2, depth + 1, stats)

        su, lu = self.su, self.lu
        su.reset(occupied)
        fill_negative_subtree(child.views, su, self.boundary)
        scaled, t_den = self._scaled_totals()
        negatives = select_negative_candidates(
            su, range(self.boundary, self.n_items), scaled, t_den, self.su_prune
        )
        if negatives:
            self._negative_search(child, ext2, negatives, depth + 1, stats)

        after = bisect_right(secondary, z)
        candidates = secondary[after:]
        if not candidates:
            return
        su.reset(occupied)
        lu.reset(occupied)
        fill_subtree_and_local(child.views, su, lu, self.boundary)
        scaled, t_den = self._scaled_totals()
        primary2, secondary2 = select_primary_secondary(
            su, lu, candidates, scaled, t_den, self.su_prune, self.lu_prune
        )
        for nxt in primary2:
            self.expand(child, ext2, nxt, secondary2, depth + 1, stats)

    def _negative_search(self, pd, prefix_ext, candidates, depth, stats):
        su = self.su
        for idx, z in enumerate(candidates):
            stats.projections += 1
            child = project(pd, z)
            ext2 = prefix_ext + (self.ext_id[z],)
            occupied = child.occupied_periods
            self._emit(child, occupied, ext2, depth + 1, stats)
            rest = candidates[idx + 1 :]
            if not rest:
                continue
            su.reset(occupied)
            fill_negative_subtree(child.views, su, self.boundary)
            scaled, t_den = self._scaled_totals()
            deeper = select_negative_candidates(su, rest, scaled, t_den, self.su_prune)
            if deeper:
                self._negative_search(child, ext2, deeper, depth + 1, stats)


def _raise_recursion_headroom(working) -> int | None:
    """Lift the interpreter's recursion limit to what this search needs.

    Returns the caller's limit if it was raised, so it can be restored, and
    None if it was already high enough.
    """
    # Depth is bounded by the longest transaction (every prefix needs a
    # containing row), not by the item count.
    longest = 0
    for block in working.blocks:
        for row in block:
            if len(row[0]) > longest:
                longest = len(row[0])
    needed = longest * 2 + 500
    previous = sys.getrecursionlimit()
    if previous >= needed:
        return None
    sys.setrecursionlimit(needed)
    return previous


def mine_top_k(
    db: OnShelfDatabase,
    k: int,
    *,
    su_prune: bool = True,
    lu_prune: bool = True,
) -> tuple[list[Pattern], SearchStats]:
    """Mine the k highest relative-utility itemsets.

    Returns the ranked pattern list and the run's counters. The debug knobs
    (su_prune, lu_prune) change work done, never results.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidK(k)
    if len(db.item_signs) > MAX_DISTINCT_ITEMS:
        raise TooManyItems(len(db.item_signs), MAX_DISTINCT_ITEMS)

    start = perf_counter()
    stats = SearchStats(k=k)
    collector = TopKCollector(k, singleton_threshold(db, k))

    twu = compute_period_twu(db)
    t_num, t_den = collector.threshold
    if lu_prune:
        secondary0 = initial_secondary(db, twu, t_num, t_den)
    else:
        secondary0 = {i for i, s in db.item_signs.items() if s > 0 and i in twu}
    kept_negative = negative_keep(db, secondary0)
    order = build_item_order(twu, db.item_signs, secondary0, kept_negative)
    working, stats.merges = build_working_database(db, order)

    miner = _Miner(working, collector, su_prune=su_prune, lu_prune=lu_prune)
    root = root_projection(working)
    su, lu = miner.su, miner.lu
    root_periods = root.occupied_periods
    su.reset(root_periods)
    lu.reset(root_periods)
    fill_subtree_and_local(root.views, su, lu, miner.boundary)
    scaled, t_den = miner._scaled_totals()
    # Root secondary came from the TWU test already; the root pass only
    # filters primary, so the local-bound test is off here.
    primary0, secondary0_dense = select_primary_secondary(
        su, lu, range(miner.boundary), scaled, t_den, su_prune, False
    )

    previous_limit = _raise_recursion_headroom(working)
    try:
        for z in primary0:
            miner.expand(root, (), z, secondary0_dense, 0, stats)
    finally:
        if previous_limit is not None:
            sys.setrecursionlimit(previous_limit)

    patterns = collector.result()
    stats.patterns = len(patterns)
    stats.threshold_num, stats.threshold_den = collector.threshold
    stats.threshold_rises = collector.rises
    stats.elapsed_ms = (perf_counter() - start) * 1000.0
    return patterns, stats
