"""The depth-first top-k search.

Positive items are explored first (only they can head a worthwhile prefix),
and each positive prefix additionally sprouts a chain of negative-item
extensions. The walk is one loop over an explicit stack, so the depth of the
tree (up to the longest transaction) never meets the interpreter's recursion
limit. A positive node's negative subtree is searched before its positive
children are selected, against the threshold of that moment; this is sound
because negative nodes write only the negative bound array. The collector's
threshold only ever rises, and it can never exceed the true k-th best ratio,
so bound-based pruning (see bounds.py) never discards a member of the true
top-k: the result is exactly what brute force would return.
"""

from __future__ import annotations

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
from .errors import InvalidK, TooManyBoundCells, TooManyItems
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
# Cells of the three dense bound arrays together, periods x (2 x positives +
# kept negatives): 2**26 list slots take about 0.5 GB on a 64-bit build.
MAX_BOUND_CELLS = 2**26


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
    """Search state plus the search loop. su and lu hold the subtree and
    local bounds of positive candidates, neg the clipped subtree bounds of
    negative ones; every node reuses these three arrays (see bounds.py)."""

    def __init__(self, working, collector, *, su_prune, lu_prune):
        self.collector = collector
        self.su_prune = su_prune
        self.lu_prune = lu_prune
        self.boundary = boundary = working.order.boundary
        n_items = len(working.order)
        n_periods = len(working.period_labels)
        cells = n_periods * (boundary + n_items)
        if cells > MAX_BOUND_CELLS:
            raise TooManyBoundCells(cells, MAX_BOUND_CELLS)
        self.su = BoundArray(n_periods, boundary)
        self.lu = BoundArray(n_periods, boundary, flags=False)
        self.neg = BoundArray(n_periods, n_items - boundary, boundary)
        self.period_totals = working.period_totals
        self.period_labels = working.period_labels
        self.ext_id = working.order.sequence
        self.zeros = [0] * n_periods
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

    def _cutoffs(self) -> tuple[list[int], list[int], int]:
        """The subtree and local cutoffs per period, and the threshold
        denominator. A rule that is on cuts at the scaled totals, a rule
        that is off at zero, which every item that occurred passes."""
        scaled, t_den = self._scaled_totals()
        zeros = self.zeros
        return scaled if self.su_prune else zeros, scaled if self.lu_prune else zeros, t_den

    def search(self, root, stats) -> None:
        """Walk the set-enumeration tree below root depth first.

        The root pass fills the arrays from root and selects the root's
        children among all positive items, at a zero local cutoff: root
        secondary came from the TWU test already.

        The stack holds one frame per node whose children are still
        pending: [projection, prefix, picks, secondary, next], where picks
        are the node's selected children in order and next indexes the
        first one not yet searched. A positive frame's secondary is the
        alphabet its children extend from; a negative frame's is None, and
        each of its children extends from the picks after it. A child's
        depth is the length of its prefix.

        Each child is projected, scored and offered. A positive child then
        fills neg, and su and lu too while later secondary items remain; a
        negative child with later picks fills neg alone. The negatives it
        picks go on the stack above a deferred frame (picks None) that
        selects its positive children from su and lu once the negative
        subtree is done, against the threshold of that moment. Negative
        nodes write only neg, so su and lu still hold the positive child's
        fill when the deferred selection runs.
        """
        su, lu, neg = self.su, self.lu, self.neg
        collector = self.collector
        period_totals = self.period_totals
        period_labels = self.period_labels
        ext_id = self.ext_id
        fill_subtree_and_local(root, su, lu, neg)
        su_cut, _, t_den = self._cutoffs()
        primary, secondary = select_primary_secondary(
            su, lu, range(self.boundary), su_cut, self.zeros, t_den
        )
        stack = [[root, (), primary, secondary, 0]]
        while stack:
            frame = stack[-1]
            pd, prefix, picks, later, i = frame
            if picks is None:
                picks, later = select_primary_secondary(su, lu, later, *self._cutoffs())
                frame[2], frame[3] = picks, later
            if i == len(picks):
                stack.pop()
                continue
            z = picks[i]
            i += 1
            frame[4] = i

            stats.projections += 1
            child = project(pd, z)
            ext = prefix + (ext_id[z],)
            occupied = child.periods
            utility = child.utility
            period_total = sum(period_totals[p] for p in occupied)
            stats.candidates += 1
            if len(ext) > stats.max_depth:
                stats.max_depth = len(ext)
            if collector.clears_threshold(utility, period_total):
                collector.offer(
                    Pattern(
                        items=tuple(sorted(ext)),
                        utility=utility,
                        periods=frozenset(period_labels[p] for p in occupied),
                        period_total=period_total,
                        relative_utility=Fraction(utility, period_total),
                    )
                )

            if later is None and i == len(picks):
                continue  # the last negative pick has no later one to add
            candidates = None if later is None else later[bisect_right(later, z) :]
            if candidates:
                fill_subtree_and_local(child, su, lu, neg)
                stack.append([child, ext, None, candidates, 0])
            else:
                fill_negative_subtree(child, neg)
            rest = picks[i:] if later is None else sorted(neg.touched)
            su_cut, _, t_den = self._cutoffs()
            negatives = select_negative_candidates(neg, rest, su_cut, t_den)
            if negatives:
                stack.append([child, ext, negatives, None, 0])


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
    # With the local rule off, threshold zero keeps every positive item
    # that occurs: a TWU is never negative.
    t_num, t_den = collector.threshold if lu_prune else (0, 1)
    secondary0 = initial_secondary(db, twu, t_num, t_den)
    kept_negative = negative_keep(db, secondary0)
    order = build_item_order(twu, db.item_signs, secondary0, kept_negative)
    working, stats.merges = build_working_database(db, order)

    miner = _Miner(working, collector, su_prune=su_prune, lu_prune=lu_prune)
    miner.search(root_projection(working), stats)

    patterns = collector.result()
    stats.patterns = len(patterns)
    stats.threshold_num, stats.threshold_den = collector.threshold
    stats.threshold_rises = collector.rises
    stats.elapsed_ms = (perf_counter() - start) * 1000.0
    return patterns, stats
