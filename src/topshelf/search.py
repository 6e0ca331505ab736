"""The depth-first top-k search.

mine_top_k runs the stages in turn, each a plain call: the TWU walk, the
collector's seeding, the item order (which picks its own members, see
prepare.build_item_order), the working database, and _search, the walk
below the working database's root.

Positive items are explored first (only they can head a worthwhile prefix),
and each positive prefix additionally sprouts a chain of negative-item
extensions. The walk is one loop over an explicit stack, so the depth of the
tree (up to the longest transaction) never meets the interpreter's recursion
limit. A positive node's negative subtree is searched before its positive
children are selected, against the threshold of that moment; this is sound
because each fill keeps its bounds in records of its own. The collector
starts at zero and is seeded with every non-negative singleton before the
search, so it holds the best k of them and its threshold starts at their
k-th best ratio (at zero where fewer than k are non-negative); the
threshold can then rise from the search's first offer, and the search
offers no one-item node again.
The threshold only ever rises, and since every entry is a real itemset with
its exact value, it can never exceed the true k-th best ratio, so
bound-based pruning (see bounds.py) never discards a member of the true
top-k: the result is exactly what brute force would return.

The collector ranks raw entries (utility, period total, items, dense
periods) by an exact integer key (domain.ratio_rank), so each offer costs
integer and tuple comparisons only; Patterns, with their Fraction and
period labels, are built once the search ends, for the k survivors.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from time import perf_counter

from .bounds import (
    fill_subtree_and_local,
    select_negative_candidates,
    select_primary_secondary,
)
from .dataset import OnShelfDatabase
from .domain import Pattern, ratio_rank
from .errors import InvalidK, TooManyItems
from .prepare import (
    build_item_order,
    build_working_database,
    compute_period_twu,
    dense_periods,
)
from .projection import occurrences, project

MAX_DISTINCT_ITEMS = 2**16


@dataclass
class SearchStats:
    """Counters for one mining run. candidates counts the nodes projected,
    merges counts the rows fused away when the working database was built
    (a row with no positive item of the order is dropped, not fused),
    max_depth is the longest prefix reached. patterns is the final result
    size. threshold_rises counts the offers that raised the admission
    threshold during the search. A depth-1 node is projected, counted and
    filled like any other, but its offer is made before the search, from
    the preparation's walk, and counts no rise."""

    k: int = 0
    patterns: int = 0
    candidates: int = 0
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
        "merges": stats.merges,
        "max_depth": stats.max_depth,
        "threshold_rises": stats.threshold_rises,
        "elapsed_ms": stats.elapsed_ms,
    }


def _check_k(k) -> None:
    """k must be an int of at least 1; a bool is not a count."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidK(k)


class TopKCollector:
    """Keeps the best k itemsets offered so far under the ranking order and
    exposes the current admission threshold.

    An entry is raw: (rank, size, items, utility, period total, dense
    periods), where rank is ratio_rank(utility, period total) at the scale
    total_bound squared. So entries sort as Pattern.sort_key does, by
    comparing plain integers and item tuples, and result() builds Patterns
    for the k survivors only. Each itemset is offered at most once: the
    miner offers the singletons first, then the search's larger itemsets.
    total_bound must bound every period total offered; offer raises
    ValueError on one above it rather than risk a wrong rank.

    The threshold starts at zero, becomes the k-th best ratio once k
    entries are held, and is monotonically non-decreasing. It is stored as
    a reduced (num, den) tuple, reduced again only when the k-th entry's
    rank changes. Ties at the threshold
    are resolved by the full ranking key against the current worst entry.
    rises counts the offers that raised the threshold: an offer that leaves
    the k-th best ratio at the threshold raises nothing.
    """

    __slots__ = ("k", "threshold", "rises", "total_bound", "_scale", "_kth_rank", "_entries")

    def __init__(self, k: int, total_bound: int):
        _check_k(k)
        self.k = k
        self.threshold = (0, 1)
        self.rises = 0
        self.total_bound = total_bound
        self._scale = total_bound * total_bound
        self._kth_rank = None
        self._entries: list[tuple] = []

    def offer(self, utility: int, period_total: int, items, periods) -> bool:
        """Admit the itemset if it ranks among the best k; report acceptance.

        items holds its external ids in any order, periods its dense
        periods. The threshold is tested first, and only an itemset that
        clears it costs the sorted tuple of items and the tuple of periods
        its entry keeps."""
        if period_total > self.total_bound:
            raise ValueError(
                f"period total {period_total} exceeds the collector's bound {self.total_bound}"
            )
        num, den = self.threshold
        if utility * den < num * period_total:
            return False
        items = tuple(sorted(items))
        rank = ratio_rank(utility, period_total, self._scale)
        entry = (rank, len(items), items, utility, period_total, tuple(periods))
        entries = self._entries
        if len(entries) >= self.k:
            if entry >= entries[-1]:
                return False
            insort(entries, entry)
            entries.pop()
        else:
            insort(entries, entry)
        if len(entries) >= self.k:
            kth = entries[-1]
            if kth[0] != self._kth_rank:
                self._kth_rank = kth[0]
                u, to = kth[3], kth[4]
                g = gcd(u, to)
                raised = (u // g, to // g)
                if raised != self.threshold:
                    self.threshold = raised
                    self.rises += 1
        return True

    def result(self, period_labels) -> list[Pattern]:
        """The held entries as ranked Patterns; period_labels[p] is the
        label of dense period p."""
        return [
            Pattern(
                items=items,
                utility=utility,
                periods=frozenset(period_labels[p] for p in periods),
                period_total=period_total,
                relative_utility=Fraction(utility, period_total),
            )
            for _, _, items, utility, period_total, periods in self._entries
        ]


def _search(working, collector, stats, *, su_prune, lu_prune) -> None:
    """Walk the set-enumeration tree below working.root depth first,
    offering each node of two or more items to collector and counting into
    stats.

    su and neg are the scratch rows of the positive candidates' one
    positive bound and of the negative ones' clipped subtree sums; every
    node reuses them, and each fill moves their cells into records of its
    own (see bounds.py). local is set where the local rule is the only
    positive rule (su_prune off, lu_prune on): the fills then sum the local
    bound into su, in place of the subtree bound. While the subtree rule is
    on, an item the local test would drop fails the subtree test wherever it
    could be picked, so the local bound changes no pick and is not summed.
    The search keeps no TWU table: each positive child is capped by the
    record of its parent's fill (see bounds.py).

    The root pass fills the rows from the root and picks, as the root's
    children, every key of its fill's record: the root selects at the
    cutoff its fill recorded at, and the item order's TWU test already made
    the root's local test. The fills of the root and of positive nodes run
    at the threshold where the subtree rule is on and at zero where it is
    off, and sum the local bound where it is the only positive rule (see
    bounds.py). A deferred selection tests its record at the threshold
    where either positive rule is on, and at zero otherwise.

    The stack holds one frame per node whose children are still pending:
    [projection, prefix, picks, next, rows, record], where picks are the
    node's selected children in order and next indexes the first one not
    yet searched. Negatives are the dense items from the order's boundary
    up, so a child at or above it is negative, and each child of a negative
    frame extends from the picks after it. A child's depth is the length of
    its prefix. rows holds, per pick, the ids of the views that hold it,
    from one walk of the node's views once its picks are known (see
    projection.occurrences), or None where the child scans every view; a
    pick's ids are dropped once its child is projected. record is the
    node's positive fill record (see bounds.fill_subtree_and_local), kept
    by the root's frame and by each deferred positive frame, None in a
    negative frame; a pick's cells leave record as its child is filled.

    Each child is projected from its rows, scored and offered, and then
    filled through fill_subtree_and_local, unless it is a negative child
    with no later pick. A positive child P + {z} fills at the subtree
    cutoff, which skips the negative tails of the periods where the node's
    own utility falls below it, and is handed P's recorded cells for z as
    caps, so it skips whole the periods where su_P,p(z) falls below the
    cutoff: no extension of the child can reach it there. A negative child
    fills at cutoff zero with no caps, and records no positive cell (see
    bounds.py). Each child's negative candidates are tested right after its
    fill, at the cutoff it filled at: a positive child's are the keys of its
    fill's negative record, ascending, a negative child's the picks after
    it. The negatives a child picks go on the stack, walked, above a
    deferred frame (rows None), whose picks slot holds the child's
    candidates until it selects: the keys of the child's record, ascending.
    A fill that records nothing pushes no deferred frame. Once the negative
    subtree is done, the deferred frame selects the child's own children
    from its record against the threshold of that moment, and then walks
    its views for them.
    """
    order, root = working.order, working.root
    boundary, ext_id = order.boundary, order.sequence
    su = [0] * boundary
    neg = [0] * len(order)
    local = lu_prune and not su_prune
    prune = su_prune or lu_prune
    period_totals = working.period_totals
    t_num, t_den = collector.threshold
    cut = t_num if su_prune else 0
    record = fill_subtree_and_local(root, su, neg, period_totals, cut, t_den, local=local)[0]
    primary = sorted(record)
    stack = [[root, (), primary, 0, occurrences(root, primary), record]]
    while stack:
        frame = stack[-1]
        pd, prefix, picks, i, rows, record = frame
        if rows is None:
            t_num, t_den = collector.threshold
            picks = select_primary_secondary(
                record, period_totals, picks, t_num if prune else 0, t_den
            )[0]
            rows = occurrences(pd, picks)
            frame[2], frame[4] = picks, rows
        if i == len(picks):
            stack.pop()
            continue
        z = picks[i]
        child = project(pd, z, rows[i])
        rows[i] = None
        frame[3] = i = i + 1

        ext = prefix + (ext_id[z],)
        stats.candidates += 1
        if len(ext) > stats.max_depth:
            stats.max_depth = len(ext)
        if prefix:  # mine_top_k offered every singleton before the search
            occupied = child.periods
            period_total = sum(period_totals[p] for p in occupied)
            collector.offer(sum(child.utilities), period_total, ext, occupied)

        negative = z >= boundary
        if negative and i == len(picks):
            continue  # the last negative pick has no later one to add
        t_num, t_den = collector.threshold
        cut = t_num if su_prune else 0
        if negative:
            # a negative child's prefix utilities can be negative, so its
            # own utility bounds none of its brackets: it fills ungated
            negatives = fill_subtree_and_local(child, su, neg, period_totals)[1]
            rest = picks[i:]
        else:
            kept, negatives = fill_subtree_and_local(
                child, su, neg, period_totals, cut, t_den, record.pop(z), local
            )
            if kept:
                stack.append([child, ext, sorted(kept), 0, None, kept])
            rest = sorted(negatives)
        picked = select_negative_candidates(negatives, rest, cut, t_den, period_totals)
        if picked:
            stack.append([child, ext, picked, 0, occurrences(child, picked), None])


def mine_top_k(
    db: OnShelfDatabase,
    k: int,
    *,
    su_prune: bool = True,
    lu_prune: bool = True,
) -> tuple[list[Pattern], SearchStats]:
    """Mine the k highest relative-utility itemsets.

    Returns the ranked pattern list and the run's counters. The debug knobs
    (su_prune, lu_prune) change work done, never results. lu_prune always
    sets the root's local test, the TWU test by which build_item_order picks
    the positive items of the order (at the seed threshold, at zero with
    lu_prune off); below the root the local bound is summed and tested only
    with su_prune off, in place of the subtree bound, since with the
    subtree rule on it changes no pick (see bounds.py).

    Every item of non-negative utility is offered as a singleton before the
    search, with its utility and periods from the TWU walk, to a collector
    that starts at zero. The best min(k, n) of the n offered are then held
    from the start, and their k-th best ratio is the seed threshold (zero
    where n < k), which the search's own offers raise sooner. The seeding's
    rises are not counted. The search projects and fills each one-item node
    but does not offer it again: its entry would be the same, since
    trimming never drops a row that holds a positive item of the order. An
    offered item outside the order failed the TWU test, so it ranks below
    the seed and is not held. The order holds every negative item; the
    working database drops each row with no positive item of the order.
    mine_top_k builds no item set of its own: it hands the TWU walk's maps
    to build_item_order, and the working database to _search.
    """
    _check_k(k)
    if len(db.item_signs) > MAX_DISTINCT_ITEMS:
        raise TooManyItems(len(db.item_signs), MAX_DISTINCT_ITEMS)

    start = perf_counter()
    stats = SearchStats(k=k)
    index, totals = dense_periods(db)
    twu, utility = compute_period_twu(db, index)
    collector = TopKCollector(k, sum(totals))
    # u({i}), and as its periods the keys of its TWU row: the exact entry
    # of each singleton, whose k-th best ratio is the seed threshold
    for item, u in utility.items():
        if u >= 0:
            collector.offer(u, sum(map(totals.__getitem__, twu[item])), (item,), twu[item])
    collector.rises = 0  # the seeding's rises are not the search's

    # With the local rule off, threshold zero keeps every positive item
    # that occurs: a TWU is never negative.
    t_num, t_den = collector.threshold if lu_prune else (0, 1)
    order = build_item_order(twu, utility, totals, t_num, t_den)
    # Nothing after the item order reads the TWU table or the utilities;
    # freed here, they are gone before the working database is built.
    del twu, utility
    working, stats.merges = build_working_database(db, order, index, totals)
    _search(working, collector, stats, su_prune=su_prune, lu_prune=lu_prune)

    patterns = collector.result(working.period_labels)
    stats.patterns = len(patterns)
    stats.threshold_num, stats.threshold_den = collector.threshold
    stats.threshold_rises = collector.rises
    stats.elapsed_ms = (perf_counter() - start) * 1000.0
    return patterns, stats
