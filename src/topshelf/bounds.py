"""Upper-bound accumulators that drive the pruning decisions.

Two bounds are maintained per (period, candidate item) cell over the current
prefix's projection:

  subtree: prefix utility + the candidate's utility + the positive-profit
      remaining utility after the candidate. Bounds the utility, per period,
      of every itemset in the candidate's subtree. For negative candidates
      the remaining term is structurally zero (negatives sit at the end of
      the order) and the per-transaction bracket is clipped at zero, because
      a deeper extension can drop the transactions where the bracket went
      negative; without clipping this is not an upper bound at all.

  local: prefix utility + the positive-profit remaining utility after the
      prefix. Bounds every extension that still contains the candidate,
      which justifies dropping the candidate from the subtree's alphabet.

Both are >= the true utility of anything they prune (dominance is property
tested), and remaining sums count positive items only, which is what keeps
them valid when negative items are present.

A run allocates three arrays and every node reuses them: su and lu hold the
subtree and local bounds of the positive items (columns 0..boundary-1), and
neg holds the clipped subtree bounds of the kept negative items (columns
boundary..n_items-1 only, so the three together are no larger than one
full-width pair). fill_subtree_and_local fills all three in one walk of a
node's projection; fill_negative_subtree fills neg alone. Each fill first
resets the arrays it fills for the periods the projection occupies, then
walks the projection's views once, adding each view into the rows of its
own period. Keeping the negatives apart lets a positive node search its
negative extensions, which reuse neg, between its one fill and its
positive selection.

Between nodes every cell and every flag is zero. The fills keep a
first-touch record: the first time an array's cell for an item is written,
the item's flag in seen is set and the item is appended to touched. lu is
written only at positives that su has seen, so it keeps no flags and shares
su's touched list. reset(periods) zeroes the previous fill's rows (the
periods given to the previous reset) at the touched items, clears their
flags and the record, and makes periods the rows the next fill writes and
the selection helpers test. Where the touched items are more than a fifth
of the row width, reset zeroes those rows whole instead, which is then the
cheaper way. The selection helpers turn cells into plain lists before a
deeper node reuses the arrays. They test each cell, times the threshold
denominator, against a per-period cutoff. A pruning rule that is switched
off cuts at zero, and since every filled cell is at least zero, a zero
cutoff passes exactly the items that occurred.
"""

from __future__ import annotations

# reset zeroes rows whole once touched items exceed 1/SPARSE_RESET_SHARE of
# the row width. Zeroing one cell in a Python loop costs four to five times
# what it costs inside a slice assignment of the whole row: timeit on
# CPython 3.11 puts the break-even at a quarter to a fifth of the width for
# rows of 100, 300 and 2000 cells.
SPARSE_RESET_SHARE = 5


class BoundArray:
    """Period x item accumulator with a first-touch record.

    Column c holds item base + c. periods lists the rows that hold the
    current node's sums: the periods passed to the last reset, and none
    before the first. seen flags and touched lists the items written since
    the last reset; an array made with flags=False keeps no flags and takes
    its touched list from the fill that writes it.
    """

    __slots__ = ("cells", "seen", "touched", "periods", "base", "_zero_row")

    def __init__(self, n_periods: int, width: int, base: int = 0, *, flags: bool = True):
        self.cells = [[0] * width for _ in range(n_periods)]
        self.seen = [0] * width if flags else None
        self.touched: list[int] = []
        self.periods: list[int] = []
        self.base = base
        self._zero_row = [0] * width

    def reset(self, periods: list[int]) -> None:
        """Zero every cell and flag the last fill wrote, and make periods
        the rows the next fill writes and the selection helpers test."""
        touched = self.touched
        if touched:
            cells = self.cells
            seen = self.seen
            zero = self._zero_row
            if len(touched) * SPARSE_RESET_SHARE > len(zero):
                for p in self.periods:
                    cells[p][:] = zero
                if seen is not None:
                    seen[:] = zero
            else:
                base = self.base
                cols = [z - base for z in touched] if base else touched
                for p in self.periods:
                    row = cells[p]
                    for c in cols:
                        row[c] = 0
                if seen is not None:
                    for c in cols:
                        seen[c] = 0
            self.touched = []
        self.periods = periods


def fill_subtree_and_local(pd, su: BoundArray, lu: BoundArray, neg: BoundArray) -> None:
    """One backward walk per view of projection pd fills all three bound
    arrays, each view in the rows of its own period, after resetting them
    for the periods pd holds.

    Negatives come first in the walk (they sort last) and add clipped
    brackets to their neg cells. Then running, the prefix utility plus the
    positive entries walked so far, is at each positive entry exactly its
    subtree bracket: prefix + u + the positive remaining utility after it.
    At the end of the walk it is the local bracket, which does not depend
    on position, and a short second walk adds it for every positive entry.
    """
    periods = pd.periods
    su.reset(periods)
    lu.reset(periods)
    neg.reset(periods)
    boundary = neg.base
    seen = su.seen
    touched = su.touched
    neg_seen = neg.seen
    neg_touched = neg.touched
    su_cells = su.cells
    lu_cells = lu.cells
    neg_cells = neg.cells
    for items, utils, off, prefix, p in pd.views:
        su_row = su_cells[p]
        lu_row = lu_cells[p]
        neg_row = neg_cells[p]
        j = len(items) - 1
        while j >= off:
            item = items[j]
            if item < boundary:
                break
            col = item - boundary
            bracket = prefix + utils[j]
            if bracket > 0:
                neg_row[col] += bracket
            if not neg_seen[col]:
                neg_seen[col] = 1
                neg_touched.append(item)
            j -= 1
        last = j
        running = prefix
        while j >= off:
            item = items[j]
            running += utils[j]
            su_row[item] += running
            if not seen[item]:
                seen[item] = 1
                touched.append(item)
            j -= 1
        if last >= off:
            for item in items[off : last + 1]:
                lu_row[item] += running
    lu.touched = touched


def fill_negative_subtree(pd, neg: BoundArray) -> None:
    """Clipped subtree cells for negative candidates only: reset neg for
    the periods projection pd holds, then walk the negative tail of each
    view of pd, accumulating max(prefix + u(n, T), 0) in the row of the
    view's period."""
    neg.reset(pd.periods)
    boundary = neg.base
    seen = neg.seen
    touched = neg.touched
    cells = neg.cells
    for items, utils, off, prefix, p in pd.views:
        row = cells[p]
        j = len(items) - 1
        while j >= off:
            item = items[j]
            if item < boundary:
                break
            col = item - boundary
            bracket = prefix + utils[j]
            if bracket > 0:
                row[col] += bracket
            if not seen[col]:
                seen[col] = 1
                touched.append(item)
            j -= 1


def select_primary_secondary(
    su: BoundArray,
    lu: BoundArray,
    candidates,
    su_cut: list[int],
    lu_cut: list[int],
    t_den: int,
) -> tuple[list[int], list[int]]:
    """Split positive candidate items into (primary, secondary) per the
    bound tests.

    A candidate is secondary if some live period's local bound, times
    t_den, reaches that period's lu_cut, and primary if some live period's
    subtree bound does the same against su_cut; each array's live periods
    are those it was last reset for. A cutoff is the threshold numerator
    times the period total, or zero for a rule that is off. Items that
    never occurred in the projection are excluded even at threshold zero
    (su's flags tell). An item that occurred has a cell of at least zero in
    a live period, and every cell outside the live periods is zero, so
    skipping the other periods changes no decision, and a zero cutoff
    passes exactly the items that occurred. Primary is always a subset of
    secondary (the local bound dominates the subtree bound cell-wise for
    positive candidates).
    """
    primary: list[int] = []
    secondary: list[int] = []
    seen = su.seen
    su_cells = su.cells
    lu_cells = lu.cells
    su_periods = su.periods
    lu_periods = lu.periods
    for z in candidates:
        if not seen[z]:
            continue
        for p in lu_periods:
            if lu_cells[p][z] * t_den >= lu_cut[p]:
                break
        else:
            continue
        secondary.append(z)
        for p in su_periods:
            if su_cells[p][z] * t_den >= su_cut[p]:
                primary.append(z)
                break
    return primary, secondary


def select_negative_candidates(
    neg: BoundArray,
    candidates,
    cut: list[int],
    t_den: int,
) -> list[int]:
    """Negative items whose clipped subtree bound, times t_den, reaches
    cut in some live period of neg (boundary equality counts), occurrence
    required. A zero cut passes every item that occurred."""
    out: list[int] = []
    base = neg.base
    seen = neg.seen
    cells = neg.cells
    periods = neg.periods
    for z in candidates:
        col = z - base
        if not seen[col]:
            continue
        for p in periods:
            if cells[p][col] * t_den >= cut[p]:
                out.append(z)
                break
    return out
