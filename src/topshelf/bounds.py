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

One pair of arrays is allocated per run. Each node resets only the
rows of the periods its projection occupies and records them on the array;
the fills write only the rows of periods that hold views, which are those
same rows, and the selection helpers test only those rows. Rows of other
periods may hold stale sums from earlier nodes, which nothing reads. The
selection helpers turn cells into plain lists before any recursion reuses
the arrays.
"""

from __future__ import annotations


class BoundArray:
    """Dense period x item accumulator with an occurrence flag per item.

    periods lists the rows that hold the current node's sums: the periods
    passed to the last reset, and none before the first.
    """

    __slots__ = ("cells", "seen", "periods", "_zero_row")

    def __init__(self, n_periods: int, n_items: int):
        self.cells = [[0] * n_items for _ in range(n_periods)]
        self.seen = [0] * n_items
        self.periods: list[int] = []
        self._zero_row = [0] * n_items

    def reset(self, periods: list[int]) -> None:
        """Zero the occurrence flags and the rows of periods, and make those
        the rows the selection helpers test."""
        zero = self._zero_row
        cells = self.cells
        for p in periods:
            cells[p][:] = zero
        self.seen[:] = zero
        self.periods = periods


def fill_subtree_and_local(views, su: BoundArray, lu: BoundArray, boundary: int) -> None:
    """One backward walk per view fills both bound arrays.

    Walking from the tail, the running positive suffix is exactly the
    positive remaining utility after the current entry; negatives come
    first in the walk (they sort last) and contribute clipped brackets to
    their own subtree cells only. A short second walk adds the local bound
    for the positive entries, whose bracket does not depend on position.
    """
    seen = su.seen
    su_cells = su.cells
    lu_cells = lu.cells
    for p, plist in enumerate(views):
        if not plist:
            continue
        su_row = su_cells[p]
        lu_row = lu_cells[p]
        for items, utils, off, prefix in plist:
            suffix = 0
            j = len(items) - 1
            while j >= off:
                item = items[j]
                u = utils[j]
                if item >= boundary:
                    bracket = prefix + u
                    if bracket > 0:
                        su_row[item] += bracket
                else:
                    su_row[item] += prefix + u + suffix
                    suffix += u
                seen[item] = 1
                j -= 1
            if suffix:
                total = prefix + suffix
                for j in range(off, len(items)):
                    item = items[j]
                    if item >= boundary:
                        break
                    lu_row[item] += total


def fill_negative_subtree(views, su: BoundArray, boundary: int) -> None:
    """Subtree cells for negative candidates only: walk each view's negative
    tail, accumulating max(prefix + u(n, T), 0)."""
    seen = su.seen
    su_cells = su.cells
    for p, plist in enumerate(views):
        if not plist:
            continue
        su_row = su_cells[p]
        for items, utils, off, prefix in plist:
            j = len(items) - 1
            while j >= off:
                item = items[j]
                if item < boundary:
                    break
                bracket = prefix + utils[j]
                if bracket > 0:
                    su_row[item] += bracket
                seen[item] = 1
                j -= 1


def select_primary_secondary(
    su: BoundArray,
    lu: BoundArray,
    candidates,
    scaled_totals: list[int],
    t_den: int,
    su_prune: bool,
    lu_prune: bool,
) -> tuple[list[int], list[int]]:
    """Split candidate items into (primary, secondary) per the bound tests.

    A candidate is secondary if some live period's local bound reaches the
    threshold, primary if some live period's subtree bound does; each
    array's live periods are those it was last reset for. Items that never
    occurred in the projection are excluded even at threshold zero, and an
    item that occurred has a cell of at least zero in a live period, so
    skipping the other periods changes no decision. Disabled pruning
    degrades the test to occurrence only. Primary is always a subset of
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
        if lu_prune:
            ok = False
            for p in lu_periods:
                if lu_cells[p][z] * t_den >= scaled_totals[p]:
                    ok = True
                    break
            if not ok:
                continue
        secondary.append(z)
        if su_prune:
            for p in su_periods:
                if su_cells[p][z] * t_den >= scaled_totals[p]:
                    primary.append(z)
                    break
        else:
            primary.append(z)
    return primary, secondary


def select_negative_candidates(
    su: BoundArray,
    candidates,
    scaled_totals: list[int],
    t_den: int,
    su_prune: bool,
) -> list[int]:
    """Negative items whose clipped subtree bound reaches the threshold in
    some live period of su (boundary equality counts), occurrence required."""
    out: list[int] = []
    seen = su.seen
    su_cells = su.cells
    periods = su.periods
    for z in candidates:
        if not seen[z]:
            continue
        if not su_prune:
            out.append(z)
            continue
        for p in periods:
            if su_cells[p][z] * t_den >= scaled_totals[p]:
                out.append(z)
                break
    return out
