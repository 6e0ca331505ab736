"""Upper-bound accumulators that drive the pruning decisions.

Two bounds are maintained per (period, candidate item) over the current
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

An item passes a rule if, in some period it sells in, its bound reaches the
threshold times that period's total. Period totals are positive, so that
holds exactly when the item's best ratio, the largest bound / total over
those periods, reaches the threshold. A fill therefore keeps, per item, only
that best ratio num/den, never a period x item grid.

A run allocates three arrays and every node reuses them: su and lu hold the
bounds of the positive items (dense items 0..boundary-1), neg the clipped
subtree bounds of the kept negatives, indexed by dense item. Each array is
one scratch row of sums plus the best ratio per item. A fill walks the
projection's views, which come in ascending period order, adding each view
into the row. At the end of each period it folds the cells that period
wrote into the best ratios against the period's total and zeroes them, so
every row cell is zero between fills. The fill lists a cell as it first goes
from zero to non-zero; a negative whose bracket clips to zero is listed too,
so that its occurrence is recorded. lu is written at exactly the items su
is, so both fold from one list in one pass, and su's stamps tell for both.

Every node, the root, a positive node or a negative one, is filled the same
way: fill_subtree_and_local fills all three arrays in one walk of its
projection. The fill starts neg; its caller starts su, since only the
caller knows whether a later selection will read su and lu. A negative
node's views hold only negatives (they sort last), so its fill writes no
su or lu cell and, with su left unstarted, su and lu read as the last
positive fill left them. That lets a positive node search its negative
extensions, which reuse neg, between its one fill and its positive
selection.

A fill of the root or of a positive node X also takes the cutoff
t_num/t_den that the negative selection will test, and walks no negative
tail in a period p where u_p(X), X's own utility in p, is below the cutoff
times p's total. Every prefix utility of such a node is at least zero, so
each clipped bracket max(prefix + u(n, T), 0) of a negative n is at most
its view's prefix, and n's bound in p, a sum over some of p's views, is at
most u_p(X): no negative can pass in p. A skipped period lists none of its
negatives, so one that sells only there reads as absent, which fails the
same cutoff. A negative node is exempt: its prefix utilities can be
negative, so u_p(X) can sit below a single view's positive bracket. It is
filled at cutoff zero, and t_num zero never skips.

A fill of every positive node X = P + {z}, whether or not X has positive
children to select, also takes z's TWU row from prepare.compute_period_twu,
keyed by dense period, and skips whole every period p where TWU_p({z}) is
below the cutoff times p's total: no positive walk, no tails, no fold. Every view of X holds z, and every bracket a view
adds (prefix + u + positive remaining for su, prefix + positive remaining
for lu, a clipped negative bracket for neg) is at most that view's PTU; a
fused or trimmed row only lowers it. So every sum a candidate y gets in
p, su_p(y) <= lu_p(y) for a positive y and the clipped sum for a negative
one, is at most TWU_p(X) <= TWU_p({z}), and nothing can pass in a skipped
period. The subtree and negative tests read the fill's cutoff or a higher
one, since the threshold only rises. The local test may read zero (the
local rule off), where secondary means "occurred": an item that sells
only in skipped periods then drops out of the node's alphabet, but it can
never be primary anywhere below X, because every descendant's brackets in
those periods are bounded by the same TWU_p({z}). So the nodes searched,
the patterns and every counter stay the same. The row is read, never
copied: the search holds the table anyway. The root has no last item, and
a negative node's cutoff of zero would skip nothing, so neither takes a
row.

Each fill takes a new stamp in neg, each start of su a new stamp in su,
and seen[z] holds the stamp of the last fill item z occurred in. So
nothing is reset between fills: the ratio of an item whose stamp is old is
stale, and the selectors never read it. They test a candidate that
occurred once, num * t_den >= t_num * den, against the threshold
t_num/t_den. A pruning rule that is switched off passes t_num = 0,
and since every bound here is at least zero, that passes exactly the items
that occurred.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from operator import itemgetter

_period = itemgetter(4)


class BoundArray:
    """One scratch row of per-item sums and, per item, the best ratio
    num/den of a sum to its period's total over the periods the last fill
    walked.

    Item z occurred in the last fill when seen[z] equals stamp; num[z] and
    den[z] hold its ratio only then. fold lists those items in touched,
    which is read for neg only: the positive selection tests su's stamps,
    and _fold_positives lists nothing.
    """

    __slots__ = ("row", "num", "den", "seen", "stamp", "touched")

    def __init__(self, width: int):
        self.row = [0] * width
        self.num = [0] * width
        self.den = [1] * width
        self.seen = [0] * width
        self.stamp = 0
        self.touched: list[int] = []

    def start(self) -> None:
        """Begin a fill: the new stamp makes every earlier ratio stale."""
        self.stamp += 1
        self.touched = []

    def fold(self, written: list[int], total: int) -> None:
        """Fold the row cells at the written items into their best ratios
        against one period's total, and zero them. An item listed twice
        reads zero the second time, which moves no ratio."""
        row = self.row
        num = self.num
        den = self.den
        seen = self.seen
        stamp = self.stamp
        touched = self.touched
        for z in written:
            cell = row[z]
            row[z] = 0
            if seen[z] != stamp:
                seen[z] = stamp
                touched.append(z)
                num[z] = cell
                den[z] = total
            elif cell * den[z] > num[z] * total:
                num[z] = cell
                den[z] = total


def _fold_positives(su: BoundArray, lu: BoundArray, written: list[int], total: int) -> None:
    """BoundArray.fold for su and lu in one pass over the items su wrote,
    which are the items lu wrote. su's stamps tell for both; lu's stay
    unused. Folding the two arrays in two passes cost the long-basket
    perfbench workload a tenth more mining time (CPython 3.11 on a 2-core
    x86-64 VM)."""
    su_row, su_num, su_den = su.row, su.num, su.den
    lu_row, lu_num, lu_den = lu.row, lu.num, lu.den
    seen = su.seen
    stamp = su.stamp
    for z in written:
        cell = su_row[z]
        local = lu_row[z]
        su_row[z] = lu_row[z] = 0
        if seen[z] != stamp:
            seen[z] = stamp
            su_num[z] = cell
            lu_num[z] = local
            su_den[z] = lu_den[z] = total
            continue
        if cell * su_den[z] > su_num[z] * total:
            su_num[z] = cell
            su_den[z] = total
        if local * lu_den[z] > lu_num[z] * total:
            lu_num[z] = local
            lu_den[z] = total


def fill_subtree_and_local(
    pd,
    su: BoundArray,
    lu: BoundArray,
    neg: BoundArray,
    totals,
    t_num: int = 0,
    t_den: int = 1,
    caps=None,
) -> None:
    """One backward walk per view of projection pd fills all three bound
    arrays, folding each period into the best ratios against its entry of
    totals.

    Negatives come first in the walk (they sort last, and only they carry
    negative utilities) and add clipped brackets to their neg cells. Then
    running, the prefix utility plus the positive entries walked so far, is
    at each positive entry exactly its subtree bracket: prefix + u + the
    positive remaining utility after it. At the end of the walk it is the
    local bracket, which does not depend on position, and a short second
    walk adds it for every positive entry.

    The fill starts neg, not su: the caller starts su before the fill of
    the root or of a positive node. A negative node's views hold no
    positive entry, so its fill leaves su and lu as they were.

    Two gates at the cutoff t_num/t_den, sound only for the root or a
    positive node (see the module docstring); t_num zero never skips. A
    positive node X = P + {z} passes caps, z's TWU row by dense period: in
    a period whose cap caps[p] is below the cutoff times its total, the
    walk skips the period whole, listing and folding nothing. In a period
    whose own utility u_p(pd) is below it, the walk skips the negative
    tails: it bisects for the last positive entry (positives are the dense
    items below su's width) and lists and folds nothing into neg for that
    period. The root passes no caps.
    """
    neg.start()
    su_row = su.row
    lu_row = lu.row
    neg_row = neg.row
    boundary = len(su_row)
    for (p, views), u_p in zip(groupby(pd.views, _period), pd.utilities):
        total = totals[p]
        cut = t_num * total
        if caps is not None and caps[p] * t_den < cut:
            continue
        tails = not t_num or u_p * t_den >= cut
        written = []
        neg_written = []
        for items, utils, off, prefix, _ in views:
            if tails:
                j = len(items) - 1
                while j >= off:
                    u = utils[j]
                    if u > 0:
                        break
                    item = items[j]
                    cell = neg_row[item]
                    if not cell:
                        neg_written.append(item)
                    bracket = prefix + u
                    if bracket > 0:
                        neg_row[item] = cell + bracket
                    j -= 1
            else:
                j = bisect_left(items, boundary, off) - 1
            last = j
            running = prefix
            while j >= off:
                item = items[j]
                running += utils[j]
                cell = su_row[item]
                if not cell:
                    written.append(item)
                su_row[item] = cell + running
                j -= 1
            if last >= off:
                for item in items[off : last + 1]:
                    lu_row[item] += running
        _fold_positives(su, lu, written, total)
        if tails:
            neg.fold(neg_written, total)


def select_primary_secondary(
    su: BoundArray,
    lu: BoundArray,
    candidates,
    su_num: int,
    lu_num: int,
    t_den: int,
) -> tuple[list[int], list[int]]:
    """Split positive candidate items into (primary, secondary) per the
    bound tests.

    A candidate is secondary if its best local ratio reaches lu_num/t_den,
    and primary if its best subtree ratio reaches su_num/t_den (equality
    counts). A numerator is the threshold's, or zero for a rule that is
    off. Items that did not occur in the last fill are excluded even at
    threshold zero (su's stamps tell). Primary is always a subset of
    secondary (the local bound dominates the subtree bound cell-wise for
    positive candidates).
    """
    primary: list[int] = []
    secondary: list[int] = []
    seen = su.seen
    stamp = su.stamp
    su_num_of, su_den_of = su.num, su.den
    lu_num_of, lu_den_of = lu.num, lu.den
    for z in candidates:
        if seen[z] != stamp or lu_num_of[z] * t_den < lu_num * lu_den_of[z]:
            continue
        secondary.append(z)
        if su_num_of[z] * t_den >= su_num * su_den_of[z]:
            primary.append(z)
    return primary, secondary


def select_negative_candidates(
    neg: BoundArray,
    candidates,
    t_num: int,
    t_den: int,
) -> list[int]:
    """Negative items that occurred in neg's last fill and whose best
    clipped subtree ratio reaches t_num/t_den (equality counts). t_num zero
    passes every item that occurred."""
    seen = neg.seen
    stamp = neg.stamp
    num = neg.num
    den = neg.den
    return [z for z in candidates if seen[z] == stamp and num[z] * t_den >= t_num * den[z]]
