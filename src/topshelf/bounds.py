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

While the subtree rule is on, the local bound below the root would change
which items are listed as secondary, never which are picked. Views are never
trimmed to a node's secondary items, so remaining sums run over every later
positive item. Take a positive node X, a positive descendant X' = X + D
reached through positive items only, and a positive item y after X'. A view
of X' holding y is a view of X, with prefix_X' = prefix_X + u(D). Its
subtree bracket, prefix_X + u(D) + u(y) + the positive remaining after y,
sums X's prefix and distinct positive items after X, so it is at most X's
local bracket there, prefix_X + the positive remaining after X; fusing rows
keeps that. Summed over a period's views, su_X'(y) <= lu_X(y) in every
period, and the threshold only rises from X's selection to that of X'. An
item that fails X's local test therefore fails the subtree test wherever it
could be a candidate (at X itself too: su_X <= lu_X). So lu is filled only
when the local rule is the only positive rule (su_prune off, lu_prune on);
otherwise the search hands the fills and selections lu None, and a
selection builds no secondary list: it tests su alone. The root's local
test, the TWU test in prepare.initial_secondary, always runs: it shrinks
the order and the working database before any fill.

An item passes a rule if, in some period it sells in, its bound reaches the
threshold times that period's total. The subtree bound of the positive
items is tested that way, cell by cell, against the fill's record (below).
For the local bound and the negatives' bound, period totals are positive,
so the rule holds exactly when the item's best ratio, the largest bound /
total over those periods, reaches the threshold, and those fills keep per
item only that best ratio num/den, never a period x item grid.

A run allocates its arrays once and every node reuses them: su (and lu,
where filled) hold the bounds of the positive items (dense items
0..boundary-1), neg the clipped subtree bounds of the kept negatives,
indexed by dense item. su is one scratch row of sums; lu and neg are
BoundArrays, a scratch row plus the best ratio per item. A fill walks the
projection's views, which come in ascending period order, adding each view
into the rows. At the end of each period it moves the cells that period
wrote out of the rows, into the record for su where they reach the
cutoff and into the best ratios against the period's total for lu and
neg, and zeroes them, so every row cell is zero between fills. The fill
lists a cell as it first goes from zero to non-zero; a negative whose
bracket clips to zero is listed too, so that its occurrence is recorded.
lu is written at exactly the items su is, so it folds from the list of su
cells the period wrote.

Every node, the root, a positive node or a negative one, is filled the same
way: fill_subtree_and_local fills the arrays in one walk of its projection,
and starts each BoundArray it is handed. A negative node's views hold only
negatives (they sort last), so its fill writes no su or lu cell, and the
search hands it lu None: lu then reads as the last positive fill left it,
and that fill's record is untouched. That lets a positive node search its
negative extensions, which reuse neg, between its one fill and its
positive selection.

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

Every fill returns its record, item -> {dense period: su cell}: for each
positive item z and each period p it walks, z's subtree sum su_P,p(z)
where that reaches need, the cutoff times p's total rounded up. At cutoff
zero need is zero, so the record holds every positive item that occurred,
in every period it occurred in; a negative node's record is empty. The
search hands the fill of each positive child X = P + {z} P's cells for z
as caps, and the fill skips whole every period that caps leaves out or
holds below X's cutoff times the total: no positive walk, no tails, no
fold. Every view of X is a view of P that holds z, with prefix_X =
prefix_P + u(z) >= 0. Each bracket such a view adds in X's fill, prefix_X +
u(y) + the positive remaining after y for a positive y's su, prefix_X + the
positive remaining after z for lu, and max(prefix_X + u(n), 0) <= prefix_X
for a negative n, is at most prefix_X + the positive remaining after z,
which is what the view added to z's cell in P's fill. So every sum a
candidate gets in p is at most su_P,p(z). A cell P left out was below P's
cutoff, which is at most X's, since the threshold only rises; a kept cell
is tested again at X's cutoff. Nothing can pass in a skipped period. An
item that sells only in skipped periods is then listed nowhere in X's
fill, so it is not among X's candidates (below), but it can never be
primary anywhere below X, because every view of a descendant is a view of
X and its brackets in those periods are bounded by the same su_P,p(z). So
the nodes searched, the patterns and every counter stay the same. Each
bracket is also at most its view's PTU, so su_P,p(z) <= TWU_p({z}): the
record skips every period z's TWU row would, and the search keeps no TWU
table. The root has no parent and takes no caps.

The root and each positive node select their children from their own fill:
the candidates are the keys of its record, and a candidate passes the
subtree rule when one of its recorded cells reaches the selection's cutoff
times that period's total. A selection tests at its fill's cutoff or a
higher one, so every cell that can pass is recorded: a cell left out was
below the fill's cutoff, and a skipped period holds none that can reach
it. So a pick is a recorded key, and an empty record picks nothing; the
search makes no selection for it. Every recorded item comes after the
node's last item, since its views start there. lu is filled only under
su_prune off, where every fill runs at cutoff zero and so records every
positive item that occurred, and there X = P + {z} tests lu at its own
selection: every view of X that holds a later item y is a view of P
holding y, and its local bracket, prefix_P + u(z) + the positive remaining
after z, is at most prefix_P + the positive remaining after P's last item.
So lu_X,p(y) <= lu_P,p(y) in every period, and the threshold only rises:
an item that passes X's local test passed P's, and P's test needs no
repeating.

Each start of a BoundArray takes a new stamp, and seen[z] holds the stamp
of the last fill item z occurred in. So nothing is reset between fills:
the ratio of an item whose stamp is old is stale, and the selectors never
read it. They test a candidate that occurred once, num * t_den >= t_num *
den, against the threshold t_num/t_den. A pruning rule that is switched
off passes t_num = 0, and since every bound here is at least zero, that
passes exactly the items that occurred.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from operator import itemgetter

_period = itemgetter(4)


class BoundArray:
    """One scratch row of per-item sums and, per item, the best ratio
    num/den of a sum to its period's total over the periods the last fill
    walked. It holds lu and neg; su keeps no ratio (see the module
    docstring).

    Item z occurred in the last fill when seen[z] equals stamp; num[z] and
    den[z] hold its ratio only then. fold lists those items in touched,
    which the search reads for neg.
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
        against one period's total, zero them, and list in touched each
        item the fill first sees. An item listed twice reads zero the
        second time, which moves no ratio."""
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


def fill_subtree_and_local(
    pd,
    su: list[int],
    lu: BoundArray | None,
    neg: BoundArray,
    totals,
    t_num: int = 0,
    t_den: int = 1,
    caps=None,
) -> dict[int, dict[int, int]]:
    """One backward walk per view of projection pd fills the bound arrays
    and returns the fill's record, item -> {dense period: su cell}.

    Negatives come first in the walk (they sort last, and only they carry
    negative utilities) and add clipped brackets to their neg cells. Then
    running, the prefix utility plus the positive entries walked so far, is
    at each positive entry exactly its subtree bracket: prefix + u + the
    positive remaining utility after it. su is a scratch row as wide as the
    positive items; at the end of each period each su cell it wrote goes
    into the record where it reaches need, the cutoff t_num/t_den times the
    period's total rounded up, and is zeroed. At t_num zero the record holds
    every positive item that occurred. Its keys are the node's candidates
    (see the module docstring).

    The fill starts neg, and lu where given. lu is None unless the local
    rule is the only positive rule (see the module docstring); given lu,
    the fill first adds every positive entry's local bracket, prefix + the
    view's positive sum, which does not depend on position, and folds lu
    from the list of su cells written. A negative node's views hold no
    positive entry, so its fill, handed lu None, leaves lu as it was and
    records nothing.

    Two gates at the cutoff, sound only for the root or a positive node
    (see the module docstring); t_num zero never skips. A positive node
    X = P + {z} passes caps, the record of P's fill for z: the walk skips
    whole, listing and folding nothing, every period absent from caps or
    whose cell there is below need. In a period whose own utility u_p(pd)
    is below need, the walk skips the negative tails: it bisects for the
    last positive entry (positives are the dense items below su's width)
    and lists and folds nothing into neg for that period. The root passes
    no caps.
    """
    neg.start()
    lu_row = None
    if lu is not None:
        lu.start()
        lu_row = lu.row
    neg_row = neg.row
    boundary = len(su)
    record = {}
    for (p, views), u_p in zip(groupby(pd.views, _period), pd.utilities):
        total = totals[p]
        need = -(-t_num * total // t_den)
        if caps is not None and caps.get(p, 0) < need:
            continue
        tails = not t_num or u_p >= need
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
            if lu_row is not None:
                local = prefix + sum(utils[off : j + 1])
                for item in items[off : j + 1]:
                    lu_row[item] += local
            running = prefix
            while j >= off:
                item = items[j]
                running += utils[j]
                cell = su[item]
                if not cell:
                    written.append(item)
                su[item] = cell + running
                j -= 1
        if lu_row is not None:
            lu.fold(written, total)
        for z in written:
            cell = su[z]
            su[z] = 0
            if cell >= need:
                cells = record.get(z)
                if cells is None:
                    record[z] = {p: cell}
                else:
                    cells[p] = cell
        if tails:
            neg.fold(neg_written, total)
    return record


def select_primary_secondary(
    record: dict[int, dict[int, int]],
    lu: BoundArray | None,
    candidates,
    su_num: int,
    lu_num: int,
    t_den: int,
    totals,
) -> tuple[list[int], list[int] | None]:
    """Split positive candidate items, keys of the fill's record, into
    (primary, secondary) per the bound tests.

    Given lu, a candidate is secondary if its best local ratio reaches
    lu_num/t_den. A candidate is primary if it is secondary and one of its
    recorded su cells reaches su_num/t_den times that period's entry of
    totals. With lu None no local test runs and no secondary list is built:
    the result is (primary, None), primary picked as at lu_num zero.
    Equality counts, and a numerator is the threshold's, or zero for a rule
    that is off. Primary is always a subset of secondary (the local bound
    dominates the subtree bound cell-wise for positive candidates).
    """
    secondary = candidates
    if lu is not None:
        local, local_den = lu.num, lu.den
        secondary = [z for z in candidates if local[z] * t_den >= lu_num * local_den[z]]
    primary = []
    for z in secondary:
        for p, cell in record[z].items():
            if cell * t_den >= su_num * totals[p]:
                primary.append(z)
                break
    return primary, None if lu is None else secondary


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
