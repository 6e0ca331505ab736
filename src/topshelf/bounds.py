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
could be a candidate (at X itself too: su_X <= lu_X). So a fill sums one
positive bound, the one the run's positive rule tests: the subtree bound,
or the local bound where the local rule is the only positive rule (su_prune
off, lu_prune on; the search passes local then). The root's local test, the
TWU test by which prepare.build_item_order picks the order's positive
items, always runs: it shrinks the order and the working database before
any fill.

An item passes a rule if, in some period it sells in, its bound reaches the
threshold times that period's total. Every bound is tested that way, cell
by cell, against a fill's record (below): no bound keeps a best ratio, and
none is kept as a period x item grid.

A run allocates two scratch rows once and every node reuses them: su holds
the positive bound's sums of the positive items (dense items
0..boundary-1), neg the clipped subtree sums of the kept negatives, indexed
by dense item. A fill walks the projection's views, which come in ascending
period order, adding each view into the rows. At the end of each period one
fold moves the cells that period wrote out of a row, into that bound's
record where they reach the fold's need, and zeroes them, so every row cell
is zero between fills and nothing is reset. The fill lists a positive cell
as it first goes from zero to non-zero. It lists a negative at every
occurrence into a dict, so each negative it walks in a period is listed
once, in order of first occurrence, even where its bracket clips to zero:
its occurrence is recorded, with a zero cell if every bracket clipped.

Every fill returns two records, each item -> {period: cell}: su's
and neg's, at need, the cutoff t_num/t_den times the period's total rounded
up. Every node, the root, a positive node or a negative one, is filled the
same way, in one walk of its projection. A negative node's views hold only
negatives (they sort last), so its su record is empty. Each fill's records
are its own, so a positive node can search its negative extensions, which
reuse the rows, between its one fill and its positive selection.

A fill of the root or of a positive node X takes the cutoff t_num/t_den
that its negative selection tests right after it, and walks no negative
tail in a period p where u_p(X), X's own utility in p, is below the cutoff
times p's total. Every prefix utility of such a node is at least zero, so
each clipped bracket max(prefix + u(n, T), 0) of a negative n is at most
its view's prefix, and n's bound in p, a sum over some of p's views, is at
most u_p(X): no negative can pass in p. A skipped period records none of
its negatives, and none of them could pass there. A negative node is
exempt: its prefix utilities can be negative, so u_p(X) can sit below a
single view's positive bracket. It is filled at cutoff zero, where t_num
zero never skips and need is zero, so its neg record holds every negative
that occurred, clipped zeros included. The local bound is summed only
where the subtree rule is off, and every fill then runs at cutoff zero.

The su record holds, for each positive item z and each period p the fill
walks, z's subtree sum su_P,p(z) where that reaches need. At cutoff zero
need is zero, so the record holds every positive item that occurred, in
every period it occurred in. The search hands the fill of each positive
child X = P + {z} P's cells for z as caps, and the fill skips whole every
period that caps leaves out or holds below X's cutoff times the total: no
positive walk, no tails, no fold. Every view of X is a view of P that holds
z, with prefix_X = prefix_P + u(z) >= 0. Each bracket such a view adds in
X's fill, prefix_X + u(y) + the positive remaining after y for a positive
y, and max(prefix_X + u(n), 0) <= prefix_X for a negative n, is at most
prefix_X + the positive remaining after z, which is what the view added to
z's cell in P's fill. So every sum a candidate gets in p is at most
su_P,p(z). A cell P left out was below P's cutoff, which is at most X's,
since the threshold only rises; a kept cell is tested again at X's cutoff.
Nothing can pass in a skipped period. An item that sells only in skipped
periods is then recorded nowhere in X's fill, so it is not among X's
candidates (below), but it can never be primary anywhere below X, because
every view of a descendant is a view of X and its brackets in those periods
are bounded by the same su_P,p(z). So the nodes searched, the patterns and
every counter stay the same. Each bracket is also at most its view's PTU,
so su_P,p(z) <= TWU_p({z}): the record skips every period z's TWU row
would, and the search keeps no TWU table. The root has no parent and takes
no caps. Where the record holds local cells, the fill runs at cutoff zero,
where caps skip nothing.

The root and each positive node select their children from their own fill:
the positive candidates are the keys of its su record, the negative ones
the keys of its neg record, and a candidate passes when one of its recorded
cells reaches the selection's cutoff times that period's total. A selection
tests at its fill's cutoff or a higher one, so every cell that can pass is
recorded: a cell left out was below the fill's cutoff, and a skipped period
holds none that can reach it. So a pick is a recorded key, and an empty
record picks nothing; the search makes no positive selection for it. The
root selects right after its fill, at the fill's cutoff, so it picks every
key of its record. Every recorded item comes after the node's last item,
since its views start there. A negative node tests the picks after its own
item in its parent against its neg record; one that did not occur is not
recorded and fails. Where the record holds local cells, X = P + {z} tests
its own at its selection: every view of X that holds a later item y is a
view of P holding y, and its local bracket, prefix_P + u(z) + the positive
remaining after z, is at most prefix_P + the positive remaining after P's
last item. So lu_X,p(y) <= lu_P,p(y) in every period, and the threshold
only rises: an item that passes X's local test passed P's, and P's test
needs no repeating.

A selection tests a cell against the threshold t_num/t_den as cell * t_den
>= t_num * total. Where both positive rules are off the positive selection
passes t_num = 0, and where the subtree rule is off the fills and the
negative selection do; since every bound here is at least zero, that passes
every recorded item: at need zero, every item that occurred.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from operator import itemgetter

_period = itemgetter(4)

# A fill's record of one bound: item -> {period: cell}, keyed by period label.
Record = dict[int, dict[int, int]]


def _fold(row: list[int], written, record: Record, p: int, need: int) -> None:
    """Move the row cells at the written items, each listed once, into
    record at period p, where they reach need, and zero them."""
    for z in written:
        cell = row[z]
        row[z] = 0
        if cell >= need:
            cells = record.get(z)
            if cells is None:
                record[z] = {p: cell}
            else:
                cells[p] = cell


def fill_subtree_and_local(
    pd,
    su: list[int],
    neg: list[int],
    totals,
    t_num: int = 0,
    t_den: int = 1,
    caps=None,
    local: bool = False,
) -> tuple[Record, Record]:
    """One backward walk per view of projection pd fills the scratch rows
    and returns the fill's records (record, negatives), each item ->
    {period: cell}.

    Negatives come first in the walk (they sort last, and only they carry
    negative utilities) and add clipped brackets to their neg cells. Then
    running, the prefix utility plus the positive entries walked so far, is
    at each positive entry exactly its subtree bracket: prefix + u + the
    positive remaining utility after it. With local set, where the local
    rule is the only positive rule (see the module docstring), every
    positive entry adds its local bracket instead, prefix + the view's
    positive sum, which does not depend on position. At the end of each
    period the su and neg cells it wrote are folded into record and
    negatives where they reach need, the cutoff t_num/t_den times the
    period's total rounded up. At t_num zero the records hold every item
    that occurred. Their keys are the node's candidates (see the module
    docstring). A negative node's views hold no positive entry, so its
    fill records no su cell.

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
    boundary = len(su)
    record = {}
    negatives = {}
    for (p, views), u_p in zip(groupby(pd.views, _period), pd.utilities):
        total = totals[p]
        need = -(-t_num * total // t_den)
        if caps is not None and caps.get(p, 0) < need:
            continue
        tails = not t_num or u_p >= need
        written = []
        neg_written = {}
        for items, utils, off, prefix, _ in views:
            if tails:
                j = len(items) - 1
                while j >= off:
                    u = utils[j]
                    if u > 0:
                        break
                    item = items[j]
                    neg_written[item] = None
                    bracket = prefix + u
                    if bracket > 0:
                        neg[item] += bracket
                    j -= 1
            else:
                j = bisect_left(items, boundary, off) - 1
            if local:
                bracket = prefix + sum(utils[off : j + 1])
                for item in items[off : j + 1]:
                    cell = su[item]
                    if not cell:
                        written.append(item)
                    su[item] = cell + bracket
                continue
            running = prefix
            while j >= off:
                item = items[j]
                running += utils[j]
                cell = su[item]
                if not cell:
                    written.append(item)
                su[item] = cell + running
                j -= 1
        if written:
            _fold(su, written, record, p, need)
        if neg_written:
            _fold(neg, neg_written, negatives, p, need)
    return record, negatives


def _passing(record: Record, candidates, t_num: int, t_den: int, totals) -> list[int]:
    """The candidates, in order, with a cell in record that reaches
    t_num/t_den times that period's entry of totals (equality counts)."""
    passing = []
    for z in candidates:
        cells = record.get(z)
        if cells:
            for p, cell in cells.items():
                if cell * t_den >= t_num * totals[p]:
                    passing.append(z)
                    break
    return passing


def select_primary_secondary(
    record: Record, totals, candidates, t_num: int, t_den: int
) -> tuple[list[int], None]:
    """The positive candidate items, keys of the fill's record, with a cell
    there that reaches t_num/t_den times its period's total, as (primary,
    None). t_num is the threshold's, or zero where both positive rules are
    off. The record holds the one positive bound the run's positive rule
    tests (see the module docstring), so no secondary list is built; the
    second element and the argument order keep the shape that
    perfbench/tracer.py reads: the candidates third, the picks first.
    """
    return _passing(record, candidates, t_num, t_den, totals), None


def select_negative_candidates(
    negatives: Record,
    candidates,
    t_num: int,
    t_den: int,
    totals,
) -> list[int]:
    """The candidates with a clipped subtree cell in the fill's negative
    record that reaches t_num/t_den times its period's total (equality
    counts). t_num zero passes every recorded candidate."""
    return _passing(negatives, candidates, t_num, t_den, totals)
