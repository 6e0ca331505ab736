"""Pseudo-projection of the working database onto successive prefix items.

A view is a tuple (items, utilities, offset, prefix_utility, period): a
window into a stored transaction starting just past the projected item,
the prefix's accumulated utility inside that transaction, and the dense
index of the transaction's period. Projection never copies transaction
content: a view's items and utilities are always the stored row's own
lists. Identical rows are fused once, when the working database is built
(see prepare.py), and never below the root.

A projection is one flat list of views in ascending period order, plus
the distinct periods those views hold and one prefix utility sum over all
of them, u(X). A node's projection therefore costs what the prefix's sales
cost, not the length of the shelf calendar; an itemset is only ever judged
over the periods it sells in.

Every node, the root included, is projected the same way. Once a node
knows its picks (the children it will project), occurrences() walks its
views once and lists, for each pick, the ids of the views that hold it,
4 bytes per occurrence; project() then visits only those views. A node
with a single pick, or too few views for the walk to pay (see
WALK_MIN_BISECTS), skips the walk, and its children scan every view.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .prepare import WorkingDatabase

# View tuple layout, by index: 0 items, 1 utilities, 2 offset, 3 prefix
# utility, 4 period.

# occurrences() walks a node's views only where the scans it replaces
# would bisect at least WALK_MIN_BISECTS views (picks x views). Timing
# every multi-pick frame both ways on the four perfbench workloads (seeds
# 960 and 961, CPython 3.11 on a 2-core x86-64 VM), the walk plus
# projecting from its ids took 2.2 to 2.3 times the scans below 32
# bisects, 1.2 to 1.8 times them from 64 to 512 (0.7 to 0.9 on daily-365
# from 128), and 0.35 to 0.93 times them above 1024: in small frames
# nearly every view holds every pick, so the walk saves no bisect. Summed
# over all frames, 512 came within 1% of the best cutover tried (0 to
# 1024) on three workloads and 7% on daily-365.
WALK_MIN_BISECTS = 512


@dataclass(slots=True)
class ProjectedDatabase:
    """Views in ascending period order, the periods they hold, and their
    prefix utility sum.

    periods lists the distinct periods of the views, ascending. utility is
    the sum of every view's prefix utility: the prefix's utility u(X).
    """

    periods: list[int]
    views: list[tuple]
    utility: int


def root_projection(working: WorkingDatabase) -> ProjectedDatabase:
    """The empty-prefix projection: every row, offset 0, prefix utility 0.
    A period whose rows all lost every item to the order holds no row and
    is left out."""
    periods = []
    views = []
    for p, block in enumerate(working.blocks):
        if block:
            periods.append(p)
            views.extend((row[0], row[1], 0, 0, p) for row in block)
    return ProjectedDatabase(periods=periods, views=views, utility=0)


def occurrences(pd: ProjectedDatabase, picks: list[int]) -> list[array | None]:
    """For each of the ascending picks, the ascending ids of pd's views
    that hold it: id r names pd.views[r].

    One walk reads each view's items from the first pick to the last.
    Where the picks' scans would be cheaper (a lone pick, or fewer than
    WALK_MIN_BISECTS picks x views), every pick gets None instead: its
    child scans every view. 4-byte ids suffice: 2**32 views would take
    hundreds of gigabytes.
    """
    if len(picks) < 2 or len(picks) * len(pd.views) < WALK_MIN_BISECTS:
        return [None] * len(picks)
    first = picks[0]
    last = picks[-1]
    rows = [array("I") for _ in picks]
    held = dict(zip(picks, rows)).get
    for r, (items, _, off, _, _) in enumerate(pd.views):
        j = bisect_left(items, first, off)
        for z in items[j : bisect_right(items, last, j)]:
            ids = held(z)
            if ids is not None:
                ids.append(r)
    return rows


def project(parent: ProjectedDatabase, z: int, rows: array | None = None) -> ProjectedDatabase:
    """Narrow the parent's views to transactions containing dense item z.

    rows, the ascending ids of the views to visit (see occurrences()),
    defaults to every view. Each surviving view starts just past z and
    adds u(z, T) to its prefix utility. The utility sum and the periods
    fall out of the same walk. View order is inherited from the parent.
    """
    parent_views = parent.views
    periods = []
    views = []
    total = 0
    last = -1
    for items, utils, off, prefix, p in (
        parent_views if rows is None else map(parent_views.__getitem__, rows)
    ):
        j = bisect_right(items, z, off)
        if j > off and items[j - 1] == z:
            prefix += utils[j - 1]
            views.append((items, utils, j, prefix, p))
            total += prefix
            if p != last:
                periods.append(p)
                last = p
    return ProjectedDatabase(periods=periods, views=views, utility=total)
