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

The root projection also carries an occurrence index, built once, so that
projecting a root item visits only the rows that contain it instead of
bisecting every row. The index is in compressed sparse row form: one flat
array of root view positions grouped by dense item (ascending within each
item) and per-item offsets into it. It costs 4 bytes per item occurrence
plus 4 bytes per item, and holds no second copy of the views. Projections
below the root scan their parent's views.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .prepare import WorkingDatabase

# View tuple layout, by index: 0 items, 1 utilities, 2 offset, 3 prefix
# utility, 4 period.


def _typecode(largest: int) -> str:
    """The smallest unsigned array typecode of at least 4 bytes holding largest."""
    for code in "ILQ":
        size = array(code).itemsize
        if size >= 4 and largest < 1 << (8 * size):
            return code
    raise OverflowError(largest)


@dataclass(frozen=True, slots=True)
class OccurrenceIndex:
    """Rows containing each dense item, in the order a scan would keep them.

    rows[item_starts[z]:item_starts[z + 1]] are the ids of the rows that
    contain z, ascending. Row id r is the root projection's views[r].
    """

    rows: array
    item_starts: array


@dataclass(slots=True)
class ProjectedDatabase:
    """Views in ascending period order, the periods they hold, and their
    prefix utility sum.

    periods lists the distinct periods of the views, ascending. utility is
    the sum of every view's prefix utility: the prefix's utility u(X). Only
    the root projection has an index; project() uses it when present.
    """

    periods: list[int]
    views: list[tuple]
    utility: int
    index: OccurrenceIndex | None = None


def _occurrence_index(views: list[tuple], n_items: int) -> OccurrenceIndex:
    # Two counting passes fill the flat array in place: count occurrences
    # per item, turn counts into offsets, then drop each row id into the
    # next free slot of each of its items. Row ids rise as the walk goes,
    # so every item's slice comes out ascending.
    counts = [0] * n_items
    for view in views:
        for d in view[0]:
            counts[d] += 1
    starts = [0, *accumulate(counts)]
    total = starts[-1]
    rows = array(_typecode(len(views)), [0]) * total
    nxt = starts[:-1]
    for r, view in enumerate(views):
        for d in view[0]:
            rows[nxt[d]] = r
            nxt[d] += 1
    return OccurrenceIndex(rows=rows, item_starts=array(_typecode(total), starts))


def root_projection(working: WorkingDatabase) -> ProjectedDatabase:
    """The empty-prefix projection: every row, offset 0, prefix utility 0,
    with the occurrence index over the rows. A period whose rows all lost
    every item to the order holds no row and is left out."""
    periods = []
    views = []
    for p, block in enumerate(working.blocks):
        if block:
            periods.append(p)
            views.extend((row[0], row[1], 0, 0, p) for row in block)
    return ProjectedDatabase(
        periods=periods,
        views=views,
        utility=0,
        index=_occurrence_index(views, len(working.order)),
    )


def project(parent: ProjectedDatabase, z: int) -> ProjectedDatabase:
    """Narrow the parent's views to transactions containing dense item z.

    Each surviving view starts just past z and adds u(z, T) to its prefix
    utility. The utility sum and the periods fall out of the same walk.
    View order is inherited from the parent. With an index, only the views
    of rows that contain z are visited, in the same order.
    """
    if parent.index is not None:
        return _project_indexed(parent, z)
    periods = []
    views = []
    total = 0
    last = -1
    for items, utils, off, prefix, p in parent.views:
        j = bisect_left(items, z, off)
        if j < len(items) and items[j] == z:
            prefix += utils[j]
            views.append((items, utils, j + 1, prefix, p))
            total += prefix
            if p != last:
                periods.append(p)
                last = p
    return ProjectedDatabase(periods=periods, views=views, utility=total)


def _project_indexed(parent: ProjectedDatabase, z: int) -> ProjectedDatabase:
    index = parent.index
    parent_views = parent.views
    periods = []
    views = []
    total = 0
    last = -1
    for r in index.rows[index.item_starts[z] : index.item_starts[z + 1]]:
        items, utils, off, prefix, p = parent_views[r]
        j = bisect_left(items, z, off)
        prefix += utils[j]
        views.append((items, utils, j + 1, prefix, p))
        total += prefix
        if p != last:
            periods.append(p)
            last = p
    return ProjectedDatabase(periods=periods, views=views, utility=total)
