"""Pseudo-projection of the working database onto successive prefix items.

A view is a tuple (items, utilities, offset, prefix_utility): a window
into a stored transaction starting just past the projected item, plus the
prefix's accumulated utility inside that transaction. Projection never
copies transaction content: a view's items and utilities are always the
stored row's own lists. Identical rows are fused once, when the working
database is built (see prepare.py), and never below the root.

A projection is period-sparse: it stores only the periods it occupies,
ascending, with their views aligned to them, plus one prefix utility sum
over all its views, u(X). A node's projection therefore costs what the
prefix's sales cost, not the length of the shelf calendar; an itemset is
only ever judged over the periods it sells in.

The root projection also carries an occurrence index, built once, so that
projecting a root item visits only the rows that contain it instead of
bisecting every row. The index is in compressed sparse row form: one flat
array of row ids grouped by dense item (ascending within each item, rows
numbered block after block through the root's occupied periods), per-item
offsets into it, and the first row id of each block. It costs 4 bytes per
item occurrence plus 4 bytes per item and per block for the offsets, and
holds no second copy of the views. Projections below the root scan their
parent's views.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .prepare import WorkingDatabase

# View tuple layout, by index: 0 items, 1 utilities, 2 offset, 3 prefix
# utility.


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
    contain z, ascending. Row ids number the root's blocks, one per
    occupied period, one after another; block b holds ids period_starts[b]
    up to period_starts[b + 1], and no block is empty.
    """

    rows: array
    item_starts: array
    period_starts: array


@dataclass(slots=True)
class ProjectedDatabase:
    """Views of the periods a projection occupies, and their prefix
    utility sum.

    periods lists, ascending, the dense period indices that hold at least
    one view; views[i] belongs to periods[i], and no views list is empty.
    utility is the sum of every view's prefix utility: the prefix's
    utility u(X). Only the root projection has an index; project() uses it
    when present.
    """

    periods: list[int]
    views: list[list[tuple]]
    utility: int
    index: OccurrenceIndex | None = None


def _occurrence_index(blocks: list[list[list]], n_items: int) -> OccurrenceIndex:
    # Two counting passes fill the flat array in place: count occurrences
    # per item, turn counts into offsets, then drop each row id into the
    # next free slot of each of its items. Row ids rise as the walk goes,
    # so every item's slice comes out ascending.
    counts = [0] * n_items
    period_starts = [0]
    for block in blocks:
        for row in block:
            for d in row[0]:
                counts[d] += 1
        period_starts.append(period_starts[-1] + len(block))
    starts = [0, *accumulate(counts)]
    total = starts[-1]
    row_code = _typecode(period_starts[-1])
    rows = array(row_code, [0]) * total
    nxt = starts[:-1]
    r = 0
    for block in blocks:
        for row in block:
            for d in row[0]:
                rows[nxt[d]] = r
                nxt[d] += 1
            r += 1
    return OccurrenceIndex(
        rows=rows,
        item_starts=array(_typecode(total), starts),
        period_starts=array(row_code, period_starts),
    )


def root_projection(working: WorkingDatabase) -> ProjectedDatabase:
    """The empty-prefix projection: every row, offset 0, prefix utility 0,
    with the occurrence index over the rows. A period whose rows all lost
    every item to the order holds no row and is left out."""
    periods = [p for p, block in enumerate(working.blocks) if block]
    blocks = [working.blocks[p] for p in periods]
    return ProjectedDatabase(
        periods=periods,
        views=[[(row[0], row[1], 0, 0) for row in block] for block in blocks],
        utility=0,
        index=_occurrence_index(blocks, len(working.order)),
    )


def project(parent: ProjectedDatabase, z: int) -> ProjectedDatabase:
    """Narrow the parent's views to transactions containing dense item z.

    Each surviving view starts just past z and adds u(z, T) to its prefix
    utility. The utility sum and occupancy fall out of the same walk, which
    visits only the parent's periods. View order is inherited from the
    parent. With an index, only the views of rows that contain z are
    visited, in the same order.
    """
    index = parent.index
    if index is not None:
        return _project_indexed(parent, index, z)
    out_periods = []
    out_views = []
    total = 0
    for p, plist in zip(parent.periods, parent.views):
        rows = []
        for view in plist:
            items = view[0]
            j = bisect_left(items, z, view[2])
            if j < len(items) and items[j] == z:
                prefix = view[3] + view[1][j]
                rows.append((items, view[1], j + 1, prefix))
                total += prefix
        if rows:
            out_periods.append(p)
            out_views.append(rows)
    return ProjectedDatabase(periods=out_periods, views=out_views, utility=total)


def _project_indexed(parent: ProjectedDatabase, index: OccurrenceIndex, z: int) -> ProjectedDatabase:
    # One walk over z's row ids. They ascend, so a row id at or past the
    # current block's end opens the next block that holds z, found by
    # bisecting the block starts.
    period_starts = index.period_starts
    parent_periods = parent.periods
    parent_views = parent.views
    out_periods = []
    out_views = []
    end = 0
    total = 0
    for r in index.rows[index.item_starts[z] : index.item_starts[z + 1]]:
        if r >= end:
            b = bisect_right(period_starts, r) - 1
            base = period_starts[b]
            end = period_starts[b + 1]
            plist = parent_views[b]
            rows = []
            out_periods.append(parent_periods[b])
            out_views.append(rows)
        view = plist[r - base]
        items = view[0]
        j = bisect_left(items, z, view[2])
        prefix = view[3] + view[1][j]
        rows.append((items, view[1], j + 1, prefix))
        total += prefix
    return ProjectedDatabase(periods=out_periods, views=out_views, utility=total)
