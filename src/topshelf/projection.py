"""Pseudo-projection of the working database onto successive prefix items.

A view is a tuple (items, utilities, offset, prefix_utility): a window
into a stored transaction starting just past the projected item, plus the
prefix's accumulated utility inside that transaction. Projection never
copies transaction content: a view's items and utilities are always the
stored row's own lists. Identical rows are fused once, when the working
database is built (see prepare.py), and never below the root.

The root projection also carries an occurrence index, built once, so that
projecting a root item visits only the rows that contain it instead of
bisecting every row. The index is in compressed sparse row form: one flat
array of row ids grouped by dense item (ascending within each item, rows
numbered block after block in period order), per-item offsets into it, and
the first row id of each period. It costs 4 bytes per item occurrence plus
4 bytes per item and per period for the offsets, and holds no second copy
of the views. Projections below the root scan their parent's views.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
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
    contain z, ascending. Row ids number the root's period blocks one after
    another; period p holds ids period_starts[p] up to period_starts[p + 1].
    """

    rows: array
    item_starts: array
    period_starts: array


@dataclass(slots=True)
class ProjectedDatabase:
    """Views per dense period index, with per-period prefix utility sums.

    Only the root projection has an index; project() uses it when present.
    """

    views: list[list[tuple]]
    utility_by_period: list[int]
    index: OccurrenceIndex | None = None

    @property
    def occupied_periods(self) -> list[int]:
        return [p for p, v in enumerate(self.views) if v]


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
    with the occurrence index over the rows."""
    views = [
        [(row[0], row[1], 0, 0) for row in block]
        for block in working.blocks
    ]
    return ProjectedDatabase(
        views=views,
        utility_by_period=[0] * len(views),
        index=_occurrence_index(working.blocks, len(working.order)),
    )


def project(parent: ProjectedDatabase, z: int) -> ProjectedDatabase:
    """Narrow the parent's views to transactions containing dense item z.

    Each surviving view starts just past z and adds u(z, T) to its prefix
    utility. Per-period utility sums and occupancy fall out of the same
    walk. View order is inherited from the parent. With an index, only
    the views of rows that contain z are visited, in the same order.
    """
    index = parent.index
    if index is not None:
        return _project_indexed(parent.views, index, z)
    out_views = []
    out_u = []
    for plist in parent.views:
        rows = []
        total = 0
        for view in plist:
            items = view[0]
            j = bisect_left(items, z, view[2])
            if j < len(items) and items[j] == z:
                prefix = view[3] + view[1][j]
                rows.append((items, view[1], j + 1, prefix))
                total += prefix
        out_views.append(rows)
        out_u.append(total)
    return ProjectedDatabase(views=out_views, utility_by_period=out_u)


def _project_indexed(views, index: OccurrenceIndex, z: int) -> ProjectedDatabase:
    occurrences = index.rows
    period_starts = index.period_starts
    lo = index.item_starts[z]
    stop = index.item_starts[z + 1]
    out_views = []
    out_u = []
    for p, plist in enumerate(views):
        hi = bisect_left(occurrences, period_starts[p + 1], lo, stop)
        rows = []
        total = 0
        if hi > lo:
            base = period_starts[p]
            for r in occurrences[lo:hi]:
                view = plist[r - base]
                items = view[0]
                j = bisect_left(items, z, view[2])
                prefix = view[3] + view[1][j]
                rows.append((items, view[1], j + 1, prefix))
                total += prefix
            lo = hi
        out_views.append(rows)
        out_u.append(total)
    return ProjectedDatabase(views=out_views, utility_by_period=out_u)
