"""Preprocessing: per-period TWU, the item order, and the working database
the search runs on.

Every step from here on names a period by its dense index: dense period p
is the p-th smallest period label, and totals[p] is its frozen total pto
(dense_periods). The preparation makes two walks over the transactions.
The first gives every item its per-period TWU row, keyed by dense period,
and its utility. mine_top_k seeds the collector with the singleton entries
they give (a row's keys are the item's periods), and so the threshold;
build_item_order reads them at that threshold, and nothing after:
mine_top_k drops both once the order is built, before the working
database, since the search caps each node by its parent's fill instead
(see bounds.py).
build_item_order alone decides the mining order, in one pass over the TWU
rows: every negative item, and the positive items that pass the root's
local test, the TWU test, positives first, each group sorted by ascending
total TWU with ties broken by external id. Dense indices are positions in
that order, so the sign of an item is just a comparison against the
positive/negative boundary and transaction entries sort by plain integer
index. The second walk builds the working database, the root projection
the search starts from: it drops every row left with no positive item,
fusing identical rows as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .dataset import OnShelfDatabase
from .domain import positive_transaction_utility
from .projection import ProjectedDatabase


def dense_periods(db: OnShelfDatabase) -> tuple[dict[int, int], list[int]]:
    """(index, totals): index maps each period label to its dense period p,
    in ascending label order, so tuple(index) lists the labels by dense
    period; totals[p] is the pto of dense period p. The walks that key by
    dense period read one index, and so share its int objects."""
    labels = sorted(db.periods)
    return {h: p for p, h in enumerate(labels)}, [db.period_totals[h] for h in labels]


def compute_period_twu(
    db: OnShelfDatabase, index: dict[int, int]
) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """One walk over the transactions: (twu_table, utility).

    twu_table[i][p] is TWU(i, p), the sum of PTU(T) over transactions in
    dense period p (index[h] for label h) containing i, with entries only
    for periods where the item actually occurs: a row's keys are the
    item's periods pi({i}), and presence in the table doubles as an
    occurrence flag. utility[i] is u({i}) over the whole database. Items
    and periods keep the order of their first occurrence. Both maps serve
    the item order, with its root TWU test, and the collector's singleton
    entries, whose k-th best ratio seeds the threshold; the search reads
    neither.
    """
    table: dict[int, dict[int, int]] = {}
    utility: dict[int, int] = {}
    for t in db.transactions:
        ptu = positive_transaction_utility(t)
        p = index[t.period]
        for item, u in zip(t.items, t.utilities):
            row = table.get(item)
            if row is None:
                table[item] = {p: ptu}
            else:
                row[p] = row.get(p, 0) + ptu
            utility[item] = utility.get(item, 0) + u
    return table, utility


@dataclass(frozen=True, slots=True)
class ItemOrder:
    """The processing order. sequence[d] is the external id at dense index d;
    indices below boundary are positive-profit items, the rest negative."""

    sequence: tuple[int, ...]
    position: dict[int, int]
    boundary: int

    def __len__(self) -> int:
        return len(self.sequence)


def build_item_order(
    twu_table: dict[int, dict[int, int]],
    utility: dict[int, int],
    totals: list[int],
    t_num: int,
    t_den: int,
) -> ItemOrder:
    """The mining order, decided in one pass over the TWU rows.

    A negative item (utility[i] < 0: an item keeps one sign) always enters.
    A positive item enters when it passes the root's local test, the TWU
    test: in some dense period p, TWU(i, p) reaches t_num/t_den times
    totals[p] (equality counts; t_num zero keeps every item that occurs).
    Each group is sorted by (total TWU, id), the positives first."""
    positives = []
    negatives = []
    for item, row in twu_table.items():
        if utility[item] < 0:
            negatives.append((sum(row.values()), item))
        elif any(twu * t_den >= t_num * totals[p] for p, twu in row.items()):
            positives.append((sum(row.values()), item))
    positives.sort()
    negatives.sort()
    sequence = tuple(item for _, item in positives + negatives)
    return ItemOrder(
        sequence=sequence,
        position={item: d for d, item in enumerate(sequence)},
        boundary=len(positives),
    )


@dataclass(slots=True)
class WorkingDatabase:
    """Trimmed, reindexed and fused transaction store.

    root is the empty-prefix projection: one view (items, utilities, 0, 0,
    p) per stored row, in ascending period order, items being ascending
    dense indices; every stored row holds a positive item. Within a
    period, rows keep their input order, and rows with identical item
    tuples have been fused into the first of them (unless built with merge
    off). period_totals keeps the frozen original
    pto for each dense period index.
    """

    period_labels: tuple[int, ...]
    period_totals: list[int]
    root: ProjectedDatabase
    order: ItemOrder

    @property
    def transaction_count(self) -> int:
        return len(self.root.views)


def build_working_database(
    db: OnShelfDatabase,
    order: ItemOrder,
    index: dict[int, int],
    totals: list[int],
    merge: bool = True,
) -> tuple[WorkingDatabase, int]:
    """Project the database onto the retained items and lay it out as the
    root projection.

    Transactions lose items outside the order and are re-expressed in dense
    indices. A row left with no positive item is dropped: a negative item
    heads no node, so no node below the root reaches such a row, and it
    adds nothing to the root's positive bounds. When merge is on, a row is
    fused, in the same walk, into the first earlier row of its period that
    holds the same items: that row keeps its position and the utilities add
    element-wise; a dropped row fuses with nothing. A period whose rows
    were all dropped holds no view and is left out of the root's periods.
    Returns the working database and the number of rows fused
    away. index and totals are dense_periods' layout; the totals are the
    original database's, untouched by the trimming.
    """
    blocks: list[dict] = [{} for _ in totals]
    position, boundary = order.position, order.boundary
    merged = 0
    for t in db.transactions:
        entries = sorted(
            (position[i], u) for i, u in zip(t.items, t.utilities) if i in position
        )
        if not entries or entries[0][0] >= boundary:
            continue
        items, utils = zip(*entries)
        p = index[t.period]
        block = blocks[p]
        key = items if merge else len(block)  # unmerged, every row is a new key
        kept = block.get(key)
        if kept is None:
            block[key] = (items, utils, 0, 0, p)
        else:
            block[key] = (kept[0], tuple(map(add, kept[1], utils)), 0, 0, p)
            merged += 1
    periods = [p for p, block in enumerate(blocks) if block]
    root = ProjectedDatabase(
        periods=periods,
        views=[view for block in blocks for view in block.values()],
        utilities=[0] * len(periods),
    )
    working = WorkingDatabase(
        period_labels=tuple(index),
        period_totals=totals,
        root=root,
        order=order,
    )
    return working, merged
