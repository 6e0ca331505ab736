"""Preprocessing: per-period TWU, the item order, and the working database
the search runs on.

Every step from here on names a period by its parsed label, and reads its
frozen total pto(h) from db.period_totals, which the parse built and no
step copies or changes. The preparation makes two walks over the
transactions. The first gives every item its per-period TWU row, keyed by
period, and its utility. mine_top_k seeds the collector with the singleton
entries they give (a row's keys are the item's periods), and so the
threshold; build_item_order reads them at that threshold, and nothing after:
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


def compute_period_twu(db: OnShelfDatabase) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """One walk over the transactions: (twu_table, utility).

    twu_table[i][h] is TWU(i, h), the sum of PTU(T) over transactions in
    period h containing i, with entries only for periods where the item
    actually occurs: a row's keys are the item's periods pi({i}), and
    presence in the table doubles as an occurrence flag. utility[i] is
    u({i}) over the whole database. Items and periods keep the order of
    their first occurrence. Both maps serve the item order, with its root
    TWU test, and the collector's singleton entries, whose k-th best ratio
    seeds the threshold; the search reads neither.
    """
    table: dict[int, dict[int, int]] = {}
    utility: dict[int, int] = {}
    for t in db.transactions:
        ptu = positive_transaction_utility(t)
        h = t.period
        for item, u in zip(t.items, t.utilities):
            row = table.get(item)
            if row is None:
                table[item] = {h: ptu}
            else:
                row[h] = row.get(h, 0) + ptu
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
    totals: dict[int, int],
    t_num: int,
    t_den: int,
) -> ItemOrder:
    """The mining order, decided in one pass over the TWU rows.

    A negative item (utility[i] < 0: an item keeps one sign) always enters.
    A positive item enters when it passes the root's local test, the TWU
    test: in some period h, TWU(i, h) reaches t_num/t_den times
    totals[h] (equality counts; t_num zero keeps every item that occurs).
    Each group is sorted by (total TWU, id), the positives first."""
    positives = []
    negatives = []
    for item, row in twu_table.items():
        if utility[item] < 0:
            negatives.append((sum(row.values()), item))
        elif any(twu * t_den >= t_num * totals[h] for h, twu in row.items()):
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
    h) per stored row, in ascending period order, items being ascending
    dense indices; every stored row holds a positive item. Within a
    period, rows keep their input order, and rows with identical item
    tuples have been fused into the first of them (unless built with merge
    off). period_totals is the database's own, the frozen original pto of
    each period label.
    """

    period_totals: dict[int, int]
    root: ProjectedDatabase
    order: ItemOrder

    @property
    def transaction_count(self) -> int:
        return len(self.root.views)


def build_working_database(
    db: OnShelfDatabase,
    order: ItemOrder,
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
    away. The totals are the original database's, untouched by the
    trimming.
    """
    blocks = {h: {} for h in sorted(db.period_totals)}
    position, boundary = order.position, order.boundary
    merged = 0
    for t in db.transactions:
        entries = sorted(
            (position[i], u) for i, u in zip(t.items, t.utilities) if i in position
        )
        if not entries or entries[0][0] >= boundary:
            continue
        items, utils = zip(*entries)
        h = t.period
        block = blocks[h]
        key = items if merge else len(block)  # unmerged, every row is a new key
        kept = block.get(key)
        if kept is None:
            block[key] = (items, utils, 0, 0, h)
        else:
            block[key] = (kept[0], tuple(map(add, kept[1], utils)), 0, 0, h)
            merged += 1
    periods = [h for h, block in blocks.items() if block]
    root = ProjectedDatabase(
        periods=periods,
        views=[view for block in blocks.values() for view in block.values()],
        utilities=[0] * len(periods),
    )
    working = WorkingDatabase(
        period_totals=db.period_totals,
        root=root,
        order=order,
    )
    return working, merged
