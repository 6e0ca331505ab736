"""Preprocessing: per-period TWU, the initial threshold, the item order,
and the trimmed working database the search runs on.

The mining order puts every positive-profit item before every negative one,
each group sorted by ascending total TWU with ties broken by external id.
Dense indices are positions in that order, so the sign of an item is just a
comparison against the positive/negative boundary and transaction entries
sort by plain integer index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dataset import OnShelfDatabase
from .domain import positive_transaction_utility, ratio_rank


def compute_period_twu(db: OnShelfDatabase) -> dict[int, dict[int, int]]:
    """TWU(i, h): sum of PTU(T) over transactions in period h containing i.

    Returned as {item: {period: twu}} with entries only for periods where
    the item actually occurs, so presence in the outer mapping doubles as an
    occurrence flag.
    """
    table: dict[int, dict[int, int]] = {}
    for t in db.transactions:
        ptu = positive_transaction_utility(t)
        h = t.period
        for item in t.items:
            row = table.setdefault(item, {})
            row[h] = row.get(h, 0) + ptu
    return table


def singleton_stats(db: OnShelfDatabase) -> dict[int, tuple[int, frozenset[int]]]:
    """Per item: (u({i}), pi({i})) over the whole database."""
    utility: dict[int, int] = {}
    periods: dict[int, set[int]] = {}
    for t in db.transactions:
        for item, u in zip(t.items, t.utilities):
            utility[item] = utility.get(item, 0) + u
            periods.setdefault(item, set()).add(t.period)
    return {i: (utility[i], frozenset(periods[i])) for i in utility}


def singleton_threshold(db: OnShelfDatabase, k: int) -> Fraction:
    """Initial threshold: the k-th highest single-item relative utility,
    provided at least k of those values are non-negative; otherwise 0.

    Never negative, so the search never emits a negative-ratio pattern.
    The non-negative ratios are ranked by ratio_rank, scaled by the square
    of the summed period totals, which bounds every item's total.
    """
    stats = singleton_stats(db)
    totals = db.period_totals
    bound = sum(totals.values())
    scale = bound * bound
    rank = {
        item: ratio_rank(u, sum(totals[h] for h in pi), scale)
        for item, (u, pi) in stats.items()
        if u >= 0
    }
    if len(rank) < k:
        return Fraction(0)
    u, pi = stats[sorted(rank, key=rank.__getitem__)[k - 1]]
    return Fraction(u, sum(totals[h] for h in pi))


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
    signs: dict[int, int],
    retained_positive: set[int],
    retained_negative: set[int],
) -> ItemOrder:
    def total(item: int) -> int:
        return sum(twu_table.get(item, {}).values())

    positives = sorted(retained_positive, key=lambda i: (total(i), i))
    negatives = sorted(retained_negative, key=lambda i: (total(i), i))
    sequence = tuple(positives + negatives)
    return ItemOrder(
        sequence=sequence,
        position={item: d for d, item in enumerate(sequence)},
        boundary=len(positives),
    )


def initial_secondary(
    db: OnShelfDatabase,
    twu_table: dict[int, dict[int, int]],
    t_num: int,
    t_den: int,
) -> set[int]:
    """Positive items worth keeping at the root: occur somewhere and have at
    least one period where TWU(i, h) / pto(h) reaches the threshold."""
    keep = set()
    for item, sign in db.item_signs.items():
        if sign < 0:
            continue
        row = twu_table.get(item)
        if not row:
            continue
        for h, twu in row.items():
            if twu * t_den >= t_num * db.period_totals[h]:
                keep.add(item)
                break
    return keep


def negative_keep(db: OnShelfDatabase, secondary: set[int]) -> set[int]:
    """Negative items that co-occur with at least one retained positive item.

    A negative item can only ever be reached as an extension of a positive
    prefix, so one with no such co-occurrence is dead weight.
    """
    keep = set()
    for t in db.transactions:
        if any(i in secondary for i in t.items):
            for i, u in zip(t.items, t.utilities):
                if u < 0:
                    keep.add(i)
    return keep


@dataclass(slots=True)
class WorkingDatabase:
    """Trimmed, reindexed and fused transaction store.

    rows are [items, utilities] lists per period block, items being
    ascending dense indices. Within a block, rows keep their input order,
    and rows with identical item lists have been fused into the first of
    them (unless built with merge off). period_totals keeps the frozen
    original pto for each dense period index.
    """

    period_labels: tuple[int, ...]
    period_totals: list[int]
    blocks: list[list[list]]
    order: ItemOrder

    @property
    def transaction_count(self) -> int:
        return sum(len(b) for b in self.blocks)


def fuse_identical_rows(rows: list[list]) -> int:
    """Fuse rows with identical item lists in place, wherever they stand.

    Each group keeps its first row's position; utilities add element-wise.
    Returns the number of rows eliminated.
    """
    fused: dict[tuple[int, ...], list] = {}
    for row in rows:
        kept = fused.setdefault(tuple(row[0]), row)
        if kept is not row:
            kept[1] = [a + b for a, b in zip(kept[1], row[1])]
    dropped = len(rows) - len(fused)
    rows[:] = fused.values()
    return dropped


def build_working_database(
    db: OnShelfDatabase,
    order: ItemOrder,
    merge: bool = True,
) -> tuple[WorkingDatabase, int]:
    """Project the database onto the retained items and lay it out for search.

    Transactions lose items outside the order, are re-expressed in dense
    indices and (when merge is on) fused with earlier rows of the same
    period that hold the same items. Returns the working database and the
    number of rows fused away. Period totals are copied from the original
    database untouched.
    """
    labels = tuple(sorted(db.periods))
    label_index = {h: d for d, h in enumerate(labels)}
    blocks: list[list[list]] = [[] for _ in labels]
    position = order.position
    for t in db.transactions:
        entries = sorted(
            (position[i], u) for i, u in zip(t.items, t.utilities) if i in position
        )
        if not entries:
            continue
        blocks[label_index[t.period]].append(
            [[d for d, _ in entries], [u for _, u in entries]]
        )
    merged = 0
    if merge:
        for block in blocks:
            merged += fuse_identical_rows(block)
    working = WorkingDatabase(
        period_labels=labels,
        period_totals=[db.period_totals[h] for h in labels],
        blocks=blocks,
        order=order,
    )
    return working, merged
