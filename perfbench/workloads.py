"""The benchmark's named workloads and the inputs they are generated from.

Inputs come from the stdlib ``random`` in this file only, so an edit to the
program's own generator cannot move a workload. A run uses PARTS databases
per workload, each drawn from its own stream of the seed: how much work a
single draw takes varies from seed to seed, and the run's figures average
that out over several draws. The same (workload, seed, part) always yields
the same database bytes. The program receives nothing but a database file
and ``k``.

Each workload's store (item profits, popularity, repeated baskets) is drawn
from the workload's name alone; the seed draws the sales: which items each
basket holds, the quantities and the periods.

Why each workload exists, and which layer it loads, is recorded in
README.md next to this file; the one-line reason is each workload's ``why``.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

# Databases per run (see above).
PARTS = 3

# Redraw attempts before a seed is declared unusable. A draw is redrawn when
# some period's total utility is not positive, which the parser rejects.
_ATTEMPTS = 100

Row = tuple[list[int], list[int]]


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    why: str
    # make(store_rng, sales_rng) -> (rows, period per row)
    make: Callable[[random.Random, random.Random], tuple[list[Row], list[int]]]


def _profits(rng: random.Random, n_items: int, neg_frac: float,
             max_profit: int, max_loss: int) -> dict[int, int]:
    negative = set(rng.sample(range(1, n_items + 1), int(n_items * neg_frac)))
    return {
        i: -rng.randint(1, max_loss) if i in negative else rng.randint(1, max_profit)
        for i in range(1, n_items + 1)
    }


def _basket(rng: random.Random, items, profit: dict[int, int]) -> Row:
    items = sorted(items)
    return items, [profit[i] * rng.randint(1, 5) for i in items]


def _periods(rng: random.Random, n_rows: int, n_periods: int,
             round_robin: bool) -> list[int]:
    if round_robin:
        return [i % n_periods for i in range(n_rows)]
    return [rng.randrange(n_periods) for _ in range(n_rows)]


def uniform(n_tx: int, n_items: int, avg_len: int, n_periods: int,
            round_robin: bool = False):
    """Items drawn uniformly, 20% of them sold at a loss, lengths within 2
    of avg_len: the shape of the program's own generator."""

    def make(store: random.Random, rng: random.Random):
        profit = _profits(store, n_items, 0.2, 10, 10)
        lo, hi = max(1, avg_len - 2), min(n_items, avg_len + 2)
        pool = range(1, n_items + 1)
        rows = [_basket(rng, rng.sample(pool, rng.randint(lo, hi)), profit)
                for _ in range(n_tx)]
        return rows, _periods(rng, n_tx, n_periods, round_robin)

    return make


def zipf(n_tx: int, n_items: int, s: float, n_templates: int, n_periods: int):
    """Retail-like baskets: Zipf item popularity with exponent s, 40% of
    items loss leaders sold at a small loss, and half of the baskets
    repeating one of n_templates fixed item sets (with fresh quantities),
    so root and projection merging have rows to fuse."""

    def make(store: random.Random, rng: random.Random):
        profit = _profits(store, n_items, 0.4, 10, 3)
        ranks = list(range(1, n_items + 1))
        store.shuffle(ranks)  # popularity rank of each item id
        cumulative = list(accumulate(1.0 / r ** s for r in ranks))
        top = cumulative[-1]

        def draw_items(source: random.Random) -> list[int]:
            want = source.randint(3, 9)
            chosen: set[int] = set()
            while len(chosen) < want:
                chosen.add(bisect(cumulative, source.random() * top) + 1)
            return list(chosen)

        templates = [draw_items(store) for _ in range(n_templates)]
        rows = []
        for _ in range(n_tx):
            items = rng.choice(templates) if rng.random() < 0.5 else draw_items(rng)
            rows.append(_basket(rng, items, profit))
        return rows, _periods(rng, n_tx, n_periods, False)

    return make


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("uniform-10k", 500,
                 "uniform items, 4 periods; projection-bound, where item-indexed projection must show",
                 uniform(10_000, 500, 6, 4)),
        Workload("daily-365", 60,
                 "365 round-robin periods; bound-array-bound, the control for projection changes",
                 uniform(6_000, 100, 6, 365, round_robin=True)),
        Workload("retail-skewed", 100,
                 "Zipf items, loss leaders, repeated baskets; merging and the negative tail",
                 zipf(4_000, 2000, 1.1, 240, 12)),
        Workload("long-basket", 50,
                 "25-item baskets; deep search, bound fills and per-node overhead",
                 uniform(2_000, 300, 25, 4)),
    )
}


def database_text(name: str, seed: int, part: int) -> str:
    """One database of a workload's run, in the program's format."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}/{part}")
    for _ in range(_ATTEMPTS):
        rows, periods = workload.make(random.Random(f"{name}/store"), rng)
        totals: dict[int, int] = {}
        for (_, utils), h in zip(rows, periods):
            totals[h] = totals.get(h, 0) + sum(utils)
        if all(t > 0 for t in totals.values()):
            break
    else:
        raise ValueError(f"{name}: no draw with positive period totals "
                         f"for seed {seed}, part {part}")
    return "".join(
        "%s:%d:%s:%d\n" % (" ".join(map(str, items)), sum(utils),
                            " ".join(map(str, utils)), h)
        for (items, utils), h in zip(rows, periods)
    )
