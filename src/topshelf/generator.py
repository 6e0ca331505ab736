"""Synthetic shelf-database generator.

Deterministic for a given seed: the same parameters always produce the same
bytes, so generated fixtures can be referenced by seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dataset import parse_database
from .errors import InfeasibleParams

# How many uniform period columns to draw before dealing the rows instead.
_PERIOD_ATTEMPTS = 1000


@dataclass(frozen=True, slots=True)
class GeneratorParams:
    transactions: int = 1000
    items: int = 100
    periods: int = 3
    avg_len: int = 6
    neg_frac: float = 0.2
    max_qty: int = 5
    max_profit: int = 10
    seed: int = 1

    def validate(self) -> None:
        if self.transactions < 1:
            raise InfeasibleParams("need at least one transaction")
        if self.items < 1:
            raise InfeasibleParams("need at least one item")
        if self.periods < 1:
            raise InfeasibleParams("need at least one period")
        if self.periods > self.transactions:
            raise InfeasibleParams(
                "more periods than transactions: some period must stay empty"
            )
        if self.avg_len < 1 or self.avg_len > self.items:
            raise InfeasibleParams("average length outside [1, items]")
        if not 0.0 <= self.neg_frac < 1.0:
            raise InfeasibleParams("negative fraction outside [0, 1)")
        if self.max_qty < 1 or self.max_profit < 1:
            raise InfeasibleParams("quantities and profits must be positive")


def generate(params: GeneratorParams) -> str:
    """Database text for the given parameters.

    Items are 1..items; a neg_frac share (rounded down) sells at a loss.
    Transaction lengths vary within 2 of avg_len. The period column is drawn
    last and redrawn wholesale until every period occurs and has positive
    total utility, so the item/quantity draw is stable across redraws. If
    no redraw succeeds, the rows are dealt to the periods instead (_deal).
    """
    params.validate()
    rng = random.Random(params.seed)

    negative_count = int(params.items * params.neg_frac)
    negative = set(rng.sample(range(1, params.items + 1), negative_count))
    profit = {
        i: -rng.randint(1, params.max_profit)
        if i in negative
        else rng.randint(1, params.max_profit)
        for i in range(1, params.items + 1)
    }

    lo = max(1, params.avg_len - 2)
    hi = min(params.items, params.avg_len + 2)
    rows: list[tuple[list[int], list[int], int]] = []
    for _ in range(params.transactions):
        length = rng.randint(lo, hi)
        chosen = sorted(rng.sample(range(1, params.items + 1), length))
        utils = [profit[i] * rng.randint(1, params.max_qty) for i in chosen]
        rows.append((chosen, utils, sum(utils)))

    for _ in range(_PERIOD_ATTEMPTS):
        column = [rng.randrange(params.periods) for _ in rows]
        totals = [0] * params.periods
        for (_, _, tu), h in zip(rows, column):
            totals[h] += tu
        if len(set(column)) == params.periods and all(t > 0 for t in totals):
            break
    else:
        column = _deal([tu for _, _, tu in rows], params.periods, rng)

    lines = []
    for (chosen, utils, tu), h in zip(rows, column):
        lines.append(
            "%s:%d:%s:%d"
            % (" ".join(map(str, chosen)), tu, " ".join(map(str, utils)), h)
        )
    text = "\n".join(lines) + "\n"
    parse_database(text)  # cheap self-check: emitted text must load cleanly
    return text


def _deal(row_totals: list[int], n_periods: int, rng: random.Random) -> list[int]:
    """A period for each row, such that every period has a positive total.

    In an order shuffled by rng, the first n_periods rows of positive total
    open one period each and the other positive rows go to random periods.
    Each remaining row then goes to the period whose total is largest at
    that moment.
    """
    order = list(range(len(row_totals)))
    rng.shuffle(order)
    positive = [r for r in order if row_totals[r] > 0]
    if len(positive) < n_periods:
        raise InfeasibleParams(
            f"only {len(positive)} transactions have a positive total, "
            f"too few to open {n_periods} periods"
        )
    column = [0] * len(row_totals)
    totals = [0] * n_periods
    for i, r in enumerate(positive + [r for r in order if row_totals[r] <= 0]):
        if i < n_periods:
            h = i
        elif row_totals[r] > 0:
            h = rng.randrange(n_periods)
        else:
            h = max(range(n_periods), key=totals.__getitem__)
        column[r] = h
        totals[h] += row_totals[r]
    if min(totals) <= 0:
        raise InfeasibleParams("losses leave a period whose total is not positive")
    return column
