"""Brute-force reference implementation.

Everything here recomputes quantities straight from the definitions, on the
original database, sharing nothing with the mining engine beyond the value
types. The enumeration is the ground truth the engine is tested against;
the definitional helpers (per-period utility, TWU, remaining utilities,
bound formulas) let tests check intermediate claims independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dataset import OnShelfDatabase
from .domain import Pattern
from .errors import TooLargeForOracle


@dataclass(frozen=True, slots=True)
class OracleLimits:
    """Feasibility guard: refuse databases whose enumeration would blow up."""

    max_items: int = 20


def check_limits(db: OnShelfDatabase, limits: OracleLimits | None = None) -> None:
    """Raise TooLargeForOracle if db has too many distinct items to enumerate."""
    limits = limits or OracleLimits()
    distinct = len(db.item_signs)
    if distinct > limits.max_items:
        raise TooLargeForOracle(distinct, limits.max_items)


def enumerate_patterns(
    db: OnShelfDatabase, limits: OracleLimits | None = None
) -> list[Pattern]:
    """Every itemset with at least one containing transaction, scored.

    Accumulates utility and occupied periods per itemset by expanding each
    transaction's subsets with running sums. Output is sorted by item tuple
    so it is deterministic.
    """
    check_limits(db, limits)
    utility: dict[tuple[int, ...], int] = {}
    periods: dict[tuple[int, ...], set[int]] = {}

    for t in db.transactions:
        entries = sorted(zip(t.items, t.utilities))
        h = t.period
        n = len(entries)

        def grow(start: int, base: tuple[int, ...], base_u: int):
            for j in range(start, n):
                item, u = entries[j]
                itemset = base + (item,)
                total = base_u + u
                utility[itemset] = utility.get(itemset, 0) + total
                periods.setdefault(itemset, set()).add(h)
                grow(j + 1, itemset, total)

        grow(0, (), 0)

    out = []
    for itemset in sorted(utility):
        pi = frozenset(periods[itemset])
        to = sum(db.period_totals[h] for h in pi)
        out.append(
            Pattern(
                items=itemset,
                utility=utility[itemset],
                periods=pi,
                period_total=to,
                relative_utility=Fraction(utility[itemset], to),
            )
        )
    return out


def oracle_top_k(
    db: OnShelfDatabase, k: int, limits: OracleLimits | None = None
) -> list[Pattern]:
    """The true answer: non-negative-ratio patterns ranked by (ratio desc,
    size asc, items asc), first k."""
    everything = enumerate_patterns(db, limits)
    admissible = [p for p in everything if p.relative_utility >= 0]
    admissible.sort(key=lambda p: (-p.relative_utility, len(p.items), p.items))
    return admissible[:k]


# ---------------------------------------------------------------------------
# Definitional helpers. All take the original database and compute one
# quantity the slow, obvious way.


def _contains(t, itemset) -> bool:
    return set(itemset) <= set(t.items)


def _utility_map(t) -> dict[int, int]:
    return dict(zip(t.items, t.utilities))


def itemset_utility(db, itemset, period: int | None = None) -> int:
    """u(X) or, with a period given, u(X, h)."""
    total = 0
    for t in db.transactions:
        if period is not None and t.period != period:
            continue
        if _contains(t, itemset):
            lookup = _utility_map(t)
            total += sum(lookup[i] for i in itemset)
    return total


def itemset_periods(db, itemset) -> frozenset[int]:
    """pi(X): periods with at least one containing transaction."""
    return frozenset(
        t.period for t in db.transactions if _contains(t, itemset)
    )


def itemset_period_total(db, itemset) -> int:
    """to(X): summed (original) period totals over pi(X)."""
    return sum(db.period_totals[h] for h in itemset_periods(db, itemset))


def relative_utility(db, itemset) -> Fraction:
    return Fraction(itemset_utility(db, itemset), itemset_period_total(db, itemset))


def twu(db, itemset, period: int | None = None) -> int:
    """Transaction-weighted utility: summed PTU over containing transactions,
    optionally restricted to one period."""
    total = 0
    for t in db.transactions:
        if period is not None and t.period != period:
            continue
        if _contains(t, itemset):
            total += sum(u for u in t.utilities if u > 0)
    return total


def remaining_utility(
    db,
    itemset,
    period: int | None,
    position: dict[int, int],
    positive_only: bool = False,
) -> int:
    """re(X, h) under an explicit item order: summed utilities of items that
    come after all of X in containing transactions. positive_only gives the
    variant the bounds use."""
    anchor = max(position[i] for i in itemset)
    total = 0
    for t in db.transactions:
        if period is not None and t.period != period:
            continue
        if not _contains(t, itemset):
            continue
        for item, u in zip(t.items, t.utilities):
            if position.get(item, -1) > anchor and (not positive_only or u > 0):
                total += u
    return total


def subtree_bound(db, prefix, z, period, position, clip: bool = False) -> int:
    """Definitional subtree bound for extending prefix with z in a period.

    Per containing transaction: u(prefix) + u(z) + positive remaining after
    z; with clip=True the bracket is floored at zero, which is the sound
    variant for negative z.
    """
    target = tuple(prefix) + (z,)
    pz = position[z]
    total = 0
    for t in db.transactions:
        if t.period != period or not _contains(t, target):
            continue
        lookup = _utility_map(t)
        bracket = sum(lookup[i] for i in prefix) + lookup[z]
        for item, u in lookup.items():
            if position.get(item, -1) > pz and u > 0:
                bracket += u
        if clip and bracket < 0:
            bracket = 0
        total += bracket
    return total


def local_bound(db, prefix, z, period, position) -> int:
    """Definitional local bound: u(prefix) + positive remaining after the
    prefix, summed over transactions containing prefix + z."""
    target = tuple(prefix) + (z,)
    anchor = max(position[i] for i in prefix) if prefix else -1
    total = 0
    for t in db.transactions:
        if t.period != period or not _contains(t, target):
            continue
        lookup = _utility_map(t)
        bracket = sum(lookup[i] for i in prefix)
        for item, u in lookup.items():
            if position.get(item, -1) > anchor and u > 0:
                bracket += u
        total += bracket
    return total
