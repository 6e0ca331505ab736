"""Core value types and the utility sums defined on them.

Money is a plain Python int (arbitrary precision, so sums never overflow)
and every utility in the system is Money. Ratios of Money values are kept
exact as fractions.Fraction; nothing is converted to float before display.

INVARIANTS
    - item utilities are nonzero, and an item keeps one sign everywhere
    - a transaction never lists the same item twice
    - a pattern's period_total is positive
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Money = int


@dataclass(frozen=True, slots=True)
class Transaction:
    """One purchase: item ids and their signed utilities, position by position.

    Utilities are per-occurrence totals u(i, T) = profit * quantity, which is
    what the file format carries; unit profit and quantity are not stored
    separately. Items keep their input order.
    """

    tid: int
    period: int
    items: tuple[int, ...]
    utilities: tuple[Money, ...]


@dataclass(frozen=True, slots=True)
class Pattern:
    """A mined itemset with its exact utility breakdown.

    relative_utility == Fraction(utility, period_total) always; both integer
    fields are kept so output can print the unreduced utility/period_total
    form.
    """

    items: tuple[int, ...]
    utility: Money
    periods: frozenset[int]
    period_total: Money
    relative_utility: Fraction

    def sort_key(self):
        """Ranking order: higher relative utility first, then fewer items,
        then lexicographically smaller item tuple. Totally orders patterns."""
        return (-self.relative_utility, len(self.items), self.items)


def positive_transaction_utility(t: Transaction) -> Money:
    """PTU(T): the sum of the positive-profit items' utilities.

    Quantities are positive, so an entry's utility sign equals its profit
    sign. PTU is always >= 0 and >= TU(T), the sum of all utilities.
    """
    return sum(u for u in t.utilities if u > 0)


# Names the rest of the package imports from here.
__all__ = [
    "Money",
    "Transaction",
    "Pattern",
    "positive_transaction_utility",
]
