"""Value types and exact arithmetic."""

import random
from fractions import Fraction

import pytest

from topshelf.domain import Pattern, Transaction, positive_transaction_utility


def test_transaction_utilities_respect_weight():
    t = Transaction(tid=1, period=0, items=(2, 3, 4), utilities=(-3, -4, 36))
    assert sum(t.utilities) == 29
    assert positive_transaction_utility(t) == 36


def test_positive_utility_dominates_signed_utility():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 8)
        utils = tuple(rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(n))
        t = Transaction(tid=1, period=0, items=tuple(range(1, n + 1)), utilities=utils)
        assert positive_transaction_utility(t) >= sum(t.utilities)
        assert positive_transaction_utility(t) >= 0


def test_pattern_sort_key_ranks_ratio_then_size_then_items():
    def make(items, u, to):
        return Pattern(
            items=items,
            utility=u,
            periods=frozenset({0}),
            period_total=to,
            relative_utility=Fraction(u, to),
        )

    high = make((9,), 3, 4)
    tie_small = make((2, 7), 1, 2)
    tie_lex = make((2, 9), 1, 2)
    tie_long = make((1, 2, 3), 1, 2)
    low = make((1,), 1, 10)
    ranked = sorted([low, tie_long, tie_lex, tie_small, high], key=Pattern.sort_key)
    assert ranked == [high, tie_small, tie_lex, tie_long, low]
