"""The brute-force reference itself has to be trustworthy on tiny inputs."""

from fractions import Fraction

import pytest

from topshelf.dataset import database_from_quantities, parse_database
from topshelf.errors import TooLargeForOracle
from topshelf.oracle import (
    OracleLimits,
    enumerate_patterns,
    itemset_periods,
    itemset_utility,
    oracle_top_k,
    relative_utility,
    remaining_utility,
    twu,
)

A, B, C, D, E = 1, 2, 3, 4, 5


def test_enumeration_count_on_two_transactions():
    # subsets of {1,2} plus subsets of {2,3} containing item 3:
    # 1, 2, 3, 12, 23 -> five supported itemsets
    db = parse_database("1 2:5:2 3:0\n2 3:7:3 4:0\n")
    got = enumerate_patterns(db)
    assert [p.items for p in got] == [(1,), (1, 2), (2,), (2, 3), (3,)]
    by = {p.items: p for p in got}
    assert by[(2,)].utility == 6
    assert by[(1, 2)].utility == 5
    assert by[(2, 3)].utility == 7


def test_enumeration_matches_definitional_scores(running_example):
    for p in enumerate_patterns(running_example):
        assert p.utility == itemset_utility(running_example, p.items)
        assert p.periods == itemset_periods(running_example, p.items)
        assert p.relative_utility == relative_utility(running_example, p.items)


def test_worked_example_scores(running_example):
    db = running_example
    assert itemset_utility(db, (C, E)) == 24
    assert itemset_utility(db, (C, E), period=2) == 24
    assert itemset_periods(db, (B, E)) == frozenset({1, 2})
    assert itemset_utility(db, (B, E)) == 28
    assert relative_utility(db, (B, E)) == Fraction(28, 154)
    assert twu(db, (C,), period=2) == 66
    assert twu(db, (A,)) == 97
    assert twu(db, (D,)) == 178


def test_remaining_utility_signed_vs_positive(running_example):
    # ascending-total-weight order puts d last, so after {a,e} the signed
    # tail in period 1 nets 6 while the positive-only tail keeps 12
    position = {A: 0, E: 1, C: 2, B: 3, D: 4}
    signed = remaining_utility(running_example, (A, E), 1, position)
    positive = remaining_utility(
        running_example, (A, E), 1, position, positive_only=True
    )
    assert signed == 6
    assert positive == 12


def test_top_k_excludes_negative_ratio_patterns():
    profits = {1: 4, 2: -9}
    rows = [(0, [(1, 1), (2, 1)]), (0, [(1, 2)])]
    db = database_from_quantities(profits, rows)
    top = oracle_top_k(db, 100)
    assert all(p.relative_utility >= 0 for p in top)
    assert (1, 2) not in {p.items for p in top}
    assert relative_utility(db, (1, 2)) < 0


def test_top_k_rank_and_ties():
    # equal ratios break toward fewer items, then lexicographic order
    profits = {1: 2, 2: 2, 3: 1, 4: 1}
    rows = [(0, [(1, 1), (2, 1)]), (0, [(3, 2), (4, 2)])]
    db = database_from_quantities(profits, rows)
    top = oracle_top_k(db, 4)
    keys = [(-p.relative_utility, len(p.items), p.items) for p in top]
    assert keys == sorted(keys)
    assert top[0].items < top[1].items or len(top[0].items) < len(top[1].items)


def test_refuses_wide_databases():
    # 21 distinct items, one to a row, so the enumeration stays cheap
    n = 21
    db = parse_database("".join(f"{i}:1:1:{i % 2}\n" for i in range(1, n + 1)))
    with pytest.raises(TooLargeForOracle):
        enumerate_patterns(db)
    # a raised ceiling admits the same database
    wide = enumerate_patterns(db, OracleLimits(max_items=n))
    assert [p.items for p in wide] == [(i,) for i in range(1, n + 1)]
