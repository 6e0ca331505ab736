"""The miner: collector behavior, exactness on small inputs, flags, limits."""

import random
import sys
from fractions import Fraction

import pytest

from topshelf.dataset import database_from_quantities, parse_database
from topshelf.domain import Pattern
from topshelf.errors import InvalidK, TooManyItems
from topshelf.oracle import enumerate_patterns, oracle_top_k, relative_utility
from topshelf.search import TopKCollector, _Miner, mine_top_k, stats_json


def make_pattern(items, u, to):
    return Pattern(
        items=tuple(items),
        utility=u,
        periods=frozenset({0}),
        period_total=to,
        relative_utility=Fraction(u, to),
    )


def test_collector_keeps_best_k_in_rank_order():
    col = TopKCollector(3, Fraction(0))
    offered = [
        make_pattern((4,), 1, 10),
        make_pattern((1,), 9, 10),
        make_pattern((2, 3), 8, 10),
        make_pattern((5,), 7, 10),
        make_pattern((6,), 2, 10),
    ]
    for p in offered:
        col.offer(p)
    assert [p.items for p in col.result()] == [(1,), (2, 3), (5,)]


def test_collector_rejects_below_threshold_and_ties_against_worst():
    col = TopKCollector(1, Fraction(0))
    assert col.offer(make_pattern((2,), 1, 2))
    # same ratio, more items: loses the tie against the held worst
    assert not col.offer(make_pattern((1, 3), 2, 4))
    # same ratio, same size, lexicographically smaller: wins
    assert col.offer(make_pattern((1,), 1, 2))
    assert [p.items for p in col.result()] == [(1,)]
    assert col.threshold == (1, 2)


def test_collector_threshold_rises_and_never_falls():
    rng = random.Random(1234)
    col = TopKCollector(5, Fraction(0))
    last = Fraction(0)
    for i in range(300):
        u = rng.randint(0, 50)
        to = rng.randint(1, 50)
        col.offer(make_pattern((i + 1,), u, to))
        current = Fraction(*col.threshold)
        assert current >= last
        last = current
        held = sorted(
            (p.relative_utility for p in col.result()), reverse=True
        )
        if len(held) >= 5:
            assert current == held[4]


def test_collector_initial_threshold_filters_offers():
    col = TopKCollector(2, Fraction(1, 2))
    assert not col.offer(make_pattern((1,), 1, 3))
    assert col.offer(make_pattern((2,), 2, 3))
    assert col.clears_threshold(1, 2)
    assert not col.clears_threshold(1, 3)


def test_invalid_k_rejected():
    with pytest.raises(InvalidK):
        mine_top_k(parse_database("1:5:5:0\n"), 0)
    with pytest.raises(InvalidK):
        TopKCollector(0, Fraction(0))


def test_too_many_distinct_items_rejected():
    n = 2**16 + 1
    ids = " ".join(str(i) for i in range(1, n + 1))
    utils = " ".join("1" for _ in range(n))
    db = parse_database(f"{ids}:{n}:{utils}:0\n")
    with pytest.raises(TooManyItems):
        mine_top_k(db, 1)


def test_superset_can_outrank_subset():
    # ratio is not monotone under extension: {1,2,3} beats {1,2}
    profits = {1: 10, 2: -5, 3: -1}
    rows = [
        (0, [(1, 1), (2, 4)]),
        (0, [(1, 1), (2, 1), (3, 1)]),
        (0, [(1, 2)]),
    ]
    db = database_from_quantities(profits, rows)
    mined, _ = mine_top_k(db, 100)
    by_items = {p.items: p.relative_utility for p in mined}
    # the subset is outright negative and therefore absent from the output,
    # while the superset clears zero: dropping it early would lose a pattern
    assert (1, 2) not in by_items
    assert by_items[(1, 2, 3)] > relative_utility(db, (1, 2))


def test_patterns_always_contain_a_profitable_item(corpus):
    for db in corpus[:60]:
        mined, _ = mine_top_k(db, 1000)
        for p in mined:
            assert any(db.item_signs[i] > 0 for i in p.items)
            assert p.relative_utility >= 0


def test_k_beyond_pattern_count_returns_everything(running_example):
    mined, stats = mine_top_k(running_example, 10_000)
    everything = [
        p for p in enumerate_patterns(running_example) if p.relative_utility >= 0
    ]
    assert len(mined) == len(everything)
    assert stats.patterns == len(mined)
    assert mined == oracle_top_k(running_example, 10_000)


def test_results_are_rank_sorted(running_example):
    mined, _ = mine_top_k(running_example, 12)
    keys = [p.sort_key() for p in mined]
    assert keys == sorted(keys)


def test_final_threshold_equals_kth_ratio(corpus):
    for db in corpus[:40]:
        for k in (1, 3, 10):
            mined, stats = mine_top_k(db, k)
            if len(mined) == k:
                assert Fraction(stats.threshold_num, stats.threshold_den) == mined[-1].relative_utility


def test_stats_json_shape(running_example):
    _, stats = mine_top_k(running_example, 3)
    payload = stats_json(stats)
    assert set(payload) == {
        "k",
        "patterns",
        "interutil_num",
        "interutil_den",
        "candidates",
        "projections",
        "merges",
        "max_depth",
        "threshold_rises",
        "elapsed_ms",
    }
    assert payload["k"] == 3
    assert payload["patterns"] == 3
    assert payload["candidates"] >= 3
    assert payload["max_depth"] >= 1


def test_threshold_rises_are_counted(running_example, corpus):
    # a rise is an offer that moves the threshold, not one that keeps it
    col = TopKCollector(1, Fraction(0))
    col.offer(make_pattern((2,), 1, 2))
    col.offer(make_pattern((1,), 1, 2))  # wins the tie, same ratio
    col.offer(make_pattern((3,), 3, 4))
    assert col.rises == 2

    # k above the pattern count: the collector never fills, nothing rises
    _, stats = mine_top_k(running_example, 10_000)
    assert stats.threshold_rises == 0
    _, stats = mine_top_k(running_example, 2)
    assert stats.threshold_rises > 0
    assert stats_json(stats)["threshold_rises"] == stats.threshold_rises
    for db in [running_example, *corpus[:20]]:
        counts = {mine_top_k(db, 3)[1].threshold_rises for _ in range(3)}
        assert len(counts) == 1


def test_scaled_totals_follow_the_threshold(monkeypatch, corpus):
    """The per-period cutoffs are cached between threshold rises; every
    read must still match the collector's current threshold."""
    cached = _Miner._scaled_totals
    reads = []

    def checked(self):
        scaled, den = cached(self)
        num, want_den = self.collector.threshold
        assert den == want_den
        assert scaled == [num * total for total in self.period_totals]
        reads.append(num)
        return scaled, den

    monkeypatch.setattr(_Miner, "_scaled_totals", checked)
    for db in corpus[:20]:
        mine_top_k(db, 3)
    assert len(set(reads)) > 1


def test_flag_combinations_agree(running_example):
    reference, _ = mine_top_k(running_example, 7)
    for flags in (
        {"su_prune": False},
        {"lu_prune": False},
        {"su_prune": False, "lu_prune": False},
    ):
        got, _ = mine_top_k(running_example, 7, **flags)
        assert got == reference, flags


def one_long_transaction(n):
    ids = " ".join(str(i) for i in range(1, n + 1))
    utils = " ".join("1" for _ in range(n))
    return parse_database(f"{ids}:{n}:{utils}:0\n")


def test_long_transaction_does_not_hit_recursion_limit():
    # one 300-item transaction forces a 300-deep leftmost descent; the miner
    # must lift a deliberately starved interpreter limit by itself
    n = 300
    db = one_long_transaction(n)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        mined, stats = mine_top_k(db, 1)
        # the lifted limit is handed back once mining is done
        assert sys.getrecursionlimit() == 120
    finally:
        sys.setrecursionlimit(before)
    assert stats.max_depth == n
    assert len(mined) == 1
    assert mined[0].items == tuple(range(1, n + 1))
    assert mined[0].relative_utility == 1


def test_recursion_limit_is_restored_when_mining_raises(monkeypatch):
    db = one_long_transaction(300)

    def fail(*args):
        raise RuntimeError("search failed")

    monkeypatch.setattr(_Miner, "expand", fail)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        with pytest.raises(RuntimeError):
            mine_top_k(db, 1)
        assert sys.getrecursionlimit() == 120
    finally:
        sys.setrecursionlimit(before)
