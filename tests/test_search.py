"""The miner: collector behavior, exactness on small inputs, flags, limits."""

import random
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from topshelf import search
from topshelf.bounds import select_negative_candidates, select_primary_secondary
from topshelf.dataset import database_from_quantities, parse_database
from topshelf.domain import Pattern
from topshelf.errors import InvalidK, TooManyItems
from topshelf.generator import GeneratorParams, generate
from topshelf.oracle import enumerate_patterns, oracle_top_k, relative_utility
from topshelf.prepare import (
    compute_period_twu,
    initial_secondary,
    negative_keep,
    singleton_threshold,
)
from topshelf.projection import occurrences, project
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


def _dealt(n_periods, n_rows=8760, n_items=600, seed=5):
    """n_rows seeded rows over n_items items, row r in period r modulo
    n_periods. Every fifth item loses 1 per unit; each row holds a
    profitable item and at most five others, so every row, and so every
    period, has a positive total."""
    rng = random.Random(seed)
    profits = {i: -1 if i % 5 == 0 else 10 for i in range(1, n_items + 1)}
    profitable = [i for i, profit in profits.items() if profit > 0]
    rows = []
    for r in range(n_rows):
        items = {rng.choice(profitable), *rng.sample(range(1, n_items + 1), rng.randint(1, 5))}
        rows.append(
            (r % n_periods, [(i, 1 if profits[i] < 0 else rng.randint(1, 3)) for i in sorted(items)])
        )
    return database_from_quantities(profits, rows)


def _peak_bytes(db, k):
    """Peak bytes Python allocates while mining db at k."""
    tracemalloc.start()
    try:
        mine_top_k(db, k)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hourly_calendar_mines_in_the_memory_of_four_periods():
    """The same 8,760 rows dealt into 4 periods and into an hourly year of
    8,760 periods mine within 4 MB of each other (about 4 and 6 MB on
    CPython 3.11). Bound memory follows the items, not periods x items:
    dense period x item bound grids peak at about 84 MB on this input."""
    four = _peak_bytes(_dealt(4), 50)
    hourly = _peak_bytes(_dealt(8760), 50)
    assert hourly - four < 4 * 2**20, (four, hourly)


def test_each_picks_ids_die_once_its_child_is_built(monkeypatch):
    """A frame drops a pick's view ids as soon as the pick's child is
    projected: every id array occurrences() returned is dead by the next
    projection, not kept until its frame pops."""
    walked = []
    projected = []

    def walk(pd, picks):
        rows = occurrences(pd, picks)
        walked.extend(weakref.ref(ids) for ids in rows if ids is not None)
        return rows

    def narrow(parent, z, rows=None):
        assert all(ref() is None for ref in projected)
        child = project(parent, z, rows)
        if rows is not None:
            projected.append(weakref.ref(rows))
        return child

    monkeypatch.setattr(search, "occurrences", walk)
    monkeypatch.setattr(search, "project", narrow)
    db = parse_database(generate(GeneratorParams(transactions=600, items=40, periods=4, seed=21)))
    mine_top_k(db, 60)
    assert len(projected) > 50
    assert all(ref() is None for ref in walked)


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


def test_selections_read_the_threshold_of_their_moment(monkeypatch, corpus):
    """Every selection tests against the collector's threshold as it
    stands when the selection runs, which rises as the search goes; only
    the root's local test runs at zero (root secondary came from the TWU
    test)."""
    miners = []
    thresholds = set()
    run = _Miner.search

    def searched(self, root, stats):
        miners.append(self)
        run(self, root, stats)

    def split(su, lu, candidates, su_num, lu_num, t_den):
        t_num, want_den = miners[-1].collector.threshold
        assert (su_num, t_den) == (t_num, want_den) and lu_num in (0, t_num)
        thresholds.add(Fraction(t_num, t_den))
        return select_primary_secondary(su, lu, candidates, su_num, lu_num, t_den)

    def negatives(neg, candidates, t_num, t_den):
        assert (t_num, t_den) == miners[-1].collector.threshold
        thresholds.add(Fraction(t_num, t_den))
        return select_negative_candidates(neg, candidates, t_num, t_den)

    monkeypatch.setattr(_Miner, "search", searched)
    monkeypatch.setattr(search, "select_primary_secondary", split)
    monkeypatch.setattr(search, "select_negative_candidates", negatives)
    for db in corpus[:20]:
        mine_top_k(db, 3)
    assert len(thresholds) > 1


# Recorded (candidates, threshold_rises, max_depth) of seeded
# generated databases mined at k. Each selection runs against the
# threshold of its moment, and the threshold rises as the search goes, so
# reordering a fill, a selection or a negative search against the offers
# changes these counts even where the result stays the same.
PINNED_COUNTERS = [
    (dict(transactions=300, items=30, periods=3, avg_len=5, neg_frac=0.3, seed=11), 40,
     (693, 174, 7)),
    (dict(transactions=500, items=60, periods=4, avg_len=6, neg_frac=0.2, seed=12), 80,
     (1732, 330, 8)),
    (dict(transactions=1200, items=40, periods=30, avg_len=5, neg_frac=0.25, seed=13), 60,
     (1368, 385, 7)),
    (dict(transactions=300, items=24, periods=2, avg_len=9, neg_frac=0.4, seed=14), 100,
     (2115, 508, 11)),
    (dict(transactions=2000, items=150, periods=4, avg_len=6, neg_frac=0.3, seed=15), 200,
     (4488, 535, 8)),
    (dict(transactions=2400, items=50, periods=365, avg_len=5, neg_frac=0.2, seed=16), 100,
     (1181, 445, 7)),
]


@pytest.mark.parametrize(
    "params, k, counters", PINNED_COUNTERS, ids=[f"seed{p['seed']}" for p, _, _ in PINNED_COUNTERS]
)
def test_search_counters_are_pinned(params, k, counters):
    db = parse_database(generate(GeneratorParams(**params)))
    _, stats = mine_top_k(db, k)
    got = (stats.candidates, stats.threshold_rises, stats.max_depth)
    assert got == counters


def predicted_merges(db, k):
    """The rows mine_top_k(db, k) fuses away, counted without it: a row is
    fused when an earlier row of its period keeps the same items once the
    items outside the mining order are dropped. The order's items come
    from the same preparation steps the miner takes."""
    table = compute_period_twu(db)
    threshold = singleton_threshold(db, k)
    positives = initial_secondary(db, table, threshold.numerator, threshold.denominator)
    retained = positives | negative_keep(db, positives)
    seen = set()
    fused = 0
    for t in db.transactions:
        kept = frozenset(i for i in t.items if i in retained)
        if not kept:
            continue
        if (t.period, kept) in seen:
            fused += 1
        else:
            seen.add((t.period, kept))
    return fused


def test_merges_match_the_prediction(corpus):
    predicted_total = 0
    for db in corpus:
        for k in (2, 20):
            predicted = predicted_merges(db, k)
            assert mine_top_k(db, k)[1].merges == predicted
            predicted_total += predicted
    assert predicted_total > 0

    # every row of each period repeats the period's first row
    profits = {1: 5, 2: 3, 3: -1}
    basket = [(1, 2), (2, 1), (3, 1)]
    rows = [(period, basket) for period in range(4) for _ in range(6)]
    db = database_from_quantities(profits, rows)
    for k in (1, 7, 50):
        assert predicted_merges(db, k) == 4 * 5
        assert mine_top_k(db, k)[1].merges == 4 * 5


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


def test_long_transaction_does_not_hit_recursion_limit(monkeypatch):
    # one 300-item transaction forces a 300-deep leftmost descent; the search
    # runs on its own stack, under a starved interpreter limit it never touches
    n = 300
    db = one_long_transaction(n)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        with monkeypatch.context() as patched:

            def refuse(limit):
                raise AssertionError(f"mining set the recursion limit to {limit}")

            patched.setattr(sys, "setrecursionlimit", refuse)
            mined, stats = mine_top_k(db, 1)
        assert sys.getrecursionlimit() == 120
    finally:
        sys.setrecursionlimit(before)
    assert stats.max_depth == n
    assert len(mined) == 1
    assert mined[0].items == tuple(range(1, n + 1))
    assert mined[0].relative_utility == 1
