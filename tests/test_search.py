"""The miner: collector behavior, exactness on small inputs, flags, limits."""

import random
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from topshelf import search
from topshelf.bounds import (
    fill_subtree_and_local,
    select_negative_candidates,
    select_primary_secondary,
)
from topshelf.dataset import database_from_quantities, parse_database
from topshelf.domain import Pattern, ratio_rank
from topshelf.errors import InvalidK, TooManyItems
from topshelf.generator import GeneratorParams, generate
from topshelf.oracle import enumerate_patterns, oracle_top_k, relative_utility
from topshelf.prepare import (
    compute_period_twu,
    dense_periods,
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


def offer(col, items, u, to):
    """Offer an itemset sold in dense period 0 alone."""
    return col.offer(u, to, tuple(items), (0,))


def held(col):
    """The collector's Patterns, dense period 0 labelled 0."""
    return col.result([0])


def test_collector_keeps_best_k_in_rank_order():
    col = TopKCollector(3, Fraction(0), 10)
    offered = [((4,), 1, 10), ((1,), 9, 10), ((2, 3), 8, 10), ((5,), 7, 10), ((6,), 2, 10)]
    for items, u, to in offered:
        offer(col, items, u, to)
    assert [p.items for p in held(col)] == [(1,), (2, 3), (5,)]


def test_collector_rejects_below_threshold_and_ties_against_worst():
    col = TopKCollector(1, Fraction(0), 4)
    assert offer(col, (2,), 1, 2)
    # same ratio, more items: loses the tie against the held worst
    assert not offer(col, (1, 3), 2, 4)
    # same ratio, same size, lexicographically smaller: wins
    assert offer(col, (1,), 1, 2)
    assert [p.items for p in held(col)] == [(1,)]
    assert col.threshold == (1, 2)


def test_collector_threshold_rises_and_never_falls():
    rng = random.Random(1234)
    col = TopKCollector(5, Fraction(0), 50)
    last = Fraction(0)
    for i in range(300):
        u = rng.randint(0, 50)
        to = rng.randint(1, 50)
        offer(col, (i + 1,), u, to)
        current = Fraction(*col.threshold)
        assert current >= last
        last = current
        ratios = sorted((p.relative_utility for p in held(col)), reverse=True)
        if len(ratios) >= 5:
            assert current == ratios[4]


def test_collector_initial_threshold_filters_offers():
    col = TopKCollector(2, Fraction(1, 2), 3)
    assert not offer(col, (1,), 1, 3)
    assert offer(col, (2,), 2, 3)
    # an offer below the threshold is refused before its items are sorted
    # or its periods copied: neither is read
    assert not col.offer(1, 3, None, None)
    assert offer(col, (3,), 1, 2)  # equality counts
    assert col.threshold == (1, 2)
    assert not col.offer(1, 3, None, None)
    # an itemset that clears it is kept with its items sorted
    assert col.offer(2, 3, [9, 4], [2, 0])
    kept = col.result([0, 1, 2])
    assert [(p.items, p.periods) for p in kept] == [((2,), {0}), ((4, 9), {0, 2})]


def reference_offers(k, initial, offers):
    """The collector's contract restated in Fractions and Pattern.sort_key:
    per offer, (accepted, held item tuples, threshold, rises)."""
    kept = []
    threshold = initial
    rises = 0
    steps = []
    for items, u, to in offers:
        p = make_pattern(items, u, to)
        accepted = p.relative_utility >= threshold and (
            len(kept) < k or p.sort_key() < kept[-1].sort_key()
        )
        if accepted:
            kept = sorted([*kept, p], key=Pattern.sort_key)[:k]
            if len(kept) == k and kept[-1].relative_utility != threshold:
                threshold = kept[-1].relative_utility
                rises += 1
        steps.append((accepted, [q.items for q in kept], threshold, rises))
    return steps


def assert_ranks_as_fractions(k, initial, bound, offers):
    """After every offer the collector holds, admits and thresholds
    exactly what reference_offers does, and its threshold stays reduced."""
    col = TopKCollector(k, initial, bound)
    for (items, u, to), want in zip(offers, reference_offers(k, initial, offers)):
        accepted, items_held, threshold, rises = want
        assert offer(col, items, u, to) == accepted
        patterns = held(col)
        assert [p.items for p in patterns] == items_held
        assert col.threshold == (threshold.numerator, threshold.denominator)
        assert col.rises == rises
        assert all(p.relative_utility == Fraction(p.utility, p.period_total) for p in patterns)


def test_rank_separates_farey_neighbours_at_the_bound():
    # adjacent Farey fractions a/b < c/d (bc - ad = 1) with b, d near the
    # bound differ by 1/(bd), the least gap two ratios under it can have
    for bound in (10**6, 2**70):
        b, d = bound - 1, bound
        low, high = (b - 1, b), (d - 1, d)
        assert high[0] * low[1] - low[0] * high[1] == 1
        scale = bound * bound
        assert ratio_rank(*high, scale) < ratio_rank(*low, scale)
        # the higher ratio carries the longer tuple, so a collided rank
        # would let the size tie-break keep the wrong one
        offers = [((7,), *low), ((1, 2, 3), *high), ((5,), 1, bound), ((6,), 1, b)]
        for k in (1, 2, 3):
            assert_ranks_as_fractions(k, Fraction(0), bound, offers)
        col = TopKCollector(1, Fraction(0), bound)
        offer(col, (7,), *low)
        offer(col, (1, 2, 3), *high)
        assert [p.items for p in held(col)] == [(1, 2, 3)]


def test_rank_is_exact_for_utilities_near_2_63():
    big = 2**63
    bound = 3 * big
    offers = [
        ((1,), big - 1, big),
        ((2,), big - 2, big - 1),
        ((3,), big, big + 1),
        ((4,), 2 * big - 2, 2 * big),  # (big - 1)/big, unreduced
        ((5,), big - 1, 2 * big + 1),
        ((6,), 2 * big + 1, bound),
        ((7,), 1, bound),
    ]
    for k in (1, 2, 4, 6):
        assert_ranks_as_fractions(k, Fraction(0), bound, offers)
    col = TopKCollector(2, Fraction(0), bound)
    for items, u, to in offers:
        offer(col, items, u, to)
    assert [p.items for p in held(col)] == [(3,), (1,)]
    assert col.threshold == (big - 1, big)


def test_unreduced_equal_ratios_fall_to_size_then_items():
    scale = 4 * 4
    assert ratio_rank(1, 2, scale) == ratio_rank(2, 4, scale)
    col = TopKCollector(1, Fraction(0), 4)
    assert offer(col, (3, 4), 2, 4)
    assert offer(col, (9,), 1, 2)  # equal ratio, fewer items
    assert not offer(col, (8, 9), 1, 2)  # equal ratio, more items
    assert offer(col, (5,), 2, 4)  # equal ratio and size, smaller items
    assert [(p.items, p.utility, p.period_total) for p in held(col)] == [((5,), 2, 4)]
    assert col.threshold == (1, 2) and col.rises == 1
    offers = [((3, 4), 2, 4), ((9,), 1, 2), ((8, 9), 1, 2), ((5,), 2, 4), ((1, 2), 3, 6)]
    for k in (1, 2, 3):
        assert_ranks_as_fractions(k, Fraction(0), 6, offers)


def test_rank_orders_negative_ratios():
    ratios = [(-1, 3), (-2, 6), (-1, 2), (-5, 7), (0, 4), (1, 7), (-6, 7), (-4, 5)]
    scale = 7 * 7
    by_rank = sorted(ratios, key=lambda r: (ratio_rank(*r, scale), r))
    by_fraction = sorted(ratios, key=lambda r: (-Fraction(*r), r))
    assert by_rank == by_fraction
    # a collector whose threshold starts below zero ranks them the same way
    offers = [((i + 1,), u, to) for i, (u, to) in enumerate(ratios)]
    for k in (1, 3, 5):
        assert_ranks_as_fractions(k, Fraction(-3, 4), 7, offers)


def test_total_above_the_bound_is_refused():
    col = TopKCollector(1, Fraction(0), 10)
    assert offer(col, (1,), 3, 10)
    with pytest.raises(ValueError):
        offer(col, (2,), 1, 11)
    with pytest.raises(ValueError):
        offer(col, (3,), 0, 11)  # refused even where the threshold would reject it
    assert [p.items for p in held(col)] == [(1,)]


@pytest.mark.parametrize("seed", range(4))
def test_random_offers_rank_as_fractions(seed):
    rng = random.Random(seed)
    bound = rng.choice([12, 97, 10**9, 2**80])
    small = [(u, to) for to in range(1, 13) for u in range(-to, to + 1)]
    offers = []
    used = set()
    while len(offers) < 400:
        items = tuple(sorted(rng.sample(range(1, 16), rng.randint(1, 3))))
        if items in used:
            continue
        used.add(items)
        u, to = rng.choice(small)
        m = rng.randint(1, bound // 12)  # unreduced multiples of small ratios
        if rng.random() < 0.3:
            to = rng.randint(1, bound)
            u = rng.randint(-to, 2 * to)
        else:
            u, to = u * m, to * m
        offers.append((items, u, to))
    initial = rng.choice([Fraction(0), Fraction(1, 3), Fraction(-1, 2)])
    for k in (1, 5, 40):
        assert_ranks_as_fractions(k, initial, bound, offers)


def test_invalid_k_rejected():
    with pytest.raises(InvalidK):
        mine_top_k(parse_database("1:5:5:0\n"), 0)
    with pytest.raises(InvalidK):
        TopKCollector(0, Fraction(0), 1)


def test_bool_k_rejected():
    db = parse_database("1:5:5:0\n")
    for k in (True, False):
        with pytest.raises(InvalidK):
            mine_top_k(db, k)
        with pytest.raises(InvalidK):
            TopKCollector(k, Fraction(0), 1)


def test_patterns_are_built_for_the_final_k_only(monkeypatch):
    # k above the item count seeds the threshold at 0, so most of the
    # search's offers clear it
    db = parse_database(
        generate(GeneratorParams(transactions=300, items=12, periods=3, avg_len=5, seed=12))
    )
    built = []
    offers = []

    def counted(**fields):
        built.append(fields["items"])
        return Pattern(**fields)

    run_offer = TopKCollector.offer

    def counted_offer(self, *args):
        offers.append(args)
        return run_offer(self, *args)

    monkeypatch.setattr(search, "Pattern", counted)
    monkeypatch.setattr(TopKCollector, "offer", counted_offer)
    patterns, _ = mine_top_k(db, 15)
    assert len(patterns) == 15
    assert len(offers) > 5 * len(patterns)
    assert built == [p.items for p in patterns]


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
    col = TopKCollector(1, Fraction(0), 4)
    offer(col, (2,), 1, 2)
    offer(col, (1,), 1, 2)  # wins the tie, same ratio
    offer(col, (3,), 3, 4)
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


def _count_capped_periods(monkeypatch, skipped, capped=True):
    """Route the search's fill through a wrapper that appends, per fill
    handed a TWU row, the number of periods that row skips. capped=False
    drops the row before filling: the search as it was without the cap."""

    def fill(pd, su, lu, neg, totals, t_num=0, t_den=1, caps=None):
        if caps is not None:
            skipped.append(sum(caps[p] * t_den < t_num * totals[p] for p in pd.periods))
        fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den, caps if capped else None)

    monkeypatch.setattr(search, "fill_subtree_and_local", fill)


def test_pinned_counters_cover_a_capped_search(monkeypatch):
    """On the 365-period pinned database the cap skips periods of positive
    nodes, so the pinned counters hold with the cap acting."""
    params, k, counters = PINNED_COUNTERS[-1]
    assert params["periods"] == 365
    skipped = []
    _count_capped_periods(monkeypatch, skipped)
    _, stats = mine_top_k(parse_database(generate(GeneratorParams(**params))), k)
    assert (stats.candidates, stats.threshold_rises, stats.max_depth) == counters
    assert sum(skipped) > 0


def test_local_rule_off_matches_the_uncapped_search(monkeypatch):
    """With the local rule off, secondary means "occurred", and a capped
    fill drops the items that occur only in skipped periods. None of them
    can be primary anywhere below, so the patterns and every counter equal
    those of the search without the cap, and the recorded stats of the
    search before the cap existed."""
    params, k, _ = PINNED_COUNTERS[-1]
    db = parse_database(generate(GeneratorParams(**params)))
    runs = []
    for capped in (True, False):
        skipped = []
        with monkeypatch.context() as patched:
            _count_capped_periods(patched, skipped, capped)
            mined, stats = mine_top_k(db, k, lu_prune=False)
        payload = stats_json(stats)
        del payload["elapsed_ms"]
        runs.append((mined, payload, sum(skipped)))
    (mined, payload, skipped), (unmined, unpayload, _) = runs
    assert skipped > 0
    assert mined == unmined and payload == unpayload
    assert payload == {
        "k": 100, "patterns": 100, "interutil_num": 64, "interutil_den": 27,
        "candidates": 1181, "merges": 0, "max_depth": 7, "threshold_rises": 445,
    }
    assert mined == mine_top_k(db, k)[0]


def predicted_merges(db, k):
    """The rows mine_top_k(db, k) fuses away, counted without it: a row is
    fused when an earlier row of its period keeps the same items once the
    items outside the mining order are dropped. The order's items come
    from the same preparation steps the miner takes."""
    index, totals = dense_periods(db)
    table, utility = compute_period_twu(db, index)
    threshold = singleton_threshold(totals, table, utility, k)
    positives = initial_secondary(db, totals, table, threshold.numerator, threshold.denominator)
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
