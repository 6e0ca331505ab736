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
    build_working_database,
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


def test_twu_table_is_dead_before_the_working_database_is_built(monkeypatch):
    """The search caps each child by its parent's fill, not by TWU rows, so
    the per-period TWU table, every row of it, and the utility map are
    freed once the item order is built: none is alive when the working
    database is built."""

    class Table(dict):
        """A dict that takes weak references."""

    refs = []
    built = 0

    def walk(db, index):
        table, utility = compute_period_twu(db, index)
        table = Table((item, Table(row)) for item, row in table.items())
        utility = Table(utility)
        refs.extend(weakref.ref(part) for part in (table, utility, *table.values()))
        return table, utility

    def build(*args, **kwargs):
        nonlocal built
        assert refs and all(ref() is None for ref in refs)
        built += 1
        return build_working_database(*args, **kwargs)

    monkeypatch.setattr(search, "compute_period_twu", walk)
    monkeypatch.setattr(search, "build_working_database", build)
    for params, k, _ in PINNED_COUNTERS[-2:]:
        refs.clear()
        mined, _ = mine_top_k(parse_database(generate(GeneratorParams(**params))), k)
        assert len(mined) == k and len(refs) > 50
    assert built == 2


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
    """Every selection and every fill of the root or a positive node tests
    against the collector's threshold as it stands when it runs, which
    rises as the search goes. A rule that is off tests at numerator zero:
    the fills and the negative selections where the subtree rule is off,
    the positive selections where both positive rules are. A negative
    node's fill always runs at zero."""
    miners = []
    thresholds = set()
    run = _Miner.search

    def searched(self, root, stats):
        miners.append(self)
        run(self, root, stats)

    def cutoff(rule_on):
        t_num, t_den = miners[-1].collector.threshold
        return (t_num if rule_on else 0), t_den

    def fill(pd, su, neg, totals, t_num=0, t_den=1, caps=None, local=False):
        items, _, off, _, _ = pd.views[0]
        if off and items[off - 1] >= miners[-1].boundary:
            assert t_num == 0
        else:
            assert (t_num, t_den) == cutoff(miners[-1].su_prune)
        return fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps, local)

    def split(record, totals, candidates, t_num, t_den):
        miner = miners[-1]
        assert (t_num, t_den) == cutoff(miner.su_prune or miner.lu_prune)
        thresholds.add(Fraction(t_num, t_den))
        return select_primary_secondary(record, totals, candidates, t_num, t_den)

    def negatives(negative_record, candidates, t_num, t_den, totals):
        assert (t_num, t_den) == cutoff(miners[-1].su_prune)
        thresholds.add(Fraction(t_num, t_den))
        return select_negative_candidates(negative_record, candidates, t_num, t_den, totals)

    monkeypatch.setattr(_Miner, "search", searched)
    monkeypatch.setattr(search, "fill_subtree_and_local", fill)
    monkeypatch.setattr(search, "select_primary_secondary", split)
    monkeypatch.setattr(search, "select_negative_candidates", negatives)
    for flags in (
        {}, {"su_prune": False}, {"lu_prune": False}, {"su_prune": False, "lu_prune": False}
    ):
        for db in corpus[:20]:
            mine_top_k(db, 3, **flags)
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


# Recorded (candidates, threshold_rises, max_depth) of the pinned databases
# under the ablations: the subtree rule off on all six, where the local rule
# is the only positive rule, and both rules off on three. The answer never
# moves, but how much each rule prunes does, so a fill that sums another
# bound, or a selection that tests at another numerator, shows here.
ABLATION_COUNTERS = [
    (11, {"su_prune": False}, (4528, 174, 7)),
    (12, {"su_prune": False}, (11192, 330, 8)),
    (13, {"su_prune": False}, (11108, 385, 7)),
    (14, {"su_prune": False}, (78846, 508, 11)),
    (15, {"su_prune": False}, (49864, 535, 8)),
    (16, {"su_prune": False}, (6883, 445, 7)),
    (11, {"su_prune": False, "lu_prune": False}, (8172, 174, 7)),
    (13, {"su_prune": False, "lu_prune": False}, (29621, 385, 7)),
    (16, {"su_prune": False, "lu_prune": False}, (59359, 445, 7)),
]


@pytest.mark.parametrize(
    "seed, flags, counters",
    ABLATION_COUNTERS,
    ids=[f"seed{seed}-{'-'.join(flags)}" for seed, flags, _ in ABLATION_COUNTERS],
)
def test_ablation_counters_are_pinned(seed, flags, counters):
    params, k, pinned = next(entry for entry in PINNED_COUNTERS if entry[0]["seed"] == seed)
    db = parse_database(generate(GeneratorParams(**params)))
    _, stats = mine_top_k(db, k, **flags)
    assert (stats.candidates, stats.threshold_rises, stats.max_depth) == counters
    # a node a rule prunes ranks below the threshold of its moment, so
    # offering it raises nothing: the threshold rises at the same offers
    assert counters[1] == pinned[1]


def _watch_the_zero_seed_run(monkeypatch):
    """Mine the 365-period pinned database, whose threshold seed is zero,
    watching every fill and selection, and return the run's counters and
    what was seen:
    - row_skips, record_skips: per capped fill of a positive child
      X = P + {z}, the periods z's TWU row and the caps hold below X's
      cutoff;
    - uncapped: the positive fills below the root handed no caps;
    - zero: per fill at cutoff zero of the root or a positive node, its
      record's keys and the positive items its views hold;
    - zero_children: per positive child of such a fill, the periods its
      caps hold, the periods it sells in, and how many of them the caps
      skip at its own cutoff;
    - root: the root fill's record keys, and the root's picks."""
    params, k, counters = PINNED_COUNTERS[-1]
    assert params["periods"] == 365
    db = parse_database(generate(GeneratorParams(**params)))
    index, totals = dense_periods(db)
    table, utility = compute_period_twu(db, index)
    assert singleton_threshold(totals, table, utility, k) == 0
    seen = {key: [] for key in ("row_skips", "record_skips", "zero", "zero_children", "root")}
    seen["uncapped"] = 0
    miners = []
    cutoff_of = {}  # id of a record's cells -> the cutoff of the fill that recorded them
    run = _Miner.search

    def searched(self, root, stats):
        miners.append(self)
        run(self, root, stats)

    def fill(pd, su, neg, totals, t_num=0, t_den=1, caps=None, local=False):
        miner = miners[-1]
        items, _, off, _, _ = pd.views[0]
        last = items[off - 1] if off else None
        if last is not None and last < miner.boundary:
            if caps is None:
                seen["uncapped"] += 1
            else:
                row = table[miner.ext_id[last]]
                by_row = {p for p in pd.periods if row[p] * t_den < t_num * totals[p]}
                by_record = {
                    p for p in pd.periods if caps.get(p, 0) * t_den < t_num * totals[p]
                }
                seen["row_skips"].append(by_row)
                seen["record_skips"].append(by_record)
                if cutoff_of[id(caps)] == 0:
                    seen["zero_children"].append((set(caps), set(pd.periods), len(by_record)))
        records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps, local)
        kept = records[0]
        for cells in kept.values():
            cutoff_of[id(cells)] = t_num
        if not t_num and (last is None or last < miner.boundary):
            held = {z for items, _, off, _, _ in pd.views for z in items[off:] if z < len(su)}
            seen["zero"].append((set(kept), held))
        if last is None:
            seen["root"].append(sorted(kept))
        return records

    def walk(pd, picks):
        if len(seen["root"]) == 1:
            seen["root"].append(picks)
        return occurrences(pd, picks)

    monkeypatch.setattr(_Miner, "search", searched)
    monkeypatch.setattr(search, "fill_subtree_and_local", fill)
    monkeypatch.setattr(search, "occurrences", walk)
    _, stats = mine_top_k(db, k)
    return (stats.candidates, stats.threshold_rises, stats.max_depth), counters, seen


def test_parents_record_skips_more_periods_than_the_twu_row(monkeypatch):
    """On the 365-period pinned database the pinned counters hold with each
    positive child X = P + {z} capped by P's record. Every recorded cell
    su_P,p(z) is at most TWU_p({z}), so such a child skips every period z's
    TWU row would skip at the same cutoff, and over the run strictly more.
    The threshold seed is zero here, so the root and the first fills below
    it record at cutoff zero; their children are capped too, and no
    positive fill below the root goes uncapped."""
    got, counters, seen = _watch_the_zero_seed_run(monkeypatch)
    assert got == counters
    assert all(row <= record for row, record in zip(seen["row_skips"], seen["record_skips"]))
    by_row = sum(map(len, seen["row_skips"]))
    by_record = sum(map(len, seen["record_skips"]))
    assert by_record > by_row > 0 and seen["uncapped"] == 0


def test_zero_cutoff_fills_record_and_cap_their_children(monkeypatch):
    """A fill at cutoff zero records every positive item that occurred, so
    the root picks its record's keys, and every positive child of a
    zero-cutoff fill is capped by its parent's cells, which hold every
    period the child sells in. Once the threshold has risen, those caps
    skip periods at the child's own cutoff. On the 365-period pinned
    database, whose threshold seed is zero, with its pinned counters."""
    got, counters, seen = _watch_the_zero_seed_run(monkeypatch)
    assert got == counters == (1181, 445, 7)
    assert seen["uncapped"] == 0
    assert seen["zero"] and all(kept == held for kept, held in seen["zero"])
    recorded, picked = seen["root"]
    assert picked == recorded and recorded == sorted(seen["zero"][0][1])
    assert seen["zero_children"]
    assert all(capped == sells for capped, sells, _ in seen["zero_children"])
    assert sum(skips for _, _, skips in seen["zero_children"]) > 0


class _CountingRow(list):
    """A scratch row that counts the cells set to a non-zero value: the
    bound sums a fill adds, not the zeroing of its fold."""

    def __init__(self, width):
        super().__init__([0] * width)
        self.writes = 0

    def __setitem__(self, z, value):
        if value:
            self.writes += 1
        super().__setitem__(z, value)


def _run_with_picks(monkeypatch, db, k, local_test=False, capped=True, **flags):
    """Mine db at k under flags and record, in order, the primary picks of
    every positive selection that picks something, and counts: the
    positive selections, the candidates the local test dropped, the
    periods the caps handed to the fills skip, and the su cells the fills
    write. local_test=True applies the local test too: each positive fill
    also sums its node's local bound, at cutoff zero into rows of its own,
    and each selection keeps only the candidates whose local cells pass
    the threshold before it applies its own test.
    capped=False hands every fill no caps: the search without the parent's
    record."""
    picks = []
    counts = dict.fromkeys(("selections", "dropped", "skipped", "written"), 0)
    local_records = {}  # id of a fill's positive record -> (record, local record)

    def split(record, totals, candidates, t_num, t_den):
        counts["selections"] += 1
        if local_test:
            local_record = local_records[id(record)][1]
            passed = select_primary_secondary(local_record, totals, candidates, t_num, t_den)[0]
            counts["dropped"] += len(candidates) - len(passed)
            candidates = passed
        primary = select_primary_secondary(record, totals, candidates, t_num, t_den)[0]
        if primary:
            picks.append(primary)
        return primary, None

    def init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        miners.append(self)
        self.su = _CountingRow(self.boundary)

    def fill(pd, su, neg, totals, t_num=0, t_den=1, caps=None, local=False):
        if not capped:
            caps = None
        elif caps is not None:
            counts["skipped"] += sum(
                caps.get(p, 0) * t_den < t_num * totals[p] for p in pd.periods
            )
        records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps, local)
        if local_test:
            rows = [0] * len(su), [0] * len(neg)
            sums = fill_subtree_and_local(pd, *rows, totals, local=True)[0]
            local_records[id(records[0])] = records[0], sums
        return records

    build = _Miner.__init__
    miners = []
    with monkeypatch.context() as patched:
        patched.setattr(search, "select_primary_secondary", split)
        patched.setattr(search, "fill_subtree_and_local", fill)
        patched.setattr(_Miner, "__init__", init)
        mined, stats = mine_top_k(db, k, **flags)
    counts["written"] = miners[-1].su.writes
    payload = stats_json(stats)
    del payload["elapsed_ms"]
    return mined, payload, picks, counts


def _rises_in_negative_subtrees():
    """One period where the threshold rises inside the negative subtree of
    each of three profitable heads, past every later candidate the head's
    fill recorded. Head h sells with a chain of 20 loss-making items in
    rows worth more as h grows, so each head's negative extensions outrank
    the last head's and, past the first, fill the collector; it also sells
    once with each of its own 8 rare items, at a low utility. Each rare
    item sells heavily alone, so it comes after the heads in the order, and
    there are fewer profitable items than k, so the threshold seed is 0.
    Returns the database and its k."""
    n_neg, n_rare = 20, 8
    profits, rows = {}, []
    for h, (qty, rare_qty) in enumerate([(5, 1), (10, 6), (20, 15)]):
        head = 1 + h
        profits[head] = 2
        chain = [1000 + h * n_neg + i for i in range(n_neg)]
        for i, n in enumerate(chain):
            profits[n] = -1
            rows.append((0, [(head, qty), (n, 1)]))
            if i + 1 < n_neg:
                rows.append((0, [(head, qty), (n, 1), (n + 1, 1)]))
        for r in range(500 + h * n_rare, 500 + (h + 1) * n_rare):
            profits[r] = 1
            rows.append((0, [(head, rare_qty), (r, 1)]))
            rows += [(0, [(r, 3000)])] * 3
    return database_from_quantities(profits, rows), 3 * n_rare + 8


def test_local_bound_changes_no_pick(monkeypatch, corpus):
    """While the subtree rule is on, an item the local test at a node X
    drops fails the subtree test at every positive node below X, since
    su_X'(y) <= lu_X(y) in every period and the threshold only rises. So
    applying the local test as well, from each node's local sums, changes no
    primary pick, no pattern and no counter, on the oracle corpus and on the
    pinned databases. It drops candidates, which the subtree test drops too.
    Each node's candidates come from its own fill, which the local test does
    not change, so both runs make the same selections. A candidate is
    dropped only where the threshold rose between the node's fill and its
    selection, inside its negative subtree, so the databases include one
    built to make that happen at three nodes."""
    rising = _rises_in_negative_subtrees()
    db, k = rising
    index, totals = dense_periods(db)
    assert singleton_threshold(totals, *compute_period_twu(db, index), k) == 0
    databases = [(db, k) for db in corpus for k in (1, 5, 10_000)]
    databases += [
        (parse_database(generate(GeneratorParams(**params))), k)
        for params, k, _ in PINNED_COUNTERS
    ]
    databases.append(rising)
    picked = dropped = 0
    for db, k in databases:
        *local, local_counts = _run_with_picks(monkeypatch, db, k, local_test=True)
        *default, counts = _run_with_picks(monkeypatch, db, k)
        assert local == default
        assert counts["selections"] == local_counts["selections"]
        assert counts["dropped"] == 0
        picked += len(default[2])
        dropped += local_counts["dropped"]
    assert picked > 5000 and dropped > 0
    assert local_counts["dropped"] >= 20  # the last database, the rising one


def test_parents_record_changes_no_pick(monkeypatch, corpus):
    """Capping each positive child X = P + {z} by P's record skips only
    periods where every bracket of X sums below the cutoff, and every
    descendant's brackets there are bounded by the same cell. So on the
    oracle corpus at k 1, 5 and 10,000, and on the pinned databases by
    default and with the local rule off, the capped search gives the same
    patterns, the same stats and the same sequence of non-empty primary
    picks as the search that hands no fill caps, while its fills skip
    periods and write fewer su cells. It makes no more
    selections. With the local rule off, the 365-period pinned database
    still gives the stats recorded before any cap existed."""
    databases = [(db, k, {}) for db in corpus for k in (1, 5, 10_000)]
    for params, k, _ in PINNED_COUNTERS:
        db = parse_database(generate(GeneratorParams(**params)))
        databases += [(db, k, {}), (db, k, {"lu_prune": False})]
    picked = skipped = 0
    written = {True: 0, False: 0}
    for db, k, flags in databases:
        *capped, capped_counts = _run_with_picks(monkeypatch, db, k, **flags)
        *uncapped, counts = _run_with_picks(monkeypatch, db, k, capped=False, **flags)
        assert capped == uncapped
        assert capped_counts["selections"] <= counts["selections"]
        assert counts["skipped"] == 0
        picked += len(capped[2])
        skipped += capped_counts["skipped"]
        written[True] += capped_counts["written"]
        written[False] += counts["written"]
    assert picked > 5000 and skipped > 0 and written[True] < written[False]
    assert capped[1] == {
        "k": 100, "patterns": 100, "interutil_num": 64, "interutil_den": 27,
        "candidates": 1181, "merges": 0, "max_depth": 7, "threshold_rises": 445,
    }


def test_each_node_selects_from_its_own_fill(monkeypatch, corpus):
    """Every positive selection tests exactly the keys of its node's fill
    record, ascending, each one a positive item the node's views hold
    after its last item; below the root the list is never empty. This
    holds at a nonzero cutoff and at cutoff zero, where the record holds
    every positive item that occurred. A deferred selection tests at its
    fill's cutoff or a higher one, so only a recorded item can pass, and a
    fill that recorded nothing pushes no selection at all. Checked on the
    oracle corpus, by default and under the su_prune=False ablation, and on
    the 365-period pinned database, whose threshold seed is zero, so that
    fills at cutoff zero select too."""
    fills = []
    checked = {True: 0, False: 0}

    def fill(pd, su, neg, totals, t_num=0, t_den=1, caps=None, local=False):
        records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps, local)
        items, _, off, _, _ = pd.views[0]
        last = items[off - 1] if off else None
        if last is None or last < len(su):
            held = {
                z for items, _, off, _, _ in pd.views for z in items[off:] if z < len(su)
            }
            fills.append((last, t_num, sorted(records[0]), held))
        return records

    def split(record, totals, candidates, *cutoffs):
        last, t_num, recorded, held = fills[-1]
        assert candidates == recorded and set(candidates) <= held
        if last is not None:
            assert candidates and candidates[0] > last
        checked[bool(t_num)] += 1
        return select_primary_secondary(record, totals, candidates, *cutoffs)

    monkeypatch.setattr(search, "fill_subtree_and_local", fill)
    monkeypatch.setattr(search, "select_primary_secondary", split)
    for db in corpus:
        for k in (1, 5, 10_000):
            for flags in ({}, {"su_prune": False}):
                assert mine_top_k(db, k, **flags)[0] == oracle_top_k(db, k)
    params, k, counters = PINNED_COUNTERS[-1]
    db = parse_database(generate(GeneratorParams(**params)))
    index, totals = dense_periods(db)
    assert singleton_threshold(totals, *compute_period_twu(db, index), k) == 0
    zero_cutoff = checked[False]
    _, stats = mine_top_k(db, k)
    assert (stats.candidates, stats.threshold_rises, stats.max_depth) == counters
    assert checked[False] > zero_cutoff and checked[True] > 1000


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
