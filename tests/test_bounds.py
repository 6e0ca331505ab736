"""Pruning bounds: equivalence with the definitional forms, soundness of the
clipped negative bracket, and candidate selection."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import pipeline

from topshelf import search
from topshelf.bench import reassign_periods
from topshelf.bounds import (
    BoundArray,
    fill_negative_subtree,
    fill_subtree_and_local,
    select_negative_candidates,
    select_primary_secondary,
)
from topshelf.dataset import database_from_quantities, parse_database
from topshelf.errors import InfeasibleParams, NonPositivePeriodTotal
from topshelf.generator import GeneratorParams, generate
from topshelf.oracle import (
    itemset_utility,
    local_bound,
    oracle_top_k,
    subtree_bound,
    twu,
)
from topshelf.projection import ProjectedDatabase, project
from topshelf.search import TopKCollector, _Miner, mine_top_k

A, B, C, D, E = 1, 2, 3, 4, 5


def test_unclipped_bracket_misses_profitable_extension():
    """A transaction can push the raw subtree sum below the utility of a
    deeper extension it does not even contain; the clipped sum cannot."""
    profits = {1: 10, 2: -5, 3: -1}
    rows = [
        (0, [(1, 1), (2, 4)]),          # +10 -20
        (0, [(1, 1), (2, 1), (3, 1)]),  # +10 -5 -1 = 4
        (0, [(1, 2)]),                  # keeps the period total positive
    ]
    db = database_from_quantities(profits, rows)
    position = {1: 0, 2: 1, 3: 2}
    raw = subtree_bound(db, (1,), 2, 0, position, clip=False)
    clipped = subtree_bound(db, (1,), 2, 0, position, clip=True)
    deep = itemset_utility(db, (1, 2, 3), period=0)
    assert raw == -5
    assert deep == 4
    assert raw < deep  # pruning on the raw sum would lose {1,2,3}
    assert clipped == 5
    assert clipped >= deep

    mined, _ = mine_top_k(db, 50)
    assert mined == oracle_top_k(db, 50)
    assert (1, 2, 3) in [p.items for p in mined]


def test_mixed_sign_chain_requires_clipping(running_example):
    """Chain TWU >= local >= subtree >= best reachable utility for the pair
    (prefix {b}, candidate c), per period, under the plain TWU-ascending
    order. The raw bracket breaks the last link in period 2; the clipped
    one holds it with equality."""
    db = running_example
    position = {A: 0, E: 1, C: 2, B: 3, D: 4}
    expected = {
        # period: (twu, local, clipped subtree, best extension utility)
        0: (36, 33, 29, 29),
        1: (24, 21, 19, 19),
        2: (66, 30, 29, 29),
    }
    for h, (t, l, s, best) in expected.items():
        assert twu(db, (B, C), period=h) == t
        assert local_bound(db, (B,), C, h, position) == l
        assert subtree_bound(db, (B,), C, h, position, clip=True) == s
        # extensions reachable below {b, c}: subsets of the items after c
        reachable = max(
            u
            for target in [(B, C), (B, C, D)]
            if (u := itemset_utility(db, target, period=h)) is not None
        )
        assert reachable == best
        assert t >= l >= s >= best
    assert subtree_bound(db, (B,), C, 2, position, clip=False) == 24  # < 29


def _miner_arrays(working):
    """The su, lu and neg arrays a run over this working database uses."""
    miner = _Miner(working, TopKCollector(1, Fraction(0)), su_prune=True, lu_prune=True)
    return miner.su, miner.lu, miner.neg


def _occurred(arr, z):
    return arr.seen[z] == arr.stamp


def _ratios(arr, owner=None):
    """The best ratio of each item that occurred in the last fill. lu keeps
    no stamps of its own: su's (owner) tell for both."""
    owner = owner or arr
    return {z: Fraction(arr.num[z], arr.den[z]) for z in range(len(arr.row)) if _occurred(owner, z)}


def _best(db, bound):
    """max over the database's periods h of Fraction(bound(h), total_h):
    the best ratio a fill must keep, from a definitional per-period
    bound."""
    return max(Fraction(bound(h), db.period_totals[h]) for h in db.periods)


def _assert_filled(views, su, lu, neg):
    """After a fill every row cell is zero, and the items that occurred
    are exactly those the views hold, each listed once: positives in su's
    stamps and touched list, negatives in neg's."""
    boundary = len(su.row)
    held = {items[j] for items, _, off, _, _ in views for j in range(off, len(items))}
    assert not any(su.row) and not any(lu.row) and not any(neg.row)
    assert sorted(su.touched) == sorted(z for z in held if z < boundary)
    assert sorted(neg.touched) == sorted(z for z in held if z >= boundary)
    assert [z for z in range(boundary) if _occurred(su, z)] == sorted(su.touched)
    assert [z for z in range(len(neg.row)) if _occurred(neg, z)] == sorted(neg.touched)


def _assert_bounds_match_definitions(db, order, prefix, first, su, lu, neg):
    """Each item from dense index first on holds, as its best ratio, the
    best ratio of the definitional per-period bound (clipped for
    negatives, local too for positives); an item that did not occur has a
    zero bound in every period."""
    su_ratios, lu_ratios, neg_ratios = _ratios(su), _ratios(lu, su), _ratios(neg)
    for z in range(first, len(order)):
        z_ext = order.sequence[z]
        ratios = su_ratios if z < order.boundary else neg_ratios
        want = _best(db, lambda h: subtree_bound(db, prefix, z_ext, h, order.position, clip=True))
        assert ratios.get(z, 0) == want, (prefix, z_ext)
        if z in su_ratios:
            want_lu = _best(db, lambda h: local_bound(db, prefix, z_ext, h, order.position))
            assert lu_ratios[z] == want_lu, (prefix, z_ext)


def test_root_bounds_match_definitions(corpus):
    for db in corpus[:30]:
        order, working, root = pipeline(db, merge=False)
        su, lu, neg = _miner_arrays(working)
        assert len(su.row) == len(lu.row) == order.boundary
        assert len(neg.row) == len(order)  # indexed by dense item
        fill_subtree_and_local(root, su, lu, neg, working.period_totals)
        _assert_filled(root.views, su, lu, neg)
        assert sorted(su.touched + neg.touched) == list(range(len(order)))
        _assert_bounds_match_definitions(db, order, (), 0, su, lu, neg)


def test_depth_one_bounds_match_definitions(corpus):
    # unmerged views are the original transactions, so the per-view clipped
    # fill must equal the per-transaction definitional form exactly
    rng = random.Random(8181)
    for db in corpus[:30]:
        order, working, root = pipeline(db, merge=False)
        if order.boundary == 0:
            continue
        z0 = rng.randrange(order.boundary)
        pd = project(root, z0)
        su, lu, neg = _miner_arrays(working)
        fill_subtree_and_local(pd, su, lu, neg, working.period_totals)
        _assert_filled(pd.views, su, lu, neg)
        prefix = (order.sequence[z0],)
        _assert_bounds_match_definitions(db, order, prefix, z0 + 1, su, lu, neg)


def test_merged_views_tighten_but_never_break_the_bound(corpus, narrow_corpus):
    """Rows fused when the working database is built are clipped as one
    row, which bounds the whole fused group at once, so a best subtree
    ratio may drop below the one of the per-transaction definitional sums
    but must stay an upper bound on every period ratio reachable in the
    subtree."""
    rng = random.Random(9292)
    tightened = 0
    for db in corpus[:80]:
        order, working, root = pipeline(db)
        n = len(order)
        if order.boundary == 0:
            continue
        z0 = rng.randrange(order.boundary)
        pd = project(root, z0)
        su, lu, neg = _miner_arrays(working)
        fill_subtree_and_local(pd, su, lu, neg, working.period_totals)
        ratios = _ratios(su) | _ratios(neg)
        prefix = (order.sequence[z0],)
        for z in range(z0 + 1, n):
            z_ext = order.sequence[z]
            reference = _best(
                db, lambda h: subtree_bound(db, prefix, z_ext, h, order.position, clip=True)
            )
            assert ratios.get(z, 0) <= reference
            if ratios.get(z, 0) < reference:
                tightened += 1
    assert tightened > 0

    # exhaustive dominance on the narrow databases: every itemset reachable
    # below (prefix, z), in every period it occurs in, has a ratio at most
    # the best ratio filled from fused rows
    for db in narrow_corpus:
        order, working, root = pipeline(db)
        n = len(order)
        if order.boundary == 0:
            continue
        for z0 in range(order.boundary):
            pd = project(root, z0)
            su, lu, neg = _miner_arrays(working)
            fill_subtree_and_local(pd, su, lu, neg, working.period_totals)
            ratios = _ratios(su) | _ratios(neg)
            prefix = (order.sequence[z0],)
            for z in range(z0 + 1, n):
                z_ext = order.sequence[z]
                tail = [order.sequence[d] for d in range(z + 1, n)]
                for r in range(len(tail) + 1):
                    for extra in itertools.combinations(tail, r):
                        target = tuple(sorted(prefix + (z_ext,) + extra))
                        for h in db.periods:
                            if _occurs_in_period(db, target, h):
                                u = itemset_utility(db, target, period=h)
                                assert ratios[z] >= Fraction(u, db.period_totals[h]), (target, h)


def _occurs_in_period(db, itemset, h):
    need = set(itemset)
    return any(t.period == h and need <= set(t.items) for t in db.transactions)


def _state(arr):
    return arr.row, arr.num, arr.den, arr.seen, arr.stamp, arr.touched


def test_negative_tail_fill_matches_definitions(corpus):
    """fill_negative_subtree alone leaves neg in the same state as the one
    walk that also fills su and lu, and both hold the best ratios of the
    clipped definitional sums."""
    rng = random.Random(2727)
    checked = 0
    for db in corpus:
        order, working, root = pipeline(db, merge=False)
        if order.boundary == 0 or order.boundary == len(order):
            continue
        z0 = rng.randrange(order.boundary)
        pd = project(root, z0)
        _, _, neg = _miner_arrays(working)
        fill_negative_subtree(pd, neg, working.period_totals)
        su, lu, walked = _miner_arrays(working)
        fill_subtree_and_local(pd, su, lu, walked, working.period_totals)
        _assert_filled(pd.views, su, lu, walked)
        assert _state(neg) == _state(walked)
        ratios = _ratios(neg)
        prefix = (order.sequence[z0],)
        for z in range(order.boundary, len(order)):
            z_ext = order.sequence[z]
            want = _best(db, lambda h: subtree_bound(db, prefix, z_ext, h, order.position, clip=True))
            assert ratios.get(z, 0) == want, (prefix, z_ext)
            checked += z in ratios
        if checked > 200:
            break
    assert checked > 100


def _projection(views_by_period):
    """A projection holding hand-written views (items, utilities, offset,
    prefix utility), keyed by period: each view takes its key as its
    period, in ascending period order."""
    periods = sorted(views_by_period)
    views = [(*view, p) for p in periods for view in views_by_period[p]]
    return ProjectedDatabase(
        periods=periods,
        views=views,
        utility=sum(view[3] for view in views),
    )


def _three_arrays(boundary, n_items):
    return BoundArray(boundary), BoundArray(boundary), BoundArray(n_items)


def test_fill_folds_each_period_into_the_best_ratio():
    # Positives 0 and 1, negatives 2 and 3; views (items, utilities,
    # offset, prefix utility) in periods 0 and 2 of three.
    su, lu, neg = _three_arrays(2, 4)
    totals = [10, 7, 3]
    pd = _projection({0: [([0, 1, 3], [4, 5, -2], 0, 6)], 2: [([1, 2], [3, -9], 0, 6)]})
    fill_subtree_and_local(pd, su, lu, neg, totals)
    # period sums: su 15 and 11 in period 0, item 1's 9 in period 2; lu
    # 15 for both in period 0, 9 in period 2; neg 4 for item 3 in period
    # 0, and item 2's 6 - 9 clipped to 0 in period 2
    assert _ratios(su) == {0: Fraction(15, 10), 1: Fraction(9, 3)}
    assert _ratios(lu, su) == {0: Fraction(15, 10), 1: Fraction(9, 3)}
    assert _ratios(neg) == {2: 0, 3: Fraction(4, 10)}
    assert su.touched == [1, 0] and neg.touched == [3, 2]
    _assert_filled(pd.views, su, lu, neg)

    # the next fill resets nothing: its new stamp makes the first fill's
    # ratios stale, where they stay
    pd = _projection({1: [([0, 3], [1, -5], 0, 7)]})
    fill_subtree_and_local(pd, su, lu, neg, totals)
    assert _ratios(su) == _ratios(lu, su) == {0: Fraction(8, 7)}
    assert _ratios(neg) == {3: Fraction(2, 7)}
    assert su.touched == [0] and neg.touched == [3]
    assert (su.num[1], su.den[1]) == (9, 3)  # stale, never read
    _assert_filled(pd.views, su, lu, neg)

    # a later period that ties the best ratio (4/4 against 8/8) leaves it
    neg = BoundArray(4)
    fill_negative_subtree(
        _projection({0: [([0, 3], [9, -1], 1, 9)], 1: [([3], [-2], 0, 6)]}), neg, [8, 4]
    )
    assert (neg.num[3], neg.den[3]) == (8, 8)


def _random_projection(rng, periods, boundary, n_items):
    """One to two views of one to three items in each given period, with
    positives below boundary and negatives from it on."""
    views = {}
    for p in periods:
        plist = []
        for _ in range(rng.randint(1, 2)):
            items = sorted(rng.sample(range(n_items), rng.randint(1, 3)))
            utils = [rng.randint(1, 9) if z < boundary else -rng.randint(1, 9) for z in items]
            plist.append((items, utils, rng.randrange(len(items)), rng.randint(0, 9)))
        views[p] = plist
    return _projection(views)


def _live(su, lu, neg):
    """What a fill leaves for the search to read: the rows, the touched
    lists and the best ratios of the items that occurred."""
    return (
        (su.row, su.touched, _ratios(su)),
        (lu.row, _ratios(lu, su)),
        (neg.row, neg.touched, _ratios(neg)),
    )


@pytest.mark.parametrize("boundary, n_items", [(3, 6), (100, 200)])
def test_each_fill_clears_what_the_previous_fill_left(boundary, n_items):
    """Filling projection A and then B leaves the arrays reading as fresh
    arrays filled with B alone, although A occupies periods B does not."""
    rng = random.Random(boundary)
    totals = [rng.randint(1, 60) for _ in range(4)]
    a = _random_projection(rng, [0, 2, 3], boundary, n_items)
    b = _random_projection(rng, [1, 3], boundary, n_items)
    reused = _three_arrays(boundary, n_items)
    fresh = _three_arrays(boundary, n_items)
    fill_subtree_and_local(a, *reused, totals)
    fill_subtree_and_local(b, *reused, totals)
    fill_subtree_and_local(b, *fresh, totals)
    assert _live(*reused) == _live(*fresh)

    neg, fresh_neg = reused[2], BoundArray(n_items)
    fill_negative_subtree(a, neg, totals)
    fill_negative_subtree(b, neg, totals)
    fill_negative_subtree(b, fresh_neg, totals)
    assert _live(*reused[:2], neg) == _live(*reused[:2], fresh_neg)


def _arrays(su_ratios, lu_ratios):
    """su and lu as a fill would leave them: the given best ratios (num,
    den) per item, None for an item that did not occur."""
    su, lu = BoundArray(len(su_ratios)), BoundArray(len(su_ratios))
    su.start()
    for z, (s, l) in enumerate(zip(su_ratios, lu_ratios)):
        if s is not None:
            su.seen[z] = su.stamp
            su.num[z], su.den[z] = s
            lu.num[z], lu.den[z] = l
    return su, lu


def test_selection_applies_both_bound_tests():
    # one period of total 10, threshold 1/4
    su, lu = _arrays([(10, 10), (2, 10), None], [(10, 10), (4, 10), None])
    primary, secondary = select_primary_secondary(su, lu, range(3), su_num=1, lu_num=1, t_den=4)
    assert primary == [0]        # item 1 fails the subtree test (2/10 < 1/4)
    assert secondary == [0, 1]
    # at threshold zero every ratio passes, but item 2 never occurred
    primary, secondary = select_primary_secondary(su, lu, range(3), su_num=0, lu_num=0, t_den=1)
    assert primary == secondary == [0, 1]
    # each rule has its own numerator: a zero subtree numerator passes item 1
    primary, secondary = select_primary_secondary(su, lu, range(3), su_num=0, lu_num=1, t_den=4)
    assert primary == secondary == [0, 1]


def test_selection_degrades_to_occurrence_when_disabled():
    """A rule that is off tests at numerator zero, which every item that
    occurred passes, since every best ratio is at least zero."""
    su, lu = _arrays([(0, 5), None, (0, 9)], [(0, 5), None, (0, 9)])
    primary, secondary = select_primary_secondary(su, lu, range(3), su_num=0, lu_num=0, t_den=99)
    assert primary == secondary == [0, 2]

    working = pipeline(parse_database("1 2:5:2 3:0\n2:4:4:1\n"))[1]
    collector = TopKCollector(1, Fraction(3, 7))
    for su_prune, lu_prune in itertools.product((True, False), repeat=2):
        miner = _Miner(working, collector, su_prune=su_prune, lu_prune=lu_prune)
        assert miner._cutoffs() == (3 if su_prune else 0, 3 if lu_prune else 0, 7)


def test_selection_boundary_equality_counts():
    su, lu = _arrays([(5, 10)], [(5, 10)])
    primary, secondary = select_primary_secondary(su, lu, [0], su_num=1, lu_num=1, t_den=2)
    assert primary == [0] and secondary == [0]


def test_negative_candidate_selection():
    # negatives are items 3..6 of a neg array indexed by dense item
    neg = BoundArray(7)
    pd = _projection({0: [([1, 4, 5], [10, -3, -7], 1, 10), ([1, 6], [1, -5], 1, 1)]})
    fill_negative_subtree(pd, neg, [20])
    # item 6: 1 - 5 < 0 is clipped, and still occurred
    assert _ratios(neg) == {4: Fraction(7, 20), 5: Fraction(3, 20), 6: 0}
    touched = sorted(neg.touched)
    assert touched == [4, 5, 6]
    for candidates in (touched, range(3, 7)):
        picked = select_negative_candidates(neg, candidates, t_num=1, t_den=4)
        assert picked == [4]  # 7/20 >= 1/4 > 3/20; item 3 never occurred
        # threshold zero, or the rule off, passes what occurred
        at_zero = select_negative_candidates(neg, candidates, t_num=0, t_den=4)
        assert at_zero == [4, 5, 6]


def test_selection_reads_only_items_the_last_fill_saw():
    """A ratio an earlier fill left, for an item the last fill did not
    see, is stale: however large, it changes no pick."""
    su, lu, neg = _three_arrays(3, 6)
    totals = [10, 10, 10]
    fill_subtree_and_local(_projection({2: [([1, 4], [90, -1], 0, 90)]}), su, lu, neg, totals)
    pd = _projection({0: [([0, 3], [8, -1], 0, 0), ([2], [1], 0, 0)]})
    fill_subtree_and_local(pd, su, lu, neg, totals)
    assert _ratios(su) == _ratios(lu, su) == {0: Fraction(8, 10), 2: Fraction(1, 10)}
    assert _ratios(neg) == {3: 0}
    assert su.num[1] == lu.num[1] == 180 and neg.num[4] == 89  # stale
    primary, secondary = select_primary_secondary(su, lu, range(3), su_num=1, lu_num=1, t_den=2)
    assert primary == secondary == [0]
    assert select_negative_candidates(neg, [3, 4], t_num=1, t_den=2) == []


def test_fills_without_kept_negatives():
    """With no kept negatives the fill writes no neg slot, the negative
    selection picks nothing, and mining matches the oracle."""
    su, lu, neg = _three_arrays(3, 3)
    pd = _projection({0: [([0, 2], [2, 3], 0, 0)], 1: [([1], [4], 0, 0)]})
    fill_subtree_and_local(pd, su, lu, neg, [10, 8])
    assert _ratios(su) == {0: Fraction(5, 10), 1: Fraction(4, 8), 2: Fraction(3, 10)}
    assert _ratios(lu, su) == {0: Fraction(5, 10), 1: Fraction(4, 8), 2: Fraction(5, 10)}
    assert neg.touched == [] and not any(neg.seen)
    assert select_negative_candidates(neg, sorted(neg.touched), 0, 1) == []
    _assert_filled(pd.views, su, lu, neg)

    profits = {1: 4, 2: 3, 3: 1}
    rows = [(0, [(1, 1), (2, 2)]), (0, [(2, 1), (3, 3)]), (1, [(1, 2), (3, 1)])]
    db = database_from_quantities(profits, rows)
    order, _, _ = pipeline(db)
    assert order.boundary == len(order)
    for k in (1, 3, 50):
        assert mine_top_k(db, k)[0] == oracle_top_k(db, k)


def test_fills_with_only_negatives():
    """Views that hold only negatives leave su and lu untouched and fill
    neg alone; a database whose one profitable item heads only negative
    extensions matches the oracle."""
    su, lu, neg = _three_arrays(1, 4)
    pd = _projection({0: [([0, 1, 3], [9, -2, -4], 1, 9), ([0, 2], [9, -1], 1, 9)]})
    fill_subtree_and_local(pd, su, lu, neg, [16])
    assert su.touched == [] and _ratios(su) == {}
    _assert_filled(pd.views, su, lu, neg)
    assert _ratios(neg) == {1: Fraction(7, 16), 2: Fraction(8, 16), 3: Fraction(5, 16)}
    assert neg.touched == [3, 1, 2]
    picked = select_negative_candidates(neg, sorted(neg.touched), 7, 16)
    assert picked == [1, 2]  # 7/16 counts at equality; 8/16 passes; 5/16 does not

    profits = {1: 10, 2: -1, 3: -2, 4: -3}
    rows = [
        (0, [(1, 2), (2, 1), (3, 2)]),
        (0, [(1, 1), (3, 1), (4, 1)]),
        (1, [(1, 3), (2, 2), (4, 2)]),
        (1, [(1, 1), (2, 1), (3, 1), (4, 1)]),
    ]
    db = database_from_quantities(profits, rows)
    for k in (1, 4, 50):
        mined, stats = mine_top_k(db, k)
        assert mined == oracle_top_k(db, k)
    assert stats.candidates > 1  # the negative extensions were searched


def _many_period_databases(n_periods, transactions, count, seed):
    """Seeded random databases at oracle size, re-dealt round-robin into
    n_periods periods; draws whose re-dealt periods are not all profitable
    are skipped."""
    rng = random.Random(seed)
    out = []
    draw = 0
    while len(out) < count:
        draw += 1
        params = GeneratorParams(
            transactions=rng.randint(*transactions),
            items=rng.randint(4, 10),
            periods=rng.randint(1, 4),
            avg_len=rng.randint(2, 5),
            neg_frac=(0.0, 0.2, 0.4)[draw % 3],
            max_qty=rng.randint(1, 5),
            max_profit=rng.randint(1, 10),
            seed=seed * 1000 + draw,
        )
        try:
            db = reassign_periods(parse_database(generate(params)), n_periods)
        except (InfeasibleParams, NonPositivePeriodTotal):
            continue
        out.append(db)
    return out


def _period_sums(pd):
    """Per item, per period, the subtree, local and clipped negative sums
    of projection pd, from the bracket definitions: three dicts item ->
    {period: sum}."""
    su, lu, neg = {}, {}, {}
    for items, utils, off, prefix, p in pd.views:
        tail = list(zip(items[off:], utils[off:]))
        after = sum(u for _, u in tail if u > 0)
        local = prefix + after
        for item, u in tail:
            if u > 0:
                after -= u
                _add(su, item, p, prefix + u + after)
                _add(lu, item, p, local)
            else:
                _add(neg, item, p, max(prefix + u, 0))
    return su, lu, neg


def _add(sums, item, p, value):
    by_period = sums.setdefault(item, {})
    by_period[p] = by_period.get(p, 0) + value


def _per_period_rule(sums, z, t_num, t_den, totals):
    """z occurred, and in some period its sum reaches the threshold
    t_num/t_den times that period's total."""
    return z in sums and any(s * t_den >= t_num * totals[p] for p, s in sums[z].items())


@pytest.mark.parametrize(
    "n_periods, transactions", [(30, (40, 240)), (365, (400, 1100))]
)
def test_many_periods_select_as_the_per_period_rule(monkeypatch, n_periods, transactions):
    """Every selection of whole mining runs keeps exactly the items the
    per-period rule keeps, over sums taken from the bracket definitions,
    and the miner matches the oracle: keeping one best ratio per item
    decides as the periods x items sums would."""
    databases = _many_period_databases(n_periods, transactions, 6, n_periods)
    sums = {}
    tested = []

    def fill_both(pd, su, lu, neg, totals):
        fill_subtree_and_local(pd, su, lu, neg, totals)
        sums["su"], sums["lu"], sums["neg"] = _period_sums(pd)
        sums["totals"] = totals

    def fill_tail(pd, neg, totals):
        fill_negative_subtree(pd, neg, totals)
        sums["neg"] = _period_sums(pd)[2]

    def split(su, lu, candidates, su_num, lu_num, t_den):
        picked = select_primary_secondary(su, lu, candidates, su_num, lu_num, t_den)
        totals = sums["totals"]
        secondary = [z for z in candidates if _per_period_rule(sums["lu"], z, lu_num, t_den, totals)]
        primary = [z for z in secondary if _per_period_rule(sums["su"], z, su_num, t_den, totals)]
        assert picked == (primary, secondary)
        tested.append(len(candidates))
        return picked

    def negatives(neg, candidates, t_num, t_den):
        picked = select_negative_candidates(neg, candidates, t_num, t_den)
        totals = sums["totals"]
        assert picked == [
            z for z in candidates if _per_period_rule(sums["neg"], z, t_num, t_den, totals)
        ]
        tested.append(len(candidates))
        return picked

    monkeypatch.setattr(search, "fill_subtree_and_local", fill_both)
    monkeypatch.setattr(search, "fill_negative_subtree", fill_tail)
    monkeypatch.setattr(search, "select_primary_secondary", split)
    monkeypatch.setattr(search, "select_negative_candidates", negatives)
    for db in databases:
        for k in (3, 25):
            mined, _ = mine_top_k(db, k)
            assert mined == oracle_top_k(db, k)
    assert sum(tested) > 1000


@pytest.mark.parametrize(
    "n_periods, transactions", [(30, (40, 240)), (365, (400, 1100))]
)
def test_every_row_cell_is_zero_after_each_fill(monkeypatch, n_periods, transactions):
    """Through whole mining runs, every row cell is zero when a fill
    returns, so the next fill starts from a clean row without a reset, and
    each fill lists each item it saw once."""
    databases = _many_period_databases(n_periods, transactions, 6, n_periods)
    fills = []

    def fill_both(pd, su, lu, neg, totals):
        fill_subtree_and_local(pd, su, lu, neg, totals)
        _assert_filled(pd.views, su, lu, neg)
        fills.append(len(su.touched))

    def fill_tail(pd, neg, totals):
        fill_negative_subtree(pd, neg, totals)
        assert not any(neg.row)
        held = {items[j] for items, utils, off, _, _ in pd.views
                for j in range(off, len(items)) if utils[j] < 0}
        assert sorted(neg.touched) == sorted(held)
        fills.append(len(neg.touched))

    monkeypatch.setattr(search, "fill_subtree_and_local", fill_both)
    monkeypatch.setattr(search, "fill_negative_subtree", fill_tail)
    for db in databases:
        for k in (3, 25):
            mine_top_k(db, k)
    assert len(fills) > 100 and max(fills) > 1
