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
from topshelf.prepare import compute_period_twu, dense_periods
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


def _twu(db):
    """db's TWU table, each row keyed by dense period."""
    return compute_period_twu(db, dense_periods(db)[0])[0]


def _miner(db, working, su_prune=True, lu_prune=True, threshold=Fraction(0)):
    collector = TopKCollector(1, threshold, sum(working.period_totals))
    return _Miner(working, collector, su_prune=su_prune, lu_prune=lu_prune)


def _miner_arrays(db, working):
    """The su row and the lu and neg arrays a run over db's working
    database uses where it fills lu: only the su_prune=False ablation does,
    so this is its miner. A default miner holds lu None."""
    miner = _miner(db, working, su_prune=False)
    return miner.su, miner.lu, miner.neg


def _occurred(arr, z):
    return arr.seen[z] == arr.stamp


def _occurred_items(arr):
    """The items that occurred in arr's last fill, ascending."""
    return [z for z in range(len(arr.row)) if _occurred(arr, z)]


def _last_item(pd):
    """The dense last item of pd's node, None at the root: every view of a
    child holds that item just before its offset, and the root's views
    start at offset zero."""
    items, _, off, _, _ = pd.views[0]
    return items[off - 1] if off else None


def _positive_state(su, lu):
    """Everything su and lu (where it is handed) hold: the su row, and lu's
    row, ratios and stamps."""
    state = [list(su)]
    if lu is not None:
        state.append(list(lu.row) + list(lu.num) + list(lu.den) + list(lu.seen) + [lu.stamp])
    return state


def _ratios(arr):
    """The best ratio of each item that occurred in arr's last fill."""
    return {z: Fraction(arr.num[z], arr.den[z]) for z in range(len(arr.row)) if _occurred(arr, z)}


def _record_ratios(record, totals):
    """The best ratio of each recorded item over its recorded cells: after
    a fill at cutoff zero, the best subtree ratio of every positive item
    that occurred."""
    return {
        z: max(Fraction(cell, totals[p]) for p, cell in cells.items())
        for z, cells in record.items()
    }


def _at_cutoff(record, totals, cut):
    """The cells of record that reach cut times their period's total, by
    item, dropping an item left with none: what a fill at cutoff cut records
    of the same sums."""
    kept = {}
    for z, cells in record.items():
        high = {p: cell for p, cell in cells.items() if Fraction(cell, totals[p]) >= cut}
        if high:
            kept[z] = high
    return kept


def _recorded(pd, totals, t_num=0, t_den=1, walked=None):
    """The record a fill of pd at cutoff t_num/t_den must return, from the
    bracket definitions: each positive item's subtree sums that reach the
    cutoff times their period's total, in the periods the fill walked
    (walked, None for every period)."""
    return _at_cutoff(
        {
            z: {p: s for p, s in by_period.items() if walked is None or p in walked}
            for z, by_period in _period_sums(pd)[0].items()
        },
        totals,
        Fraction(t_num, t_den),
    )


def _best(db, bound):
    """max over the database's periods h of Fraction(bound(h), total_h):
    the best ratio a fill must keep, from a definitional per-period
    bound."""
    return max(Fraction(bound(h), db.period_totals[h]) for h in db.periods)


def _assert_filled(pd, record, su, lu, neg, totals, cut=(0, 1), tails=None, walked=None):
    """After a fill of the root or of a positive node at cutoff cut every
    row cell is zero, the record holds exactly the subtree sums that reach
    the cutoff in the periods the fill walked (walked), and lu, where
    handed, occurred at exactly the positives of those periods. neg
    occurred at the negatives of the periods whose tails the fill walked
    (tails), each listed once in neg's touched list; None stands for every
    period."""
    assert record == _recorded(pd, totals, *cut, walked)
    if lu is not None:
        held = {
            items[j]
            for items, _, off, _, p in pd.views
            if walked is None or p in walked
            for j in range(off, len(items))
            if items[j] < len(su)
        }
        assert _occurred_items(lu) == sorted(held)
    _assert_neg_filled(pd.views, su, lu, neg, tails)


def _assert_neg_filled(views, su, lu, neg, tails=None):
    """After any fill every row cell is zero, and neg's stamps and touched
    list hold, once each, the negatives the views hold in the periods
    whose tails the fill walked (tails, None for every period)."""
    boundary = len(su)
    negatives = {
        items[j]
        for items, _, off, _, p in views
        if tails is None or p in tails
        for j in range(off, len(items))
        if items[j] >= boundary
    }
    assert not any(su) and (lu is None or not any(lu.row)) and not any(neg.row)
    assert sorted(neg.touched) == sorted(negatives)
    assert _occurred_items(neg) == sorted(neg.touched)


def _assert_bounds_match_definitions(db, order, prefix, first, record, lu, neg, totals):
    """Each item from dense index first on holds, as its best ratio (over
    its recorded cells for a positive, in neg for a negative), the best
    ratio of the definitional per-period bound (clipped for negatives,
    local too for positives, in lu); an item that did not occur has a zero
    bound in every period. record comes from a fill at cutoff zero."""
    su_ratios, lu_ratios, neg_ratios = _record_ratios(record, totals), _ratios(lu), _ratios(neg)
    assert lu_ratios.keys() == su_ratios.keys()
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
        su, lu, neg = _miner_arrays(db, working)
        totals = working.period_totals
        assert len(su) == len(lu.row) == order.boundary
        assert len(neg.row) == len(order)  # indexed by dense item
        record = fill_subtree_and_local(root, su, lu, neg, totals)
        _assert_filled(root, record, su, lu, neg, totals)
        assert sorted(record) + sorted(neg.touched) == list(range(len(order)))
        _assert_bounds_match_definitions(db, order, (), 0, record, lu, neg, totals)


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
        su, lu, neg = _miner_arrays(db, working)
        totals = working.period_totals
        record = fill_subtree_and_local(pd, su, lu, neg, totals)
        _assert_filled(pd, record, su, lu, neg, totals)
        prefix = (order.sequence[z0],)
        _assert_bounds_match_definitions(db, order, prefix, z0 + 1, record, lu, neg, totals)


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
        su, lu, neg = _miner_arrays(db, working)
        record = fill_subtree_and_local(pd, su, lu, neg, working.period_totals)
        ratios = _record_ratios(record, working.period_totals) | _ratios(neg)
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
            su, lu, neg = _miner_arrays(db, working)
            record = fill_subtree_and_local(pd, su, lu, neg, working.period_totals)
            ratios = _record_ratios(record, working.period_totals) | _ratios(neg)
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


def _assert_neg_matches_definitions(db, order, prefix, first, neg):
    """Each negative from dense index first on holds, as its best ratio in
    neg, the best ratio of the clipped definitional sum; one that did not
    occur has a zero sum in every period. Returns how many occurred."""
    ratios = _ratios(neg)
    for z in range(max(first, order.boundary), len(order)):
        z_ext = order.sequence[z]
        want = _best(db, lambda h: subtree_bound(db, prefix, z_ext, h, order.position, clip=True))
        assert ratios.get(z, 0) == want, (prefix, z_ext)
    return sum(z >= first for z in ratios)


def test_negative_tail_fill_matches_definitions(corpus):
    """A positive node's fill holds in neg the best ratios of the clipped
    definitional sums. So does the fill of a negative child after it, as
    the search makes it, handed lu None; that fill writes neg alone,
    records nothing, and leaves the su row and lu (row, ratios, stamps)
    exactly as the positive fill left them for its deferred selection."""
    rng = random.Random(2727)
    checked = negative_nodes = 0
    for db in corpus:
        order, working, root = pipeline(db, merge=False)
        if order.boundary == 0 or order.boundary == len(order):
            continue
        z0 = rng.randrange(order.boundary)
        pd = project(root, z0)
        su, lu, neg = _miner_arrays(db, working)
        totals = working.period_totals
        record = fill_subtree_and_local(pd, su, lu, neg, totals)
        _assert_filled(pd, record, su, lu, neg, totals)
        prefix = (order.sequence[z0],)
        checked += _assert_neg_matches_definitions(db, order, prefix, z0 + 1, neg)
        if neg.touched:
            n = rng.choice(sorted(neg.touched))
            child = project(pd, n)
            positives = _positive_state(su, lu)
            assert fill_subtree_and_local(child, su, None, neg, totals) == {}
            assert _positive_state(su, lu) == positives
            _assert_neg_filled(child.views, su, lu, neg)
            prefix += (order.sequence[n],)
            _assert_neg_matches_definitions(db, order, prefix, n + 1, neg)
            negative_nodes += 1
        if checked > 200:
            break
    assert checked > 100 and negative_nodes > 20


def _projection(views_by_period):
    """A projection holding hand-written views (items, utilities, offset,
    prefix utility), keyed by period: each view takes its key as its
    period, in ascending period order."""
    periods = sorted(views_by_period)
    views = [(*view, p) for p in periods for view in views_by_period[p]]
    return ProjectedDatabase(
        periods=periods,
        views=views,
        utilities=[sum(view[3] for view in views_by_period[p]) for p in periods],
    )


def _three_arrays(boundary, n_items):
    return [0] * boundary, BoundArray(boundary), BoundArray(n_items)


def test_fill_folds_each_period_into_the_best_ratio():
    # Positives 0 and 1, negatives 2 and 3; views (items, utilities,
    # offset, prefix utility) in periods 0 and 2 of three.
    su, lu, neg = _three_arrays(2, 4)
    totals = [10, 7, 3]
    pd = _projection({0: [([0, 1, 3], [4, 5, -2], 0, 6)], 2: [([1, 2], [3, -9], 0, 6)]})
    record = fill_subtree_and_local(pd, su, lu, neg, totals)
    # period sums: su 15 and 11 in period 0, item 1's 9 in period 2, all
    # recorded at cutoff zero; lu 15 for both in period 0, 9 in period 2;
    # neg 4 for item 3 in period 0, and item 2's 6 - 9 clipped to 0 in
    # period 2
    assert record == {0: {0: 15}, 1: {0: 11, 2: 9}}
    assert _record_ratios(record, totals) == {0: Fraction(15, 10), 1: Fraction(9, 3)}
    assert _ratios(lu) == {0: Fraction(15, 10), 1: Fraction(9, 3)}
    assert _ratios(neg) == {2: 0, 3: Fraction(4, 10)}
    assert _occurred_items(lu) == [0, 1] and neg.touched == [3, 2]
    _assert_filled(pd, record, su, lu, neg, totals)

    # the next fill resets nothing: its new stamps make the first fill's
    # ratios stale, where they stay, and it returns a record of its own
    pd = _projection({1: [([0, 3], [1, -5], 0, 7)]})
    assert fill_subtree_and_local(pd, su, lu, neg, totals) == {0: {1: 8}}
    assert _ratios(lu) == {0: Fraction(8, 7)}
    assert _ratios(neg) == {3: Fraction(2, 7)}
    assert _occurred_items(lu) == [0] and neg.touched == [3]
    assert (lu.num[1], lu.den[1]) == (9, 3)  # stale, never read
    _assert_filled(pd, {0: {1: 8}}, su, lu, neg, totals)

    # a later period that ties the best ratio (4/4 against 8/8) leaves it
    su, lu, neg = _three_arrays(1, 4)
    pd = _projection({0: [([0, 3], [9, -1], 1, 9)], 1: [([3], [-2], 0, 6)]})
    fill_subtree_and_local(pd, su, lu, neg, [8, 4])
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


def _live(record, su, lu, neg):
    """What a fill leaves for the search to read: its record, the rows,
    neg's touched list and the best ratios of the items that occurred in
    lu and neg."""
    return (
        (record, su),
        (lu.row, _ratios(lu)),
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
    after_b = fill_subtree_and_local(b, *reused, totals)
    assert _live(after_b, *reused) == _live(fill_subtree_and_local(b, *fresh, totals), *fresh)


def _local(lu_ratios):
    """lu as a fill would leave it: the given best ratios (num, den) per
    item."""
    lu = BoundArray(len(lu_ratios))
    lu.start()
    for z, (num, den) in enumerate(lu_ratios):
        lu.seen[z] = lu.stamp
        lu.num[z], lu.den[z] = num, den
    return lu


def test_selection_applies_both_bound_tests():
    # one period of total 10, threshold 1/4; item 2 never occurred, so the
    # record, whose keys are the candidates, holds no cell for it
    totals = [10]
    record = {0: {0: 10}, 1: {0: 2}}
    lu = _local([(10, 10), (4, 10), (0, 1)])
    candidates = sorted(record)
    primary, secondary = select_primary_secondary(record, lu, candidates, 1, 1, 4, totals)
    assert primary == [0]        # item 1 fails the subtree test (2/10 < 1/4)
    assert secondary == [0, 1]
    # at threshold zero every recorded item passes
    primary, secondary = select_primary_secondary(record, lu, candidates, 0, 0, 1, totals)
    assert primary == secondary == [0, 1]
    # each rule has its own numerator: a zero subtree numerator passes item 1
    primary, secondary = select_primary_secondary(record, lu, candidates, 0, 1, 4, totals)
    assert primary == secondary == [0, 1]
    # with lu None no local test runs and no secondary list is built
    assert select_primary_secondary(record, None, candidates, 1, 1, 4, totals) == ([0], None)


def test_selection_degrades_to_occurrence_when_disabled():
    """A rule that is off tests at numerator zero, which every item that
    occurred passes, since every bound is at least zero."""
    totals = [5, 9]
    record = {0: {0: 0}, 2: {1: 0}}
    lu = _local([(0, 5), (0, 1), (0, 9)])
    primary, secondary = select_primary_secondary(record, lu, sorted(record), 0, 0, 99, totals)
    assert primary == secondary == [0, 2]

    db = parse_database("1 2:5:2 3:0\n2:4:4:1\n")
    working = pipeline(db)[1]
    for su_prune, lu_prune in itertools.product((True, False), repeat=2):
        miner = _miner(db, working, su_prune, lu_prune, Fraction(3, 7))
        assert miner._cutoffs() == (3 if su_prune else 0, 3 if lu_prune else 0, 7)


def test_selection_boundary_equality_counts():
    record = {0: {0: 5}}
    picked = select_primary_secondary(record, _local([(5, 10)]), [0], 1, 1, 2, [10])
    assert picked == ([0], [0])
    # each cell is tested against its own period's total: 1/10 fails the
    # threshold 1/4, and 5/20 reaches it in the other period
    record = {0: {0: 1, 1: 5}}
    assert select_primary_secondary(record, None, [0], 1, 0, 4, [10, 20]) == ([0], None)
    assert select_primary_secondary(record, None, [0], 1, 0, 4, [10, 21]) == ([], None)


def test_negative_candidate_selection():
    # negatives are items 3..6 of a neg array indexed by dense item
    su, lu, neg = _three_arrays(3, 7)
    pd = _projection({0: [([1, 4, 5], [10, -3, -7], 1, 10), ([1, 6], [1, -5], 1, 1)]})
    assert fill_subtree_and_local(pd, su, lu, neg, [20]) == {}
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
    see, is stale, and the earlier fill's cells are in its own record:
    however large, they change no pick. The last fill's record holds only
    the items it saw, and those are the candidates."""
    su, lu, neg = _three_arrays(3, 6)
    totals = [10, 10, 10]
    earlier = _projection({2: [([1, 4], [90, -1], 0, 90)]})
    assert fill_subtree_and_local(earlier, su, lu, neg, totals) == {1: {2: 180}}
    pd = _projection({0: [([0, 3], [8, -1], 0, 0), ([2], [1], 0, 0)]})
    record = fill_subtree_and_local(pd, su, lu, neg, totals)
    assert record == {0: {0: 8}, 2: {0: 1}}
    assert _ratios(lu) == {0: Fraction(8, 10), 2: Fraction(1, 10)}
    assert _ratios(neg) == {3: 0}
    assert lu.num[1] == 180 and neg.num[4] == 89  # stale
    primary, secondary = select_primary_secondary(record, lu, sorted(record), 1, 1, 2, totals)
    assert primary == secondary == [0]
    assert select_negative_candidates(neg, [3, 4], t_num=1, t_den=2) == []


def test_fills_without_kept_negatives():
    """With no kept negatives the fill writes no neg slot, the negative
    selection picks nothing, and mining matches the oracle."""
    su, lu, neg = _three_arrays(3, 3)
    totals = [10, 8]
    pd = _projection({0: [([0, 2], [2, 3], 0, 0)], 1: [([1], [4], 0, 0)]})
    record = fill_subtree_and_local(pd, su, lu, neg, totals)
    assert record == {0: {0: 5}, 1: {1: 4}, 2: {0: 3}}
    assert _ratios(lu) == {0: Fraction(5, 10), 1: Fraction(4, 8), 2: Fraction(5, 10)}
    assert neg.touched == [] and not any(neg.seen)
    assert select_negative_candidates(neg, sorted(neg.touched), 0, 1) == []
    _assert_filled(pd, record, su, lu, neg, totals)

    profits = {1: 4, 2: 3, 3: 1}
    rows = [(0, [(1, 1), (2, 2)]), (0, [(2, 1), (3, 3)]), (1, [(1, 2), (3, 1)])]
    db = database_from_quantities(profits, rows)
    order, _, _ = pipeline(db)
    assert order.boundary == len(order)
    for k in (1, 3, 50):
        assert mine_top_k(db, k)[0] == oracle_top_k(db, k)


def test_fills_with_only_negatives():
    """Views that hold only negatives leave su and lu untouched, record
    nothing and fill neg alone; a database whose one profitable item heads
    only negative extensions matches the oracle."""
    su, lu, neg = _three_arrays(1, 4)
    pd = _projection({0: [([0, 1, 3], [9, -2, -4], 1, 9), ([0, 2], [9, -1], 1, 9)]})
    record = fill_subtree_and_local(pd, su, lu, neg, [16])
    assert record == {} and _occurred_items(lu) == []
    _assert_filled(pd, record, su, lu, neg, [16])
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
    """Seeded random databases at oracle size, a quarter or more of their
    items sold at a loss, dealt into n_periods periods as _dealt deals
    them, so that loss-making rows stay in; draws that leave some period
    unprofitable are skipped."""
    rng = random.Random(seed)
    out = []
    draw = 0
    while len(out) < count:
        draw += 1
        params = GeneratorParams(
            transactions=rng.randint(*transactions),
            items=rng.randint(4, 10),
            periods=1,
            avg_len=rng.randint(2, 5),
            neg_frac=(0.25, 0.3, 0.4)[draw % 3],
            max_qty=rng.randint(1, 5),
            max_profit=rng.randint(1, 10),
            seed=seed * 1000 + draw,
        )
        try:
            db = _dealt(params, n_periods)
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
    per-period rule keeps, over sums taken from the bracket definitions in
    every period, and the miner matches the oracle: keeping one best ratio
    per item for lu and neg, and recording only the su cells at or above
    the fill's cutoff, decides as the periods x items sums would, and the
    periods and negative tails the fills skip change no pick. Where lu is
    filled (the su_prune=False ablation) secondary is the local rule's;
    where it is not (by default), no secondary list is built, and primary
    is drawn from the items that occur in a period the fill walked."""
    databases = _many_period_databases(n_periods, transactions, 6, n_periods)
    sums = {}
    tested = []
    local_tested = []

    def fill_both(pd, su, lu, neg, totals, t_num=0, t_den=1, caps=None):
        kept = fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den, caps)
        su_sums, lu_sums, sums["neg"] = _period_sums(pd)
        last = _last_item(pd)
        if last is None or last < len(su):
            # a negative node's fill leaves su and lu to its positive parent
            sums["su"], sums["lu"] = su_sums, lu_sums
            sums["walked"] = _walked(pd, totals, t_num, t_den, caps)
        sums["totals"] = totals
        return kept

    def split(record, lu, candidates, su_num, lu_num, t_den, totals):
        picked = select_primary_secondary(record, lu, candidates, su_num, lu_num, t_den, totals)
        assert totals is sums["totals"]
        if lu is None:
            walked = sums["walked"]
            secondary = [z for z in candidates if walked & sums["su"].get(z, {}).keys()]
        else:
            rule = sums["lu"]
            secondary = [z for z in candidates if _per_period_rule(rule, z, lu_num, t_den, totals)]
            local_tested.append(len(candidates))
        primary = [z for z in secondary if _per_period_rule(sums["su"], z, su_num, t_den, totals)]
        # with lu None no local test runs and no secondary list is built
        assert picked == (primary, None if lu is None else secondary)
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
    monkeypatch.setattr(search, "select_primary_secondary", split)
    monkeypatch.setattr(search, "select_negative_candidates", negatives)
    for db in databases:
        for k in (3, 25):
            want = oracle_top_k(db, k)
            for flags in ({}, {"su_prune": False}):
                assert mine_top_k(db, k, **flags)[0] == want
    assert sum(tested) > 1000 and sum(local_tested) > 200


@pytest.mark.parametrize(
    "n_periods, transactions", [(30, (40, 240)), (365, (400, 1100))]
)
def test_every_row_cell_is_zero_after_each_fill(monkeypatch, n_periods, transactions):
    """Through whole mining runs, by default and under the su_prune=False
    ablation that fills lu, every row cell is zero when a fill returns, so
    the next fill starts from a clean row without a reset; each fill lists
    each item it saw once, and its record holds exactly the subtree sums
    from the bracket definitions that reach its cutoff in the periods it
    walked. A negative node's fill, handed lu None, writes neg alone,
    records nothing and leaves the su row as it was."""
    databases = _many_period_databases(n_periods, transactions, 6, n_periods)
    fills = []
    capped = []
    negative_fills = 0

    def fill_both(pd, su, lu, neg, totals, t_num=0, t_den=1, caps=None):
        nonlocal negative_fills
        last = _last_item(pd)
        if last is not None and last >= len(su):
            assert lu is None
            positives = _positive_state(su, lu)
            kept = fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den, caps)
            assert kept == {} and _positive_state(su, lu) == positives
            _assert_neg_filled(pd.views, su, lu, neg)
            fills.append(len(neg.touched))
            negative_fills += 1
            return kept
        kept = fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den, caps)
        walked = _walked(pd, totals, t_num, t_den, caps)
        tails = _walked_tails(pd, totals, t_num, t_den, caps)
        _assert_filled(pd, kept, su, lu, neg, totals, (t_num, t_den), tails, walked)
        fills.append(len(kept))
        capped.append(len(pd.periods) - len(walked))
        return kept

    monkeypatch.setattr(search, "fill_subtree_and_local", fill_both)
    for db in databases:
        for k in (3, 25):
            for flags in ({}, {"su_prune": False}):
                mine_top_k(db, k, **flags)
    assert len(fills) > 100 and max(fills) > 1
    assert sum(capped) > 0 and negative_fills > 0


def _walked(pd, totals, t_num, t_den, caps=None):
    """The periods a fill at cutoff t_num/t_den walks: those whose cell in
    caps reaches the cutoff (a period absent from caps reads 0), or every
    period without caps or at t_num zero."""
    return {
        p
        for p in pd.periods
        if caps is None or not t_num or caps.get(p, 0) * t_den >= t_num * totals[p]
    }


def _walked_tails(pd, totals, t_num, t_den, caps=None):
    """The periods whose negative tails a fill at cutoff t_num/t_den walks:
    those it walks where the node's own utility reaches the cutoff, or
    every period at t_num zero."""
    walked = _walked(pd, totals, t_num, t_den, caps)
    return {
        p
        for p, u in zip(pd.periods, pd.utilities)
        if p in walked and (not t_num or u * t_den >= t_num * totals[p])
    }


def _dealt(params, n_periods):
    """The generated rows dealt into n_periods periods: rows of positive
    total go round the periods in turn, and every other row joins the
    period whose total is largest at that moment."""
    totals = [0] * n_periods
    lines = []
    dealt = 0
    for line in generate(params).splitlines():
        items, tu, utils, _ = line.split(":")
        if int(tu) > 0:
            h = dealt % n_periods
            dealt += 1
        else:
            h = totals.index(max(totals))
        totals[h] += int(tu)
        lines.append(f"{items}:{tu}:{utils}:{h}")
    return parse_database("\n".join(lines) + "\n")


def _chain_databases(corpus, n_periods):
    """Mixed-sign databases over n_periods periods: corpus members merged
    into one period, or generated rows dealt two to three a period."""
    if n_periods == 1:
        return [reassign_periods(db, 1) for db in corpus[:60]]
    rng = random.Random(n_periods)
    out = []
    for seed in range(1, 11):
        params = GeneratorParams(
            transactions=rng.randint(2 * n_periods, 3 * n_periods),
            items=rng.randint(6, 14),
            periods=1,
            avg_len=rng.randint(3, 6),
            neg_frac=(0.2, 0.4)[seed % 2],
            seed=seed,
        )
        try:
            out.append(_dealt(params, n_periods))
        except NonPositivePeriodTotal:
            continue
    return out


def _cutoffs_that_occur(rng, pd, totals, record, lu, neg):
    """Up to six positive thresholds from ratios that occur at the node:
    its own utility over each period's total, and the best ratios an
    ungated fill left in its record, lu and neg."""
    ratios = {Fraction(u, totals[p]) for p, u in zip(pd.periods, pd.utilities)}
    ratios |= set(_record_ratios(record, totals).values()) | set(_ratios(lu).values())
    ratios |= set(_ratios(neg).values())
    ratios.discard(0)
    return rng.sample(sorted(ratios), min(6, len(ratios)))


@pytest.mark.parametrize("n_periods", [1, 30, 365])
def test_gated_fill_of_a_positive_node_decides_as_the_ungated_one(corpus, n_periods):
    """Along random chains of positive items, from the root down, a fill
    that skips the negative tails of the periods where the node's own
    utility is below the cutoff records the ungated fill's cells from the
    cutoff up, leaves lu as the ungated fill does, selects the same
    positives and negatives at that cutoff, and leaves every row cell
    zero. Every negative bracket of a node whose prefix utilities are at
    least zero is at most that prefix utility, so a skipped period holds
    no negative that reaches the cutoff."""
    rng = random.Random(4242 + n_periods)
    gated = skipped = 0
    for db in _chain_databases(corpus, n_periods):
        order, working, root = pipeline(db)
        totals = working.period_totals
        n, boundary = len(order), order.boundary
        arrays = _miner_arrays(db, working)  # reused: each fill leaves stale ratios
        ungated = _miner_arrays(db, working)
        pd = root
        for _ in range(4):
            full = fill_subtree_and_local(pd, *ungated, totals)
            for cut in _cutoffs_that_occur(rng, pd, totals, full, *ungated[1:]):
                t_num, t_den = cut.numerator, cut.denominator
                su, lu, neg = arrays
                record = fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den)
                assert record == _at_cutoff(full, totals, cut)
                assert _live(record, su, lu, neg)[1] == _live(full, *ungated)[1]
                _assert_neg_filled(pd.views, su, lu, neg, _walked_tails(pd, totals, t_num, t_den))
                cutoffs = (t_num, t_num, t_den, totals)
                want = select_primary_secondary(full, ungated[1], sorted(full), *cutoffs)
                got = select_primary_secondary(record, lu, sorted(record), *cutoffs)
                # the gated record holds the items with a cell at the cutoff;
                # the ungated one lists every item that occurred
                assert got == (want[0], [z for z in want[1] if z in record])
                # without lu, no secondary list is built, and primary is the
                # same: su <= lu cell by cell
                assert select_primary_secondary(record, None, sorted(record), *cutoffs) == (
                    want[0], None
                )
                want = select_negative_candidates(ungated[2], range(boundary, n), t_num, t_den)
                assert select_negative_candidates(neg, range(boundary, n), t_num, t_den) == want
                skipped += len(ungated[2].touched) - len(neg.touched)
                gated += 1
            # descend to a positive item some view still holds
            held = sorted(
                {z for items, _, off, _, _ in pd.views for z in items[off:] if z < boundary}
            )
            if not held:
                break
            pd = project(pd, rng.choice(held))
    assert gated > 100 and skipped > 50


def test_search_fills_a_negative_node_ungated():
    """A negative node's prefix utilities can be negative, so its own
    utility bounds none of its brackets. Here {a, n1} loses 1 in its only
    period while the row that also holds n2 keeps a bracket of 8, enough
    for {a, n1, n2} to rank among the best five; a fill of {a, n1} gated
    on its own utility would skip that row."""
    a, b, c, n1, n2 = 3, 1, 2, 4, 5
    profits = {a: 10, b: 1, c: 1, n1: -1, n2: -1}
    rows = [
        (0, [(a, 1), (n1, 1), (n2, 1)]),  # {a, n1} 9, {a, n1, n2} 8
        (0, [(a, 1), (n1, 20)]),          # {a, n1} -10
        (0, [(b, 1)]),
        (0, [(c, 1)]),
        (0, [(b, 1), (c, 1)]),
        (0, [(b, 10), (n2, 1)]),          # ties n2's TWU with n1's: n1 first
    ]
    db = database_from_quantities(profits, rows)
    order, _, _ = pipeline(db)
    assert order.position[n1] < order.position[n2]
    fills = []

    def fill(pd, su, lu, neg, totals, t_num=0, t_den=1, caps=None):
        fills.append((pd.utilities, t_num))
        return fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den, caps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "fill_subtree_and_local", fill)
        mined, _ = mine_top_k(db, 5)
    assert mined == oracle_top_k(db, 5)
    assert (a, n1, n2) in [p.items for p in mined]
    # {a}, a positive node, is filled at the risen cutoff; {a, n1} at zero
    assert ([20], 2) in fills
    assert ([-1], 0) in fills


def test_gate_tests_each_period_not_the_node_overall():
    """A positive node worth 7/110 overall, below the cutoff 1/4, is worth
    6/10 in period 0, where negative 2's bracket of 5/10 reaches the
    cutoff: only the per-period test keeps it. Period 1 (1/100) is
    skipped, and negative 3 there goes unlisted."""
    totals = [10, 100]
    pd = _projection({0: [([0, 2], [6, -1], 1, 6)], 1: [([1, 3], [2, -1], 0, 1)]})
    assert pd.utilities == [6, 1]
    su, lu, neg = _three_arrays(2, 4)
    record = fill_subtree_and_local(pd, su, lu, neg, totals, 1, 4)
    assert _ratios(neg) == {2: Fraction(5, 10)} and neg.touched == [2]
    assert select_negative_candidates(neg, [2, 3], 1, 4) == [2]
    _assert_filled(pd, record, su, lu, neg, totals, (1, 4), tails={0})
    ungated = _three_arrays(2, 4)
    full = fill_subtree_and_local(pd, *ungated, totals)
    assert full == {1: {1: 3}}  # 3/100, below the cutoff
    assert record == _at_cutoff(full, totals, Fraction(1, 4)) == {}
    assert _live(record, su, lu, neg)[1] == _live(full, *ungated)[1]
    assert _ratios(ungated[2]) == {2: Fraction(5, 10), 3: 0}


def _cap_cutoffs(rng, pd, totals, caps, full, ungated, floor):
    """Cutoffs for a capped fill, none below floor, the cutoff of the
    parent's fill that recorded caps: up to six ratios that occur at the
    node (_cutoffs_that_occur, from the ungated fill's record full and
    arrays), up to four of its cap ratios caps[p] / totals[p] (equality
    keeps a period), and one above every cap ratio, which skips every
    period."""
    cuts = _cutoffs_that_occur(rng, pd, totals, full, *ungated[1:])
    ratios = sorted({Fraction(cell, totals[p]) for p, cell in caps.items()})
    cuts += rng.sample(ratios, min(4, len(ratios)))
    cuts.append(max(ratios, default=floor) + Fraction(1, max(totals)))
    return [cut for cut in cuts if cut >= floor]


@pytest.mark.parametrize("n_periods", [1, 30, 365])
def test_capped_fill_decides_as_the_uncapped_one(corpus, n_periods):
    """Along random chains of positive items, from the root down, each node
    P is filled at a cutoff no lower than its parent's, handed its
    parent's record as caps, and its own record caps the child X = P + {z}
    (an empty dict where z's cell reached the cutoff in no period). At
    every cutoff from P's up, X's capped fill skips whole the periods its
    caps leave out or hold below the cutoff, and still selects the same
    primaries and negatives as a fill with no gate at all, leaving every
    row cell zero. Every bracket of X in period p is at most prefix_X + the
    positive remaining after z in its view, and those sum to su_P,p(z),
    P's cell: a left-out cell was below P's cutoff, which is at most X's.
    So no subtree cell of the ungated fill reaches the cutoff in a skipped
    period, and the capped record holds exactly the ungated cells at the
    cutoff in the periods it walked; an item the capped record leaves out
    has no ungated cell at the cutoff, and is never primary. The local
    test agrees on every item both records hold. A selection handed no lu,
    as by default, builds no secondary list and picks as one at a zero
    local cutoff."""
    rng = random.Random(5353 + n_periods)
    capped = tested = dropped = 0
    for db in _chain_databases(corpus, n_periods):
        order, working, root = pipeline(db)
        totals = working.period_totals
        n, boundary = len(order), order.boundary
        arrays = _miner_arrays(db, working)  # reused: each fill leaves stale ratios
        ungated = _miner_arrays(db, working)
        pd, caps, floor = root, None, Fraction(0)
        for _ in range(4):
            held = sorted(
                {z for items, _, off, _, _ in pd.views for z in items[off:] if z < boundary}
            )
            if not held:
                break
            # P's cutoff: a subtree cell ratio of P from the lower half of
            # those at or above its parent's cutoff
            cells = sorted(
                {Fraction(s, totals[p]) for by in _period_sums(pd)[0].values()
                 for p, s in by.items() if s > 0 and Fraction(s, totals[p]) >= floor}
            )
            floor = rng.choice(cells[: len(cells) // 2 + 1]) if cells else floor
            kept = fill_subtree_and_local(
                pd, *arrays, totals, floor.numerator, floor.denominator, caps
            )
            z = rng.choice(held)
            pd = project(pd, z)
            caps = kept.get(z, {})
            full = fill_subtree_and_local(pd, *ungated, totals)
            for cut in _cap_cutoffs(rng, pd, totals, caps, full, ungated, floor):
                t_num, t_den = cut.numerator, cut.denominator
                su, lu, neg = arrays
                record = fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den, caps)
                walked = _walked(pd, totals, t_num, t_den, caps)
                tails = _walked_tails(pd, totals, t_num, t_den, caps)
                _assert_filled(pd, record, su, lu, neg, totals, (t_num, t_den), tails, walked)
                assert not any(
                    p not in walked and Fraction(cell, totals[p]) >= cut
                    for cells in full.values()
                    for p, cell in cells.items()
                )
                for lu_num in (t_num, 0):
                    cutoffs = (t_num, lu_num, t_den, totals)
                    got = select_primary_secondary(record, lu, sorted(record), *cutoffs)
                    want = select_primary_secondary(full, ungated[1], sorted(full), *cutoffs)
                    assert got[0] == want[0]
                    assert got[1] == [y for y in want[1] if y in record]
                    if not lu_num:
                        # without lu, the selection picks as at a zero local cutoff
                        assert select_primary_secondary(record, None, sorted(record), *cutoffs) == (
                            got[0], None
                        )
                for y in full.keys() - record.keys():
                    assert _at_cutoff({y: full[y]}, totals, cut) == {}
                    dropped += 1
                want = select_negative_candidates(ungated[2], range(boundary, n), t_num, t_den)
                assert select_negative_candidates(neg, range(boundary, n), t_num, t_den) == want
                capped += len(pd.periods) - len(walked)
                tested += 1
    assert tested > 100 and capped > 50 and dropped > 0


def test_cap_skips_a_period_the_tail_gate_would_walk():
    """Node {0} in periods 0 and 1 (totals 10 and 100), cutoff 1/4, capped
    by the root's cells for item 0, {0: 9, 1: 5}. In period 1 the node's
    own utility, 2, is below the cutoff (2/100), so the tail gate alone
    skips only the negative tails there and still walks the positives; the
    cap, 5/100, skips the period whole, as it does where the root left
    period 1 out of its record. Item 2 sells only in period 1: the capped
    fill never lists it, yet every selection equals the ungated one."""
    totals = [10, 100]
    caps = {0: 9, 1: 5}
    pd = _projection({
        0: [([0, 1, 3], [6, 3, -1], 1, 6)],
        1: [([0, 1, 2], [1, 1, 1], 1, 1), ([0, 2, 3], [1, 1, -1], 1, 1)],
    })
    assert _parent_cells(pd) == caps
    assert pd.utilities == [6, 2]
    t_num, t_den = 1, 4

    gated = _three_arrays(3, 4)
    gated_record = fill_subtree_and_local(pd, *gated, totals, t_num, t_den)
    assert gated_record == {1: {0: 9}}
    assert _occurred_items(gated[1]) == [1, 2] and gated[2].touched == [3]
    _assert_filled(pd, gated_record, *gated, totals, (t_num, t_den), tails={0})

    su, lu, neg = _three_arrays(3, 4)
    record = fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den, caps)
    assert record == {1: {0: 9}} and _occurred_items(lu) == [1]
    assert _ratios(lu) == {1: Fraction(9, 10)}
    assert _ratios(neg) == {3: Fraction(5, 10)}
    _assert_filled(pd, record, su, lu, neg, totals, (t_num, t_den), tails={0}, walked={0})

    ungated = _three_arrays(3, 4)
    full = fill_subtree_and_local(pd, *ungated, totals)
    assert full == {1: {0: 9, 1: 3}, 2: {1: 4}}
    assert _record_ratios(full, totals) == {1: Fraction(9, 10), 2: Fraction(4, 100)}
    for lu_num in (t_num, 0):
        cutoffs = (t_num, lu_num, t_den, totals)
        assert select_primary_secondary(record, lu, sorted(record), *cutoffs)[0] == [1]
        assert select_primary_secondary(full, ungated[1], sorted(full), *cutoffs)[0] == [1]
    cutoffs = (t_num, t_num, t_den, totals)
    want = select_primary_secondary(full, ungated[1], sorted(full), *cutoffs)
    assert select_primary_secondary(record, lu, sorted(record), *cutoffs) == want
    for negatives in (neg, gated[2], ungated[2]):
        assert select_negative_candidates(negatives, [3], t_num, t_den) == [3]
    absent = _three_arrays(3, 4)
    absent_record = fill_subtree_and_local(pd, *absent, totals, t_num, t_den, {0: 9})
    assert _live(absent_record, *absent) == _live(record, su, lu, neg)
    # at cutoff zero the cap skips nothing
    record = fill_subtree_and_local(pd, su, lu, neg, totals, 0, t_den, caps)
    assert _live(record, su, lu, neg) == _live(full, *ungated)


def test_cap_applies_to_a_positive_node_with_no_children_to_select():
    """Node {0} with no later secondary item, in periods 0 and 1 (totals
    10 and 100), cutoff 1/4, capped by the root's cells for item 0,
    {0: 6, 1: 5}. Its only negative, 3, sells in period 1 alone, beside
    positive 1, which is not secondary there. The node's own utility there, 4/100, makes the tail
    gate skip 3's tail but still walk 1; the cap, 5/100, skips period 1
    whole: neither item is listed, and the negative selection equals the
    ungated one."""
    totals = [10, 100]
    caps = {0: 6, 1: 5}
    pd = _projection({0: [([0], [6], 1, 6)], 1: [([0, 1, 3], [4, 1, -1], 1, 4)]})
    assert _parent_cells(pd) == caps
    t_num, t_den = 1, 4
    su, lu, neg = _three_arrays(2, 4)
    record = fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den, caps)
    assert record == {} and _occurred_items(lu) == [] and neg.touched == []
    _assert_filled(pd, record, su, lu, neg, totals, (t_num, t_den), tails={0}, walked={0})

    gated = _three_arrays(2, 4)
    assert fill_subtree_and_local(pd, *gated, totals, t_num, t_den) == {}
    assert _occurred_items(gated[1]) == [1] and gated[2].touched == []

    ungated = _three_arrays(2, 4)
    full = fill_subtree_and_local(pd, *ungated, totals)
    assert _record_ratios(full, totals) == {1: Fraction(5, 100)}
    assert _ratios(ungated[2]) == {3: Fraction(3, 100)}
    for negatives in (neg, ungated[2]):
        assert select_negative_candidates(negatives, [3], t_num, t_den) == []


def _parent_cells(pd):
    """Per period, the subtree sum su_P,p(z) of the node X = P + {z} in its
    parent P, from X's own views, which are P's views holding z: each adds
    prefix_X = prefix_P + u(z), plus the positive utility after z."""
    cells = {}
    for items, utils, off, prefix, p in pd.views:
        cells[p] = cells.get(p, 0) + prefix + sum(u for u in utils[off:] if u > 0)
    return cells


def test_search_caps_each_positive_child_by_its_parents_record(monkeypatch):
    """Through whole mining runs, every fill returns its record: for each
    positive item z, in each period p the fill walked where z's subtree sum
    reaches the cutoff, that sum su_P,p(z) from the bracket definitions,
    and nothing else. At cutoff zero that is every sum, and a negative
    node's record is empty. Each recorded cell is at most z's period TWU,
    TWU_p({z}), so the record skips at least what z's TWU row would. Every
    positive child X = P + {z} is handed P's cells for z, checked against
    X's own views, with every period left out below X's cutoff; the root
    and negative children are handed none. With the subtree rule off every
    cutoff is zero, and the caps hold every period the child sells in."""
    databases = _many_period_databases(30, (40, 240), 6, 30)
    miners = []
    current = {}
    handed = {True: 0, False: 0}
    recorded = 0
    original = _Miner.search

    def searched(self, root, stats):
        miners.append(self)
        return original(self, root, stats)

    def fill(pd, su, lu, neg, totals, t_num=0, t_den=1, caps=None):
        nonlocal recorded
        miner = miners[-1]
        last = _last_item(pd)
        if last is None or last >= miner.boundary:
            assert caps is None
        else:
            cells = _parent_cells(pd)
            assert caps.keys() <= cells.keys()
            assert all(caps[p] == cells[p] for p in caps)
            assert all(cells[p] * t_den < t_num * totals[p] for p in cells.keys() - caps.keys())
            handed[miner.su_prune] += 1
        kept = fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den, caps)
        assert kept == _recorded(pd, totals, t_num, t_den, _walked(pd, totals, t_num, t_den, caps))
        for z, cells in kept.items():
            row = current["twu"][miner.ext_id[z]]
            assert all(cell <= row[p] for p, cell in cells.items())
        recorded += len(kept)
        return kept

    monkeypatch.setattr(_Miner, "search", searched)
    monkeypatch.setattr(search, "fill_subtree_and_local", fill)
    for db in databases:
        current["twu"] = _twu(db)
        for k in (3, 25):
            for flags in ({}, {"su_prune": False}):
                mined, _ = mine_top_k(db, k, **flags)
                assert mined == oracle_top_k(db, k)
    # each capped child's cells come from one record
    assert handed[True] > 200 and handed[False] > 200
    assert recorded >= handed[True] + handed[False]


def test_default_search_fills_no_local_bound(monkeypatch, corpus):
    """Every fill and positive selection of a whole run is handed lu None,
    by default, with the local rule off and with both rules off; only the
    su_prune=False ablation, where the local rule is the only positive
    rule, hands the fills of the root and of positive nodes, and the
    positive selections, an lu array. A negative node's fill is always
    handed None, since every fill starts the lu it is handed and the
    deferred selection of the positive parent still reads lu. Wherever the
    subtree rule is on, lu changes no pick, so filling it is wasted."""
    handed = []

    def fill(pd, su, lu, neg, totals, t_num=0, t_den=1, caps=None):
        last = _last_item(pd)
        handed.append((last is not None and last >= len(su), lu))
        return fill_subtree_and_local(pd, su, lu, neg, totals, t_num, t_den, caps)

    def split(record, lu, *args):
        handed.append((False, lu))
        return select_primary_secondary(record, lu, *args)

    monkeypatch.setattr(search, "fill_subtree_and_local", fill)
    monkeypatch.setattr(search, "select_primary_secondary", split)
    for flags, filled in (
        ({}, False),
        ({"lu_prune": False}, False),
        ({"su_prune": False, "lu_prune": False}, False),
        ({"su_prune": False}, True),
    ):
        handed.clear()
        for db in corpus[:20]:
            mine_top_k(db, 5, **flags)
        assert len(handed) > 40, flags
        assert any(negative for negative, _ in handed), flags
        if filled:
            assert all(
                (lu is None) if negative else isinstance(lu, BoundArray)
                for negative, lu in handed
            ), flags
            assert len({id(lu) for _, lu in handed if lu is not None}) == 20  # one array per run
        else:
            assert all(lu is None for _, lu in handed), flags
