"""Pruning bounds: equivalence with the definitional forms, soundness of the
clipped negative bracket, and candidate selection."""

import copy
import itertools
import random
from fractions import Fraction

import pytest
from conftest import pipeline

from topshelf import search
from topshelf.bench import reassign_periods
from topshelf.bounds import (
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


def _miner_rows(db, working):
    """The su and neg scratch rows a run over db's working database uses."""
    miner = _miner(db, working)
    return miner.su, miner.neg


def _last_item(pd):
    """The dense last item of pd's node, None at the root: every view of a
    child holds that item just before its offset, and the root's views
    start at offset zero."""
    items, _, off, _, _ = pd.views[0]
    return items[off - 1] if off else None


def _record_ratios(record, totals):
    """The best ratio of each recorded item over its recorded cells: after
    a fill at cutoff zero, the best ratio of every item that occurred."""
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


# A fill returns (record, negatives): the positive record, of subtree sums
# or, where the fill is local, of local sums, and the negative record.
SU, NEG = range(2)


def _recorded(pd, totals, t_num=0, t_den=1, walked=None, bound="su"):
    """The record of one bound ("su", "lu" or "neg") a fill of pd at cutoff
    t_num/t_den must return, from the bracket definitions: each item's sums
    that reach the cutoff times their period's total, in the periods the
    fill walked (walked, None for every period)."""
    return _at_cutoff(
        {
            z: {p: s for p, s in by_period.items() if walked is None or p in walked}
            for z, by_period in _period_sums(pd)[bound].items()
        },
        totals,
        Fraction(t_num, t_den),
    )


def _best(db, bound):
    """max over the database's periods h of Fraction(bound(h), total_h):
    the best ratio a fill's cells must reach, from a definitional
    per-period bound."""
    return max(Fraction(bound(h), db.period_totals[h]) for h in db.periods)


def _assert_filled(
    pd, records, su, neg, totals, cut=(0, 1), tails=None, walked=None, local=False
):
    """After a fill of the root or of a positive node at cutoff cut every
    row cell is zero, the positive record holds exactly the subtree sums,
    or where the fill is local the local sums, that reach the cutoff in the
    periods the fill walked (walked), and the neg record the clipped sums
    that reach the cutoff in the periods whose tails the fill walked
    (tails); None stands for every period."""
    assert records[SU] == _recorded(pd, totals, *cut, walked, "lu" if local else "su")
    _assert_neg_filled(pd, records, su, neg, totals, cut, tails)


def _assert_neg_filled(pd, records, su, neg, totals, cut=(0, 1), tails=None):
    """After any fill every row cell is zero, and the neg record holds, from
    the bracket definitions, the clipped sums that reach the cutoff cut in
    the periods whose tails the fill walked (tails, None for every period),
    clipped zeros included at cutoff zero."""
    assert not any(su) and not any(neg)
    assert records[NEG] == _recorded(pd, totals, *cut, tails, "neg")


def _assert_bounds_match_definitions(db, order, prefix, first, records, totals, local=False):
    """Each item from dense index first on holds, as its best recorded cell
    ratio (in the positive record for a positive, the neg record for a
    negative), the best ratio of the definitional per-period bound: the
    local bound for a positive where the fill is local, the subtree bound
    otherwise, clipped for negatives; an item that did not occur has a zero
    bound in every period. records come from a fill at cutoff zero."""
    su_ratios, neg_ratios = (_record_ratios(record, totals) for record in records)
    for z in range(first, len(order)):
        z_ext = order.sequence[z]
        ratios = su_ratios if z < order.boundary else neg_ratios
        if local and z < order.boundary:
            want = _best(db, lambda h: local_bound(db, prefix, z_ext, h, order.position))
        else:
            want = _best(
                db, lambda h: subtree_bound(db, prefix, z_ext, h, order.position, clip=True)
            )
        assert ratios.get(z, 0) == want, (prefix, z_ext, local)


def test_root_bounds_match_definitions(corpus):
    """The root's fill at cutoff zero records every item, its subtree sums
    by default and its local sums where the fill is local, over the same
    keys."""
    for db in corpus[:30]:
        order, working, root = pipeline(db, merge=False)
        su, neg = _miner_rows(db, working)
        totals = working.period_totals
        assert len(su) == order.boundary
        assert len(neg) == len(order)  # indexed by dense item
        keys = []
        for local in (False, True):
            records = fill_subtree_and_local(root, su, neg, totals, local=local)
            _assert_filled(root, records, su, neg, totals, local=local)
            assert sorted(records[SU]) + sorted(records[NEG]) == list(range(len(order)))
            _assert_bounds_match_definitions(db, order, (), 0, records, totals, local)
            keys.append(records[SU].keys())
        assert keys[0] == keys[1]


def test_depth_one_bounds_match_definitions(corpus):
    # unmerged views are the original transactions, so the per-view clipped
    # fill must equal the per-transaction definitional form exactly; the
    # local fill records the local sums of the same items
    rng = random.Random(8181)
    for db in corpus[:30]:
        order, working, root = pipeline(db, merge=False)
        if order.boundary == 0:
            continue
        z0 = rng.randrange(order.boundary)
        pd = project(root, z0)
        su, neg = _miner_rows(db, working)
        totals = working.period_totals
        prefix = (order.sequence[z0],)
        keys = []
        for local in (False, True):
            records = fill_subtree_and_local(pd, su, neg, totals, local=local)
            _assert_filled(pd, records, su, neg, totals, local=local)
            _assert_bounds_match_definitions(db, order, prefix, z0 + 1, records, totals, local)
            keys.append(records[SU].keys())
        assert keys[0] == keys[1]


def _subtree_ratios(records, totals):
    """The best recorded cell ratio of each item in a fill's su and neg
    records: its best subtree ratio, clipped for a negative."""
    return _record_ratios(records[SU], totals) | _record_ratios(records[NEG], totals)


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
        records = fill_subtree_and_local(pd, *_miner_rows(db, working), working.period_totals)
        ratios = _subtree_ratios(records, working.period_totals)
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
            records = fill_subtree_and_local(pd, *_miner_rows(db, working), working.period_totals)
            ratios = _subtree_ratios(records, working.period_totals)
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


def _assert_neg_matches_definitions(db, order, prefix, first, negatives, totals):
    """Each negative from dense index first on holds, as its best cell
    ratio in the neg record, the best ratio of the clipped definitional sum;
    one that did not occur has a zero sum in every period. Returns how many
    occurred."""
    ratios = _record_ratios(negatives, totals)
    for z in range(max(first, order.boundary), len(order)):
        z_ext = order.sequence[z]
        want = _best(db, lambda h: subtree_bound(db, prefix, z_ext, h, order.position, clip=True))
        assert ratios.get(z, 0) == want, (prefix, z_ext)
    return sum(z >= first for z in ratios)


def test_negative_tail_fill_matches_definitions(corpus):
    """A positive node's fill records the clipped definitional sums of its
    negatives. So does the fill of a negative child after it, as the search
    makes it; that fill records no positive cell, leaves every row cell
    zero, and leaves the positive fill's records exactly as they were for
    its deferred selection."""
    rng = random.Random(2727)
    checked = negative_nodes = 0
    for db in corpus:
        order, working, root = pipeline(db, merge=False)
        if order.boundary == 0 or order.boundary == len(order):
            continue
        z0 = rng.randrange(order.boundary)
        pd = project(root, z0)
        su, neg = _miner_rows(db, working)
        totals = working.period_totals
        records = fill_subtree_and_local(pd, su, neg, totals)
        _assert_filled(pd, records, su, neg, totals)
        prefix = (order.sequence[z0],)
        checked += _assert_neg_matches_definitions(db, order, prefix, z0 + 1, records[NEG], totals)
        if records[NEG]:
            n = rng.choice(sorted(records[NEG]))
            child = project(pd, n)
            positives = copy.deepcopy(records[SU])
            below = fill_subtree_and_local(child, su, neg, totals)
            assert below[SU] == {} and records[SU] == positives
            _assert_neg_filled(child, below, su, neg, totals)
            prefix += (order.sequence[n],)
            _assert_neg_matches_definitions(db, order, prefix, n + 1, below[NEG], totals)
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


def _two_rows(boundary, n_items):
    """Fresh su and neg scratch rows."""
    return [0] * boundary, [0] * n_items


def test_fill_folds_each_period_into_the_records():
    # Positives 0 and 1, negatives 2 and 3; views (items, utilities,
    # offset, prefix utility) in periods 0 and 2 of three.
    su, neg = _two_rows(2, 4)
    totals = [10, 7, 3]
    pd = _projection({0: [([0, 1, 3], [4, 5, -2], 0, 6)], 2: [([1, 2], [3, -9], 0, 6)]})
    records = fill_subtree_and_local(pd, su, neg, totals)
    # period sums, all recorded at cutoff zero: su 15 and 11 in period 0,
    # item 1's 9 in period 2; neg 4 for item 3 in period 0, and item 2's
    # 6 - 9 clipped to 0 in period 2, recorded since it occurred
    first = ({0: {0: 15}, 1: {0: 11, 2: 9}}, {3: {0: 4}, 2: {2: 0}})
    assert records == first
    _assert_filled(pd, records, su, neg, totals)
    # a local fill records the local sums in place of the subtree ones, 15
    # for both items in period 0 and 9 in period 2, and the same negatives
    local = fill_subtree_and_local(pd, su, neg, totals, local=True)
    assert local == ({0: {0: 15}, 1: {0: 15, 2: 9}}, first[NEG])
    _assert_filled(pd, local, su, neg, totals, local=True)

    # the next fill resets nothing and returns records of its own; the first
    # fill's records stay as they were
    pd = _projection({1: [([0, 3], [1, -5], 0, 7)]})
    second = fill_subtree_and_local(pd, su, neg, totals)
    assert second == ({0: {1: 8}}, {3: {1: 2}})
    assert records == first
    _assert_filled(pd, second, su, neg, totals)

    # each period keeps its own cell, tested against its own total: 8/8
    # reaches the threshold 1 and 4/4 ties it, 8/8 alone passes 1 at
    # equality and nothing passes 9/8
    su, neg = _two_rows(1, 4)
    pd = _projection({0: [([0, 3], [9, -1], 1, 9)], 1: [([3], [-2], 0, 6)]})
    negatives = fill_subtree_and_local(pd, su, neg, [8, 4])[NEG]
    assert negatives == {3: {0: 8, 1: 4}}
    assert select_negative_candidates(negatives, [3], 1, 1, [8, 4]) == [3]
    assert select_negative_candidates(negatives, [3], 9, 8, [8, 4]) == []


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


def _live(records, su, neg):
    """What a fill leaves for the search to read, per bound: its record
    and its scratch row."""
    return tuple(zip(records, (su, neg)))


@pytest.mark.parametrize("boundary, n_items", [(3, 6), (100, 200)])
def test_each_fill_clears_what_the_previous_fill_left(boundary, n_items):
    """Filling projection A and then B leaves the rows and records reading
    as fresh rows filled with B alone, although A occupies periods B does
    not; so do local fills."""
    rng = random.Random(boundary)
    totals = [rng.randint(1, 60) for _ in range(4)]
    a = _random_projection(rng, [0, 2, 3], boundary, n_items)
    b = _random_projection(rng, [1, 3], boundary, n_items)
    for local in (False, True):
        reused = _two_rows(boundary, n_items)
        fresh = _two_rows(boundary, n_items)
        fill_subtree_and_local(a, *reused, totals, local=local)
        after_b = fill_subtree_and_local(b, *reused, totals, local=local)
        want = fill_subtree_and_local(b, *fresh, totals, local=local)
        assert _live(after_b, *reused) == _live(want, *fresh)


def test_selection_applies_both_bound_tests():
    """The one positive selection tests whichever bound the fill recorded:
    the subtree cells by default, the local cells where the fill is
    local."""
    # one period of total 10, threshold 1/4; item 2 never occurred, so the
    # records, whose keys are the candidates, hold no cell for it
    totals = [10]
    record = {0: {0: 10}, 1: {0: 2}}
    local_record = {0: {0: 10}, 1: {0: 4}}
    candidates = sorted(record)
    # item 1 fails the subtree test (2/10 < 1/4) and passes the local one
    assert select_primary_secondary(record, totals, candidates, 1, 4) == ([0], None)
    assert select_primary_secondary(local_record, totals, candidates, 1, 4) == ([0, 1], None)
    # at threshold zero every recorded item passes
    assert select_primary_secondary(record, totals, candidates, 0, 1) == ([0, 1], None)
    # a local cell below the cutoff drops the item
    local_record = {0: {0: 2}, 1: {0: 4}}
    assert select_primary_secondary(local_record, totals, candidates, 1, 4) == ([1], None)


def test_selection_degrades_to_occurrence_when_disabled():
    """A rule that is off tests at numerator zero, which every recorded
    item passes, since every bound is at least zero. The fills sum the
    local bound only where it is the only positive rule."""
    totals = [5, 9]
    record = {0: {0: 0}, 2: {1: 0}}
    assert select_primary_secondary(record, totals, sorted(record), 0, 99) == ([0, 2], None)
    assert select_negative_candidates(record, [0, 1, 2], 0, 99, totals) == [0, 2]

    db = parse_database("1 2:5:2 3:0\n2:4:4:1\n")
    working = pipeline(db)[1]
    for su_prune, lu_prune in itertools.product((True, False), repeat=2):
        miner = _miner(db, working, su_prune, lu_prune, Fraction(3, 7))
        assert miner.local == (lu_prune and not su_prune)


def test_selection_boundary_equality_counts():
    record = {0: {0: 5}}
    assert select_primary_secondary(record, [10], [0], 1, 2) == ([0], None)
    assert select_negative_candidates(record, [0], 1, 2, [10]) == [0]
    # each cell is tested against its own period's total: 1/10 fails the
    # threshold 1/4, and 5/20 reaches it in the other period
    record = {0: {0: 1, 1: 5}}
    assert select_primary_secondary(record, [10, 20], [0], 1, 4) == ([0], None)
    assert select_primary_secondary(record, [10, 21], [0], 1, 4) == ([], None)
    assert select_negative_candidates(record, [0], 1, 4, [10, 20]) == [0]
    assert select_negative_candidates(record, [0], 1, 4, [10, 21]) == []


def test_negative_candidate_selection():
    # negatives are items 3..6 of a neg row indexed by dense item
    su, neg = _two_rows(3, 7)
    pd = _projection({0: [([1, 4, 5], [10, -3, -7], 1, 10), ([1, 6], [1, -5], 1, 1)]})
    record, negatives = fill_subtree_and_local(pd, su, neg, [20])
    assert record == {}
    # item 6: 1 - 5 < 0 is clipped, and still occurred
    assert negatives == {5: {0: 3}, 4: {0: 7}, 6: {0: 0}}
    for candidates in (sorted(negatives), range(3, 7)):
        picked = select_negative_candidates(negatives, candidates, 1, 4, [20])
        assert picked == [4]  # 7/20 >= 1/4 > 3/20; item 3 never occurred
        # threshold zero, or the rule off, passes what occurred
        at_zero = select_negative_candidates(negatives, candidates, 0, 4, [20])
        assert at_zero == [4, 5, 6]


def test_negative_listed_again_in_a_period_keeps_its_first_fold():
    """A negative whose first bracket in a period clips to zero keeps cell
    zero, so the fill lists it again at its next view of that period; here
    the later view's bracket is positive. The fold reads the whole period's
    sum at the first listing and zero at the second, and keeps the first:
    a fill at cutoff zero, as of a negative node, records the positive
    cell, and a selection at a positive cutoff picks the item.

    Node {a, m}, a positive and m and n negative, in one period of total
    20: in the first view the prefix is 3 - 8 = -5, so n's bracket -6 clips
    to 0; in the second it is 12 - 2 = 10, and n's bracket is 9."""
    a, m, n = 0, 1, 2
    pd = _projection({0: [([a, m, n], [3, -8, -1], 2, -5), ([a, m, n], [12, -2, -1], 2, 10)]})
    su, neg = _two_rows(1, 3)
    records = fill_subtree_and_local(pd, su, neg, [20])
    assert records == ({}, {n: {0: 9}})
    _assert_neg_filled(pd, records, su, neg, [20])
    assert select_negative_candidates(records[NEG], [n], 1, 4, [20]) == [n]


def test_selection_reads_only_items_the_last_fill_saw():
    """An earlier fill's cells are in its own records: however large, they
    change no pick of a selection over the last fill's records, which hold
    only the items that fill saw, and those are the candidates."""
    su, neg = _two_rows(3, 6)
    totals = [10, 10, 10]
    earlier = _projection({2: [([1, 4], [90, -1], 0, 90)]})
    assert fill_subtree_and_local(earlier, su, neg, totals) == ({1: {2: 180}}, {4: {2: 89}})
    pd = _projection({0: [([0, 3], [8, -1], 0, 0), ([2], [1], 0, 0)]})
    record, negatives = fill_subtree_and_local(pd, su, neg, totals)
    assert record == {0: {0: 8}, 2: {0: 1}}
    assert negatives == {3: {0: 0}}
    # here each local bracket equals the subtree one
    assert fill_subtree_and_local(pd, su, neg, totals, local=True) == (record, negatives)
    assert select_primary_secondary(record, totals, sorted(record), 1, 2) == ([0], None)
    assert select_negative_candidates(negatives, [3, 4], 1, 2, totals) == []


def test_fills_without_kept_negatives():
    """With no kept negatives the fill records no negative, the negative
    selection picks nothing, and mining matches the oracle."""
    su, neg = _two_rows(3, 3)
    totals = [10, 8]
    pd = _projection({0: [([0, 2], [2, 3], 0, 0)], 1: [([1], [4], 0, 0)]})
    records = fill_subtree_and_local(pd, su, neg, totals)
    assert records == ({0: {0: 5}, 1: {1: 4}, 2: {0: 3}}, {})
    assert select_negative_candidates(records[NEG], sorted(records[NEG]), 0, 1, totals) == []
    _assert_filled(pd, records, su, neg, totals)
    local = fill_subtree_and_local(pd, su, neg, totals, local=True)
    assert local == ({0: {0: 5}, 1: {1: 4}, 2: {0: 5}}, {})
    _assert_filled(pd, local, su, neg, totals, local=True)

    profits = {1: 4, 2: 3, 3: 1}
    rows = [(0, [(1, 1), (2, 2)]), (0, [(2, 1), (3, 3)]), (1, [(1, 2), (3, 1)])]
    db = database_from_quantities(profits, rows)
    order, _, _ = pipeline(db)
    assert order.boundary == len(order)
    for k in (1, 3, 50):
        assert mine_top_k(db, k)[0] == oracle_top_k(db, k)


def test_fills_with_only_negatives():
    """Views that hold only negatives record no positive cell, subtree or
    local, and write only neg cells; a database whose one profitable item heads only
    negative extensions matches the oracle."""
    su, neg = _two_rows(1, 4)
    pd = _projection({0: [([0, 1, 3], [9, -2, -4], 1, 9), ([0, 2], [9, -1], 1, 9)]})
    records = fill_subtree_and_local(pd, su, neg, [16])
    assert records == ({}, {3: {0: 5}, 1: {0: 7}, 2: {0: 8}})
    assert fill_subtree_and_local(pd, su, neg, [16], local=True) == records
    _assert_filled(pd, records, su, neg, [16])
    picked = select_negative_candidates(records[NEG], sorted(records[NEG]), 7, 16, [16])
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
    {period: sum}, under "su", "lu" and "neg"."""
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
    return {"su": su, "lu": lu, "neg": neg}


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
    every period, and the miner matches the oracle: recording only the
    positive and neg cells at or above the fill's cutoff decides as the
    periods x items sums would, and the periods and negative tails the
    fills skip change no pick. The positive rule is the subtree rule by
    default and the local rule under the su_prune=False ablation, where the
    fills are local; either way no secondary list is built, and primary is
    drawn from the items that occur in a period the fill walked."""
    databases = _many_period_databases(n_periods, transactions, 6, n_periods)
    sums = {}
    tested = []
    local_tested = []

    def fill_both(pd, su, neg, totals, t_num=0, t_den=1, caps=None, local=False):
        records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps, local)
        bounds = _period_sums(pd)
        sums["neg"] = bounds["neg"]
        last = _last_item(pd)
        if last is None or last < len(su):
            # a negative node's fill leaves the positive sums to its
            # positive parent
            sums["positive"] = bounds["lu" if local else "su"]
            sums["local"] = local
            sums["walked"] = _walked(pd, totals, t_num, t_den, caps)
        sums["totals"] = totals
        return records

    def split(record, totals, candidates, t_num, t_den):
        picked = select_primary_secondary(record, totals, candidates, t_num, t_den)
        assert totals is sums["totals"]
        walked, rule = sums["walked"], sums["positive"]
        primary = [
            z for z in candidates
            if walked & rule.get(z, {}).keys() and _per_period_rule(rule, z, t_num, t_den, totals)
        ]
        assert picked == (primary, None)
        tested.append(len(candidates))
        if sums["local"]:
            local_tested.append(len(candidates))
        return picked

    def negatives(negative_record, candidates, t_num, t_den, totals):
        picked = select_negative_candidates(negative_record, candidates, t_num, t_den, totals)
        assert totals is sums["totals"]
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
    ablation whose fills are local, every row cell is zero when a fill
    returns, so the next fill starts from a clean row without a reset, and
    each record holds exactly the sums from the bracket definitions that
    reach its cutoff in the periods it walked (see _assert_filled): the
    subtree sums by default, the local sums under the ablation. A negative
    node's fill, not local, at cutoff zero and without caps, records no
    positive cell, and every negative that occurred."""
    databases = _many_period_databases(n_periods, transactions, 6, n_periods)
    fills = []
    capped = []
    negative_fills = local_fills = 0

    def fill_both(pd, su, neg, totals, t_num=0, t_den=1, caps=None, local=False):
        nonlocal negative_fills, local_fills
        last = _last_item(pd)
        records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps, local)
        if last is not None and last >= len(su):
            assert not local and t_num == 0 and caps is None
            assert records[SU] == {}
            _assert_neg_filled(pd, records, su, neg, totals)
            fills.append(len(records[NEG]))
            negative_fills += 1
            return records
        walked = _walked(pd, totals, t_num, t_den, caps)
        tails = _walked_tails(pd, totals, t_num, t_den, caps)
        _assert_filled(pd, records, su, neg, totals, (t_num, t_den), tails, walked, local)
        fills.append(len(records[SU]))
        capped.append(len(pd.periods) - len(walked))
        local_fills += local
        return records

    monkeypatch.setattr(search, "fill_subtree_and_local", fill_both)
    for db in databases:
        for k in (3, 25):
            for flags in ({}, {"su_prune": False}):
                mine_top_k(db, k, **flags)
    assert len(fills) > 100 and max(fills) > 1
    assert sum(capped) > 0 and negative_fills > 0 and local_fills > 100


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


def _cutoffs_that_occur(rng, pd, totals, records):
    """Up to six positive thresholds from ratios that occur at the node:
    its own utility over each period's total, and the best cell ratios an
    ungated fill left in its records."""
    ratios = {Fraction(u, totals[p]) for p, u in zip(pd.periods, pd.utilities)}
    for record in records:
        ratios |= set(_record_ratios(record, totals).values())
    ratios.discard(0)
    return rng.sample(sorted(ratios), min(6, len(ratios)))


@pytest.mark.parametrize("n_periods", [1, 30, 365])
def test_gated_fill_of_a_positive_node_decides_as_the_ungated_one(corpus, n_periods):
    """Along random chains of positive items, from the root down, a fill
    that skips the negative tails of the periods where the node's own
    utility is below the cutoff records the ungated fill's positive and neg
    cells from the cutoff up, subtree cells by default and local cells where
    both fills are local, selects the same positives and negatives at that
    cutoff, and leaves every row cell zero. Every negative bracket of a node
    whose prefix utilities are at least zero is at most that prefix utility,
    so a skipped period holds no negative that reaches the cutoff."""
    rng = random.Random(4242 + n_periods)
    gated = skipped = 0
    for db in _chain_databases(corpus, n_periods):
        order, working, root = pipeline(db)
        totals = working.period_totals
        n, boundary = len(order), order.boundary
        rows = _miner_rows(db, working)
        ungated = _miner_rows(db, working)
        pd = root
        for _ in range(4):
            full = fill_subtree_and_local(pd, *ungated, totals)
            local_full = fill_subtree_and_local(pd, *ungated, totals, local=True)[SU]
            for cut in _cutoffs_that_occur(rng, pd, totals, full):
                t_num, t_den = cut.numerator, cut.denominator
                su, neg = rows
                for local, positives in ((True, local_full), (False, full[SU])):
                    records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, None, local)
                    record, negatives = records
                    assert record == _at_cutoff(positives, totals, cut)
                    assert negatives == _at_cutoff(full[NEG], totals, cut)
                    tails = _walked_tails(pd, totals, t_num, t_den)
                    _assert_neg_filled(pd, records, su, neg, totals, (t_num, t_den), tails)
                    # the gated record holds the items with a cell at the
                    # cutoff; the ungated one lists every item that occurred
                    cutoffs = (t_num, t_den)
                    want = select_primary_secondary(positives, totals, sorted(positives), *cutoffs)
                    got = select_primary_secondary(record, totals, sorted(record), *cutoffs)
                    assert got == want
                cutoffs = (t_num, t_den, totals)
                want = select_negative_candidates(full[NEG], range(boundary, n), *cutoffs)
                assert select_negative_candidates(negatives, sorted(negatives), *cutoffs) == want
                skipped += sum(p not in tails for cells in full[NEG].values() for p in cells)
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

    def fill(pd, su, neg, totals, t_num=0, t_den=1, caps=None, local=False):
        fills.append((pd.utilities, t_num))
        return fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps, local)

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
    su, neg = _two_rows(2, 4)
    records = fill_subtree_and_local(pd, su, neg, totals, 1, 4)
    assert records[NEG] == {2: {0: 5}}
    assert select_negative_candidates(records[NEG], [2, 3], 1, 4, totals) == [2]
    _assert_filled(pd, records, su, neg, totals, (1, 4), tails={0})
    full = fill_subtree_and_local(pd, *_two_rows(2, 4), totals)
    assert full[SU] == {1: {1: 3}}  # 3/100, below the cutoff
    assert records[SU] == _at_cutoff(full[SU], totals, Fraction(1, 4)) == {}
    assert full[NEG] == {2: {0: 5}, 3: {1: 0}}
    # item 1's local sum is 3/100 too: a local fill records it at zero only
    assert fill_subtree_and_local(pd, su, neg, totals, local=True)[SU] == {1: {1: 3}}
    assert fill_subtree_and_local(pd, su, neg, totals, 1, 4, local=True) == records


def _cap_cutoffs(rng, pd, totals, caps, full, floor):
    """Cutoffs for a capped fill, none below floor, the cutoff of the
    parent's fill that recorded caps: up to six ratios that occur at the
    node (_cutoffs_that_occur, from the ungated fill's records full), up to
    four of its cap ratios caps[p] / totals[p] (equality keeps a period),
    and one above every cap ratio, which skips every period."""
    cuts = _cutoffs_that_occur(rng, pd, totals, full)
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
    period, and the capped su and neg records hold exactly the ungated
    cells at the cutoff in the periods it walked; an item the capped record
    leaves out has no ungated cell at the cutoff, and is never primary. The
    search makes local fills at cutoff zero only, where caps skip
    nothing."""
    rng = random.Random(5353 + n_periods)
    capped = tested = dropped = 0
    for db in _chain_databases(corpus, n_periods):
        order, working, root = pipeline(db)
        totals = working.period_totals
        n, boundary = len(order), order.boundary
        rows = _miner_rows(db, working)
        ungated = _miner_rows(db, working)
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
                {Fraction(s, totals[p]) for by in _period_sums(pd)["su"].values()
                 for p, s in by.items() if s > 0 and Fraction(s, totals[p]) >= floor}
            )
            floor = rng.choice(cells[: len(cells) // 2 + 1]) if cells else floor
            kept = fill_subtree_and_local(
                pd, *rows, totals, floor.numerator, floor.denominator, caps
            )[SU]
            z = rng.choice(held)
            pd = project(pd, z)
            caps = kept.get(z, {})
            full = fill_subtree_and_local(pd, *ungated, totals)
            for cut in _cap_cutoffs(rng, pd, totals, caps, full, floor):
                t_num, t_den = cut.numerator, cut.denominator
                su, neg = rows
                records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps)
                record, negatives = records
                walked = _walked(pd, totals, t_num, t_den, caps)
                tails = _walked_tails(pd, totals, t_num, t_den, caps)
                _assert_filled(pd, records, su, neg, totals, (t_num, t_den), tails, walked)
                assert record == _at_cutoff(full[SU], totals, cut)
                assert negatives == _at_cutoff(full[NEG], totals, cut)
                got = select_primary_secondary(record, totals, sorted(record), t_num, t_den)
                want = select_primary_secondary(full[SU], totals, sorted(full[SU]), t_num, t_den)
                assert got == want
                for y in full[SU].keys() - record.keys():
                    assert _at_cutoff({y: full[SU][y]}, totals, cut) == {}
                    dropped += 1
                cutoffs = (t_num, t_den, totals)
                want = select_negative_candidates(full[NEG], range(boundary, n), *cutoffs)
                assert select_negative_candidates(negatives, sorted(negatives), *cutoffs) == want
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
    fill never records it, yet every selection equals the ungated one."""
    totals = [10, 100]
    caps = {0: 9, 1: 5}
    pd = _projection({
        0: [([0, 1, 3], [6, 3, -1], 1, 6)],
        1: [([0, 1, 2], [1, 1, 1], 1, 1), ([0, 2, 3], [1, 1, -1], 1, 1)],
    })
    assert _parent_cells(pd) == caps
    assert pd.utilities == [6, 2]
    t_num, t_den = 1, 4

    gated = _two_rows(3, 4)
    gated_records = fill_subtree_and_local(pd, *gated, totals, t_num, t_den)
    assert gated_records == ({1: {0: 9}}, {3: {0: 5}})
    _assert_filled(pd, gated_records, *gated, totals, (t_num, t_den), tails={0})

    su, neg = _two_rows(3, 4)
    records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps)
    assert records == ({1: {0: 9}}, {3: {0: 5}})
    _assert_filled(pd, records, su, neg, totals, (t_num, t_den), tails={0}, walked={0})

    ungated = _two_rows(3, 4)
    full = fill_subtree_and_local(pd, *ungated, totals)
    assert full == ({1: {0: 9, 1: 3}, 2: {1: 4}}, {3: {0: 5, 1: 0}})
    want = select_primary_secondary(full[SU], totals, [1, 2], t_num, t_den)
    assert want == ([1], None)
    assert select_primary_secondary(records[SU], totals, [1], t_num, t_den) == want
    for negatives in (records[NEG], gated_records[NEG], full[NEG]):
        assert select_negative_candidates(negatives, [3], t_num, t_den, totals) == [3]
    absent = _two_rows(3, 4)
    absent_records = fill_subtree_and_local(pd, *absent, totals, t_num, t_den, {0: 9})
    assert _live(absent_records, *absent) == _live(records, su, neg)
    # at cutoff zero the cap skips nothing, for a local fill too
    records = fill_subtree_and_local(pd, su, neg, totals, 0, t_den, caps)
    assert _live(records, su, neg) == _live(full, *ungated)
    local = fill_subtree_and_local(pd, *ungated, totals, local=True)
    assert local == ({1: {0: 9, 1: 3}, 2: {1: 5}}, full[NEG])
    records = fill_subtree_and_local(pd, su, neg, totals, 0, t_den, caps, True)
    assert _live(records, su, neg) == _live(local, *ungated)


def test_cap_applies_to_a_positive_node_with_no_children_to_select():
    """Node {0} with no later secondary item, in periods 0 and 1 (totals
    10 and 100), cutoff 1/4, capped by the root's cells for item 0,
    {0: 6, 1: 5}. Its only negative, 3, sells in period 1 alone, beside
    positive 1, which is not secondary there. The node's own utility there,
    4/100, makes the tail gate skip 3's tail but still walk 1; the cap,
    5/100, skips period 1 whole: neither item is recorded, and the negative
    selection equals the ungated one."""
    totals = [10, 100]
    caps = {0: 6, 1: 5}
    pd = _projection({0: [([0], [6], 1, 6)], 1: [([0, 1, 3], [4, 1, -1], 1, 4)]})
    assert _parent_cells(pd) == caps
    t_num, t_den = 1, 4
    su, neg = _two_rows(2, 4)
    records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps)
    assert records == ({}, {})
    _assert_filled(pd, records, su, neg, totals, (t_num, t_den), tails={0}, walked={0})

    gated = fill_subtree_and_local(pd, *_two_rows(2, 4), totals, t_num, t_den)
    assert gated == ({}, {})

    full = fill_subtree_and_local(pd, *_two_rows(2, 4), totals)
    assert full == ({1: {1: 5}}, {3: {1: 3}})
    for negatives in (records[NEG], full[NEG]):
        assert select_negative_candidates(negatives, [3], t_num, t_den, totals) == []


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
    cutoff is zero and the fills are local: each record holds the local
    sums, also at most TWU_p({z}), and the caps, P's local cells for z,
    hold every period the child sells in, each at least the child's
    subtree cell there."""
    databases = _many_period_databases(30, (40, 240), 6, 30)
    miners = []
    current = {}
    handed = {True: 0, False: 0}
    recorded = 0
    original = _Miner.search

    def searched(self, root, stats):
        miners.append(self)
        return original(self, root, stats)

    def fill(pd, su, neg, totals, t_num=0, t_den=1, caps=None, local=False):
        nonlocal recorded
        miner = miners[-1]
        last = _last_item(pd)
        positive = last is None or last < miner.boundary
        assert local == (positive and not miner.su_prune)
        if last is None or last >= miner.boundary:
            assert caps is None
        else:
            cells = _parent_cells(pd)
            assert caps.keys() <= cells.keys()
            if local:
                assert t_num == 0 and caps.keys() == cells.keys()
                assert all(caps[p] >= cells[p] for p in caps)
            else:
                assert all(caps[p] == cells[p] for p in caps)
            assert all(cells[p] * t_den < t_num * totals[p] for p in cells.keys() - caps.keys())
            handed[miner.su_prune] += 1
        records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps, local)
        kept = records[SU]
        walked = _walked(pd, totals, t_num, t_den, caps)
        assert kept == _recorded(pd, totals, t_num, t_den, walked, "lu" if local else "su")
        for z, cells in kept.items():
            row = current["twu"][miner.ext_id[z]]
            assert all(cell <= row[p] for p, cell in cells.items())
        recorded += len(kept)
        return records

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
    """No fill of a whole run is local by default, with the local rule off
    or with both rules off; only the su_prune=False ablation, where the
    local rule is the only positive rule, makes the fills of the root and
    of positive nodes local, and each positive selection then tests the
    local record of the fill that returned it. A negative node's fill is
    never local: its views hold no positive item. Each run fills one su
    row. Wherever the subtree rule is on, the local bound changes no pick,
    so summing it would be wasted."""
    handed = []
    local_of = {}  # id of a fill's positive record -> whether the fill was local

    def fill(pd, su, neg, totals, t_num=0, t_den=1, caps=None, local=False):
        last = _last_item(pd)
        records = fill_subtree_and_local(pd, su, neg, totals, t_num, t_den, caps, local)
        kind = "negative fill" if last is not None and last >= len(su) else "fill"
        handed.append((kind, local, su))
        local_of[id(records[SU])] = local
        return records

    def split(record, *args):
        handed.append(("selection", local_of[id(record)], None))
        return select_primary_secondary(record, *args)

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
        kinds = {kind for kind, _, _ in handed}
        assert len(handed) > 40 and kinds == {"negative fill", "fill", "selection"}, flags
        want = {"negative fill": False, "fill": filled, "selection": filled}
        assert all(local == want[kind] for kind, local, _ in handed), flags
        rows = {id(row) for kind, _, row in handed if kind == "fill"}
        assert len(rows) == 20  # one row per run
