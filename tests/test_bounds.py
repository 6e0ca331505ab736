"""Pruning bounds: equivalence with the definitional forms, soundness of the
clipped negative bracket, and candidate selection."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import pipeline

from topshelf.bench import reassign_periods
from topshelf.bounds import (
    SPARSE_RESET_SHARE,
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


def _external(order, dense_items):
    return tuple(sorted(order.sequence[d] for d in dense_items))


def _miner_arrays(working):
    """The su, lu and neg arrays a run over this working database uses."""
    miner = _Miner(working, TopKCollector(1, Fraction(0)), su_prune=True, lu_prune=True)
    return miner.su, miner.lu, miner.neg


def _subtree_cell(su, neg, z, p):
    """Subtree bound of dense item z in period row p: su holds the
    positives, neg the negatives from its base on."""
    if z < neg.base:
        return su.cells[p][z]
    return neg.cells[p][z - neg.base]


def _assert_record_matches(views, su, lu, neg):
    """The first-touch record lists each item the views hold once, split
    at the boundary; lu shares su's list and keeps no flags."""
    boundary = neg.base
    held = {items[j] for items, _, off, _, _ in views for j in range(off, len(items))}
    assert len(su.touched) == len(set(su.touched))
    assert len(neg.touched) == len(set(neg.touched))
    assert set(su.touched) == {z for z in held if z < boundary}
    assert set(neg.touched) == {z for z in held if z >= boundary}
    assert su.seen == [int(z in held) for z in range(boundary)]
    assert neg.seen == [int(boundary + c in held) for c in range(len(neg.seen))]
    assert lu.touched is su.touched and lu.seen is None


def test_root_bounds_match_definitions(corpus):
    for db in corpus[:30]:
        order, working, root = pipeline(db, merge=False)
        n = len(order)
        su, lu, neg = _miner_arrays(working)
        assert len(su.seen) == order.boundary and neg.base == order.boundary
        assert len(neg.seen) == n - order.boundary
        fill_subtree_and_local(root, su, lu, neg)
        _assert_record_matches(root.views, su, lu, neg)
        for z in range(n):
            z_ext = order.sequence[z]
            for p, h in enumerate(working.period_labels):
                want_su = subtree_bound(db, (), z_ext, h, order.position, clip=True)
                assert _subtree_cell(su, neg, z, p) == want_su, (db, z_ext, h)
                if z < order.boundary:
                    assert lu.cells[p][z] == local_bound(db, (), z_ext, h, order.position)


def test_depth_one_bounds_match_definitions(corpus):
    # unmerged views are the original transactions, so the per-view clipped
    # fill must equal the per-transaction definitional form exactly
    rng = random.Random(8181)
    for db in corpus[:30]:
        order, working, root = pipeline(db, merge=False)
        n = len(order)
        if order.boundary == 0:
            continue
        z0 = rng.randrange(order.boundary)
        pd = project(root, z0)
        su, lu, neg = _miner_arrays(working)
        fill_subtree_and_local(pd, su, lu, neg)
        _assert_record_matches(pd.views, su, lu, neg)
        prefix = (order.sequence[z0],)
        for z in range(z0 + 1, n):
            z_ext = order.sequence[z]
            for p, h in enumerate(working.period_labels):
                want = subtree_bound(db, prefix, z_ext, h, order.position, clip=True)
                assert _subtree_cell(su, neg, z, p) == want, (prefix, z_ext, h)
                if z < order.boundary:
                    want_lu = local_bound(db, prefix, z_ext, h, order.position)
                    assert lu.cells[p][z] == want_lu, (prefix, z_ext, h)


def test_merged_views_tighten_but_never_break_the_bound(corpus, narrow_corpus):
    """Rows fused when the working database is built are clipped as one
    row, which bounds the whole fused group at once, so a subtree cell may
    drop below the per-transaction definitional sum but must stay an upper
    bound on everything reachable in the subtree."""
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
        fill_subtree_and_local(pd, su, lu, neg)
        prefix = (order.sequence[z0],)
        for z in range(z0 + 1, n):
            z_ext = order.sequence[z]
            for p, h in enumerate(working.period_labels):
                reference = subtree_bound(db, prefix, z_ext, h, order.position, clip=True)
                cell = _subtree_cell(su, neg, z, p)
                assert cell <= reference
                if cell < reference:
                    tightened += 1
    assert tightened > 0

    # exhaustive dominance on the narrow databases: every itemset reachable
    # below (prefix, z) stays under the cell filled from fused rows
    for db in narrow_corpus:
        order, working, root = pipeline(db)
        n = len(order)
        if order.boundary == 0:
            continue
        for z0 in range(order.boundary):
            pd = project(root, z0)
            su, lu, neg = _miner_arrays(working)
            fill_subtree_and_local(pd, su, lu, neg)
            prefix = (order.sequence[z0],)
            for z in range(z0 + 1, n):
                z_ext = order.sequence[z]
                tail = [order.sequence[d] for d in range(z + 1, n)]
                for r in range(len(tail) + 1):
                    for extra in itertools.combinations(tail, r):
                        target = tuple(sorted(prefix + (z_ext,) + extra))
                        for p, h in enumerate(working.period_labels):
                            if _occurs_in_period(db, target, h):
                                u = itemset_utility(db, target, period=h)
                                assert _subtree_cell(su, neg, z, p) >= u, (target, h)


def _occurs_in_period(db, itemset, h):
    need = set(itemset)
    return any(t.period == h and need <= set(t.items) for t in db.transactions)


def test_negative_tail_fill_matches_definitions(corpus):
    """fill_negative_subtree alone leaves the same neg cells and record as
    the one walk that also fills su and lu, and both equal the clipped
    definitional sums."""
    rng = random.Random(2727)
    checked = 0
    for db in corpus:
        order, working, root = pipeline(db, merge=False)
        n = len(order)
        negatives = list(range(order.boundary, n))
        if order.boundary == 0 or not negatives:
            continue
        z0 = rng.randrange(order.boundary)
        pd = project(root, z0)
        _, _, neg = _miner_arrays(working)
        fill_negative_subtree(pd, neg)
        su, lu, walked = _miner_arrays(working)
        fill_subtree_and_local(pd, su, lu, walked)
        _assert_record_matches(pd.views, su, lu, walked)
        assert neg.cells == walked.cells
        assert neg.seen == walked.seen and neg.touched == walked.touched
        prefix = (order.sequence[z0],)
        for z in negatives:
            z_ext = order.sequence[z]
            for p, h in enumerate(working.period_labels):
                want = subtree_bound(db, prefix, z_ext, h, order.position, clip=True)
                assert neg.cells[p][z - order.boundary] == want, (prefix, z_ext, h)
                checked += 1
        if checked > 400:
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


def _three_arrays(n_periods, boundary, n_items):
    return (
        BoundArray(n_periods, boundary),
        BoundArray(n_periods, boundary, flags=False),
        BoundArray(n_periods, n_items - boundary, boundary),
    )


def _all_zero(arr):
    return not any(map(any, arr.cells)) and (arr.seen is None or not any(arr.seen))


def test_bound_array_reset_clears_state():
    # Positives 0 and 1, negatives 2 and 3; views (items, utilities,
    # offset, prefix utility) in periods 0 and 2 of three.
    su, lu, neg = _three_arrays(3, 2, 4)
    pd = _projection({0: [([0, 1, 3], [4, 5, -2], 0, 6)], 2: [([1, 2], [3, -9], 0, 6)]})
    fill_subtree_and_local(pd, su, lu, neg)
    assert su.cells == [[15, 11], [0, 0], [0, 9]]
    assert lu.cells == [[15, 15], [0, 0], [0, 9]]
    assert neg.cells == [[0, 4], [0, 0], [0, 0]]  # 6 - 9 < 0 is clipped
    assert su.seen == [1, 1] and su.touched == [1, 0]
    assert neg.seen == [1, 1] and neg.touched == [3, 2]
    assert lu.touched is su.touched

    # reset zeroes the rows of the periods given to the previous reset,
    # not those it is given now
    for arr in (su, lu, neg):
        arr.reset([1])
        assert _all_zero(arr) and arr.touched == [] and arr.periods == [1]
    fill_subtree_and_local(_projection({1: [([0, 2], [1, 5], 0, 0)]}), su, lu, neg)
    assert su.cells[1] == [1, 0] and neg.cells[1] == [5, 0]
    for arr in (su, lu, neg):
        arr.reset([0])
        assert _all_zero(arr) and arr.touched == [] and arr.periods == [0]

    # one touched item of a wide row is zeroed cell by cell, at its column
    wide = BoundArray(2, 6 * SPARSE_RESET_SHARE, 10)
    fill_negative_subtree(
        _projection({0: [([0, 17], [9, -1], 0, 9)], 1: [([17], [-2], 0, 5)]}), wide
    )
    assert wide.cells[0][7] == 8 and wide.cells[1][7] == 3 and wide.touched == [17]
    wide.reset([])
    assert _all_zero(wide) and wide.touched == []


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


def _state(arr):
    return arr.cells, arr.seen, arr.touched, arr.periods


@pytest.mark.parametrize("boundary, n_items", [(3, 6), (100, 200)])
def test_each_fill_clears_what_the_previous_fill_left(boundary, n_items):
    """Filling projection A and then B, with no reset by hand, leaves the
    arrays as fresh arrays filled with B alone. A occupies periods B does
    not; the narrow arrays are zeroed row by row, the wide ones cell by
    cell."""
    rng = random.Random(boundary)
    a = _random_projection(rng, [0, 2, 3], boundary, n_items)
    b = _random_projection(rng, [1, 3], boundary, n_items)
    reused = _three_arrays(4, boundary, n_items)
    fresh = _three_arrays(4, boundary, n_items)
    fill_subtree_and_local(a, *reused)
    fill_subtree_and_local(b, *reused)
    fill_subtree_and_local(b, *fresh)
    assert [_state(arr) for arr in reused] == [_state(arr) for arr in fresh]

    neg, fresh_neg = reused[2], _three_arrays(4, boundary, n_items)[2]
    fill_negative_subtree(a, neg)
    fill_negative_subtree(b, neg)
    fill_negative_subtree(b, fresh_neg)
    assert _state(neg) == _state(fresh_neg)


def _arrays(su_cells, lu_cells, seen):
    """su and lu holding the given rows for live periods 0..n-1, with the
    record a fill would leave: the seen items flagged and touched. A fill
    never writes an item it has not seen, so neither may the rows."""
    for rows in (su_cells, lu_cells):
        assert all(row[z] == 0 for row in rows for z, s in enumerate(seen) if not s)
    n_periods = len(su_cells)
    su = BoundArray(n_periods, len(seen))
    lu = BoundArray(n_periods, len(seen), flags=False)
    periods = list(range(n_periods))
    su.reset(periods)
    lu.reset(periods)
    for p in periods:
        su.cells[p][:] = su_cells[p]
        lu.cells[p][:] = lu_cells[p]
    su.seen[:] = seen
    su.touched = lu.touched = [z for z, s in enumerate(seen) if s]
    return su, lu


def test_selection_applies_both_bound_tests():
    # one period, threshold 1/2 of a period total of 10 -> cutoff 5
    su, lu = _arrays([[10, 2, 0]], [[10, 4, 0]], seen=[1, 1, 0])
    primary, secondary = select_primary_secondary(
        su, lu, range(3), su_cut=[5], lu_cut=[5], t_den=2
    )
    assert primary == [0]        # item 1 fails the subtree test (4 < 5)
    assert secondary == [0, 1]
    # at threshold zero every cell passes, but item 2 never occurred
    primary, secondary = select_primary_secondary(
        su, lu, range(3), su_cut=[0], lu_cut=[0], t_den=1
    )
    assert primary == secondary == [0, 1]
    # each rule has its own cutoffs: a zero subtree cutoff passes item 1
    primary, secondary = select_primary_secondary(
        su, lu, range(3), su_cut=[0], lu_cut=[5], t_den=2
    )
    assert primary == secondary == [0, 1]


def test_selection_degrades_to_occurrence_when_disabled():
    """A rule that is off cuts at zero, which every item that occurred
    passes, since every filled cell is at least zero."""
    su, lu = _arrays([[0, 0, 0]], [[0, 0, 0]], seen=[1, 0, 1])
    primary, secondary = select_primary_secondary(
        su, lu, range(3), su_cut=[0], lu_cut=[0], t_den=99
    )
    assert primary == secondary == [0, 2]

    working = pipeline(parse_database("1 2:5:2 3:0\n2:4:4:1\n"))[1]
    collector = TopKCollector(1, Fraction(3, 7))
    scaled = [3 * total for total in working.period_totals]
    for su_prune, lu_prune in itertools.product((True, False), repeat=2):
        miner = _Miner(working, collector, su_prune=su_prune, lu_prune=lu_prune)
        su_cut, lu_cut, t_den = miner._cutoffs()
        assert su_cut == (scaled if su_prune else [0, 0])
        assert lu_cut == (scaled if lu_prune else [0, 0])
        assert t_den == 7


def test_selection_boundary_equality_counts():
    su, lu = _arrays([[5]], [[5]], seen=[1])
    primary, secondary = select_primary_secondary(
        su, lu, [0], su_cut=[10], lu_cut=[10], t_den=2
    )
    assert primary == [0] and secondary == [0]


def test_negative_candidate_selection():
    # negatives are items 3..6, in columns 0..3 of a negative-only array
    neg = BoundArray(1, 4, 3)
    pd = _projection({0: [([1, 4, 5], [10, -3, -7], 1, 10), ([1, 6], [1, -5], 1, 1)]})
    fill_negative_subtree(pd, neg)
    assert neg.cells == [[0, 7, 3, 0]]  # item 6: 1 - 5 < 0 is clipped
    assert neg.seen == [0, 1, 1, 1]
    touched = sorted(neg.touched)
    assert touched == [4, 5, 6]
    for candidates in (touched, range(3, 7)):
        picked = select_negative_candidates(neg, candidates, cut=[10], t_den=2)
        assert picked == [4]  # 7*2 >= 10; 3*2 < 10; item 3 never occurred
        # a zero cut (threshold zero, or the rule off) passes what occurred
        at_zero = select_negative_candidates(neg, candidates, cut=[0], t_den=2)
        assert at_zero == [4, 5, 6]


def test_selection_reads_only_live_periods():
    """Selection tests only the rows of the periods the arrays were last
    reset for: a large cell in another period's row, which no fill writes,
    changes no pick."""
    su, lu, neg = _three_arrays(3, 3, 6)
    pd = _projection({0: [([0, 3], [8, -1], 0, 0), ([1], [1], 0, 0)]})
    fill_subtree_and_local(pd, su, lu, neg)
    assert su.cells[0] == lu.cells[0] == [8, 1, 0] and neg.cells[0] == [0, 0, 0]
    su.cells[2][1] = lu.cells[2][1] = neg.cells[2][0] = 10**9
    primary, secondary = select_primary_secondary(
        su, lu, range(3), su_cut=[5, 5, 5], lu_cut=[5, 5, 5], t_den=1
    )
    assert primary == secondary == [0]
    picked = select_negative_candidates(neg, [3], cut=[5, 5, 5], t_den=1)
    assert picked == []


def test_fills_without_kept_negatives():
    """With no kept negatives neg has width 0: the fill, the negative
    selection and reset all work on it, and mining matches the oracle."""
    su, lu, neg = _three_arrays(2, 3, 3)
    assert neg.cells == [[], []] and neg.seen == []
    pd = _projection({0: [([0, 2], [2, 3], 0, 0)], 1: [([1], [4], 0, 0)]})
    fill_subtree_and_local(pd, su, lu, neg)
    assert su.cells == [[5, 0, 3], [0, 4, 0]] and lu.cells == [[5, 0, 5], [0, 4, 0]]
    assert neg.touched == []
    assert select_negative_candidates(neg, sorted(neg.touched), [0, 0], 1) == []
    for arr in (su, lu, neg):
        arr.reset([])
        assert _all_zero(arr)

    profits = {1: 4, 2: 3, 3: 1}
    rows = [(0, [(1, 1), (2, 2)]), (0, [(2, 1), (3, 3)]), (1, [(1, 2), (3, 1)])]
    db = database_from_quantities(profits, rows)
    order, working, _ = pipeline(db)
    assert len(_miner_arrays(working)[2].seen) == 0
    for k in (1, 3, 50):
        assert mine_top_k(db, k)[0] == oracle_top_k(db, k)


def test_fills_with_only_negatives():
    """Views that hold only negatives leave su and lu untouched and fill
    neg alone; a database whose one profitable item heads only negative
    extensions matches the oracle."""
    su, lu, neg = _three_arrays(1, 1, 4)
    pd = _projection({0: [([0, 1, 3], [9, -2, -4], 1, 9), ([0, 2], [9, -1], 1, 9)]})
    fill_subtree_and_local(pd, su, lu, neg)
    assert su.touched == [] and lu.touched is su.touched
    assert _all_zero(su) and _all_zero(lu)
    assert neg.cells == [[7, 8, 5]] and neg.touched == [3, 1, 2]
    picked = select_negative_candidates(neg, sorted(neg.touched), [14], 2)
    assert picked == [1, 2]  # 7*2 == 14 counts; 8*2 >= 14; 5*2 < 14
    for arr in (su, lu, neg):
        arr.reset([])
        assert _all_zero(arr) and arr.touched == []

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
    assert stats.projections > 1  # the negative extensions were searched


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


@pytest.mark.parametrize(
    "n_periods, transactions", [(30, (40, 240)), (365, (400, 1100))]
)
def test_many_periods_match_oracle_and_full_grid_reset(
    monkeypatch, n_periods, transactions
):
    """Zeroing only what the last fill touched changes no result and no
    pruning decision: the miner matches the oracle, and its counters match
    a run whose every reset zeroes the whole grid and every flag."""
    databases = _many_period_databases(n_periods, transactions, 6, n_periods)
    runs = []
    for db in databases:
        for k in (3, 25):
            mined, stats = mine_top_k(db, k)
            assert mined == oracle_top_k(db, k)
            runs.append((stats.candidates, stats.projections, stats.threshold_rises))

    def reset_whole_grid(self, periods):
        for row in self.cells:
            row[:] = [0] * len(row)
        if self.seen is not None:
            self.seen[:] = [0] * len(self.seen)
        self.touched = []
        self.periods = periods

    monkeypatch.setattr(BoundArray, "reset", reset_whole_grid)
    reference = []
    for db in databases:
        for k in (3, 25):
            _, stats = mine_top_k(db, k)
            reference.append((stats.candidates, stats.projections, stats.threshold_rises))
    assert runs == reference


@pytest.mark.parametrize(
    "n_periods, transactions", [(30, (40, 240)), (365, (400, 1100))]
)
def test_every_cell_and_flag_is_zero_after_each_reset(
    monkeypatch, n_periods, transactions
):
    """Through whole mining runs, each array is all zero right after each
    of its resets, and both ways of zeroing are taken."""
    databases = _many_period_databases(n_periods, transactions, 6, n_periods)
    reset = BoundArray.reset
    ways = {"rows": 0, "cells": 0}

    def checked_reset(self, periods):
        if self.touched:
            wide = len(self.touched) * SPARSE_RESET_SHARE > len(self.cells[0])
            ways["rows" if wide else "cells"] += 1
        reset(self, periods)
        assert _all_zero(self), (self.base, periods)
        assert self.touched == [] and self.periods is periods

    monkeypatch.setattr(BoundArray, "reset", checked_reset)
    for db in databases:
        for k in (3, 25):
            mine_top_k(db, k)
    assert ways["rows"] > 0 and ways["cells"] > 0, ways
