"""Pruning bounds: equivalence with the definitional forms, soundness of the
clipped negative bracket, and candidate selection."""

import itertools
import random

import pytest
from conftest import pipeline

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
from topshelf.projection import project
from topshelf.search import mine_top_k

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


def test_root_bounds_match_definitions(corpus):
    for db in corpus[:30]:
        order, working, root = pipeline(db, merge=False)
        n = len(order)
        n_periods = len(working.period_labels)
        su = BoundArray(n_periods, n)
        lu = BoundArray(n_periods, n)
        fill_subtree_and_local(root.views, su, lu, order.boundary)
        for z in range(n):
            z_ext = order.sequence[z]
            for p, h in enumerate(working.period_labels):
                want_su = subtree_bound(db, (), z_ext, h, order.position, clip=True)
                assert su.cells[p][z] == want_su, (db, z_ext, h)
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
        su = BoundArray(len(working.period_labels), n)
        lu = BoundArray(len(working.period_labels), n)
        fill_subtree_and_local(pd.views, su, lu, order.boundary)
        prefix = (order.sequence[z0],)
        for z in range(z0 + 1, n):
            z_ext = order.sequence[z]
            for p, h in enumerate(working.period_labels):
                want = subtree_bound(db, prefix, z_ext, h, order.position, clip=True)
                assert su.cells[p][z] == want, (prefix, z_ext, h)
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
        su = BoundArray(len(working.period_labels), n)
        lu = BoundArray(len(working.period_labels), n)
        fill_subtree_and_local(pd.views, su, lu, order.boundary)
        prefix = (order.sequence[z0],)
        for z in range(z0 + 1, n):
            z_ext = order.sequence[z]
            for p, h in enumerate(working.period_labels):
                reference = subtree_bound(db, prefix, z_ext, h, order.position, clip=True)
                assert su.cells[p][z] <= reference
                if su.cells[p][z] < reference:
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
            su = BoundArray(len(working.period_labels), n)
            lu = BoundArray(len(working.period_labels), n)
            fill_subtree_and_local(pd.views, su, lu, order.boundary)
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
                                assert su.cells[p][z] >= u, (target, h)


def _occurs_in_period(db, itemset, h):
    need = set(itemset)
    return any(t.period == h and need <= set(t.items) for t in db.transactions)


def test_negative_tail_fill_matches_definitions(corpus):
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
        su = BoundArray(len(working.period_labels), n)
        fill_negative_subtree(pd.views, su, order.boundary)
        prefix = (order.sequence[z0],)
        for z in negatives:
            z_ext = order.sequence[z]
            for p, h in enumerate(working.period_labels):
                want = subtree_bound(db, prefix, z_ext, h, order.position, clip=True)
                assert su.cells[p][z] == want, (prefix, z_ext, h)
                checked += 1
        if checked > 400:
            break
    assert checked > 100


def test_bound_array_reset_clears_state():
    arr = BoundArray(2, 3)
    arr.cells[1][2] = 9
    arr.seen[0] = 1
    arr.reset([0, 1])
    assert arr.cells == [[0, 0, 0], [0, 0, 0]]
    assert arr.seen == [0, 0, 0]
    assert arr.periods == [0, 1]
    # only the given periods' rows are zeroed; the flags always are
    arr.cells[0][1] = 4
    arr.cells[1][2] = 9
    arr.seen[2] = 1
    arr.reset([1])
    assert arr.cells == [[0, 4, 0], [0, 0, 0]]
    assert arr.seen == [0, 0, 0]
    assert arr.periods == [1]


def _arrays(su_cells, lu_cells, seen):
    su = BoundArray(len(su_cells), len(seen))
    lu = BoundArray(len(lu_cells), len(seen))
    su.reset(list(range(len(su_cells))))
    lu.reset(list(range(len(lu_cells))))
    for p, row in enumerate(su_cells):
        su.cells[p][:] = row
    for p, row in enumerate(lu_cells):
        lu.cells[p][:] = row
    su.seen[:] = seen
    lu.seen[:] = seen
    return su, lu


def test_selection_applies_both_bound_tests():
    # one period, threshold 1/2 of a period total of 10 -> cutoff 5
    su, lu = _arrays([[10, 2, 9]], [[10, 4, 9]], seen=[1, 1, 0])
    primary, secondary = select_primary_secondary(
        su, lu, range(3), scaled_totals=[5], t_den=2, su_prune=True, lu_prune=True
    )
    assert primary == [0]        # item 1 fails the subtree test (4 < 5)
    assert secondary == [0, 1]   # item 2 never occurred, out despite big cells


def test_selection_degrades_to_occurrence_when_disabled():
    su, lu = _arrays([[0, 0, 0]], [[0, 0, 0]], seen=[1, 0, 1])
    primary, secondary = select_primary_secondary(
        su, lu, range(3), scaled_totals=[99], t_den=1, su_prune=False, lu_prune=False
    )
    assert primary == secondary == [0, 2]


def test_selection_boundary_equality_counts():
    su, lu = _arrays([[5]], [[5]], seen=[1])
    primary, secondary = select_primary_secondary(
        su, lu, [0], scaled_totals=[10], t_den=2, su_prune=True, lu_prune=True
    )
    assert primary == [0] and secondary == [0]


def test_negative_candidate_selection():
    su = BoundArray(1, 4)
    su.reset([0])
    su.cells[0][:] = [0, 7, 3, 9]
    su.seen[:] = [0, 1, 1, 0]
    picked = select_negative_candidates(
        su, range(4), scaled_totals=[10], t_den=2, su_prune=True
    )
    assert picked == [1]  # 7*2 >= 10; 3*2 < 10; unseen items never qualify
    unpruned = select_negative_candidates(
        su, range(4), scaled_totals=[10], t_den=2, su_prune=False
    )
    assert unpruned == [1, 2]


def test_selection_ignores_stale_rows_outside_live_periods():
    """A row left over from an earlier node is never read: an item whose only
    qualifying cell is stale is not picked by either selection."""
    su = BoundArray(3, 3)
    lu = BoundArray(3, 3)
    su.reset([0, 1, 2])
    lu.reset([0, 1, 2])
    su.cells[2][1] = lu.cells[2][1] = 10**9  # an earlier node's sums
    su.reset([0, 1])
    lu.reset([0, 1])
    su.cells[0][:] = lu.cells[0][:] = [9, 1, 9]
    su.seen[:] = lu.seen[:] = [1, 1, 0]
    primary, secondary = select_primary_secondary(
        su, lu, range(3), scaled_totals=[5, 5, 5], t_den=1, su_prune=True, lu_prune=True
    )
    assert primary == secondary == [0]
    picked = select_negative_candidates(
        su, range(3), scaled_totals=[5, 5, 5], t_den=1, su_prune=True
    )
    assert picked == [0]


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
    """Stale rows outside the live periods change no result and no pruning
    decision: the miner matches the oracle, and its counters match a run
    whose every reset zeroes the whole grid."""
    databases = _many_period_databases(n_periods, transactions, 6, n_periods)
    runs = []
    for db in databases:
        for k in (3, 25):
            mined, stats = mine_top_k(db, k)
            assert mined == oracle_top_k(db, k)
            runs.append((stats.candidates, stats.projections))

    live_only = BoundArray.reset

    def reset_full_grid(self, periods):
        live_only(self, list(range(len(self.cells))))
        self.periods = periods

    monkeypatch.setattr(BoundArray, "reset", reset_full_grid)
    reference = []
    for db in databases:
        for k in (3, 25):
            _, stats = mine_top_k(db, k)
            reference.append((stats.candidates, stats.projections))
    assert runs == reference
