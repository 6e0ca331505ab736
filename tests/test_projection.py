"""Projections: the flat period-ordered layout, narrowing, utility
accounting, the occurrence walk."""

import random
import tracemalloc

import pytest

from conftest import pipeline
from topshelf.dataset import parse_database
from topshelf.generator import GeneratorParams, generate
from topshelf.oracle import itemset_periods, itemset_utility
from topshelf import projection
from topshelf.projection import WALK_MIN_BISECTS, occurrences, project

A, B, C, D, E = 1, 2, 3, 4, 5


def view_periods(pd):
    return [view[4] for view in pd.views]


def assert_sparse(pd):
    """The layout contract: 5-tuple views in ascending period order,
    periods the distinct view periods in that order, and utilities[i] the
    sum of the prefix utilities of the views in periods[i]."""
    assert all(len(view) == 5 for view in pd.views)
    held = view_periods(pd)
    assert held == sorted(held)
    assert pd.periods == sorted(set(held))
    assert pd.utilities == [sum(v[3] for v in pd.views if v[4] == p) for p in pd.periods]


def test_root_projection_covers_every_row(running_example):
    db = running_example
    order, working, root = pipeline(db)
    assert root is working.root
    assert_sparse(root)
    assert root.periods == [0, 1, 2]
    assert root.utilities == [0, 0, 0]
    # one view per transaction (none fuse here), periods ascending, input
    # order within a period, each at offset 0 with prefix utility 0
    rows = []
    for p, label in enumerate(working.period_labels):
        for t in db.transactions:
            if t.period == label:
                entries = sorted((order.position[i], u) for i, u in zip(t.items, t.utilities))
                rows.append((tuple(d for d, _ in entries), tuple(u for _, u in entries), 0, 0, p))
    assert root.views == rows
    assert working.transaction_count == len(rows) == 8


def test_root_skips_periods_emptied_by_the_order(running_example):
    # period 0 sells only a, b, c and d (T2, T7): with e alone in the order
    # both its rows lose every item, and the root skips the empty period
    order, working, root = pipeline(running_example, merge=False, drop={A, B, C, D})
    assert working.transaction_count == 4
    assert_sparse(root)
    assert root.periods == [1, 2]
    assert view_periods(root) == [1, 2, 2, 2]  # T1; T4, T5, T6
    assert_walks_match_scans(order, root, 0)
    pd = project(root, order.position[E])
    assert_sparse(pd)
    # e: T1 (period 1) 10; T4, T5, T6 (period 2) 10 + 10 + 20
    assert pd.periods == [1, 2] and pd.utilities == [10, 40]


def test_project_narrows_to_containing_transactions(running_example):
    order, _, root = pipeline(running_example, merge=False)
    pd = project(root, order.position[D])
    assert_sparse(pd)
    # d sits in T2 (period 0), T1/T3/T8 (period 1), T5 (period 2)
    assert pd.periods == [0, 1, 2]
    assert view_periods(pd) == [0, 1, 1, 1, 2]
    # prefix utilities are u(d, T); period-1 views keep input order: T1, T3, T8
    assert [v[3] for v in pd.views if v[4] == 1] == [12, 30, 24]
    assert pd.utilities == [36, 66, 36]
    assert sum(pd.utilities) == 138
    for items, utils, off, prefix, p in pd.views:
        assert items[off - 1] == order.position[D]


def test_project_missing_item_leaves_nothing(running_example):
    order, _, root = pipeline(running_example)
    pd = project(root, order.position[E])
    sub = project(pd, order.position[B])  # {e, b}: T1, T5, T6
    assert_sparse(sub)
    none = project(sub, order.position[B])  # already consumed
    assert none.periods == [] and none.views == [] and none.utilities == []


def test_projection_chain_matches_definitions(corpus):
    """Chains as the search forms them, headed by a positive item: the root
    holds every row with a positive item, so it reaches every row such a
    chain's itemset sells in."""
    rng = random.Random(5150)
    for db in corpus[:40]:
        order, _, root = pipeline(db)
        n = len(order)
        labels = sorted(db.periods)
        for _ in range(6):
            head = rng.randrange(order.boundary)
            later = range(head + 1, n)
            chain = [head, *sorted(rng.sample(later, rng.randint(0, min(2, len(later)))))]
            pd = root
            for z in chain:
                pd = project(pd, z)
                assert_sparse(pd)
            external = tuple(sorted(order.sequence[z] for z in chain))
            prd = sorted(itemset_periods(db, external))
            assert [labels[p] for p in pd.periods] == prd
            assert sum(pd.utilities) == itemset_utility(db, external)
            assert pd.utilities == [itemset_utility(db, external, period=h) for h in prd]


def picks_to_walk(order, root, rng):
    """(projection, picks) pairs as the search forms them, ascending picks
    after the prefix's last item: at the root, at depth-1 and depth-2
    nodes, all positive picks, all picks, negative picks alone, a random
    subset and a single pick."""
    n, boundary = len(order), order.boundary
    nodes = [(root, -1)]
    for z in rng.sample(range(n), min(n, 4)):
        child = project(root, z)
        nodes.append((child, z))
        if z + 1 < n:
            z2 = rng.randrange(z + 1, n)
            nodes.append((project(child, z2), z2))
    for pd, z in nodes:
        later = list(range(z + 1, n))
        if not later:
            continue
        yield pd, [x for x in later if x < boundary]
        yield pd, later
        yield pd, [x for x in later if x >= boundary]
        yield pd, sorted(rng.sample(later, rng.randint(1, len(later))))
        yield pd, [rng.choice(later)]


@pytest.fixture
def walk_every_frame(monkeypatch):
    """Walk every multi-pick frame, however small, so that the small test
    databases exercise the walk."""
    monkeypatch.setattr(projection, "WALK_MIN_BISECTS", 0)


def assert_walk_matches_scan(pd, picks):
    """occurrences(pd, picks) gives each pick the ascending ids of exactly
    the views that hold it (None for a lone pick), and projecting from
    those ids equals the scan over every view: same periods, same views in
    the same order sharing the stored buffers, same utility sum."""
    assert_sparse(pd)
    rows = occurrences(pd, picks)
    assert len(rows) == len(picks)
    for z, ids in zip(picks, rows):
        if len(picks) == 1:
            assert ids is None
        else:
            assert ids.typecode == "I" and ids.itemsize == 4
            held = [r for r, (items, _, off, _, _) in enumerate(pd.views) if z in items[off:]]
            assert list(ids) == held, z
        got = project(pd, z, ids)
        want = project(pd, z)
        assert_sparse(got)
        assert got == want, z
        assert all(g[0] is w[0] and g[1] is w[1] for g, w in zip(got.views, want.views))


def assert_walks_match_scans(order, root, seed):
    rng = random.Random(seed)
    walked = 0
    for pd, picks in picks_to_walk(order, root, rng):
        if picks:
            assert_walk_matches_scan(pd, picks)
            walked += 1
    assert walked


@pytest.mark.parametrize("merge", [True, False])
def test_walk_matches_scan_on_running_example(running_example, merge, walk_every_frame):
    order, _, root = pipeline(running_example, merge=merge)
    assert_walks_match_scans(order, root, 11)
    # e never sells in period 0: its projection leaves that period out
    rows = occurrences(root, list(range(len(order))))
    pd = project(root, order.position[E], rows[order.position[E]])
    assert pd.periods == [1, 2]
    assert view_periods(pd) == [1, 2, 2, 2]


@pytest.mark.parametrize("merge", [True, False])
def test_walk_matches_scan_on_random_databases(merge, walk_every_frame):
    rng = random.Random(8128)
    for seed in range(1, 31):
        params = GeneratorParams(
            transactions=rng.randint(20, 200),
            items=rng.randint(5, 40),
            periods=rng.randint(1, 6),
            avg_len=rng.randint(2, 5),
            neg_frac=rng.choice((0.0, 0.2, 0.4)),
            max_qty=rng.randint(1, 3),
            seed=seed,
        )
        order, _, root = pipeline(parse_database(generate(params)), merge=merge)
        if len(order) > 1:
            # at the root, every occurrence of every item is recorded once
            rows = occurrences(root, list(range(len(order))))
            assert sum(map(len, rows)) == sum(len(view[0]) for view in root.views)
        assert_walks_match_scans(order, root, seed)


def round_robin_365(emptied=0):
    """900 generated rows dealt round-robin into 365 periods, two or three
    each. Where emptied > 0, every row of each emptied-th period is
    replaced by one sale of item 99 alone, so that leaving 99 out of the
    order empties those periods."""
    params = GeneratorParams(
        transactions=900, items=30, avg_len=4, neg_frac=0.0, seed=3
    )
    lines = []
    for t, line in enumerate(generate(params).splitlines()):
        period = t % 365
        if emptied and period % emptied == 0:
            lines.append(f"99:7:7:{period}")
        else:
            lines.append(line.rsplit(":", 1)[0] + f":{period}")
    return parse_database("\n".join(lines) + "\n")


def test_walk_matches_scan_over_365_periods(walk_every_frame):
    order, _, root = pipeline(round_robin_365())
    assert root.periods == list(range(365))
    # row t sells in period t % 365, and no two rows of a period fuse
    assert view_periods(root) == sorted(t % 365 for t in range(900))
    assert_walks_match_scans(order, root, 365)


def test_walk_matches_scan_over_365_periods_with_empty_ones(walk_every_frame):
    db = round_robin_365(emptied=5)
    order, _, root = pipeline(db, drop={99})
    assert root.periods == [p for p in range(365) if p % 5]
    assert view_periods(root) == sorted(t % 365 for t in range(900) if t % 365 % 5)
    assert_walks_match_scans(order, root, 73)
    # below the root the scan walks only the parent's periods
    labels = sorted(db.periods)
    rng = random.Random(365)
    for _ in range(20):
        chain = sorted(rng.sample(range(len(order)), 2))
        pd = project(project(root, chain[0]), chain[1])
        assert_sparse(pd)
        external = tuple(sorted(order.sequence[z] for z in chain))
        assert [labels[p] for p in pd.periods] == sorted(itemset_periods(db, external))


def test_root_walk_costs_four_bytes_per_occurrence():
    params = GeneratorParams(transactions=2000, items=40, avg_len=5, seed=11)
    order, _, root = pipeline(parse_database(generate(params)))
    picks = list(range(len(order)))
    tracemalloc.start()
    try:
        rows = occurrences(root, picks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    recorded = sum(map(len, rows))
    assert recorded > 20 * len(picks)
    # Per pick: the array object (80 bytes), its list slot, its entry in
    # the walk's lookup table, and the array's growth slack, at most a
    # sixteenth of its ids plus 7 (under 100 bytes for the at most 300 ids
    # a pick has here). Ids held in a list would cost 8 bytes a slot, plus
    # an int object per id above 256.
    assert peak <= 4 * recorded + 256 * len(picks)


def test_frames_below_the_cutover_scan(running_example):
    # the running example's root: 5 picks x 8 views
    order, _, root = pipeline(running_example, merge=False)
    picks = list(range(len(order)))
    assert len(picks) * len(root.views) < WALK_MIN_BISECTS
    assert occurrences(root, picks) == [None] * len(picks)
    # 2 picks x 900 views
    order, _, root = pipeline(round_robin_365())
    assert 2 * len(root.views) >= WALK_MIN_BISECTS
    assert all(ids is not None for ids in occurrences(root, [0, 1]))
    assert occurrences(root, [0]) == [None]
