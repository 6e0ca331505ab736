"""Projections: narrowing, per-period utility accounting, the root index."""

import random
from array import array
from itertools import accumulate

import pytest

from conftest import pipeline
from topshelf.dataset import parse_database
from topshelf.generator import GeneratorParams, generate
from topshelf.oracle import itemset_periods, itemset_utility
from topshelf.projection import (
    ProjectedDatabase,
    _typecode,
    project,
)

A, B, C, D, E = 1, 2, 3, 4, 5


def view_total(pd):
    return sum(len(v) for v in pd.views)


def test_root_projection_covers_every_row(running_example):
    _, working, root = pipeline(running_example)
    assert view_total(root) == working.transaction_count
    assert root.utility_by_period == [0, 0, 0]
    assert root.occupied_periods == [0, 1, 2]
    for plist in root.views:
        for items, utils, off, prefix in plist:
            assert off == 0 and prefix == 0


def test_project_narrows_to_containing_transactions(running_example):
    order, _, root = pipeline(running_example, merge=False)
    pd = project(root, order.position[D])
    # d sits in T2 (period 0), T1/T3/T8 (period 1), T5 (period 2)
    assert [len(v) for v in pd.views] == [1, 3, 1]
    assert view_total(pd) == 5
    # prefix utilities are u(d, T); period-1 views keep input order: T1, T3, T8
    assert [v[3] for v in pd.views[1]] == [12, 30, 24]
    assert pd.utility_by_period == [36, 66, 36]
    for plist in pd.views:
        for items, utils, off, prefix in plist:
            assert items[off - 1] == order.position[D]


def test_project_missing_item_leaves_nothing(running_example):
    order, _, root = pipeline(running_example)
    pd = project(root, order.position[E])
    sub = project(pd, order.position[B])  # {e, b}: T1, T5, T6
    none = project(sub, order.position[B])  # already consumed
    assert view_total(none) == 0
    assert none.occupied_periods == []


def test_projection_chain_matches_definitions(corpus):
    rng = random.Random(5150)
    for db in corpus[:40]:
        order, _, root = pipeline(db)
        n = len(order)
        for _ in range(6):
            size = rng.randint(1, min(3, n))
            chain = sorted(rng.sample(range(n), size))
            pd = root
            for z in chain:
                pd = project(pd, z)
            external = tuple(sorted(order.sequence[z] for z in chain))
            prd = itemset_periods(db, external)
            labels = [h for h in sorted(db.periods)]
            want_by_period = [
                itemset_utility(db, external, period=h) if h in prd else 0
                for h in labels
            ]
            assert pd.utility_by_period == want_by_period
            assert [labels[p] for p in pd.occupied_periods] == sorted(prd)


def assert_index_matches_scan(root, n_items):
    """Index-backed root projections equal the scan over the same views:
    same views in the same order, sharing the stored buffers, and the same
    per-period utility sums."""
    assert root.index is not None
    scan = ProjectedDatabase(
        views=root.views, utility_by_period=root.utility_by_period
    )
    for z in range(n_items):
        got = project(root, z)
        want = project(scan, z)
        assert got.views == want.views, z
        for gv, wv in zip(got.views, want.views):
            assert all(g[0] is w[0] and g[1] is w[1] for g, w in zip(gv, wv))
        assert got.utility_by_period == want.utility_by_period, z
        assert got.index is None


@pytest.mark.parametrize("merge", [True, False])
def test_indexed_root_projection_matches_scan_on_running_example(
    running_example, merge
):
    order, _, root = pipeline(running_example, merge=merge)
    assert_index_matches_scan(root, len(order))
    # e never sells in period 0: its projection leaves that block empty
    pd = project(root, order.position[E])
    assert pd.views[0] == [] and pd.utility_by_period[0] == 0
    assert pd.occupied_periods == [1, 2]


@pytest.mark.parametrize("merge", [True, False])
def test_indexed_root_projection_matches_scan_on_random_databases(merge):
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
        order, working, root = pipeline(parse_database(generate(params)), merge=merge)
        assert len(root.index.rows) == sum(
            len(row[0]) for block in working.blocks for row in block
        )
        assert_index_matches_scan(root, len(order))


def test_indexed_root_projection_matches_scan_over_365_periods():
    params = GeneratorParams(
        transactions=900, items=30, avg_len=4, neg_frac=0.0, seed=3
    )
    # re-deal the rows round-robin so that every period holds two or three
    lines = [
        line.rsplit(":", 1)[0] + f":{t % 365}"
        for t, line in enumerate(generate(params).splitlines())
    ]
    db = parse_database("\n".join(lines) + "\n")
    order, _, root = pipeline(db)
    assert len(root.views) == 365
    block_sizes = [len(block) for block in root.views]
    assert list(root.index.period_starts) == [0, *accumulate(block_sizes)]
    assert_index_matches_scan(root, len(order))


def test_index_typecodes_hold_every_legal_count():
    # row ids, period offsets and item offsets never exceed the row or
    # occurrence count, so 4 bytes hold them below 2**32 and 8 from there
    for largest in (0, 365, 2**16, 2**32 - 1):
        code = _typecode(largest)
        assert array(code).itemsize == 4
        assert array(code, [largest])[0] == largest
    for largest in (2**32, 2**63, 2**64 - 1):
        code = _typecode(largest)
        assert array(code).itemsize == 8
        assert array(code, [largest])[0] == largest
    with pytest.raises(OverflowError):
        _typecode(2**64)
