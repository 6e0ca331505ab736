"""Projections: the flat period-ordered layout, narrowing, utility
accounting, the root index."""

import random
from array import array

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


def view_periods(pd):
    return [view[4] for view in pd.views]


def assert_sparse(pd):
    """The layout contract: 5-tuple views in ascending period order,
    periods the distinct view periods in that order, and utility the sum
    of every view's prefix utility."""
    assert all(len(view) == 5 for view in pd.views)
    held = view_periods(pd)
    assert held == sorted(held)
    assert pd.periods == sorted(set(held))
    assert pd.utility == sum(view[3] for view in pd.views)


def assert_index_numbers_root_views(root, n_items):
    """Row id r of the occurrence index is root.views[r]: each item's ids
    ascend and name exactly the root views that hold the item."""
    index = root.index
    for z in range(n_items):
        ids = list(index.rows[index.item_starts[z] : index.item_starts[z + 1]])
        assert ids == [r for r, view in enumerate(root.views) if z in view[0]], z


def test_root_projection_covers_every_row(running_example):
    _, working, root = pipeline(running_example)
    assert_sparse(root)
    assert len(root.views) == working.transaction_count
    assert root.periods == [0, 1, 2]
    assert root.utility == 0
    rows = [(row[0], row[1], p) for p, block in enumerate(working.blocks) for row in block]
    for (items, utils, off, prefix, p), (row_items, row_utils, row_p) in zip(root.views, rows):
        assert items is row_items and utils is row_utils and p == row_p
        assert off == 0 and prefix == 0


def test_root_skips_periods_emptied_by_the_order(running_example):
    # period 0 sells only a, b, c and d (T2, T7): with e alone in the order
    # both its rows lose every item, and the root skips the empty block
    order, working, root = pipeline(running_example, merge=False, drop={A, B, C, D})
    assert working.blocks[0] == []
    assert_sparse(root)
    assert root.periods == [1, 2]
    assert view_periods(root) == [1, 2, 2, 2]  # T1; T4, T5, T6
    assert_index_numbers_root_views(root, len(order))
    pd = project(root, order.position[E])
    assert_sparse(pd)
    assert pd.periods == [1, 2] and pd.utility == 50


def test_project_narrows_to_containing_transactions(running_example):
    order, _, root = pipeline(running_example, merge=False)
    pd = project(root, order.position[D])
    assert_sparse(pd)
    # d sits in T2 (period 0), T1/T3/T8 (period 1), T5 (period 2)
    assert pd.periods == [0, 1, 2]
    assert view_periods(pd) == [0, 1, 1, 1, 2]
    # prefix utilities are u(d, T); period-1 views keep input order: T1, T3, T8
    assert [v[3] for v in pd.views if v[4] == 1] == [12, 30, 24]
    assert pd.utility == 138
    for items, utils, off, prefix, p in pd.views:
        assert items[off - 1] == order.position[D]


def test_project_missing_item_leaves_nothing(running_example):
    order, _, root = pipeline(running_example)
    pd = project(root, order.position[E])
    sub = project(pd, order.position[B])  # {e, b}: T1, T5, T6
    assert_sparse(sub)
    none = project(sub, order.position[B])  # already consumed
    assert none.periods == [] and none.views == [] and none.utility == 0


def test_projection_chain_matches_definitions(corpus):
    rng = random.Random(5150)
    for db in corpus[:40]:
        order, _, root = pipeline(db)
        n = len(order)
        labels = sorted(db.periods)
        for _ in range(6):
            size = rng.randint(1, min(3, n))
            chain = sorted(rng.sample(range(n), size))
            pd = root
            for z in chain:
                pd = project(pd, z)
                assert_sparse(pd)
            external = tuple(sorted(order.sequence[z] for z in chain))
            prd = sorted(itemset_periods(db, external))
            assert [labels[p] for p in pd.periods] == prd
            assert pd.utility == itemset_utility(db, external)


def assert_index_matches_scan(root, n_items):
    """Index-backed root projections equal the scan over the same views:
    same periods, same views in the same order, sharing the stored
    buffers, and the same utility sum."""
    assert root.index is not None
    assert_sparse(root)
    assert_index_numbers_root_views(root, n_items)
    scan = ProjectedDatabase(periods=root.periods, views=root.views, utility=root.utility)
    for z in range(n_items):
        got = project(root, z)
        want = project(scan, z)
        assert_sparse(got)
        assert got.periods == want.periods, z
        assert got.views == want.views, z
        assert all(g[0] is w[0] and g[1] is w[1] for g, w in zip(got.views, want.views))
        assert got.utility == want.utility, z
        assert got.index is None


@pytest.mark.parametrize("merge", [True, False])
def test_indexed_root_projection_matches_scan_on_running_example(
    running_example, merge
):
    order, _, root = pipeline(running_example, merge=merge)
    assert_index_matches_scan(root, len(order))
    # e never sells in period 0: its projection leaves that period out
    pd = project(root, order.position[E])
    assert pd.periods == [1, 2]
    assert view_periods(pd) == [1, 2, 2, 2]


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


def test_indexed_root_projection_matches_scan_over_365_periods():
    order, working, root = pipeline(round_robin_365())
    assert root.periods == list(range(365))
    assert view_periods(root) == [p for p, block in enumerate(working.blocks) for _ in block]
    assert_index_matches_scan(root, len(order))


def test_indexed_root_projection_matches_scan_over_365_periods_with_empty_ones():
    db = round_robin_365(emptied=5)
    order, working, root = pipeline(db, drop={99})
    empty = [p for p, block in enumerate(working.blocks) if not block]
    assert empty == list(range(0, 365, 5))
    assert root.periods == [p for p in range(365) if p % 5]
    assert view_periods(root) == [p for p, block in enumerate(working.blocks) for _ in block]
    assert_index_matches_scan(root, len(order))
    # below the root the scan walks only the parent's periods
    labels = sorted(db.periods)
    rng = random.Random(365)
    for _ in range(20):
        chain = sorted(rng.sample(range(len(order)), 2))
        pd = project(project(root, chain[0]), chain[1])
        assert_sparse(pd)
        external = tuple(sorted(order.sequence[z] for z in chain))
        assert [labels[p] for p in pd.periods] == sorted(itemset_periods(db, external))


def test_index_typecodes_hold_every_legal_count():
    # row ids and item offsets never exceed the row or occurrence count, so 4 bytes hold them below 2**32 and 8 from there
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
