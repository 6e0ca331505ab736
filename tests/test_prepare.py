"""Preprocessing: TWU tables, threshold seeding, item order, working layout."""

from fractions import Fraction

from topshelf.dataset import parse_database
from topshelf.prepare import (
    build_item_order,
    build_working_database,
    compute_period_twu,
    fuse_identical_rows,
    initial_secondary,
    negative_keep,
    singleton_threshold,
)

A, B, C, D, E = 1, 2, 3, 4, 5


def test_period_twu_worked_example(running_example):
    table = compute_period_twu(running_example)
    assert table[A] == {0: 10, 1: 72, 2: 15}
    assert table[B][0] == 36
    assert table[C][2] == 66
    assert table[E] == {1: 27, 2: 81}
    totals = {item: sum(row.values()) for item, row in table.items()}
    assert totals == {A: 97, B: 153, C: 126, D: 178, E: 108}


def test_singleton_threshold_uses_kth_nonnegative_ratio(running_example):
    db = running_example
    # single-item ratios: d=138/193, e=50/154, a=35/193; b and c are negative
    assert singleton_threshold(db, 1) == Fraction(138, 193)
    assert singleton_threshold(db, 2) == Fraction(50, 154)
    assert singleton_threshold(db, 3) == Fraction(35, 193)
    assert singleton_threshold(db, 4) == 0
    assert singleton_threshold(db, 100) == 0


def test_item_order_puts_positives_first_by_rising_twu(running_example):
    table = compute_period_twu(running_example)
    order = build_item_order(
        table, running_example.item_signs, {A, D, E}, {B, C}
    )
    # positives by total TWU: a(97) < e(108) < d(178); negatives: c(126) < b(153)
    assert order.sequence == (A, E, D, C, B)
    assert order.boundary == 3
    assert order.position == {A: 0, E: 1, D: 2, C: 3, B: 4}
    assert len(order) == 5


def test_item_order_breaks_twu_ties_by_id():
    db = parse_database("1 2:10:5 5:0\n")
    table = compute_period_twu(db)
    order = build_item_order(table, db.item_signs, {1, 2}, set())
    assert order.sequence == (1, 2)


def test_initial_secondary_keeps_items_clearing_some_period(running_example):
    db = running_example
    table = compute_period_twu(db)
    t = singleton_threshold(db, 2)  # 25/77
    keep = initial_secondary(db, table, t.numerator, t.denominator)
    assert keep == {A, D, E}  # negative items never enter the root secondary
    # an impossible threshold empties it
    assert initial_secondary(db, table, 2, 1) == set()
    # zero threshold keeps every occurring positive item
    assert initial_secondary(db, table, 0, 1) == {A, D, E}


def test_negative_keep_requires_cooccurrence(running_example):
    assert negative_keep(running_example, {A, D, E}) == {B, C}
    # item 3 sells at a loss but never alongside a retained positive
    db = parse_database("1:5:5:0\n2 3:1:4 -3:0\n")
    assert negative_keep(db, {1}) == set()
    assert negative_keep(db, {1, 2}) == {3}


def test_fuse_identical_rows_fuses_duplicates_anywhere():
    rows = [
        [[0, 1], [3, 4]],
        [[0, 1], [6, 8]],
        [[0, 1], [1, 1]],
        [[0, 2], [5, 5]],
    ]
    dropped = fuse_identical_rows(rows)
    assert dropped == 2
    assert rows == [[[0, 1], [10, 13]], [[0, 2], [5, 5]]]
    # duplicates apart from each other fuse into the first one's position;
    # an item list that is a suffix of another is a different row
    rows = [
        [[1, 2], [1, 2]],
        [[0, 2], [5, 5]],
        [[2], [7]],
        [[1, 2], [10, 20]],
        [[0, 2], [1, 1]],
        [[1, 2], [100, 200]],
    ]
    assert fuse_identical_rows(rows) == 3
    assert rows == [[[1, 2], [111, 222]], [[0, 2], [6, 6]], [[2], [7]]]


def test_fuse_identical_rows_leaves_distinct_rows_alone():
    rows = [[[0], [3]], [[1], [4]], [[0, 1], [5, 6]]]
    assert fuse_identical_rows(rows) == 0
    assert rows == [[[0], [3]], [[1], [4]], [[0, 1], [5, 6]]]


def test_working_database_layout(running_example):
    db = running_example
    table = compute_period_twu(db)
    order = build_item_order(table, db.item_signs, {A, D, E}, {B, C})
    working, merged = build_working_database(db, order)
    assert merged == 0  # no two transactions share an item set here
    assert working.period_labels == (0, 1, 2)
    assert working.period_totals == [39, 85, 69]
    assert working.transaction_count == 8
    # every row: ascending dense indices, negatives (>= boundary) at the tail
    for block in working.blocks:
        for items, utils in block:
            assert list(items) == sorted(items)
            assert len(items) == len(utils)
            tail = [d for d in items if d >= order.boundary]
            assert items[len(items) - len(tail):] == tail
    # rows keep input order: period 1 holds T1 {a,b,d,e}, T3 {a,d} and
    # T8 {b,c,d}, in dense terms [0,1,2,4], [0,2], [2,3,4]
    period1 = [row[0] for row in working.blocks[1]]
    assert period1 == [[0, 1, 2, 4], [0, 2], [2, 3, 4]]


def test_working_database_merges_identical_rows():
    text = "1 2:7:3 4:0\n1 2:14:6 8:0\n1 2:7:3 4:1\n"
    db = parse_database(text)
    table = compute_period_twu(db)
    order = build_item_order(table, db.item_signs, {1, 2}, set())
    working, merged = build_working_database(db, order)
    assert merged == 1
    assert working.blocks[0] == [[[0, 1], [9, 12]]]
    assert working.blocks[1] == [[[0, 1], [3, 4]]]
    unmerged, count = build_working_database(db, order, merge=False)
    assert count == 0
    assert unmerged.transaction_count == 3


def test_working_database_drops_unordered_items(running_example):
    db = running_example
    table = compute_period_twu(db)
    order = build_item_order(table, db.item_signs, {D}, set())
    working, _ = build_working_database(db, order, merge=False)
    # only item d survives; T4 and T6 (no d) disappear entirely
    assert working.transaction_count == 5
    for block in working.blocks:
        for items, utils in block:
            assert items == [0]
    # frozen period totals are kept even though utilities were trimmed
    assert working.period_totals == [39, 85, 69]
