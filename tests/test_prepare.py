"""Preprocessing: TWU tables, the seeded threshold, item order, working layout."""

from fractions import Fraction

from conftest import fraction_singleton_threshold, pipeline, search_start
from topshelf.dataset import database_from_quantities, parse_database
from topshelf.oracle import itemset_periods, itemset_utility, twu
from topshelf.prepare import (
    ItemOrder,
    build_item_order,
    build_working_database,
    compute_period_twu,
)

A, B, C, D, E = 1, 2, 3, 4, 5


def order_at(db, t_num, t_den):
    """build_item_order over db's TWU walk at threshold t_num/t_den."""
    return build_item_order(*compute_period_twu(db), db.period_totals, t_num, t_den)


def test_period_twu_worked_example(running_example):
    table, utility = compute_period_twu(running_example)
    assert table[A] == {0: 10, 1: 72, 2: 15}
    assert table[B][0] == 36
    assert table[C][2] == 66
    assert table[E] == {1: 27, 2: 81}
    totals = {item: sum(row.values()) for item, row in table.items()}
    assert totals == {A: 97, B: 153, C: 126, D: 178, E: 108}
    assert utility == {A: 35, B: -18, C: -12, D: 138, E: 50}


def test_one_walk_matches_the_oracle(running_example, corpus):
    """Per item: the TWU row is TWU(i, h) per period label h, its keys are
    the item's periods, and the utility is u({i})."""
    # labels out of input order and with gaps
    gapped = parse_database("1 2:7:3 4:17\n2:5:5:3\n1 3:9:4 5:40\n3:2:2:17\n")
    assert compute_period_twu(gapped)[0] == {
        1: {17: 7, 40: 9},
        2: {17: 7, 3: 5},
        3: {17: 2, 40: 9},
    }
    _, working, root = pipeline(gapped)
    assert working.period_totals is gapped.period_totals
    assert working.period_totals == {17: 9, 3: 5, 40: 9}
    # the working database's views come in ascending label order
    assert root.periods == [3, 17, 40]
    assert [view[4] for view in root.views] == [3, 17, 17, 40]
    for db in [gapped, running_example, *corpus[:40]]:
        table, utility = compute_period_twu(db)
        assert set(table) == set(utility) == set(db.item_signs)
        for i in db.item_signs:
            row = table[i]
            assert set(row) == itemset_periods(db, (i,))
            for h in db.periods:
                assert row.get(h, 0) == twu(db, (i,), period=h)
            assert utility[i] == itemset_utility(db, (i,))


def seed(db, k):
    """The threshold of mine_top_k(db, k)'s collector once seeded with the
    singletons, as a Fraction."""
    return Fraction(*search_start(db, k)[0].threshold)


def test_singleton_threshold_uses_kth_nonnegative_ratio(running_example):
    db = running_example
    # single-item ratios: d=138/193, e=50/154, a=35/193; b and c are negative
    assert seed(db, 1) == Fraction(138, 193)
    assert seed(db, 2) == Fraction(50, 154)
    assert seed(db, 3) == Fraction(35, 193)
    assert seed(db, 4) == 0
    assert seed(db, 100) == 0


def test_singleton_threshold_ranks_as_fractions(corpus):
    big = 2**60  # row totals stay inside the format's 64-bit range
    huge = database_from_quantities(
        profits={1: big - 1, 2: big + 3, 3: -big, 4: 7, 5: big // 3},
        rows=[
            (0, [(1, 3), (2, 1)]),
            (0, [(1, 1), (3, 1), (5, 2)]),
            (1, [(2, 2), (4, 5)]),
            (1, [(5, 6), (1, 1)]),
            (2, [(4, 1), (2, 1), (3, 1)]),
        ],
    )
    for db in [huge, *corpus[:40]]:
        for k in range(1, len(db.item_signs) + 2):
            want = fraction_singleton_threshold(db, k)
            # the collector keeps its threshold reduced
            assert search_start(db, k)[0].threshold == (want.numerator, want.denominator)


def test_item_order_puts_positives_first_by_rising_twu(running_example):
    order = order_at(running_example, 0, 1)
    # positives by total TWU: a(97) < e(108) < d(178); negatives: c(126) < b(153)
    assert order.sequence == (A, E, D, C, B)
    assert order.boundary == 3
    assert order.position == {A: 0, E: 1, D: 2, C: 3, B: 4}
    assert len(order) == 5


def test_item_order_breaks_twu_ties_by_id():
    db = parse_database("1 2:10:5 5:0\n")
    assert order_at(db, 0, 1).sequence == (1, 2)


def test_item_order_keeps_negatives_and_items_passing_the_twu_test(running_example, corpus):
    """The order holds every negative item, and each positive item with a
    period h where TWU({i}, h) reaches the threshold times pto(h), equality
    counting; the positives come first, each group sorted by (total TWU,
    id). Checked from the definitions at threshold zero, at the seed of the
    worked example at k 2, at an impossible threshold, and at the best
    period ratio of the first positive item, which that item ties."""
    db = running_example
    # at the seed of k 2, a, d and e each clear some period; b and c, both
    # negative, enter whatever the threshold
    assert order_at(db, 50, 154).sequence == (A, E, D, C, B)
    # an impossible threshold keeps no positive item
    assert order_at(db, 2, 1).sequence == (C, B)
    # zero threshold keeps every occurring positive item
    assert order_at(db, 0, 1).sequence == (A, E, D, C, B)
    tested = dropped = 0
    for db in [running_example, *corpus]:
        best = {
            i: max(Fraction(twu(db, (i,), period=h), db.period_totals[h]) for h in db.periods)
            for i in db.item_signs
        }
        negative = {i for i, sign in db.item_signs.items() if sign < 0}
        tie = best[min(best.keys() - negative)]
        for t in (Fraction(0), Fraction(50, 154), Fraction(2), tie):
            order = order_at(db, t.numerator, t.denominator)
            passing = {i for i, ratio in best.items() if ratio >= t}
            members = negative | passing
            assert set(order.sequence) == members
            assert len(order.sequence) == len(members)
            positives = order.sequence[: order.boundary]
            assert set(positives) == members - negative
            for group in (positives, order.sequence[order.boundary :]):
                assert list(group) == sorted(group, key=lambda i: (twu(db, (i,)), i))
            tested += len(members)
            dropped += len(db.item_signs) - len(members)
    assert tested > 1000 and dropped > 100


def held_negatives(db, k, **flags):
    """The negatives the root views of mine_top_k(db, k, **flags) hold,
    after checking that each view holds a positive item of the order; and
    by definition, the negatives that share a row with one."""
    _, working = search_start(db, k, **flags)
    root, boundary, ext_id = working.root, working.order.boundary, working.order.sequence
    assert all(items[0] < boundary for items, _, _, _, _ in root.views)
    held = {ext_id[d] for items, _, _, _, _ in root.views for d in items if d >= boundary}
    positives = set(ext_id[:boundary])
    cooccur = {
        i
        for t in db.transactions
        if not positives.isdisjoint(t.items)
        for i in t.items
        if db.item_signs[i] < 0
    }
    return held, cooccur


def test_negative_keep_requires_cooccurrence(running_example, corpus):
    """The root views hold only rows with a positive item of the order, so
    the negatives they hold are exactly those that share a row with one."""
    held, cooccur = held_negatives(running_example, 2)
    assert held == cooccur == {B, C}
    # item 3 sells at a loss, alongside item 2 only: 2 fails the TWU test
    # at k 1 (4/9 below the seed 5/9), and passes it at k 2
    db = parse_database("1:5:5:0\n2 3:1:4 -3:0\n")
    assert held_negatives(db, 1) == (set(), set())
    assert held_negatives(db, 2) == ({3}, {3})
    checked = 0
    for db in corpus[:60]:
        for k in (1, 5):
            for flags in ({}, {"lu_prune": False}):
                held, cooccur = held_negatives(db, k, **flags)
                assert held == cooccur
                checked += len(held)
    assert checked > 100


def fused_rows(rows, merge=True):
    """build_working_database over one period holding rows given in dense
    terms [items, utilities], dense index d standing for item d + 1, all
    items positive. Returns the root views as [items, utilities] lists and
    the number of rows fused away."""
    text = "".join(
        f"{' '.join(str(d + 1) for d in items)}:{sum(utils)}:{' '.join(map(str, utils))}:0\n"
        for items, utils in rows
    )
    n = 1 + max(d for items, _ in rows for d in items)
    order = ItemOrder(
        sequence=tuple(range(1, n + 1)), position={d + 1: d for d in range(n)}, boundary=n
    )
    db = parse_database(text)
    working, merged = build_working_database(db, order, merge=merge)
    root = working.root
    assert root.periods == [0] and root.utilities == [0]
    for items, utils, off, prefix, p in root.views:
        assert type(items) is tuple and type(utils) is tuple
        assert (off, prefix, p) == (0, 0, 0)
    assert working.transaction_count == len(rows) - merged
    return [[list(v[0]), list(v[1])] for v in root.views], merged


def test_working_database_fuses_duplicates_anywhere():
    rows = [
        [[0, 1], [3, 4]],
        [[0, 1], [6, 8]],
        [[0, 1], [1, 1]],
        [[0, 2], [5, 5]],
    ]
    assert fused_rows(rows) == ([[[0, 1], [10, 13]], [[0, 2], [5, 5]]], 2)
    assert fused_rows(rows, merge=False) == (rows, 0)
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
    assert fused_rows(rows) == ([[[1, 2], [111, 222]], [[0, 2], [6, 6]], [[2], [7]]], 3)
    assert fused_rows(rows, merge=False) == (rows, 0)


def test_working_database_leaves_distinct_rows_alone():
    rows = [[[0], [3]], [[1], [4]], [[0, 1], [5, 6]]]
    assert fused_rows(rows) == (rows, 0)


def test_working_database_layout(running_example):
    db = running_example
    order = order_at(db, 0, 1)
    working, merged = build_working_database(db, order)
    assert merged == 0  # no two transactions share an item set here
    assert working.period_totals is db.period_totals
    assert working.period_totals == {0: 39, 1: 85, 2: 69}
    assert working.transaction_count == 8
    root = working.root
    assert root.periods == [0, 1, 2] and root.utilities == [0, 0, 0]
    # every row: ascending dense indices, negatives (>= boundary) at the
    # tail, at offset 0 with prefix utility 0, periods ascending
    assert [view[4] for view in root.views] == [0, 0, 1, 1, 1, 2, 2, 2]
    for items, utils, off, prefix, _ in root.views:
        assert list(items) == sorted(items)
        assert len(items) == len(utils)
        tail = tuple(d for d in items if d >= order.boundary)
        assert items[len(items) - len(tail):] == tail
        assert off == 0 and prefix == 0
    # rows keep input order: period 1 holds T1 {a,b,d,e}, T3 {a,d} and
    # T8 {b,c,d}, in dense terms (0,1,2,4), (0,2), (2,3,4)
    period1 = [view[0] for view in root.views if view[4] == 1]
    assert period1 == [(0, 1, 2, 4), (0, 2), (2, 3, 4)]


def test_working_database_merges_identical_rows():
    text = "1 2:7:3 4:0\n1 2:14:6 8:0\n1 2:7:3 4:1\n"
    db = parse_database(text)
    order = order_at(db, 0, 1)
    working, merged = build_working_database(db, order)
    assert merged == 1
    # only rows of the same period fuse
    assert working.root.views == [((0, 1), (9, 12), 0, 0, 0), ((0, 1), (3, 4), 0, 0, 1)]
    assert working.root.periods == [0, 1]
    unmerged, count = build_working_database(db, order, merge=False)
    assert count == 0
    assert unmerged.transaction_count == 3


def test_working_database_drops_unordered_items(running_example):
    db = running_example
    order = ItemOrder(sequence=(D,), position={D: 0}, boundary=1)
    working, _ = build_working_database(db, order, merge=False)
    # only item d survives; T4 and T6 (no d) disappear entirely
    assert working.transaction_count == 5
    for items, utils, _, _, _ in working.root.views:
        assert items == (0,)
    # frozen period totals are kept even though utilities were trimmed
    assert working.period_totals == {0: 39, 1: 85, 2: 69}
