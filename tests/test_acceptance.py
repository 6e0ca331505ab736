"""End-to-end gate: one section per shipping requirement.

Each test carries a `criterion` marker; the session summary prints one
PASS/FAIL line per criterion number. Requirements that a fixture's own
arithmetic makes unattainable are kept as strict expected failures rather
than silently weakened.
"""

import csv
import io
from fractions import Fraction

import pytest

from conftest import pipeline, search_start, watch_searches
from topshelf import search
from topshelf.bench import run_bench, write_records
from topshelf.dataset import parse_database, write_patterns
from topshelf.domain import positive_transaction_utility
from topshelf.generator import GeneratorParams, generate
from topshelf.oracle import (
    enumerate_patterns,
    itemset_periods,
    itemset_period_total,
    itemset_utility,
    local_bound,
    oracle_top_k,
    relative_utility,
    remaining_utility,
    subtree_bound,
    twu,
)
from topshelf.search import mine_top_k, stats_json

A, B, C, D, E = 1, 2, 3, 4, 5

# single ascending order over every item, no sign split: the layout the
# hand-checked remaining-utility figures below were computed under
ASCENDING = {A: 0, E: 1, C: 2, B: 3, D: 4}


# -- 1: golden values from the worked example ---------------------------------


@pytest.mark.criterion(1, "worked example golden values")
def test_golden_values(running_example):
    db = running_example
    assert dict(zip(db.transactions[0].items, db.transactions[0].utilities))[A] == 5
    sixth = dict(zip(db.transactions[5].items, db.transactions[5].utilities))
    assert sixth[C] + sixth[E] == 18
    assert itemset_utility(db, (C, E)) == 24
    assert positive_transaction_utility(db.transactions[1]) == 36
    assert itemset_periods(db, (B, E)) == frozenset({1, 2})
    assert itemset_utility(db, (C, E), period=2) == 24
    assert itemset_period_total(db, (B, E)) == 154
    assert itemset_utility(db, (B, E)) == 28
    assert relative_utility(db, (B, E)) == Fraction(28, 154)
    assert twu(db, (C,), period=2) == 66
    assert db.period_totals[1] == 85
    assert Fraction(itemset_utility(db, (B, E), period=1), db.period_totals[1]) == Fraction(4, 85)
    assert remaining_utility(db, (A, E), 1, ASCENDING, positive_only=True) == 12
    assert remaining_utility(db, (B, E), 2, ASCENDING, positive_only=True) == 36
    assert (
        itemset_utility(db, (B, E), period=2)
        + remaining_utility(db, (B, E), 2, ASCENDING, positive_only=True)
        == 60
    )


@pytest.mark.criterion(1, "worked example golden values")
@pytest.mark.xfail(strict=True, reason="stated total contradicts the row's own utility sum")
def test_golden_second_row_total(running_example):
    assert sum(running_example.transactions[1].utilities) == 24


@pytest.mark.criterion(1, "worked example golden values")
@pytest.mark.xfail(strict=True, reason="stated weight contradicts the period's positive-utility sum")
def test_golden_last_item_weight_in_final_period(running_example):
    assert twu(running_example, (E,), period=2) == 66


# -- 2: equivalence with brute force ------------------------------------------


def _far_labels():
    """A generated mixed-sign database whose four periods are relabelled
    2**63 - 1, 7, 2**40 and 2: gapped, far from their count, up to the
    format's 64-bit limit, and first seen out of ascending order."""
    labels = {0: 2**63 - 1, 1: 7, 2: 2**40, 3: 2}
    params = GeneratorParams(transactions=24, items=9, periods=4, avg_len=4, neg_frac=0.3, seed=3)
    rows = [line.rsplit(":", 1) for line in generate(params).splitlines()]
    return parse_database("".join(f"{head}:{labels[int(h)]}\n" for head, h in rows))


@pytest.mark.criterion(2, "equivalence with brute force")
def test_miner_matches_oracle_across_corpus(corpus):
    assert len(corpus) >= 200
    for idx, db in enumerate(corpus):
        for k in (1, 3, 5, 10, 10_000):
            mined, _ = mine_top_k(db, k)
            expected = oracle_top_k(db, k)
            assert mined == expected, f"db {idx} k {k}"
    # periods are keyed by their labels from parse to pattern, so no label
    # may be read as a position, by default or under any ablation
    db = _far_labels()
    assert sorted(db.periods) == [2, 7, 2**40, 2**63 - 1]
    assert list(db.period_totals) != sorted(db.periods)  # first seen out of order
    assert min(db.item_signs.values()) == -1
    for k in (1, 3, 10, 40, 10_000):
        expected = oracle_top_k(db, k)
        for flags in (
            {},
            {"su_prune": False},
            {"lu_prune": False},
            {"su_prune": False, "lu_prune": False},
        ):
            mined, _ = mine_top_k(db, k, **flags)
            assert mined == expected, f"far labels k {k} {flags}"
            assert [p.periods for p in mined] == [p.periods for p in expected]
    # the full result sells in every label, some patterns in several
    assert set().union(*(p.periods for p in mined)) == db.periods
    assert max(len(p.periods) for p in mined) == 4


# -- 3: pruning is lossless ----------------------------------------------------


@pytest.mark.criterion(3, "pruning soundness under ablation")
def test_ablations_change_work_not_answers(corpus):
    for idx, db in enumerate(corpus):
        for k in (1, 5):
            reference, ref_stats = mine_top_k(db, k)
            for flags in (
                {"su_prune": False},
                {"lu_prune": False},
                {"su_prune": False, "lu_prune": False},
            ):
                got, stats = mine_top_k(db, k, **flags)
                assert got == reference, f"db {idx} k {k} {flags}"
                assert ref_stats.candidates <= stats.candidates, f"db {idx} k {k} {flags}"


# -- 4: the bound chain dominates everything reachable -------------------------


def _period_utility_table(db, position):
    """(item-bitmask, period) -> utility, for every supported combination."""
    util: dict[tuple[int, int], int] = {}
    for t in db.transactions:
        entries = sorted((position[i], u) for i, u in zip(t.items, t.utilities))
        h = t.period
        n = len(entries)

        def grow(start, mask, acc):
            for j in range(start, n):
                pos, u = entries[j]
                m = mask | (1 << pos)
                a = acc + u
                key = (m, h)
                util[key] = util.get(key, 0) + a
                grow(j + 1, m, a)

        grow(0, 0, 0)
    return util


def _mask_items(mask, sequence):
    return tuple(sequence[p] for p in range(mask.bit_length()) if mask >> p & 1)


@pytest.mark.criterion(4, "bound chain dominance")
def test_bound_chain_dominates_every_occupied_cell(narrow_corpus, running_example):
    """For every supported prefix cell, weight >= local >= subtree >= the
    best utility any deeper extension actually reaches in that period.

    The deepest item of the cell plays the candidate; with profitable items
    ordered first, a profitable candidate always sits on an all-profitable
    prefix, and a losing candidate's followers are all losing items, so the
    two scoped legs cover every cell there is. The local leg is skipped for
    losing candidates: prefixes holding losing items make that bracket
    undercut the floored subtree bracket, and the search never forms it.
    """
    checked_positive = 0
    checked_negative = 0
    for db in [running_example, *narrow_corpus]:
        order = pipeline(db)[0]
        position = order.position
        all_mask = (1 << len(order.sequence)) - 1
        util = _period_utility_table(db, position)
        for (mask, h), cell_utility in util.items():
            zpos = mask.bit_length() - 1
            alpha = _mask_items(mask ^ (1 << zpos), order.sequence)
            z = order.sequence[zpos]
            followers = all_mask & ~((1 << (zpos + 1)) - 1)
            best = cell_utility
            s = followers
            while s:
                best = max(best, util.get((mask | s, h), 0))
                s = (s - 1) & followers
            tw = twu(db, alpha + (z,), period=h)
            su_clip = subtree_bound(db, alpha, z, h, position, clip=True)
            if zpos < order.boundary:
                lu = local_bound(db, alpha, z, h, position)
                su = subtree_bound(db, alpha, z, h, position)
                assert su == su_clip
                assert tw >= lu >= su >= best, (alpha, z, h)
                checked_positive += 1
            else:
                assert tw >= su_clip >= best, (alpha, z, h)
                checked_negative += 1
    assert checked_positive > 500
    assert checked_negative > 100


# -- 5: merging rewrites the layout, never the answer ---------------------------


def _fused_by_hand(db):
    """The database as text with the rows of one period and one item set
    fused into the first of them, utilities summed item by item; and the
    number of rows fused away."""
    groups: dict[tuple, dict[int, int]] = {}
    for t in db.transactions:
        sums = groups.setdefault((t.period, frozenset(t.items)), {})
        for item, u in zip(t.items, t.utilities):
            sums[item] = sums.get(item, 0) + u
    lines = []
    for (period, _), sums in groups.items():
        items = " ".join(str(i) for i in sums)
        utils = " ".join(str(u) for u in sums.values())
        lines.append(f"{items}:{sum(sums.values())}:{utils}:{period}\n")
    return "".join(lines), len(db.transactions) - len(groups)


@pytest.mark.criterion(5, "merge invariance")
def test_merging_is_invisible_in_output(corpus):
    total_merges = 0
    total_fused = 0
    for idx, db in enumerate(corpus):
        text, fused = _fused_by_hand(db)
        mined, stats = mine_top_k(db, 10)
        by_hand, _ = mine_top_k(parse_database(text), 10)
        assert mined == by_hand, f"db {idx}"
        total_merges += stats.merges
        total_fused += fused
    assert total_merges > 0
    assert total_fused > 0


# -- 6: the seeded threshold never overshoots ----------------------------------


@pytest.mark.criterion(6, "seed threshold soundness")
def test_singleton_seed_below_true_kth_ratio(corpus):
    """The threshold the collector holds once seeded with the singletons,
    as the search starts, is at most the true k-th best ratio."""
    checked = 0
    for db in corpus:
        ranked = oracle_top_k(db, 10_000)
        for k in (1, 3, 5, 10):
            if len(ranked) < k:
                continue
            seed = Fraction(*search_start(db, k)[0].threshold)
            assert seed <= ranked[k - 1].relative_utility
            checked += 1
    assert checked > 400


@pytest.mark.criterion(6, "seed threshold soundness")
def test_collector_starts_with_the_best_singletons(corpus, monkeypatch):
    """Right before the search's first projection the collector holds
    exactly the oracle's best min(k, n) of the n non-negative singletons,
    with their utilities, period totals and periods. Its threshold is the
    k-th best of them (zero where n < k), and no rise is counted."""
    runs = []
    searches = watch_searches(monkeypatch)

    def narrow(*args):
        if len(runs) < len(searches):
            collector = searches[-1].collector
            runs.append((collector.result(), collector.threshold, collector.rises))
        return project(*args)

    project = search.project
    monkeypatch.setattr(search, "project", narrow)
    for db in corpus:
        singletons = [p for p in oracle_top_k(db, 10_000) if len(p.items) == 1]
        for k in (1, 3, 5, 10, 10_000):
            mine_top_k(db, k)
            assert len(runs) == len(searches)
            held, threshold, rises = runs[-1]
            seed = held[k - 1].relative_utility if len(held) == k else Fraction(0)
            assert held == singletons[:k]
            assert threshold == (seed.numerator, seed.denominator)
            assert rises == 0
    assert len(runs) > 900


# -- 7: scale and resource budget ----------------------------------------------


@pytest.mark.criterion(7, "scaling and resource budget")
def test_large_database_within_budget(tmp_path):
    params = GeneratorParams(
        transactions=50_000,
        items=500,
        periods=4,
        avg_len=6,
        neg_frac=0.2,
        max_qty=5,
        max_profit=10,
        seed=7,
    )
    path = tmp_path / "large.db"
    path.write_text(generate(params), encoding="utf-8")
    records, any_timeout = run_bench(str(path), [100, 300, 500])
    assert not any_timeout
    sink = io.StringIO()
    write_records(records, sink)
    rows = list(csv.DictReader(io.StringIO(sink.getvalue())))
    assert [int(r["k"]) for r in rows] == [100, 300, 500]
    for row in rows:
        assert int(row["elapsed_ms"]) < 60_000
        assert int(row["peak_mem_bytes"]) < 2**30
    candidates = [int(r["candidates"]) for r in rows]
    assert candidates == sorted(candidates)


@pytest.mark.criterion(7, "scaling and resource budget")
def test_pruning_row_dominates_in_bench_csv(tmp_path):
    params = GeneratorParams(transactions=2000, items=100, periods=3, seed=31)
    path = tmp_path / "mid.db"
    path.write_text(generate(params), encoding="utf-8")
    records, _ = run_bench(str(path), [50], ablations=True)
    sink = io.StringIO()
    write_records(records, sink)
    rows = {r["variant"]: r for r in csv.DictReader(io.StringIO(sink.getvalue()))}
    assert set(rows) == {"default", "no_su", "no_lu", "no_prune"}
    assert len({r["patterns"] for r in rows.values()}) == 1
    base = int(rows["default"]["candidates"])
    for variant in ("no_su", "no_lu", "no_prune"):
        assert base <= int(rows[variant]["candidates"])
    assert base < int(rows["no_prune"]["candidates"])


# -- 8: byte-identical reruns ---------------------------------------------------


def _render(db, k):
    """The pattern file's bytes and every counter of the run but its time."""
    patterns, stats = mine_top_k(db, k)
    sink = io.StringIO()
    write_patterns(patterns, sink)
    counters = stats_json(stats)
    del counters["elapsed_ms"]
    return sink.getvalue().encode("utf-8"), counters


@pytest.mark.criterion(8, "deterministic output")
def test_reruns_are_byte_identical(corpus, running_example):
    for db in [running_example, *corpus[:12]]:
        first = _render(db, 8)
        assert _render(db, 8) == first
