"""Shared fixtures: the worked-example database, a seeded random corpus,
and the acceptance summary hook (one PASS/FAIL line per criterion)."""

import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest

from topshelf import parse_database, search
from topshelf.errors import InfeasibleParams
from topshelf.generator import GeneratorParams, generate
from topshelf.oracle import relative_utility
from topshelf.prepare import (
    ItemOrder,
    build_item_order,
    build_working_database,
    compute_period_twu,
)


def pipeline(db, merge=True, drop=()):
    """Order over every item but those in drop, the working database, and
    its root projection. The order is build_item_order's at threshold zero,
    which keeps every item, with the items of drop taken out."""
    table, utility = compute_period_twu(db)
    order = build_item_order(table, utility, db.period_totals, 0, 1)
    if drop:
        kept = [i for i in order.sequence if i not in drop]
        order = ItemOrder(
            sequence=tuple(kept),
            position={i: d for d, i in enumerate(kept)},
            boundary=sum(utility[i] > 0 for i in kept),
        )
    working, _ = build_working_database(db, order, merge=merge)
    return order, working, working.root


class _SearchStarts(Exception):
    """Carries what the search is handed out of mine_top_k."""


def search_start(db, k, **flags):
    """(collector, working) as mine_top_k(db, k, **flags) hands them to
    _search, which is not run: the collector seeded with the singletons,
    holding the seed threshold, and the working database, whose order gives
    the boundary, the external ids and the widths of the search's rows, and
    whose root the search starts from."""

    def start(working, collector, stats, **flags):
        raise _SearchStarts(collector, working)

    with mock.patch.object(search, "_search", start):
        try:
            search.mine_top_k(db, k, **flags)
        except _SearchStarts as started:
            return started.args
    raise AssertionError("mine_top_k started no search")


def watch_searches(monkeypatch):
    """A list to which each mining run, from now on in the test, appends
    what its search is handed, before the search runs: a namespace of the
    working database's order, the collector, su_prune and lu_prune."""
    runs = []
    run = search._search

    def searched(working, collector, stats, **flags):
        runs.append(SimpleNamespace(order=working.order, collector=collector, **flags))
        run(working, collector, stats, **flags)

    monkeypatch.setattr(search, "_search", searched)
    return runs


def fraction_singleton_threshold(db, k):
    """The seed threshold's definition, ranked in Fractions: the k-th best
    single-item ratio where at least k of them are non-negative, else 0."""
    ratios = sorted((relative_utility(db, (i,)) for i in db.item_signs), reverse=True)
    if sum(r >= 0 for r in ratios) < k:
        return Fraction(0)
    return ratios[k - 1]

# Five items a..e mapped to ids 1..5 with unit profits 5, -3, -2, 3, 10.
# Eight transactions across periods {0, 1, 2}; utilities are profit * qty.
RUNNING_EXAMPLE = """\
1 2 4 5:21:5 -6 12 10:1
2 3 4:29:-3 -4 36:0
1 4:45:15 30:1
1 5:15:5 10:2
2 3 4 5:39:-3 -4 36 10:2
2 3 5:15:-3 -2 20:2
1:10:10:0
2 3 4:19:-3 -2 24:1
"""

A, B, C, D, E = 1, 2, 3, 4, 5


@pytest.fixture(scope="session")
def running_text() -> str:
    return RUNNING_EXAMPLE


@pytest.fixture(scope="session")
def running_example():
    return parse_database(RUNNING_EXAMPLE)


def build_corpus(count: int = 200):
    """Deterministic pool of small mixed-sign databases.

    Parameters vary per draw; the loss-making item share cycles through
    0, 0.2 and 0.4. Draws the generator cannot place (negative period
    totals) are skipped, so exactly `count` databases come back for a
    fixed master seed.
    """
    rng = random.Random(20260817)
    out = []
    seed = 0
    neg_cycle = (0.0, 0.2, 0.4)
    while len(out) < count:
        seed += 1
        params = GeneratorParams(
            transactions=rng.randint(4, 30),
            items=rng.randint(3, 12),
            periods=rng.randint(1, 4),
            avg_len=rng.randint(2, 5),
            neg_frac=neg_cycle[len(out) % 3],
            max_qty=rng.randint(1, 5),
            max_profit=rng.randint(1, 10),
            seed=seed,
        )
        try:
            text = generate(params)
        except InfeasibleParams:
            continue
        out.append(parse_database(text))
    return out


@pytest.fixture(scope="session")
def corpus():
    return build_corpus(200)


@pytest.fixture(scope="session")
def narrow_corpus(corpus):
    """Corpus members with at most 8 distinct items, for exhaustive
    bound-chain sweeps."""
    return [db for db in corpus if len(db.item_signs) <= 8][:12]


# --- acceptance summary -----------------------------------------------------
# Tests marked @pytest.mark.criterion(n, label) are tallied here; the
# terminal summary prints one verdict line per criterion. Expected failures
# count toward a PASS (they document input inconsistencies, not defects);
# anything failed or unexpectedly passing flips the line to FAIL.

_TALLY: dict[int, dict] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, label = marker.args
    entry = _TALLY.setdefault(
        number,
        {"label": label, "passed": 0, "failed": 0, "xfailed": 0, "skipped": 0},
    )
    if report.when != "call" and not report.failed:
        return
    if hasattr(report, "wasxfail"):
        if report.skipped:
            entry["xfailed"] += 1
        else:  # unexpectedly green; with strict xfail this shows as failed
            entry["failed"] += 1
    elif report.failed:
        entry["failed"] += 1
    elif report.passed:
        entry["passed"] += 1
    elif report.skipped:
        entry["skipped"] += 1


def pytest_terminal_summary(terminalreporter):
    if not _TALLY:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_TALLY):
        entry = _TALLY[number]
        ran = entry["passed"] + entry["xfailed"]
        verdict = "PASS" if entry["failed"] == 0 and ran > 0 else "FAIL"
        parts = [f"passed={entry['passed']}"]
        for key in ("xfailed", "skipped", "failed"):
            if entry[key]:
                parts.append(f"{key}={entry[key]}")
        terminalreporter.write_line(
            f"ACCEPTANCE {number} {entry['label']}: {verdict} ({', '.join(parts)})"
        )
