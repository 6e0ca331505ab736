"""Property tests: the miner against brute force on drawn databases.

Each test draws databases of a shape the seeded corpus never produces
(hundreds of periods, a lone profitable item, nothing but duplicate rows,
utilities near the parser's 64-bit limit, k beyond the pattern count) and
requires mine_top_k to return exactly oracle_top_k's answer. Rows too long
for the oracle are checked by requiring the pruning ablations to agree.

Hypothesis runs derandomized with no example database, so every run draws
the same examples. Its cache of the constants it finds in the source goes to
a temporary directory, so a run leaves nothing in the checkout.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from topshelf.dataset import parse_database
from topshelf.oracle import OracleLimits, oracle_top_k
from topshelf.search import mine_top_k

# The parser's bound on every field, the row total included.
LIMIT = 2**63 - 1

# The oracle refuses more distinct items than this.
ORACLE_ITEMS = OracleLimits().max_items


# The hypothesis pytest plugin caches the constants it finds in the source
# while collecting, before any fixture runs, so the cache is moved at import.
# The directory is deleted when the interpreter exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def deterministic(max_examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


@st.composite
def databases(
    draw,
    *,
    items=st.integers(1, ORACLE_ITEMS),
    profitable=lambda n: st.integers(1, n),
    periods=st.integers(1, 4),
    rows=st.integers(1, 12),
    lengths=st.integers(1, 6),
    magnitude=st.integers(1, 30),
    copies=st.just(1),
    round_robin=False,
):
    """Database text over items 1..n, some of them sold at a loss.

    profitable(n) draws how many of the n items have positive utility.
    Each row takes a drawn number of distinct items, each utility the
    item's sign times a drawn magnitude, and a period below the drawn
    period count (row i takes period i modulo the count with round_robin
    set, which occupies every period once there are enough rows). A period whose total is not positive gets single-item
    rows of a profitable item until it is, so every drawn database parses.
    Each row is then written a drawn number of times.
    """
    n = draw(items)
    n_profitable = draw(profitable(n))
    order = draw(st.permutations(range(1, n + 1)))
    sign = {item: 1 if rank < n_profitable else -1 for rank, item in enumerate(order)}
    n_periods = draw(periods)
    lines = []
    totals: dict[int, int] = {}
    for index in range(draw(rows)):
        row = draw(st.permutations(order))[: min(n, draw(lengths))]
        utils = [sign[item] * draw(magnitude) for item in row]
        period = index % n_periods if round_robin else draw(st.integers(0, n_periods - 1))
        lines.append(f"{' '.join(map(str, row))}:{sum(utils)}:{' '.join(map(str, utils))}:{period}\n")
        totals[period] = totals.get(period, 0) + sum(utils)
    for period, total in sorted(totals.items()):
        while total <= 0:
            top_up = min(LIMIT, 1 - total)
            lines.append(f"{order[0]}:{top_up}:{top_up}:{period}\n")
            total += top_up
    n_copies = draw(copies)
    return "".join(line * n_copies for line in lines)


@st.composite
def cases(draw, texts):
    """A drawn database and a k at, above, far above or below its count of
    non-negative-ratio patterns, with the oracle's answer at that k."""
    db = parse_database(draw(texts))
    ranked = oracle_top_k(db, 2**62)
    count = max(len(ranked), 1)
    k = draw(st.sampled_from([count, count + 1, 50 * count]) | st.integers(1, count))
    return db, k, ranked[:k]


def assert_matches_oracle(case):
    db, k, expected = case
    mined, stats = mine_top_k(db, k)
    assert mined == expected
    assert stats.patterns == len(expected)


@deterministic(100)
@given(cases(databases()))
def test_small_databases_match_oracle(case):
    assert_matches_oracle(case)


@deterministic(25)
@given(cases(databases(periods=st.just(1), rows=st.integers(1, 20))))
def test_one_period_matches_oracle(case):
    assert_matches_oracle(case)


@deterministic(15)
@given(
    cases(
        databases(
            periods=st.integers(2, 365),
            rows=st.integers(50, 400),
            lengths=st.integers(1, 4),
            round_robin=True,
        )
    )
)
def test_up_to_365_periods_match_oracle(case):
    assert_matches_oracle(case)


@deterministic(25)
@given(
    cases(
        databases(
            items=st.integers(2, ORACLE_ITEMS),
            profitable=lambda n: st.just(1),
            rows=st.integers(1, 16),
        )
    )
)
def test_one_profitable_item_among_losing_ones_matches_oracle(case):
    assert_matches_oracle(case)


@deterministic(25)
@given(cases(databases(rows=st.integers(1, 4), copies=st.integers(2, 6))))
def test_all_duplicate_rows_match_oracle(case):
    assert_matches_oracle(case)


@deterministic(25)
@given(
    cases(
        databases(
            items=st.integers(4, ORACLE_ITEMS),
            rows=st.integers(3, 12),
            lengths=st.integers(1, 3),
            magnitude=st.integers(LIMIT // 3 - 2**16, LIMIT // 3),
        )
    )
)
def test_utilities_near_the_64_bit_limit_match_oracle(case):
    assert_matches_oracle(case)


@deterministic(4)
@given(
    databases(
        items=st.integers(100, 130),
        profitable=lambda n: st.integers(n - 3, n),
        periods=st.integers(1, 2),
        rows=st.integers(1, 2),
        lengths=st.integers(100, 120),
    ),
    st.integers(1, 3),
)
def test_pruning_ablations_agree_on_rows_too_long_for_the_oracle(text, k):
    # Turning both prunings off enumerates every subset of a row, so each
    # run leaves one of them on. The cost of the su_prune=False run grows
    # fast with k: on one 127-item row, k=20 takes 6.7 s against 0.7 s at
    # k=1.
    db = parse_database(text)
    reference, _ = mine_top_k(db, k)
    assert mine_top_k(db, k, su_prune=False)[0] == reference
    assert mine_top_k(db, k, lu_prune=False)[0] == reference
