"""File format: parsing, validation, and round-trips."""

import io
from fractions import Fraction

import pytest

from topshelf.dataset import (
    database_from_quantities,
    database_text,
    parse_database,
    patterns_text,
    write_patterns,
)
from topshelf.domain import Pattern
from topshelf.errors import (
    DatasetError,
    DuplicateItemInTransaction,
    EmptyDatabase,
    InconsistentProfitSign,
    MalformedLine,
    NonPositivePeriodTotal,
    TUChecksumMismatch,
    ZeroUtilityItem,
)


def test_parse_worked_example(running_example):
    db = running_example
    assert len(db) == 8
    assert db.periods == frozenset({0, 1, 2})
    assert db.period_totals == {0: 39, 1: 85, 2: 69}
    assert db.item_signs == {1: 1, 2: -1, 3: -1, 4: 1, 5: 1}
    # tids are 1-based line ordinals
    assert [t.tid for t in db.transactions] == list(range(1, 9))
    assert sum(db.transactions[1].utilities) == 29
    assert db.transactions[4].items == (2, 3, 4, 5)
    assert db.transactions[4].utilities == (-3, -4, 36, 10)


def test_parse_single_line():
    db = parse_database("5:10:10:0\n")
    assert len(db) == 1
    assert db.period_totals == {0: 10}
    assert db.transactions[0].items == (5,)


def test_comments_and_blank_lines_are_skipped():
    text = "# header\n\n% more\n@ attrs\n1 2:7:3 4:0\n"
    db = parse_database(text)
    assert len(db) == 1
    assert db.transactions[0].tid == 1


def test_parse_accepts_file_objects(running_text):
    db = parse_database(io.StringIO(running_text))
    assert len(db) == 8


def test_round_trip_is_exact(running_example):
    again = parse_database(database_text(running_example))
    assert again.transactions == running_example.transactions
    assert again.period_totals == running_example.period_totals
    assert again.item_signs == running_example.item_signs


@pytest.mark.parametrize(
    "line, error",
    [
        ("1 2:5:2 3", MalformedLine),  # field count
        ("1 2:5:2 3:0:9", MalformedLine),
        ("1 x:5:2 3:0", MalformedLine),  # non-integer token
        ("1 2:5:2 z:0", MalformedLine),
        (":5::0", MalformedLine),  # empty transaction
        ("1 2:5:2:0", MalformedLine),  # arity mismatch
        ("1 2:5:2 3:-1", MalformedLine),  # negative period
        ("0 2:5:2 3:0", MalformedLine),  # nonpositive item id
        ("1 2:99999999999999999999:2 3:0", MalformedLine),  # out of 64-bit range
        ("1 1:6:3 3:0", DuplicateItemInTransaction),
        ("1 2:3:3 0:0", ZeroUtilityItem),
        ("1 2:9:2 3:0", TUChecksumMismatch),
    ],
)
def test_bad_lines_are_rejected(line, error):
    with pytest.raises(error):
        parse_database(line + "\n")


def test_checksum_error_reports_both_values():
    with pytest.raises(TUChecksumMismatch) as info:
        parse_database("4 5:10:2 3:0\n")
    assert info.value.declared == 10
    assert info.value.actual == 5
    assert info.value.lineno == 1


def test_profit_sign_must_be_consistent_across_transactions():
    text = "1 2:7:3 4:0\n2:-4:-4:0\n"
    with pytest.raises(InconsistentProfitSign):
        parse_database(text)


def test_empty_input_is_rejected():
    with pytest.raises(EmptyDatabase):
        parse_database("# only comments\n\n")


def test_nonpositive_period_total_is_rejected():
    # period 1 sums to -2 even though each line passes its own checksum
    text = "1:5:5:0\n2:-2:-2:1\n"
    with pytest.raises(NonPositivePeriodTotal) as info:
        parse_database(text)
    assert info.value.period == 1
    assert info.value.total == -2


def test_dataset_errors_are_value_errors():
    with pytest.raises(ValueError):
        parse_database("garbage\n")
    assert issubclass(MalformedLine, DatasetError)


def test_pattern_line_format_is_unreduced():
    p = Pattern(
        items=(2, 5),
        utility=28,
        periods=frozenset({1, 2}),
        period_total=154,
        relative_utility=Fraction(28, 154),
    )
    assert patterns_text([p]) == "2 5 #UTIL: 28 #TO: 154 #RU: 28/154\n"
    sink = io.StringIO()
    write_patterns([p, p], sink)
    assert sink.getvalue().count("\n") == 2


def test_database_from_quantities_matches_hand_encoding(running_example):
    profits = {1: 5, 2: -3, 3: -2, 4: 3, 5: 10}
    rows = [
        (1, [(1, 1), (2, 2), (4, 4), (5, 1)]),
        (0, [(2, 1), (3, 2), (4, 12)]),
        (1, [(1, 3), (4, 10)]),
        (2, [(1, 1), (5, 1)]),
        (2, [(2, 1), (3, 2), (4, 12), (5, 1)]),
        (2, [(2, 1), (3, 1), (5, 2)]),
        (0, [(1, 2)]),
        (1, [(2, 1), (3, 1), (4, 8)]),
    ]
    db = database_from_quantities(profits, rows)
    assert db.transactions == running_example.transactions
    assert db.period_totals == running_example.period_totals
