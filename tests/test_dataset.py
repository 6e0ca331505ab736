"""File format: parsing, validation, and round-trips."""

import gc
import io
import tracemalloc
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
    # transactions keep input order
    assert [sum(t.utilities) for t in db.transactions] == [21, 29, 45, 15, 39, 15, 10, 19]
    assert [t.period for t in db.transactions] == [1, 0, 1, 2, 2, 2, 0, 1]
    assert sum(db.transactions[1].utilities) == 29
    assert db.transactions[4].items == (2, 3, 4, 5)
    assert db.transactions[4].utilities == (-3, -4, 36, 10)


def test_parse_single_line():
    db = parse_database("5:10:10:0\n")
    assert len(db) == 1
    assert db.period_totals == {0: 10}
    assert db.transactions[0].items == (5,)


def test_comments_and_blank_lines_are_skipped():
    # a comment line is skipped whatever it holds, four fields too
    text = "# header\n\n% more\n@ attrs\n# a:b:c:d\n  @ 1:2:3:4\n1 2:7:3 4:0\n"
    db = parse_database(text)
    assert len(db) == 1
    assert db.transactions[0].items == (1, 2)


def test_ids_and_periods_are_one_object_per_value():
    # ids and periods above 256, which CPython does not cache itself
    text = (
        "1005 1002:30:10 20:900\n"
        "1002 1003:5:7 -2:300\n"
        "1005 1003:8:10 -2:900\n"
        "1003:-2:-2:300\n"
        "1004 1005:13:3 10:600\n"
    )
    db = parse_database(text)
    id_objects = {id(i) for t in db.transactions for i in t.items}
    period_objects = {id(t.period) for t in db.transactions}
    assert len(id_objects) == len(db.item_signs) == 4
    assert len(period_objects) == len(db.periods) == 3
    # the keys are the same objects the rows hold, in first-occurrence order
    assert {id(i) for i in db.item_signs} == id_objects
    assert {id(p) for p in db.period_totals} == period_objects
    assert {id(p) for p in db.periods} == period_objects
    assert list(db.item_signs) == [1005, 1002, 1003, 1004]
    assert list(db.period_totals) == [900, 300, 600]
    assert db.period_totals == {900: 38, 300: 3, 600: 13}


# The parse may peak at most this far above the database it returns. On the
# rows below, sharing ids through an int-keyed table peaks at 1.29x on
# all-distinct ids, and all-distinct utilities, which are not shared, at
# 1.03x, on CPython 3.10 and 3.11 alike. A table keyed by token would peak at
# 1.64x (3.11) to 1.71x (3.10) on the ids, and sharing utilities that way at
# 1.94x to 2.04x.
PARSE_PEAK_LIMIT = 1.5


@pytest.mark.parametrize("distinct", ["ids", "utilities"])
def test_parse_peak_stays_near_the_database(distinct):
    lines = []
    for row in range(3000):
        if distinct == "ids":
            ids, utils = [3 * row + 1, 3 * row + 2, 3 * row + 3], [1, 2, 3]
        else:
            ids = [1, 2, 3]
            utils = [2**60 + 3 * row + j for j in range(3)]
        lines.append(
            f"{' '.join(map(str, ids))}:{sum(utils)}:{' '.join(map(str, utils))}:{row % 4}\n"
        )
    gc.collect()
    tracemalloc.start()
    try:
        db = parse_database(lines)
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db) == 3000
    assert peak < PARSE_PEAK_LIMIT * resident


def test_parse_parks_no_memory_in_free_lists():
    # A container discarded per row can be parked on a CPython free list,
    # where it holds memory that the database does not use and that the peak
    # test above counts as resident. A full collection empties the free lists.
    lines = []
    for row in range(3000):
        ids = [6 * row + j for j in range(1, 7)]
        utils = [1, 2, 3, 4, 5, 6]
        lines.append(
            f"{' '.join(map(str, ids))}:{sum(utils)}:{' '.join(map(str, utils))}:{row % 4}\n"
        )
    gc.collect()
    tracemalloc.start()
    try:
        db = parse_database(lines)
        resident = tracemalloc.get_traced_memory()[0]
        gc.collect()
        collected = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(db) == 3000
    assert resident <= 1.05 * collected


def _same_database(a, b):
    assert a == b
    assert list(a.item_signs) == list(b.item_signs)
    assert list(a.period_totals) == list(b.period_totals)


def test_crlf_and_padded_fields_parse_as_their_plain_twins(running_text):
    # str sources go through StringIO, which leaves '\r\n' as it is
    plain = parse_database(running_text)
    crlf = running_text.replace("\n", "\r\n")
    _same_database(parse_database(crlf), plain)
    for pad in (" ", "\t", " \t "):
        padded = "".join(
            pad
            + f"{pad}:{pad}".join(pad.join(field.split()) for field in line.split(":"))
            + pad
            + "\n"
            for line in running_text.splitlines()
        )
        assert padded.count(f"{pad}:{pad}") == 3 * len(plain)
        _same_database(parse_database(padded), plain)
        _same_database(parse_database(padded.replace("\n", "\r\n")), plain)


@pytest.mark.parametrize(
    "comment",
    ["#1 2:3:1 2:0", "%1 2:3:4:5", "@7 8:1:1 1:0", " \t%5:5:5:0\r", "#:1:1:0"],
)
def test_four_field_comments_are_skipped(comment):
    # each splits into four fields and fails the integer parse on its first token
    for text in (f"{comment}\n1 2:7:3 4:0\n", f"1 2:7:3 4:0\r\n{comment}\r\n"):
        db = parse_database(text)
        assert len(db) == 1
        assert db.transactions[0].items == (1, 2)


@pytest.mark.parametrize(
    "text, token",
    [
        ("  x1 2:3:1 2:0", "x1"),
        ("\t1 2 :\t3y :1 2:0\r", "3y"),
        (" 1 2 : 3 : 1 2 :\t0x \r", "0x"),
        ("1 2:3:1 2:0\r\n 1 $:3:1 2:0\r", "$"),
    ],
)
def test_padded_non_comment_line_quotes_the_stripped_token(text, token):
    with pytest.raises(MalformedLine) as info:
        parse_database(text + "\n")
    lineno = text.count("\n") + 1
    assert info.value.lineno == lineno
    assert str(info.value) == f"line {lineno}: {_NOT_INT.format(token)}"


def test_parse_accepts_file_objects(running_text):
    db = parse_database(io.StringIO(running_text))
    assert len(db) == 8


def test_round_trip_is_exact(running_example):
    again = parse_database(database_text(running_example))
    assert again.transactions == running_example.transactions
    assert again.period_totals == running_example.period_totals
    assert again.item_signs == running_example.item_signs


_NOT_INT = "non-integer field (invalid literal for int() with base 10: {!r})"
_ZERO = "item {} has zero utility; zero would leave its profit sign ambiguous"


_BAD_LINES = [
    ("1 2:5:2 3", MalformedLine, 1, "expected 4 ':'-separated fields, got 3"),
    ("1 2:5:2 3:0:9", MalformedLine, 1, "expected 4 ':'-separated fields, got 5"),
    ("1 x:5:2 3:0", MalformedLine, 1, _NOT_INT.format("x")),
    ("1 2:5:2 z:0", MalformedLine, 1, _NOT_INT.format("z")),
    # space-padded fields: the message quotes the stripped token
    (" 1 2 : x : 2 3 : 0 ", MalformedLine, 1, _NOT_INT.format("x")),
    ("1 2: 5 :2  y :0", MalformedLine, 1, _NOT_INT.format("y")),
    (" 1 2 :5: 2 3 : 1.5 ", MalformedLine, 1, _NOT_INT.format("1.5")),
    ("# c\n\n1 x:5:2 3:0", MalformedLine, 3, _NOT_INT.format("x")),
    (":5::0", MalformedLine, 1, "transaction has no items"),
    ("1 2:5:2:0", MalformedLine, 1, "2 items but 1 utilities"),
    ("1 2:5:2 3:-1", MalformedLine, 1, "negative period -1"),
    ("0 2:5:2 3:0", MalformedLine, 1, "item ids must be positive, got 0"),
    ("1 -2:5:2 3:0", MalformedLine, 1, "item ids must be positive, got -2"),
    (
        "1 2:99999999999999999999:2 3:0",
        MalformedLine,
        1,
        "value 99999999999999999999 out of 64-bit range",
    ),
    (
        "1 2:5:2 -99999999999999999999:0",
        MalformedLine,
        1,
        "value -99999999999999999999 out of 64-bit range",
    ),
    (
        "1 2:5:2 3:99999999999999999999",
        MalformedLine,
        1,
        "value 99999999999999999999 out of 64-bit range",
    ),
    # the range check comes before the per-item checks
    (
        "99999999999999999999 2:5:0 5:0",
        MalformedLine,
        1,
        "value 99999999999999999999 out of 64-bit range",
    ),
    (
        "1 1:5:99999999999999999999 3:0",
        MalformedLine,
        1,
        "value 99999999999999999999 out of 64-bit range",
    ),
    ("1 1:6:3 3:0", DuplicateItemInTransaction, 1, "item 1 appears twice in one transaction"),
    # the per-item checks run item by item: the duplicate 3 comes first
    ("3 3 0:6:2 2 2:0", DuplicateItemInTransaction, 1, "item 3 appears twice in one transaction"),
    ("1 2:3:3 0:0", ZeroUtilityItem, 1, _ZERO.format(2)),
    # a sign flip, on a row that also brings the new item 2
    (
        "1:5:5:0\n2 1:3:5 -2:0",
        InconsistentProfitSign,
        2,
        "item 1 changes profit sign between transactions",
    ),
    # a sign flip before a zero utility, and before a checksum mismatch
    (
        "1:5:5:0\n1 2 3:2:-1 3 0:0",
        InconsistentProfitSign,
        2,
        "item 1 changes profit sign between transactions",
    ),
    ("1:5:5:0\n1:9:-3:0", InconsistentProfitSign, 2, "item 1 changes profit sign between transactions"),
    (
        "1 2:9:2 3:0",
        TUChecksumMismatch,
        1,
        "declared transaction utility 9 != sum of item utilities 5",
    ),
]


@pytest.mark.parametrize(
    "text, error, lineno, reason",
    _BAD_LINES,
    ids=[f"{text}-{error.__name__}" for text, error, _, _ in _BAD_LINES],
)
def test_bad_lines_are_rejected(text, error, lineno, reason):
    with pytest.raises(error) as info:
        parse_database(text + "\n")
    assert type(info.value) is error
    assert info.value.lineno == lineno
    assert str(info.value) == f"line {lineno}: {reason}"


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
