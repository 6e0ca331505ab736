"""Reading and writing the on-disk formats.

Database lines have four colon-separated fields:

    <item ids, space separated> : <TU> : <item utilities, space separated> : <period>

e.g. ``1 4:45:15 30:1`` is a transaction holding items 1 and 4 with utilities
15 and 30, declared total 45, in period 1. Fields may be padded with
whitespace. Blank lines are skipped, and so are comment lines, which start
with ``#``, ``%`` or ``@`` after any leading whitespace, whatever they hold.
Item utilities are signed; the declared TU must equal their sum.
``parse_database`` gives the order of the checks, and why it looks for
comments only on lines that fail to parse. Pattern output lines look like

    2 5 #UTIL: 28 #TO: 154 #RU: 28/154

with the ratio printed unreduced as utility/period_total.

The parsed database holds one int object per distinct item id and per
distinct period. CPython caches only the ints -5..256, so without sharing
every occurrence of a larger id would be a separate 32-byte object; the
acceptance-7 database (50,000 rows, 500 items) takes 13.4 MB of
``tracemalloc`` with sharing and 17.5 MB without. The sharing table is keyed
by int and dropped when the parse ends. Utilities are not shared, because
they are mostly distinct and a table would raise the parse's peak for no
resident gain. Worst cases, 40,000 rows of three values (parse peak):

- every id distinct: 21.9 MB with the int-keyed table against 16.6 MB
  unshared (a table keyed by token peaks at 27.0 MB);
- every utility distinct, near 2**60: 12.4 MB unshared, against 24.4 MB
  with utilities shared through a token-keyed table.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .domain import Money, Pattern, Transaction
from .errors import (
    DuplicateItemInTransaction,
    EmptyDatabase,
    InconsistentProfitSign,
    MalformedLine,
    NonPositivePeriodTotal,
    TUChecksumMismatch,
    ZeroUtilityItem,
)

_COMMENT_PREFIXES = ("#", "%", "@")
_INT_LIMIT = 2**63 - 1  # fields are range-checked even though ints cannot overflow


@dataclass(frozen=True, slots=True)
class OnShelfDatabase:
    """A validated period-annotated transaction database.

    period_totals holds pto(h), the summed transaction utilities per period,
    frozen at parse time; it is never recomputed after items are trimmed.
    item_signs maps each item id to +1 or -1 (the profit sign it showed
    consistently across all its occurrences).

    Item ids and periods are shared: equal ids (and equal periods) across
    transactions, item_signs, periods and period_totals are one int object.
    Utilities are kept as parsed; the module docstring gives the measured
    cost of sharing them.
    """

    transactions: tuple[Transaction, ...]
    item_signs: dict[int, int]
    periods: frozenset[int]
    period_totals: dict[int, Money]

    def __len__(self) -> int:
        return len(self.transactions)


def _lines_of(source: str | TextIO | Iterable[str]) -> Iterator[str]:
    if isinstance(source, str):
        return iter(io.StringIO(source))
    return iter(source)


def parse_database(source: str | TextIO | Iterable[str]) -> OnShelfDatabase:
    """Parse a database from a string or line iterable, validating as it goes.

    Raises DatasetError subclasses on the first violation: malformed lines,
    duplicated items, zero utilities, TU checksum mismatches, profit-sign
    flips, empty input, or a period whose total utility is not positive.

    Each row is checked in this order, and the first failure is raised:

    1. four ':'-separated fields;
    2. every field an integer (ids, TU, utilities, period, in that order);
    3. at least one item, as many utilities as items, a period >= 0;
    4. every value within 64 bits (ids, TU, utilities, period);
    5. item by item: id > 0, not repeated in the row, utility != 0, and the
       same profit sign as the item's earlier rows;
    6. the declared TU equals the sum of the utilities.

    After the last row: at least one transaction, and every period total
    positive (lowest period first).

    Blank and comment lines are recognised only on the way to a failure: a
    line is stripped and tested when it does not split into four fields, or
    when a four-field line fails the integer parse. That is exact. Stripping
    removes no ':', so a blank line or a comment is skipped at the first
    test or reaches the second; and a comment's first token starts with
    ``#``, ``%`` or ``@``, on which ``int()`` always fails. Every other line
    is split once, unstripped: ids and utilities are split on whitespace
    (spaces, tabs, '\\r'), and TU and period are stripped so that a
    non-integer message quotes the stripped token.

    Ids and utilities are read into lists, not tuples. The row keeps only
    the shared ids, and a tuple discarded per row is parked on CPython's
    tuple free list, which holds memory after the parse that the database
    does not use (10% of it on 3,000 rows of six distinct ids, against 0.3%
    with a list). The row keeps ``tuple(utils)``, sized exactly: a
    ``tuple(map(...))`` starts at ten slots and shrinks in place, so rows of
    8 to 10 values keep a larger block, 1.2-1.8% more allocated memory on
    the perfbench databases. Against parsing a stripped line's stripped
    fields, this loop cut perfbench ``setup_s`` (median of 10 alternating
    25-s pairs, 2-core x86-64, CPython 3.11.7) by 14.3% on ``uniform-10k``
    (0.1029 -> 0.0882 s), 12.8% on ``daily-365``, 12.1% on
    ``retail-skewed`` and 8.7% on ``long-basket``.
    """
    transactions: list[Transaction] = []
    append = transactions.append
    signs: dict[int, int] = {}
    period_totals: dict[int, Money] = {}
    # one int object per distinct item id and period (see OnShelfDatabase)
    share = {}.setdefault

    for lineno, raw in enumerate(_lines_of(source), start=1):
        parts = raw.split(":")
        if len(parts) != 4:
            line = raw.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            raise MalformedLine(lineno, f"expected 4 ':'-separated fields, got {len(parts)}")
        id_field, tu_field, util_field, period_field = parts
        try:
            ids = list(map(int, id_field.split()))
            declared_tu = int(tu_field.strip())
            utils = list(map(int, util_field.split()))
            period = int(period_field.strip())
        except ValueError as exc:
            if raw.lstrip().startswith(_COMMENT_PREFIXES):
                continue
            raise MalformedLine(lineno, f"non-integer field ({exc})") from None

        if not ids:
            raise MalformedLine(lineno, "transaction has no items")
        if len(ids) != len(utils):
            raise MalformedLine(
                lineno, f"{len(ids)} items but {len(utils)} utilities"
            )
        if period < 0:
            raise MalformedLine(lineno, f"negative period {period}")
        for value in (*ids, declared_tu, *utils, period):
            if abs(value) > _INT_LIMIT:
                raise MalformedLine(lineno, f"value {value} out of 64-bit range")

        items = tuple(map(share, ids, ids))
        seen_here = set()
        for item, util in zip(items, utils):
            if item <= 0:
                raise MalformedLine(lineno, f"item ids must be positive, got {item}")
            if item in seen_here:
                raise DuplicateItemInTransaction(lineno, item)
            seen_here.add(item)
            if util == 0:
                raise ZeroUtilityItem(lineno, item)
            sign = 1 if util > 0 else -1
            if signs.setdefault(item, sign) != sign:
                raise InconsistentProfitSign(lineno, item)

        actual_tu = sum(utils)
        if actual_tu != declared_tu:
            raise TUChecksumMismatch(lineno, declared_tu, actual_tu)

        period = share(period, period)
        append(Transaction(period, items, tuple(utils)))
        period_totals[period] = period_totals.get(period, 0) + actual_tu

    if not transactions:
        raise EmptyDatabase()
    for period in sorted(period_totals):
        if period_totals[period] <= 0:
            raise NonPositivePeriodTotal(period, period_totals[period])

    return OnShelfDatabase(
        transactions=tuple(transactions),
        item_signs=signs,
        periods=frozenset(period_totals),
        period_totals=period_totals,
    )


def write_database(db: OnShelfDatabase, sink: TextIO) -> None:
    """Serialize a database in the input format, one transaction per line.

    Items keep their stored order, so parse(write(db)) reproduces the
    database exactly. The TU field is the sum of the item utilities, which
    parsing has already checked against the declared value.
    """
    for t in db.transactions:
        ids = " ".join(str(i) for i in t.items)
        utils = " ".join(str(u) for u in t.utilities)
        sink.write(f"{ids}:{sum(t.utilities)}:{utils}:{t.period}\n")


def database_text(db: OnShelfDatabase) -> str:
    out = io.StringIO()
    write_database(db, out)
    return out.getvalue()


def write_patterns(patterns: Iterable[Pattern], sink: TextIO) -> None:
    """Write pattern lines in the order given (callers pass ranked lists).

    Output is deterministic byte-for-byte: ascending item ids, fixed field
    markers, '\\n' line ends, and the unreduced utility/period_total ratio.
    """
    for p in patterns:
        ids = " ".join(str(i) for i in p.items)
        sink.write(f"{ids} #UTIL: {p.utility} #TO: {p.period_total} #RU: {p.utility}/{p.period_total}\n")


def patterns_text(patterns: Iterable[Pattern]) -> str:
    out = io.StringIO()
    write_patterns(patterns, out)
    return out.getvalue()


def database_from_quantities(
    profits: dict[int, int],
    rows: Iterable[tuple[int, Iterable[tuple[int, int]]]],
) -> OnShelfDatabase:
    """Build a database from unit profits and (period, [(item, qty), ...]) rows.

    Convenience for tests and demos that start from a profit table rather
    than a file. Item utilities become profit * quantity and the result goes
    through the same validation as parsing.
    """
    lines = []
    for period, entries in rows:
        entries = list(entries)
        ids = " ".join(str(item) for item, _ in entries)
        utils = [profits[item] * qty for item, qty in entries]
        tu = sum(utils)
        util_text = " ".join(str(u) for u in utils)
        lines.append(f"{ids}:{tu}:{util_text}:{period}")
    return parse_database("\n".join(lines) + "\n")
