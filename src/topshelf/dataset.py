"""Reading and writing the on-disk formats.

Database lines have four colon-separated fields:

    <item ids, space separated> : <TU> : <item utilities, space separated> : <period>

e.g. ``1 4:45:15 30:1`` is a transaction holding items 1 and 4 with utilities
15 and 30, declared total 45, in period 1. Comment lines start with ``#``,
``%`` or ``@``. Item utilities are signed; the declared TU must equal their
sum. Pattern output lines look like

    2 5 #UTIL: 28 #TO: 154 #RU: 28/154

with the ratio printed unreduced as utility/period_total.
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
    """
    transactions: list[Transaction] = []
    signs: dict[int, int] = {}
    period_totals: dict[int, Money] = {}

    for lineno, raw in enumerate(_lines_of(source), start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split(":")
        if len(parts) != 4:
            raise MalformedLine(lineno, f"expected 4 ':'-separated fields, got {len(parts)}")
        id_field, tu_field, util_field, period_field = (p.strip() for p in parts)
        try:
            ids = [int(tok) for tok in id_field.split()]
            declared_tu = int(tu_field)
            utils = [int(tok) for tok in util_field.split()]
            period = int(period_field)
        except ValueError as exc:
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

        seen_here = set()
        for item, util in zip(ids, utils):
            if item <= 0:
                raise MalformedLine(lineno, f"item ids must be positive, got {item}")
            if item in seen_here:
                raise DuplicateItemInTransaction(lineno, item)
            seen_here.add(item)
            if util == 0:
                raise ZeroUtilityItem(lineno, item)
            sign = 1 if util > 0 else -1
            prior = signs.get(item)
            if prior is None:
                signs[item] = sign
            elif prior != sign:
                raise InconsistentProfitSign(lineno, item)

        actual_tu = sum(utils)
        if actual_tu != declared_tu:
            raise TUChecksumMismatch(lineno, declared_tu, actual_tu)

        tid = len(transactions) + 1
        transactions.append(
            Transaction(tid=tid, period=period, items=tuple(ids), utilities=tuple(utils))
        )
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
