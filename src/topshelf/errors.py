"""Exception types shared across the package."""


class TopshelfError(Exception):
    """Base class for every error this package raises on purpose."""


class DatasetError(TopshelfError, ValueError):
    """An input database is malformed or fails validation."""


class MalformedLine(DatasetError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


class DuplicateItemInTransaction(DatasetError):
    def __init__(self, lineno: int, item: int):
        super().__init__(f"line {lineno}: item {item} appears twice in one transaction")
        self.lineno = lineno
        self.item = item


class TUChecksumMismatch(DatasetError):
    def __init__(self, lineno: int, declared: int, actual: int):
        super().__init__(
            f"line {lineno}: declared transaction utility {declared} "
            f"!= sum of item utilities {actual}"
        )
        self.lineno = lineno
        self.declared = declared
        self.actual = actual


class InconsistentProfitSign(DatasetError):
    def __init__(self, lineno: int, item: int):
        super().__init__(
            f"line {lineno}: item {item} changes profit sign between transactions"
        )
        self.lineno = lineno
        self.item = item


class ZeroUtilityItem(DatasetError):
    def __init__(self, lineno: int, item: int):
        super().__init__(
            f"line {lineno}: item {item} has zero utility; "
            "zero would leave its profit sign ambiguous"
        )
        self.lineno = lineno
        self.item = item


class NonPositivePeriodTotal(DatasetError):
    def __init__(self, period: int, total: int):
        super().__init__(f"period {period} has non-positive total utility {total}")
        self.period = period
        self.total = total


class EmptyDatabase(DatasetError):
    def __init__(self):
        super().__init__("database contains no transactions")


class TooManyItems(DatasetError):
    def __init__(self, count: int, limit: int):
        super().__init__(f"database has {count} distinct items, limit is {limit}")
        self.count = count
        self.limit = limit


class InvalidK(TopshelfError, ValueError):
    def __init__(self, k: int):
        super().__init__(f"k must be a positive integer, got {k}")
        self.k = k


class TooLargeForOracle(TopshelfError):
    """Brute-force enumeration was refused because the database is too large."""

    def __init__(self, count: int, limit: int):
        super().__init__(
            f"{count} distinct items exceeds the oracle limit of {limit}; "
            "refusing to enumerate"
        )
        self.count = count
        self.limit = limit


class InfeasibleParams(TopshelfError, ValueError):
    """Generator parameters cannot produce a valid database."""


class InvalidBenchParams(TopshelfError, ValueError):
    """Benchmark arguments out of range: a k list that is not integers, no
    k values, a k below 1, or a repeat count, period count or time budget
    below 1."""
