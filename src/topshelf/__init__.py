"""Top-k on-shelf high relative-utility itemset mining.

Profit-aware pattern mining over transaction databases whose rows are
stamped with shelf periods and whose items may carry negative unit profit.
A pattern's score is its total profit divided by the total turnover of the
periods it appears in, and the miner returns the k best exactly.

Typical use:

    >>> from topshelf import parse_database, mine_top_k
    >>> db = parse_database(open("shelf.txt"))
    >>> patterns, stats = mine_top_k(db, k=10)
"""

from .bench import BenchRecord, reassign_periods, run_bench, write_records
from .dataset import (
    OnShelfDatabase,
    database_from_quantities,
    database_text,
    parse_database,
    patterns_text,
    write_database,
    write_patterns,
)
from .domain import Pattern, Transaction
from .errors import (
    DatasetError,
    EmptyDatabase,
    InfeasibleParams,
    InvalidBenchParams,
    InvalidK,
    TooLargeForOracle,
    TooManyBoundCells,
    TooManyItems,
    TopshelfError,
)
from .generator import GeneratorParams, generate
from .oracle import OracleLimits, enumerate_patterns, oracle_top_k
from .search import SearchStats, mine_top_k, stats_json

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "DatasetError",
    "EmptyDatabase",
    "GeneratorParams",
    "InfeasibleParams",
    "InvalidBenchParams",
    "InvalidK",
    "OnShelfDatabase",
    "OracleLimits",
    "Pattern",
    "SearchStats",
    "TooLargeForOracle",
    "TooManyBoundCells",
    "TooManyItems",
    "TopshelfError",
    "Transaction",
    "__version__",
    "database_from_quantities",
    "database_text",
    "enumerate_patterns",
    "generate",
    "mine_top_k",
    "oracle_top_k",
    "parse_database",
    "patterns_text",
    "reassign_periods",
    "run_bench",
    "stats_json",
    "write_database",
    "write_patterns",
    "write_records",
]
