"""Command-line front end.

Subcommands:
    mine    mine a database for the top-k patterns
    verify  cross-check the miner against brute-force enumeration
    gen     emit a synthetic database
    bench   grid of timed runs, CSV out

Exit codes: 0 success, 1 verify mismatch, 2 bad input or parameters,
3 database too large for brute-force verification, 4 benchmark timeout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import run_bench, write_records
from .dataset import parse_database, write_patterns
from .errors import (
    DatasetError,
    InfeasibleParams,
    InvalidBenchParams,
    InvalidK,
    TooLargeForOracle,
)
from .generator import GeneratorParams, generate
from .oracle import oracle_top_k
from .search import mine_top_k, stats_json

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_ORACLE_REFUSED = 3
EXIT_TIMEOUT = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topshelf",
        description="Top-k on-shelf high relative-utility itemset mining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine the top-k patterns")
    mine.add_argument("-i", "--input", required=True, help="database file")
    mine.add_argument("-k", type=int, required=True, help="number of patterns")
    mine.add_argument("-o", "--output", help="pattern file (default stdout)")
    mine.add_argument(
        "--stats", action="store_true", help="print run statistics as JSON to stderr"
    )
    mine.add_argument(
        "--no-su-prune", action="store_true", help="disable subtree-bound pruning"
    )
    mine.add_argument(
        "--no-lu-prune", action="store_true", help="disable local-bound pruning"
    )

    verify = sub.add_parser("verify", help="compare miner output to enumeration")
    verify.add_argument("-i", "--input", required=True, help="database file")
    verify.add_argument("-k", type=int, required=True, help="number of patterns")

    gen = sub.add_parser("gen", help="generate a synthetic database")
    gen.add_argument("-o", "--output", help="database file (default stdout)")
    # No defaults here: a flag left out takes GeneratorParams' default.
    gen.add_argument("--transactions", type=int)
    gen.add_argument("--items", type=int)
    gen.add_argument("--periods", type=int)
    gen.add_argument("--avg-len", type=int)
    gen.add_argument("--neg-frac", type=float)
    gen.add_argument("--max-qty", type=int)
    gen.add_argument("--max-profit", type=int)
    gen.add_argument("--seed", type=int)

    bench = sub.add_parser("bench", help="timed runs over a grid of k values")
    bench.add_argument("-i", "--input", required=True, help="database file")
    bench.add_argument(
        "--k-list", required=True, help="comma-separated k values, e.g. 100,300,500"
    )
    bench.add_argument("--repeat", type=int, default=1)
    bench.add_argument(
        "--reperiod", type=int, help="reassign periods round-robin into N slots"
    )
    bench.add_argument("--out", help="CSV file (default stdout)")
    bench.add_argument(
        "--ablations", action="store_true", help="also run pruning-disabled variants"
    )
    bench.add_argument("--timeout-ms", type=int, help="per-cell time budget")

    return parser


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_database(fh)


def _cmd_mine(args) -> int:
    db = _load(args.input)
    patterns, stats = mine_top_k(
        db,
        args.k,
        su_prune=not args.no_su_prune,
        lu_prune=not args.no_lu_prune,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_patterns(patterns, fh)
    else:
        write_patterns(patterns, sys.stdout)
    if args.stats:
        print(json.dumps(stats_json(stats)), file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    db = _load(args.input)
    mined, _ = mine_top_k(db, args.k)
    expected = oracle_top_k(db, args.k)
    ok = mined == expected
    verdict = "PASS" if ok else "FAIL"
    print(f"VERIFY {verdict} k={args.k} mined={len(mined)} expected={len(expected)}")
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_gen(args) -> int:
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(GeneratorParams)}
    params = GeneratorParams(**{name: v for name, v in given.items() if v is not None})
    text = generate(params)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        k_list = [int(part) for part in args.k_list.split(",") if part.strip()]
    except ValueError:
        print(f"error: bad k list {args.k_list!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    records, any_timeout = run_bench(
        args.input,
        k_list,
        args.repeat,
        reperiod=args.reperiod,
        ablations=args.ablations,
        timeout_ms=args.timeout_ms,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_records(records, fh)
    else:
        write_records(records, sys.stdout)
    return EXIT_TIMEOUT if any_timeout else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "mine": _cmd_mine,
        "verify": _cmd_verify,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except (
        DatasetError, InvalidK, InfeasibleParams, InvalidBenchParams, UnicodeDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except TooLargeForOracle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_REFUSED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
