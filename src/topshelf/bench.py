"""Benchmark harness.

Each (k, variant, repeat) cell runs in a forked child process so one cell's
allocations and timing cannot leak into the next, the peak memory is read per
cell, and a runaway configuration can be killed without taking the parent
down. Reported time comes from the miner itself and excludes parsing.
"""

from __future__ import annotations

import csv
import dataclasses
import multiprocessing
import os
import resource
import sys
from dataclasses import dataclass
from typing import TextIO

from .dataset import OnShelfDatabase, database_text, parse_database
from .errors import InvalidBenchParams
from .search import mine_top_k

# Flag sets keyed by the variant column value.
VARIANTS: dict[str, dict[str, bool]] = {
    "default": {},
    "no_su": {"su_prune": False},
    "no_lu": {"lu_prune": False},
    "no_prune": {"su_prune": False, "lu_prune": False},
}


@dataclass(frozen=True, slots=True)
class BenchRecord:
    dataset: str
    k: int
    variant: str
    repeat: int
    periods: int
    elapsed_ms: int
    peak_mem_bytes: int
    candidates: int
    patterns: int
    timed_out: bool


def reassign_periods(db: OnShelfDatabase, n_periods: int) -> OnShelfDatabase:
    """Same transactions, period column replaced by ordinal modulo n_periods.

    Round-trips through the text format so the usual validation (positive
    period totals in particular) applies to the transformed database.
    """
    moved = [
        dataclasses.replace(t, period=i % n_periods)
        for i, t in enumerate(db.transactions)
    ]
    shell = dataclasses.replace(db, transactions=tuple(moved))
    return parse_database(database_text(shell))


def _status_kb(field: str) -> int | None:
    """A kB field of this process's /proc/self/status, such as VmRSS
    (resident now) or VmHWM (peak resident), or None where /proc is
    absent."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _cell_worker(conn, db: OnShelfDatabase, k: int, flags: dict) -> None:
    start_kb = _status_kb("VmRSS")
    patterns, stats = mine_top_k(db, k, **flags)
    peak_kb = _status_kb("VmHWM")
    if start_kb is not None and peak_kb is not None:
        peak_bytes = (peak_kb - start_kb) * 1024
    else:
        # ru_maxrss is in bytes on macOS and in kB elsewhere.
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_bytes = maxrss if sys.platform == "darwin" else maxrss * 1024
    conn.send(
        {
            "elapsed_ms": int(round(stats.elapsed_ms)),
            "peak_mem_bytes": peak_bytes,
            "candidates": stats.candidates,
            "patterns": len(patterns),
        }
    )
    conn.close()


def _run_cell(db, k, flags, timeout_ms):
    """One mining run in a forked child. Returns (result dict | None if the
    deadline passed).

    The forked child starts out resident with the parent's footprint, so
    its peak memory is the peak resident size (VmHWM) minus the resident
    size (VmRSS) read as the child starts: what the run itself added. Where
    /proc is absent it falls back to ru_maxrss, which includes the parent's
    footprint and so overstates."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_cell_worker, args=(send, db, k, flags))
    proc.start()
    send.close()
    timeout = timeout_ms / 1000.0 if timeout_ms else None
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join()
        recv.close()
        return None
    # poll() is also true at end of file, when the child died unsent.
    try:
        result = recv.recv() if recv.poll() else None
    except EOFError:
        result = None
    recv.close()
    if result is None:
        raise RuntimeError(f"benchmark child died with exit code {proc.exitcode}")
    return result


def run_bench(
    db_path: str,
    k_list: list[int],
    repeat: int = 1,
    *,
    reperiod: int | None = None,
    ablations: bool = False,
    timeout_ms: int | None = None,
) -> tuple[list[BenchRecord], bool]:
    """Grid of mining runs over k_list x variants x repeats.

    Returns the records plus a flag telling whether any cell hit the
    timeout budget; timed-out rows carry the budget as elapsed_ms and zero
    counters. Raises InvalidBenchParams before reading the database if
    k_list is empty or holds a k below 1, or if repeat, reperiod or
    timeout_ms is below 1.
    """
    problem = None
    if not k_list:
        problem = "k list is empty"
    elif min(k_list) < 1:
        problem = f"k values must be >= 1, got {min(k_list)}"
    elif repeat < 1:
        problem = f"repeat must be >= 1, got {repeat}"
    elif reperiod is not None and reperiod < 1:
        problem = f"reperiod must be >= 1, got {reperiod}"
    elif timeout_ms is not None and timeout_ms < 1:
        problem = f"timeout_ms must be >= 1, got {timeout_ms}"
    if problem:
        raise InvalidBenchParams(problem)
    with open(db_path, encoding="utf-8") as fh:
        db = parse_database(fh)
    if reperiod is not None:
        db = reassign_periods(db, reperiod)
    dataset = os.path.basename(db_path)
    n_periods = len(db.periods)
    variants = list(VARIANTS) if ablations else ["default"]

    records: list[BenchRecord] = []
    any_timeout = False
    for rep in range(repeat):
        for k in k_list:
            for variant in variants:
                cell = _run_cell(db, k, VARIANTS[variant], timeout_ms)
                if cell is None:
                    any_timeout = True
                    cell = {
                        "elapsed_ms": timeout_ms,
                        "peak_mem_bytes": 0,
                        "candidates": 0,
                        "patterns": 0,
                    }
                    timed_out = True
                else:
                    timed_out = False
                records.append(
                    BenchRecord(
                        dataset=dataset,
                        k=k,
                        variant=variant,
                        repeat=rep,
                        periods=n_periods,
                        timed_out=timed_out,
                        **cell,
                    )
                )
    return records, any_timeout


def write_records(records: list[BenchRecord], sink: TextIO) -> None:
    writer = csv.writer(sink)
    writer.writerow(
        [
            "dataset",
            "k",
            "variant",
            "repeat",
            "periods",
            "elapsed_ms",
            "peak_mem_bytes",
            "candidates",
            "patterns",
            "timed_out",
        ]
    )
    for r in records:
        writer.writerow(
            [
                r.dataset,
                r.k,
                r.variant,
                r.repeat,
                r.periods,
                r.elapsed_ms,
                r.peak_mem_bytes,
                r.candidates,
                r.patterns,
                int(r.timed_out),
            ]
        )
