"""One run of the program in a fresh interpreter, timed around its calls.

Usage: python3 child.py SRC DB K PATTERNS TRACE

Imports topshelf from SRC, then does what ``topshelf mine`` does with no
flags: reads DB with ``dataset.parse_database``, calls
``search.mine_top_k(db, K)`` and writes PATTERNS with
``dataset.write_patterns``. With TRACE=1 the layer functions are wrapped
first (see tracer.py). Prints one JSON object with the timings, memory,
the search counters and the speed probe's time, taken before the import
and after the timed region; writes the period set of each pattern to
PATTERNS.periods.json for the correctness gate, outside the timed region.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


def _memory_kb(field: str) -> int:
    """VmRSS (resident now) or VmHWM (peak resident) of this process.

    VmHWM belongs to the address space this interpreter was exec'd into.
    getrusage's ru_maxrss is not used: Linux carries into it the resident
    size of the process that spawned this one, here the benchmark runner.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def _probe_s() -> float:
    """Seconds a fixed integer loop takes: the machine's speed right now."""
    start = perf_counter()
    acc = 0
    for i in range(600_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def main(argv: list[str]) -> int:
    src, db_path, k, out_path, trace = argv[1], argv[2], int(argv[3]), argv[4], argv[5] == "1"
    probe_before = _probe_s()
    sys.path.insert(0, src)
    import topshelf
    from topshelf import dataset, search

    if not os.path.abspath(topshelf.__file__).startswith(os.path.join(src, "")):
        print(f"topshelf imported from {topshelf.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    baseline = _memory_kb("VmRSS")
    t0 = perf_counter()
    with open(db_path, encoding="utf-8") as fh:
        db = dataset.parse_database(fh)
    t1 = perf_counter()
    patterns, stats = search.mine_top_k(db, k)
    t2 = perf_counter()
    with open(out_path, "w", encoding="utf-8") as fh:
        dataset.write_patterns(patterns, fh)
    t3 = perf_counter()
    peak = _memory_kb("VmHWM")
    probe_after = _probe_s()

    with open(out_path + ".periods.json", "w", encoding="utf-8") as fh:
        json.dump([sorted(p.periods) for p in patterns], fh)
    result = {
        "run_s": t3 - t0,
        "setup_s": t1 - t0,
        "mine_s": t2 - t1,
        "peak_rss_mb": (peak - baseline) / 1024,
        "probe_s": (probe_before + probe_after) / 2,
        "candidates": getattr(stats, "candidates", 0),
        "projections": getattr(stats, "projections", 0),
        "max_depth": getattr(stats, "max_depth", 0),
        "trace": tracer.report() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
