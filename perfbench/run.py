"""Benchmark for topshelf: end-to-end and per-layer figures per workload.

    python3 perfbench/run.py --workload uniform-10k --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. It draws the workload's databases
from the seed (workloads.py), then runs the program over them in turn, one
run at a time, each in a freshly spawned interpreter (child.py), until
--seconds have passed. This is a closed loop with one client: no threads,
no parallel mining. Every result goes through the correctness gate
(gate.py) outside the timed region.

With --trace 0 it reports the end-to-end metrics. With --trace 1 it
alternates untraced runs with runs whose layer functions are wrapped
(tracer.py), and reports the per-layer metrics of the traced runs plus the
tracing overhead. Each figure is the median over one database's runs,
averaged over the databases; seconds are scaled to a reference machine
speed (PROBE_REFERENCE_S). The last line of stdout is one JSON object:
correct, attempted, failed and metrics. The lines before it print every
figure by name with its unit, and the failed share of runs as failed_frac.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from gate import Reference  # noqa: E402
from workloads import PARTS, WORKLOADS, database_text  # noqa: E402

# The seed whose input and pattern-file digests are recorded in
# baseline.json; a digest that moves is reported, not left to show up as a
# mysterious timing change.
DEFAULT_SEED = 1
# Fewest passes over a run's databases, however short --seconds is.
MIN_PASSES = 2
# What the speed probe in child.py takes on the machine the baseline was
# recorded on. That machine's speed drifts by up to 40% over minutes, for
# the program and the probe alike, so reported seconds are scaled by
# PROBE_REFERENCE_S over the run's median probe time: seconds at the
# reference speed.
PROBE_REFERENCE_S = 0.06
# A first pass longer than this ends the loop after one pass.
SLOW_PASS_S = 60
# A single run that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 50

END_TO_END = [
    ("run_s", "s"),
    ("mine_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (name, unit, better). Busy seconds are named <module>.<function>.s.
PER_LAYER = [
    ("dataset.parse_database.s", "s", "lower"),
    ("dataset.write_patterns.s", "s", "lower"),
    ("prepare.compute_period_twu.s", "s", "lower"),
    ("prepare.singleton_threshold.s", "s", "lower"),
    ("prepare.initial_secondary.s", "s", "lower"),
    ("prepare.negative_keep.s", "s", "lower"),
    ("prepare.build_item_order.s", "s", "lower"),
    ("prepare.build_working_database.s", "s", "lower"),
    ("prepare.rows_merged", "count", "higher"),
    ("prepare.working_rows", "count", "lower"),
    ("projection.root_projection.s", "s", "lower"),
    ("projection.project.s", "s", "lower"),
    ("projection.project.calls", "count", "lower"),
    ("projection.views_scanned", "count", "lower"),
    ("projection.views_kept", "count", "lower"),
    ("projection.kept_per_scanned", "ratio", "higher"),
    ("projection.merge_projected.s", "s", "lower"),
    ("projection.views_fused", "count", "higher"),
    ("projection.fused_per_view", "ratio", "higher"),
    ("bounds.BoundArray.reset.s", "s", "lower"),
    ("bounds.BoundArray.reset.calls", "count", "lower"),
    ("bounds.cells_zeroed", "count", "lower"),
    ("bounds.fill_subtree_and_local.s", "s", "lower"),
    ("bounds.fill_negative_subtree.s", "s", "lower"),
    ("bounds.select_primary_secondary.s", "s", "lower"),
    ("bounds.select_negative_candidates.s", "s", "lower"),
    ("bounds.candidates_tested", "count", "lower"),
    ("bounds.candidates_kept", "count", "lower"),
    ("bounds.kept_per_tested", "ratio", "lower"),
    ("search.TopKCollector.offer.s", "s", "lower"),
    ("search.offers", "count", "lower"),
    ("search.offers_accepted", "count", "lower"),
    ("search.threshold_rises", "count", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.candidates", "count", "lower"),
    ("search.projections", "count", "lower"),
    ("search.max_depth", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_figures(run: dict) -> dict[str, float]:
    """Per-layer figures of one traced run."""
    trace = run["trace"]
    calls, counts = trace["calls"], trace["counts"]
    figures = {f"{label}.s": busy for label, busy in trace["busy"].items()}
    figures.update({f"{label}.calls": n for label, n in calls.items()})
    figures.update(counts)
    figures["projection.kept_per_scanned"] = _ratio(
        counts.get("projection.views_kept", 0), counts.get("projection.views_scanned", 0))
    figures["projection.fused_per_view"] = _ratio(
        counts.get("projection.views_fused", 0), counts.get("projection.views_merged_in", 0))
    figures["bounds.kept_per_tested"] = _ratio(
        counts.get("bounds.candidates_kept", 0), counts.get("bounds.candidates_tested", 0))
    figures["search.offers"] = calls.get("search.TopKCollector.offer", 0)
    # What mine_top_k spent outside every wrapped layer: the recursion,
    # _emit and glue.
    figures["search.self_s"] = run["mine_s"] - trace["inside_mine_s"] - trace["own_s"]
    figures["search.candidates"] = run["candidates"]
    figures["search.projections"] = run["projections"]
    figures["search.max_depth"] = run["max_depth"]
    return figures


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_child(db_path: Path, k: int, out_path: Path, traced: bool) -> dict | None:
    """One run in a fresh interpreter; None if it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(db_path), str(k),
           str(out_path), "1" if traced else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"run exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Part:
    """One database of a run: its file, its gate, and the runs made on it."""

    def __init__(self, workload: str, seed: int, index: int, recorded: dict | None):
        self.index = index
        text = database_text(workload, seed, index)
        self.input_sha = _sha256(text.encode("utf-8"))
        self.expected_sha = None
        if seed == DEFAULT_SEED and recorded:
            if recorded["input_sha256"][index] != self.input_sha:
                raise SystemExit(f"{workload} part {index}: generated input differs from "
                                 "baseline.json; the workload generator has changed")
            self.expected_sha = recorded["patterns_sha256"][index]
        self.reference = Reference(text)
        self.db_path = WORK / f"{workload}-{seed}-{index}.db"
        self.out_path = WORK / f"{workload}-{seed}-{index}.patterns"
        self.periods_path = Path(f"{self.out_path}.periods.json")
        self.db_path.write_text(text, encoding="utf-8")
        self.first_sha = None
        self.verdicts: dict[str, list[str]] = {}
        self.runs: dict[bool, list[dict]] = {False: [], True: []}

    def check(self, k: int) -> list[str]:
        """Gate the result the last run wrote. A result is checked in full
        once; a rerun must reproduce it byte for byte."""
        patterns = self.out_path.read_bytes()
        periods = self.periods_path.read_bytes()
        sha = _sha256(patterns)
        key = sha + _sha256(periods)
        errors = self.verdicts.get(key)
        if errors is None:
            errors = self.reference.check(patterns.decode("utf-8"), json.loads(periods), k)
            if self.expected_sha and sha != self.expected_sha:
                errors.append("pattern file differs from baseline.json")
            self.verdicts[key] = errors
        if self.first_sha is None:
            self.first_sha = sha
        elif sha != self.first_sha:
            errors = errors + ["pattern file differs from the first run's"]
        return errors

    def remove_files(self) -> None:
        for path in (self.db_path, self.out_path, self.periods_path):
            path.unlink(missing_ok=True)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the loop and return the result object, printing every figure."""
    spec = WORKLOADS[workload]
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    recorded = baseline["digests"].get(workload)
    modes = (False, True) if trace else (False,)
    parts: list[Part] = []
    attempted = failed = passes = 0
    WORK.mkdir(exist_ok=True)
    try:
        for index in range(PARTS):
            parts.append(Part(workload, seed, index, recorded))
        start = time.perf_counter()
        while True:
            for part in parts:
                for traced in modes:
                    attempted += 1
                    run = _run_child(part.db_path, spec.k, part.out_path, traced)
                    if run is None:
                        failed += 1
                        continue
                    errors = part.check(spec.k)
                    if errors:
                        failed += 1
                        for line in errors[:5]:
                            print(f"gate: part {part.index}: {line}", file=sys.stderr)
                    if traced:
                        run["figures"] = layer_figures(run)
                    part.runs[traced].append(run)
            passes += 1
            elapsed = time.perf_counter() - start
            # Stop at the pass boundary nearest to the deadline, after
            # MIN_PASSES unless the program is so slow that they would not
            # fit in the benchmark's time limit.
            if (elapsed * (1 + 0.5 / passes) >= seconds
                    and (passes >= MIN_PASSES or elapsed >= SLOW_PASS_S)):
                break
    finally:
        for part in parts:
            part.remove_files()
        try:
            WORK.rmdir()
        except OSError:  # another run's files are still there
            pass

    if any(not part.runs[traced] for part in parts for traced in modes):
        raise SystemExit(f"{workload}: some database has no completed run")
    print(f"workload {workload} seed {seed} k {spec.k}: {attempted} runs attempted, "
          f"{failed} failed, failed_frac = {failed / attempted:.4f} ratio")
    for part in parts:
        counts = ", ".join(f"{len(part.runs[t])} {'traced' if t else 'untraced'}"
                           for t in modes)
        print(f"  part {part.index}: {counts} runs; input sha256 {part.input_sha}, "
              f"patterns sha256 {part.first_sha}")

    def mean_of_medians(value, traced: bool) -> float:
        return statistics.fmean(statistics.median(value(run) for run in part.runs[traced])
                                for part in parts)

    # One scale for the whole run: the probe's median over every run
    # tracks the machine's slow drift; single probes are too noisy to
    # scale single runs with.
    probe_s = statistics.median(run["probe_s"] for part in parts
                                for t in modes for run in part.runs[t])
    scale = PROBE_REFERENCE_S / probe_s
    unscaled = mean_of_medians(lambda r: r["run_s"], False)
    print(f"  speed probe {probe_s:.6g} s against {PROBE_REFERENCE_S} s: seconds are scaled "
          f"by {scale:.4f}; unscaled run_s {unscaled:.6g} s")
    metrics = {}
    if not trace:
        for name, unit in END_TO_END:
            value = mean_of_medians(lambda r: r[name], False)
            metrics[name] = {"value": value * scale if unit == "s" else value, "unit": unit}
        print(f"end-to-end, mean over {PARTS} databases of each one's median:")
    else:
        run_s = mean_of_medians(lambda r: r["run_s"], True)
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_frac":
                value = run_s / mean_of_medians(lambda r: r["run_s"], False) - 1
            else:
                value = mean_of_medians(lambda r: r["figures"].get(name, 0), True)
            metrics[name] = {"value": value * scale if unit == "s" else value, "unit": unit}
        run_s *= scale
        print(f"per layer, mean over {PARTS} databases of each one's median traced run "
              f"(share = busy seconds over traced run_s {run_s:.4f} s):")
    for name, m in metrics.items():
        share = f"  share {m['value'] / run_s:.3f}" if trace and m["unit"] == "s" else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{share}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "topshelf" / "__init__.py").is_file():
        print(f"error: no topshelf sources under {SRC}", file=sys.stderr)
        return 2
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
