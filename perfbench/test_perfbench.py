"""Self-test of the benchmark at toy sizes: python3 -m pytest -q perfbench

Checks that every metric and workload is printed by name with its unit,
that BENCHMARK.json and run.py agree, that the correctness gate passes a
true result and fails corrupted ones, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import workloads
from workloads import Workload, uniform, zipf

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from topshelf import dataset, search  # noqa: E402

REQUIRED_WORKLOADS = {"uniform-10k", "daily-365", "retail-skewed", "long-basket"}
REQUIRED_END_TO_END = {"run_s": "s", "mine_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REQUIRED_PER_LAYER = """
projection.project.s projection.project.calls projection.views_scanned
projection.views_kept projection.kept_per_scanned bounds.BoundArray.reset.s
bounds.BoundArray.reset.calls bounds.cells_zeroed bounds.select_primary_secondary.s
bounds.select_negative_candidates.s projection.merge_projected.s projection.views_fused
projection.fused_per_view prepare.build_working_database.s prepare.rows_merged
prepare.working_rows bounds.fill_subtree_and_local.s bounds.fill_negative_subtree.s
bounds.candidates_tested bounds.candidates_kept bounds.kept_per_tested search.self_s
search.candidates search.projections search.max_depth search.TopKCollector.offer.s
search.offers search.offers_accepted search.threshold_rises dataset.parse_database.s
dataset.write_patterns.s prepare.compute_period_twu.s prepare.singleton_threshold.s
prepare.negative_keep.s projection.root_projection.s trace.overhead_frac
""".split()

TOYS = {
    "toy-uniform": Workload("toy-uniform", 15, "toy", uniform(300, 25, 5, 3)),
    "toy-retail": Workload("toy-retail", 10, "toy", zipf(300, 40, 1.1, 20, 4)),
}


@pytest.fixture
def toys(monkeypatch):
    for name, spec in TOYS.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, spec)
        monkeypatch.setitem(run.WORKLOADS, name, spec)


def _mine(text: str, k: int) -> tuple[str, list[list[int]]]:
    patterns, _ = search.mine_top_k(dataset.parse_database(io.StringIO(text)), k)
    return dataset.patterns_text(patterns), [sorted(p.periods) for p in patterns]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == REQUIRED_WORKLOADS
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert dict(run.END_TO_END) == REQUIRED_END_TO_END
    layers = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == set(run.PER_LAYER)
    assert set(REQUIRED_PER_LAYER) <= {name for name, _, _ in run.PER_LAYER}


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(toys, capsys, trace):
    for name in TOYS:
        result = run.bench(name, 3, 0.0, trace)
        out = capsys.readouterr().out
        assert f"workload {name} seed 3" in out
        assert "failed_frac = 0.0000 ratio" in out
        runs_per_pass = workloads.PARTS * (2 if trace else 1)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= run.MIN_PASSES * runs_per_pass
        expected = ([(n, u) for n, u, _ in run.PER_LAYER] if trace else run.END_TO_END)
        assert list(result["metrics"]) == [n for n, _ in expected]
        for metric, unit in expected:
            assert result["metrics"][metric]["unit"] == unit
            assert any(line.split()[:1] == [metric] and f" {unit}" in line
                       for line in out.splitlines()), metric
        if trace:
            assert result["metrics"]["search.candidates"]["value"] > 0
            assert result["metrics"]["projection.project.calls"]["value"] > 0


def test_inputs_are_deterministic_and_match_recorded_digests():
    baseline = json.loads((Path(run.HERE) / "baseline.json").read_text())
    assert baseline["seed"] == run.DEFAULT_SEED
    recorded = baseline["digests"]
    for name in REQUIRED_WORKLOADS:
        for part in range(workloads.PARTS):
            text = workloads.database_text(name, run.DEFAULT_SEED, part)
            assert run._sha256(text.encode()) == recorded[name]["input_sha256"][part], name
            dataset.parse_database(io.StringIO(text))
    texts = {workloads.database_text("long-basket", seed, part)
             for seed in (5, 6) for part in (0, 1)}
    assert len(texts) == 4
    assert workloads.database_text("long-basket", 5, 1) == workloads.database_text(
        "long-basket", 5, 1)


@pytest.fixture(scope="module")
def toy_result():
    spec = TOYS["toy-uniform"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(workloads.WORKLOADS, spec.name, spec)
        text = workloads.database_text(spec.name, 7, 0)
    patterns, period_sets = _mine(text, spec.k)
    return gate.Reference(text), patterns, period_sets, spec.k


def test_gate_passes_the_true_result(toy_result):
    reference, patterns, periods, k = toy_result
    assert reference.check(patterns, periods, k) == []


def _replace_line(patterns: str, n: int, line: str | None) -> str:
    lines = patterns.splitlines()
    if line is None:
        del lines[n]
    else:
        lines[n] = line
    return "".join(f"{x}\n" for x in lines)


def test_gate_fails_a_utility_off_by_one(toy_result):
    reference, patterns, periods, k = toy_result
    first = patterns.splitlines()[0]
    items, rest = first.split(" #UTIL: ")
    util, tail = rest.split(" ", 1)
    bad = _replace_line(patterns, 0, f"{items} #UTIL: {int(util) + 1} {tail}")
    assert any("recomputed" in e for e in reference.check(bad, periods, k))


def test_gate_fails_a_dropped_top_pair(toy_result):
    reference, patterns, periods, k = toy_result
    lines = patterns.splitlines()
    n = next(i for i, line in enumerate(lines) if len(line.split(" #")[0].split()) == 2)
    dropped = tuple(int(x) for x in lines[n].split(" #")[0].split())
    bad = _replace_line(patterns, n, None)
    bad_periods = periods[:n] + periods[n + 1:]
    errors = reference.check(bad, bad_periods, k)
    assert any("missing" in e and str(dropped) in e for e in errors)
    assert any(f"{k - 1} patterns for k={k}" in e for e in errors)


def test_gate_fails_wrong_order_and_wrong_periods(toy_result):
    reference, patterns, periods, k = toy_result
    lines = patterns.splitlines()
    swapped = "".join(f"{x}\n" for x in [lines[1], lines[0], *lines[2:]])
    assert any("ranking order" in e
               for e in reference.check(swapped, [periods[1], periods[0], *periods[2:]], k))
    moved = [[*p, 999] if i == 0 else p for i, p in enumerate(periods)]
    assert any("period set" in e for e in reference.check(patterns, moved, k))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-basket", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
