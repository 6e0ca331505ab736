"""Generator, benchmark harness, and the command-line entry point."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from topshelf import bench
from topshelf.bench import BenchRecord, _status_kb, reassign_periods, run_bench, write_records
from topshelf.cli import main
from topshelf.dataset import parse_database
from topshelf.errors import InfeasibleParams, InvalidBenchParams
from topshelf.generator import GeneratorParams, generate


# -- generator ---------------------------------------------------------------


def test_generator_is_deterministic():
    params = GeneratorParams(
        transactions=10, items=5, periods=2, avg_len=3, seed=42
    )
    assert generate(params) == generate(params)
    other = GeneratorParams(
        transactions=10, items=5, periods=2, avg_len=3, seed=43
    )
    assert generate(params) != generate(other)


def test_generator_output_respects_params():
    params = GeneratorParams(
        transactions=40,
        items=12,
        periods=3,
        avg_len=4,
        neg_frac=0.25,
        max_qty=4,
        max_profit=9,
        seed=5,
    )
    db = parse_database(generate(params))
    assert len(db.transactions) == 40
    assert set(db.period_totals) == {0, 1, 2}
    assert all(total > 0 for total in db.period_totals.values())
    assert set(db.item_signs) <= set(range(1, 13))
    negatives = sum(1 for s in db.item_signs.values() if s < 0)
    assert negatives == int(round(0.25 * len(db.item_signs)))
    for t in db.transactions:
        assert 2 <= len(t.items) <= 6
        for u in t.utilities:
            assert 1 <= abs(u) <= 9 * 4


@pytest.mark.parametrize(
    "bad",
    [
        dict(transactions=0),
        dict(items=0),
        dict(periods=0),
        dict(periods=5, transactions=4),
        dict(avg_len=0),
        dict(avg_len=50, items=10),
        dict(neg_frac=-0.1),
        dict(neg_frac=1.0),
        dict(max_qty=0),
        dict(max_profit=0),
    ],
)
def test_generator_rejects_bad_params(bad):
    with pytest.raises(InfeasibleParams):
        GeneratorParams(**bad).validate()


def test_generator_gives_up_on_hostile_draws():
    # this exact draw keeps producing a period whose total is negative;
    # the generator must stop retrying instead of spinning forever
    params = GeneratorParams(
        transactions=30, items=8, periods=3, avg_len=3, neg_frac=0.5, seed=77
    )
    with pytest.raises(InfeasibleParams, match="losses leave a period"):
        generate(params)


def test_generator_default_bytes_are_pinned():
    # a parameter set that a uniform period draw places never reaches the
    # dealing fallback, so its bytes stay fixed
    text = generate(GeneratorParams())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "03d9adc039197db06981b851eee8843586b16d872334b5a1dc4880fed68975a8"
    )


@pytest.mark.parametrize("transactions", [800, 1500])
def test_generator_deals_rows_when_uniform_draws_leave_a_period_empty(transactions):
    # 365 periods over 800 or 1500 rows: every uniform draw leaves some
    # period empty, so the rows are dealt one positive row per period first
    params = GeneratorParams(transactions=transactions, items=20, periods=365, seed=5)
    text = generate(params)
    assert text == generate(params)
    db = parse_database(text)
    assert len(db.transactions) == transactions
    assert db.periods == frozenset(range(365))


def test_generator_deal_needs_a_positive_row_per_period():
    # the hostile draw above has 15 rows of positive total for 30 periods
    params = GeneratorParams(
        transactions=30, items=8, periods=30, avg_len=3, neg_frac=0.5, seed=77
    )
    with pytest.raises(InfeasibleParams, match="too few to open 30 periods"):
        generate(params)


# -- benchmark harness -------------------------------------------------------


def test_reassign_periods_round_robins_and_revalidates(running_example):
    redone = reassign_periods(running_example, 2)
    assert set(redone.period_totals) == {0, 1}
    assert [t.period for t in redone.transactions] == [
        i % 2 for i in range(len(running_example.transactions))
    ]
    # utilities untouched, only the period column moved
    for before, after in zip(running_example.transactions, redone.transactions):
        assert before.items == after.items
        assert before.utilities == after.utilities
    assert sum(redone.period_totals.values()) == sum(
        running_example.period_totals.values()
    )


def test_run_bench_grid_shape(tmp_path, running_text):
    path = tmp_path / "toy.db"
    path.write_text(running_text, encoding="utf-8")
    records, any_timeout = run_bench(str(path), [2, 5], repeat=2)
    assert not any_timeout
    assert len(records) == 4
    assert {(r.k, r.repeat) for r in records} == {(2, 0), (2, 1), (5, 0), (5, 1)}
    for r in records:
        assert r.variant == "default"
        assert r.patterns == r.k
        assert r.candidates >= r.patterns
        assert r.peak_mem_bytes > 0
        assert not r.timed_out


def test_run_bench_peak_is_the_childs_own(tmp_path):
    """A forked child starts out resident with the parent's anonymous
    memory. The reported peak is what the run added on top, so mining a
    small database stays below that inherited footprint."""
    parent_kb = _status_kb("RssAnon")
    if parent_kb is None:
        pytest.skip("no /proc: the ru_maxrss fallback includes the parent")
    path = tmp_path / "mid.db"
    path.write_text(
        generate(GeneratorParams(transactions=2000, items=60, seed=5)), encoding="utf-8"
    )
    records, _ = run_bench(str(path), [20])
    assert 0 < records[0].peak_mem_bytes < parent_kb * 1024


def test_run_bench_ablations_do_more_work(tmp_path, running_text):
    path = tmp_path / "toy.db"
    path.write_text(running_text, encoding="utf-8")
    records, _ = run_bench(str(path), [5], ablations=True)
    by_variant = {r.variant: r for r in records}
    assert set(by_variant) == {"default", "no_su", "no_lu", "no_prune"}
    assert len({r.patterns for r in records}) == 1
    assert by_variant["no_prune"].candidates >= by_variant["default"].candidates


def test_run_bench_reports_a_dead_child(tmp_path, running_text, monkeypatch):
    # the forked child exits before it sends anything
    monkeypatch.setattr(bench, "_cell_worker", lambda *args: os._exit(1))
    path = tmp_path / "toy.db"
    path.write_text(running_text, encoding="utf-8")
    with pytest.raises(RuntimeError, match="benchmark child died with exit code 1"):
        run_bench(str(path), [2])


@pytest.mark.parametrize(
    "k_list, kwargs",
    [
        ([], {}),
        ([0], {}),
        ([3, -1], {}),
        ([2], {"repeat": 0}),
        ([2], {"reperiod": 0}),
        ([2], {"timeout_ms": 0}),
        ([2], {"timeout_ms": -5}),
    ],
)
def test_run_bench_rejects_bad_arguments(monkeypatch, k_list, kwargs):
    # checked before the database is read or any child is forked
    def no_fork(*args):
        raise AssertionError("run_bench forked a child")

    monkeypatch.setattr(bench, "_run_cell", no_fork)
    with pytest.raises(InvalidBenchParams):
        run_bench("/nonexistent/path.db", k_list, **kwargs)


def test_write_records_csv_bytes():
    records = [
        BenchRecord("toy.db", 5, "no_lu", 1, 3, 12, 4096, 40, 5, False),
        BenchRecord("toy.db", 9, "default", 0, 3, 250, 0, 0, 0, True),
    ]
    sink = io.StringIO()
    write_records(records, sink)
    assert sink.getvalue() == (
        "dataset,k,variant,repeat,periods,elapsed_ms,peak_mem_bytes,"
        "candidates,patterns,timed_out\r\n"
        "toy.db,5,no_lu,1,3,12,4096,40,5,0\r\n"
        "toy.db,9,default,0,3,250,0,0,0,1\r\n"
    )


# -- command line ------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_mine_writes_pattern_file(tmp_path, running_text):
    db = tmp_path / "toy.db"
    out = tmp_path / "top.txt"
    db.write_text(running_text, encoding="utf-8")
    assert run_cli("mine", "-i", str(db), "-k", "3", "-o", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    for line in lines:
        assert "#UTIL:" in line and "#TO:" in line and "#RU:" in line


def test_cli_mine_stats_json(tmp_path, running_text, capsys):
    db = tmp_path / "toy.db"
    db.write_text(running_text, encoding="utf-8")
    assert run_cli("mine", "-i", str(db), "-k", "2", "--stats") == 0
    captured = capsys.readouterr()
    assert captured.out.count("#RU:") == 2
    payload = json.loads(captured.err)
    assert payload["k"] == 2
    assert payload["patterns"] == 2
    assert payload["candidates"] >= 2


def test_cli_mine_flag_matrix_agrees(tmp_path, running_text):
    db = tmp_path / "toy.db"
    db.write_text(running_text, encoding="utf-8")
    outputs = set()
    for extra in ((), ("--no-su-prune",), ("--no-su-prune", "--no-lu-prune")):
        out = tmp_path / f"out{len(outputs)}.txt"
        assert run_cli("mine", "-i", str(db), "-k", "6", "-o", str(out), *extra) == 0
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


def test_cli_verify_pass(tmp_path, running_text, capsys):
    db = tmp_path / "toy.db"
    db.write_text(running_text, encoding="utf-8")
    assert run_cli("verify", "-i", str(db), "-k", "5") == 0
    assert capsys.readouterr().out.startswith("VERIFY PASS k=5")


def test_cli_verify_refuses_wide_input(tmp_path, capsys):
    n = 30
    ids = " ".join(str(i) for i in range(1, n + 1))
    utils = " ".join("1" for _ in range(n))
    db = tmp_path / "wide.db"
    db.write_text(f"{ids}:{n}:{utils}:0\n", encoding="utf-8")
    assert run_cli("verify", "-i", str(db), "-k", "1") == 3
    assert "error" in capsys.readouterr().err


def test_cli_gen_round_trip(tmp_path):
    out = tmp_path / "gen.db"
    code = run_cli(
        "gen",
        "-o",
        str(out),
        "--transactions",
        "25",
        "--items",
        "8",
        "--periods",
        "2",
        "--avg-len",
        "3",
        "--seed",
        "9",
    )
    assert code == 0
    db = parse_database(out.read_text(encoding="utf-8"))
    assert len(db.transactions) == 25
    assert run_cli("verify", "-i", str(out), "-k", "10") == 0


def test_cli_gen_without_flags_writes_the_default_database(tmp_path):
    out = tmp_path / "default.db"
    assert run_cli("gen", "-o", str(out)) == 0
    assert out.read_text(encoding="utf-8") == generate(GeneratorParams())


@pytest.mark.parametrize(
    "argv",
    [
        ("mine", "-i", "/nonexistent/path.db", "-k", "3"),
        ("mine", "-i", "SELF", "-k", "0"),
        ("bench", "-i", "SELF", "--k-list", "1,zebra"),
        ("bench", "-i", "SELF", "--k-list", ""),
        ("bench", "-i", "SELF", "--k-list", "0"),
        ("bench", "-i", "SELF", "--k-list", "2", "--reperiod", "0"),
        ("bench", "-i", "SELF", "--k-list", "2", "--timeout-ms", "-5"),
        ("bench", "-i", "SELF", "--k-list", "2", "--repeat", "0"),
        ("gen", "--transactions", "0", "-o", "/dev/null"),
        ("mine", "-i", "SELF", "-k", "3", "--no-merge"),
        ("mine", "-i", "NOT_UTF8", "-k", "1"),
        ("verify", "-i", "NOT_UTF8", "-k", "1"),
        ("bench", "-i", "NOT_UTF8", "--k-list", "1"),
    ],
)
def test_cli_bad_inputs_exit_2(tmp_path, running_text, argv, capsys):
    db = tmp_path / "toy.db"
    db.write_text(running_text, encoding="utf-8")
    not_utf8 = tmp_path / "latin.db"
    not_utf8.write_bytes(b"1 2:5:2 3:0\n\xff:1:1:0\n")
    paths = {"SELF": str(db), "NOT_UTF8": str(not_utf8)}
    argv = [paths.get(a, a) for a in argv]
    # argparse rejects unknown options by exiting with code 2
    try:
        code = run_cli(*argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_mine_rejects_malformed_database(tmp_path, capsys):
    db = tmp_path / "bad.db"
    db.write_text("1 2:5:3:0\n", encoding="utf-8")
    assert run_cli("mine", "-i", str(db), "-k", "1") == 2
    assert "error" in capsys.readouterr().err


def test_cli_bench_csv(tmp_path, running_text):
    db = tmp_path / "toy.db"
    out = tmp_path / "grid.csv"
    db.write_text(running_text, encoding="utf-8")
    code = run_cli(
        "bench", "-i", str(db), "--k-list", "2,4", "--reperiod", "2", "--out", str(out)
    )
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {row["k"] for row in rows} == {"2", "4"}
    assert all(row["periods"] == "2" for row in rows)
    assert all(row["timed_out"] == "0" for row in rows)


def test_cli_bench_timeout_exit(tmp_path):
    text = generate(
        GeneratorParams(transactions=5000, items=60, periods=3, avg_len=6, seed=3)
    )
    db = tmp_path / "mid.db"
    db.write_text(text, encoding="utf-8")
    code = run_cli(
        "bench", "-i", str(db), "--k-list", "200", "--timeout-ms", "1", "--out",
        str(tmp_path / "t.csv"),
    )
    assert code == 4
    with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["timed_out"] == "1"
    assert rows[0]["patterns"] == "0"


def test_module_entry_point(tmp_path, running_text):
    db = tmp_path / "toy.db"
    db.write_text(running_text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "topshelf", "mine", "-i", str(db), "-k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("#RU:") == 2
