"""Smoke tests of the census scripts: they run, exit 0 and print the known
counts; and the benchmark summarizer on canned harness output, with its
refusal to measure uncommitted source."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(out: str) -> list[list[int]]:
    """The count cells of a printed hom-set matrix, one list per row; object
    names contain no spaces."""
    return [[int(v) for v in line.split()[1:]] for line in out.splitlines()[2:]]


@pytest.mark.parametrize(
    "family, counts",
    [
        ("loops", [[1, 1, 1, 1, 1], [1, 2, 1, 4, 2], [1, 1, 3, 1, 1], [1, 4, 1, 16, 4], [1, 2, 1, 4, 4]]),
        ("neardomains", [[1, 0, 1], [0, 1, 0], [0, 0, 2]]),
        (
            "groups",
            [
                [1, 0, 1, 0, 1, 0],
                [0, 1, 0, 1, 0, 1],
                [0, 0, 2, 0, 2, 0],
                [0, 1, 0, 1, 0, 1],
                [0, 0, 2, 0, 2, 0],
                [0, 1, 0, 1, 0, 1],
            ],
        ),
    ],
)
def test_hom_census(capsys, family, counts):
    assert _load("hom_census").main(["--family", family, "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"hom-set counts, {family} ({len(counts)} objects)\n")
    assert _rows(out) == counts


def test_loop_census(capsys):
    # order, classes, groups, then the orbit sum and the table count, which
    # must agree: the reduced Latin squares of orders 1-6 (OEIS A000315)
    assert _load("loop_census").main(["--max-order", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["order", "classes", "associative", "orbits", "tables", "seconds"]
    assert [line.split()[:5] for line in out[1:]] == [
        ["1", "1", "1", "1", "1"],
        ["2", "1", "1", "1", "1"],
        ["3", "1", "1", "1", "1"],
        ["4", "2", "2", "4", "4"],
        ["5", "6", "1", "56", "56"],
        ["6", "109", "2", "9408", "9408"],
    ]


@pytest.mark.parametrize("change, orbits", [("drop", "48"), ("duplicate", "64")])
def test_loop_census_exits_1_when_the_orbits_miss_the_tables(monkeypatch, capsys, change, orbits):
    # a census that loses or repeats the first class of order 5, whose orbit
    # holds 8 of the 56 tables
    census = _load("loop_census")
    real = census.enumerate_loops

    def broken(n):
        reps = real(n)
        if n != 5:
            return reps
        return reps[1:] if change == "drop" else reps + reps[:1]

    monkeypatch.setattr(census, "enumerate_loops", broken)
    assert census.main(["--max-order", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].split()[3:5] == [orbits, "56"]
    assert "do not add up" in captured.err


@pytest.mark.parametrize("order", [0, 7])
def test_loop_census_rejects_order_out_of_range(capsys, order):
    with pytest.raises(SystemExit) as exit_info:
        _load("loop_census").main(["--max-order", str(order)])
    assert exit_info.value.code == 2
    assert "--max-order must be" in capsys.readouterr().err


def _canned_run(run_s: float, failed: int = 0) -> str:
    """The output of one perfbench/run.py pass, as the harness prints it."""
    result = {
        "correct": failed == 0,
        "attempted": 41,
        "failed": failed,
        "metrics": {"run_s": {"value": run_s, "unit": "s"}, "peak_rss_mb": {"value": 23.0, "unit": "MB"}},
    }
    meta = {"python": "3.11.7", "commit": "abc123", "source_sha256": "f" * 64, "nproc": 2, "seed": 1}
    return "\n".join([
        "meta: " + json.dumps(meta, sort_keys=True),
        f"metric: run_s = {run_s} s",
        "metric: peak_rss_mb = 23.0 MB",
        json.dumps(result),
    ]) + "\n"


def test_bench_summarizes_canned_runs():
    # the summarizer alone, on result lines as the harness prints them; the
    # harness itself is not run
    bench = _load("bench")
    parsed = [bench.parse_run(_canned_run(v, failed)) for v, failed in [(0.2, 0), (0.1, 0), (0.3, 1)]]
    assert parsed[0][0]["source_sha256"] == "f" * 64
    summary = bench.summarize([result for _, result in parsed])
    assert (summary["runs"], summary["attempted"], summary["failed"], summary["correct"]) == (3, 123, 1, False)
    run_s = summary["metrics"]["run_s"]
    assert run_s["unit"] == "s" and run_s["runs"] == 3
    assert run_s["median"] == 0.2
    assert (run_s["q1"], run_s["q3"]) == pytest.approx((0.15, 0.25))
    one = bench.summarize([parsed[0][1]])["metrics"]["peak_rss_mb"]
    assert (one["median"], one["q1"], one["q3"]) == (23.0, 23.0, 23.0)


@pytest.mark.parametrize("value, recorded", [(None, False), ("", False), ("1", True)])
def test_bench_records_the_bytecode_mode(monkeypatch, value, recorded):
    # the workers inherit the environment, so whether they compile src/ from
    # source is part of what a trajectory file measured
    bench = _load("bench")
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    meta, _ = bench.parse_run(_canned_run(0.2))
    assert bench.provenance(meta) == {
        "python": "3.11.7",
        "commit": "abc123",
        "source_sha256": "f" * 64,
        "nproc": 2,
        "dont_write_bytecode": recorded,
    }


def test_bench_refuses_to_measure_uncommitted_source(monkeypatch, tmp_path, capsys):
    # a trajectory file names the commit it measured, so with src/ changed
    # the script writes nothing and starts no run
    bench = _load("bench")
    monkeypatch.setattr(bench, "_src_differs_from_commit", lambda: True)
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: pytest.fail("a run was started"))
    out = tmp_path / "BENCH.json"
    assert bench.main(["--out", str(out)]) == 1
    assert not out.exists()
    assert "src/ differs from the commit" in capsys.readouterr().err
