"""Tests of the benchmark itself: its checkers catch wrong outputs, tracing
leaves the program's outputs unchanged, and BENCHMARK.json names what run.py
reports.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import querymix  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _out(stdout: str, rc: int = 0) -> dict:
    return {"rc": rc, "stdout": stdout, "error": None}


def test_checker_flags_corrupted_verify_all_report():
    golden = checks.golden_report()
    assert checks.verify_all_failure(_out(golden), golden) is None
    corrupted = golden.replace("(checked=121)", "(checked=120)", 1)
    assert corrupted != golden
    assert checks.verify_all_failure(_out(corrupted), golden).startswith("report line")
    assert checks.verify_all_failure(_out(golden + "extra\n"), golden) is not None
    assert checks.verify_all_failure(_out(golden, rc=1), golden) == "exit code 1"


def test_checker_flags_wrong_census_count():
    line = "order 6: {} classes, tables sha256 0\n"
    assert checks.census_failure(6, _out(line.format(109))) is None
    assert checks.census_failure(6, _out(line.format(108))) == "order 6: 108 classes, expected 109"
    assert checks.census_failure(5, _out(line.format(109))) is not None


def test_checker_flags_wrong_query_answers():
    homset = querymix.Request(("homset", "a", "b"), "homset", ("s2t", "s2t"), 2)
    good = "command: homset\ncount: 2\nhom: phi=0,1 f=0\nhom: phi=0,1 f=1\n"
    assert checks.query_failure(homset, _out(good)) is None
    assert checks.query_failure(homset, _out(good.replace("count: 2", "count: 3"))) is not None
    mixed = querymix.Request(("homset", "a", "b"), "homset-mixed", ("ndom", "s2t"), 1)
    answer = "count: 1\nalgebraic_count: 1\nbijection: {}\n"
    assert checks.query_failure(mixed, _out(answer.format("true"))) is None
    assert checks.query_failure(mixed, _out(answer.format("false"))) is not None
    check = querymix.Request(("check", "a"), "check", ("s2t",))
    assert checks.query_failure(check, _out("kind: s2t\nvalid: false\n")) is not None


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    small = [r for r in querymix.build(7, tmp_path)
             if not any("gf9" in a or "dickson9" in a for a in r.argv)]
    jobs = {
        "query-mix": {"mode": "query-mix", "requests": [list(r.argv) for r in small]},
        "loop-census": {"mode": "loop-census", "orders": [1, 2, 3, 4, 5]},
    }
    traces = {}
    for name, job in jobs.items():
        plain, _ = run._spawn(job, tmp_path)
        trace_out = tmp_path / f"{name}.json"
        traced, _ = run._spawn({**job, "trace": True, "trace_out": str(trace_out)}, tmp_path)
        assert plain["outputs"] == traced["outputs"]
        traces[name] = json.loads(trace_out.read_text())
        assert traces[name]["missing"] == []
    # enumerate_s2t_morphisms is reached only through the CLI's dispatch
    # dict, so its spans show that bindings inside containers are rebound.
    assert "s2t.enumerate_s2t_morphisms" in tracer.self_times(traces["query-mix"])
    assert "loops.canonical_table" in tracer.self_times(traces["loop-census"])


def test_quantile_is_harrell_davis():
    # reference values from scipy.stats.mstats.hdquantiles
    values = [10.0, 2.0, 4.0, 1.0, 3.0]
    assert abs(run._quantile(values, 0.5) - 3.2896) < 1e-9
    assert abs(run._quantile(values, 0.9) - 9.000795518580473) < 1e-9
    assert run._quantile([7.0], 0.9) == 7.0


def test_scale_uses_the_reference_iterations_near_a_request():
    pace = [[0.0, 0.001], [0.05, 0.001], [0.1, 0.001], [5.0, 0.002], [5.05, 0.002], [5.1, 0.002]]
    assert run._scale(pace) == run.REF_ITER_S / 0.0015
    assert run._scale(pace, 5.02, 5.03) == run.REF_ITER_S / 0.002
    # fewer than three iterations near the request: the whole pass counts
    assert run._scale(pace, 2.0, 2.1) == run._scale(pace)


def test_paced_worker_reports_its_scaled_time(tmp_path):
    result, wall = run._spawn({"mode": "setup"}, tmp_path, paced=True)
    assert 0 < result["cpu_s"] <= wall
    assert result["scale"] > 0
    assert run._scaled_s(result) == result["cpu_s"] * result["scale"]


def test_checkout_without_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    layers = run.layer_metric_specs(checks.family_names(checks.golden_report()))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers
    ]
