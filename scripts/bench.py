#!/usr/bin/env python3
"""Benchmark trajectory: run the workloads of BENCHMARK.json and write their
medians and quartiles to one JSON file.

Each workload that BENCHMARK.json lists runs once per seed in SEEDS through
its command with `--trace 0` and its `run_seconds`, in a fresh process,
workloads interleaved seed by seed. The file records, per workload, the
median, first and third quartile of every end-to-end metric over the runs,
with the operation counts, next to the Python version, the commit and the
sha256 of src/ that perfbench/run.py reports, and whether bytecode writing
was off (PYTHONDONTWRITEBYTECODE): the workers inherit this process's
environment, and with it off every worker compiles src/ from source, which
costs each process tens of milliseconds. It refuses to run while src/
differs from the commit, so the commit always names the code measured.

Usage:
    python3 scripts/bench.py --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
# the provenance fields of run.py's meta line that the file keeps
PROVENANCE = ("python", "commit", "source_sha256", "nproc")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(meta, result) from the output of one perfbench/run.py: the JSON after
    its `meta: ` line, and the JSON object on its last line."""
    lines = stdout.strip().splitlines()
    meta = next(json.loads(line[len("meta: "):]) for line in lines if line.startswith("meta: "))
    return meta, json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(results: list[dict]) -> dict:
    """The runs of one workload as run count, operations attempted and failed,
    and for each metric its unit and the median and quartiles of its values."""
    names = sorted({name for r in results for name in r["metrics"]})
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        unit = next(r["metrics"][name]["unit"] for r in results if name in r["metrics"])
        metrics[name] = {"unit": unit, "runs": len(values), **_spread(values)}
    return {
        "runs": len(results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "correct": all(r["correct"] for r in results),
        "metrics": metrics,
    }


def provenance(meta: dict) -> dict:
    """The PROVENANCE fields of a run's meta line, and whether this
    process's environment, which every worker inherits, sets
    PYTHONDONTWRITEBYTECODE."""
    return {
        **{key: meta.get(key) for key in PROVENANCE},
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def _src_differs_from_commit() -> bool:
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True)
    return proc.returncode != 0 or bool(proc.stdout.strip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write, BENCH_<n>.json by convention")
    args = parser.parse_args(argv)
    if _src_differs_from_commit():
        print("error: src/ differs from the commit (or git failed); commit it first", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {wl: [] for wl in workloads}
    meta = {}
    for seed in SEEDS:
        for wl in workloads:
            cmd = [*spec["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"error: {wl} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
                return 1
            meta, result = parse_run(proc.stdout)
            runs[wl].append(result)
            print(f"{wl} seed {seed}: run_s {result['metrics']['run_s']['value']:.4f}", file=sys.stderr)

    report = {
        **provenance(meta),
        "seeds": list(SEEDS),
        "seconds": spec["run_seconds"],
        "workloads": {wl: summarize(results) for wl, results in runs.items()},
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
