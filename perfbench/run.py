"""algcat benchmark: time to a finished certificate or answer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one client, closed loop, one worker process at a time):

  verify-all   one cold `algcat verify-all --no-timestamp` process per pass,
               its report compared byte for byte with the seed's report.
  query-mix    one long-lived process per pass answering a seeded sequence of
               check, roundtrip and homset requests through algcat.cli.main
               (see querymix.py); every answer is checked.
  loop-census  loops of orders 1..6 up to isomorphism in a fresh process; the
               class counts must be 1, 1, 1, 2, 6, 109.

With --trace 0, passes repeat until the next one would end after --seconds,
at least one, and for query-mix enough for 100 requests. A set-up sample
(setup_s) precedes each pass, at least SETUP_MIN in all. Each of these
processes runs on one CPU beside reference.py, and its timings are its CPU
time scaled by how fast the reference loop ran meanwhile, relative to
REF_ITER_S: seconds at a fixed reference speed. With --trace 1, a
traced pass runs between two untraced ones and the per-layer metrics come
from it (see tracer.py). The last line of standard output is one JSON
object: correct, attempted, failed and metrics. Lines before it give the
run's metadata, sample counts and, when traced, the end-to-end metric each
layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import querymix
from tracer import SPANNED, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-all", "query-mix", "loop-census")
SETUP_MIN = 5
PROCESS_TIMEOUT_S = 170
CENSUS_ORDERS = tuple(range(1, len(checks.CENSUS_COUNTS) + 1))
CLI_KINDS = ("check", "roundtrip", "homset", "verify-all")
END_TO_END = {"run_s": "s", "setup_s": "s", "latency_ms.p50": "ms",
              "latency_ms.p90": "ms", "peak_rss_mb": "MB"}
# CPU seconds per iteration of reference.py's loop that timings are scaled
# to. It only sets the scale: it was chosen so that the figures at the
# commit that defined this benchmark read close to the fastest wall times
# measured then, on a 2-vCPU Xeon VM with Python 3.11.7.
REF_ITER_S = 0.00025
# A request's speed is sampled by the reference iterations that ended while
# it ran or within LOCAL_S of it: the host's speed changes within a second.
LOCAL_S = 0.1

PERMS_MOVES = "run_s on verify-all; latency_ms on query-mix"


def _family_key(name: str) -> str:
    return name.replace("/", ".").replace("->", "-to-")


def layer_metric_specs(families: list[str]) -> list[tuple[str, str, str, str]]:
    """(name, unit, better, the end-to-end metric and workload it should move)."""
    specs = [
        ("perms.compose.calls", "count", "lower", PERMS_MOVES),
        ("perms.compose.self_s", "s", "lower", PERMS_MOVES),
        ("perms.lookup.calls", "count", "lower", PERMS_MOVES),
        ("perms.lookup.self_s", "s", "lower", PERMS_MOVES),
        ("perms.closure.self_s", "s", "lower", PERMS_MOVES),
        ("perms.subgroup_failure.self_s", "s", "lower", PERMS_MOVES),
    ]
    for fn in SPANNED["s2t"]:
        moves = PERMS_MOVES + ("; setup_s" if fn in ("affine_group", "check_s2t") else "")
        specs += [(f"s2t.{fn}.calls", "count", "lower", moves),
                  (f"s2t.{fn}.self_s", "s", "lower", moves)]
    specs += [
        ("neardomain.check_neardomain.self_s", "s", "lower", "setup_s"),
        ("neardomain.enumerate_nd_morphisms.self_s", "s", "lower", "run_s on verify-all"),
        ("neardomain.hom.accept_ratio", "ratio", "higher", "run_s on verify-all"),
        ("loops.canonical_table.calls", "count", "lower", "run_s on loop-census"),
        ("loops.canonical_table.self_s", "s", "lower", "run_s on loop-census"),
        ("loops.enumerate_loops.self_s", "s", "lower", "run_s on loop-census"),
        ("loops.enumerate_loop_morphisms.self_s", "s", "lower", "run_s on verify-all"),
        ("rps.enumerate_rps_morphisms.self_s", "s", "lower", "run_s on verify-all"),
        ("rps.enumerate_rps_morphisms_direct.self_s", "s", "lower", "run_s on verify-all"),
        ("rps.direct.accept_ratio", "ratio", "higher", "run_s on verify-all"),
    ]
    for name in families:
        key = _family_key(name)
        specs += [(f"catcheck.family.{key}.s", "s", "lower", "run_s on verify-all"),
                  (f"catcheck.family.{key}.checked", "count", "higher", "run_s on verify-all")]
    specs += [
        ("fileio.parse_structure.calls", "count", "lower", "latency_ms on query-mix"),
        ("fileio.parse_structure.self_s", "s", "lower", "latency_ms on query-mix"),
        ("zoo.standard_zoo.s", "s", "lower", "setup_s"),
    ]
    for kind in CLI_KINDS:
        moves = "run_s on verify-all" if kind == "verify-all" else "latency_ms on query-mix"
        specs.append((f"cli.request.{kind}.self_s", "s", "lower", moves))
    specs += [
        ("cache.hit_ratio", "ratio", "higher", "latency_ms on query-mix; peak_rss_mb"),
        ("cache.entries", "count", "lower", "latency_ms on query-mix; peak_rss_mb"),
        ("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing itself"),
    ]
    return specs


# ------------------------------------------------------------------ workers

class WorkerFailed(RuntimeError):
    pass


def _spawn(job: dict, workdir: Path, paced: bool = False) -> tuple[dict, float]:
    """Run one worker process; returns its result and its wall time. When
    paced, reference.py runs beside the worker for its whole life, and the
    result's "scale" converts the worker's CPU seconds to seconds at the
    reference speed REF_ITER_S."""
    job_path = Path(tempfile.mkstemp(suffix=".json", dir=workdir)[1])
    job_path.write_text(json.dumps({"src": str(SRC), "trace": False, **job}))
    env = dict(os.environ, PYTHONHASHSEED="0")
    ref = None
    try:
        if paced:
            ref = subprocess.Popen([sys.executable, str(BENCH / "reference.py")],
                                   stdout=subprocess.PIPE, text=True)
            if ref.stdout.readline().strip() != "ready":
                raise WorkerFailed("the reference loop did not start")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(job_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
    finally:
        pace = _stop_reference(ref) if ref is not None else None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise WorkerFailed(f"worker {job['mode']} exited {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    if paced:
        if not pace:
            raise WorkerFailed("the reference loop made no iteration")
        result["pace"] = pace
        result["scale"] = _scale(pace)
    return result, wall


def _scale(pace: list[list[float]], start: float = -math.inf, end: float = math.inf) -> float:
    """REF_ITER_S over the reference loop's mean CPU seconds per iteration,
    over the iterations that ended within LOCAL_S of [start, end], or over
    all of them if fewer than three did."""
    near = [dt for t, dt in pace if start - LOCAL_S <= t <= end + LOCAL_S]
    if len(near) < 3:
        near = [dt for _, dt in pace]
    return REF_ITER_S * len(near) / sum(near)


def _stop_reference(ref: subprocess.Popen) -> list | None:
    """Stop reference.py and wait for it; returns its [end, CPU seconds]
    per iteration, or None if it failed."""
    if ref.poll() is None:
        ref.send_signal(signal.SIGTERM)
    try:
        out = ref.communicate(timeout=30)[0]
    except subprocess.TimeoutExpired:
        ref.kill()
        ref.communicate()
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if ref.returncode == 0 and lines else None


class Workload:
    """One workload's passes: the job a pass runs, and how its operations
    are checked and timed."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.meta: dict = {}
        self.job: dict = {"mode": name}
        self.min_passes = 1
        if name == "verify-all":
            self.golden = checks.golden_report()
        elif name == "query-mix":
            sys.path.insert(0, str(SRC))
            self.requests = querymix.build(seed, workdir)
            self.job["requests"] = [list(r.argv) for r in self.requests]
            self.meta["requests_per_pass"] = len(self.requests)
            self.meta["repeat_share"] = querymix.repeat_share(self.requests)
            # enough requests that at least ten latency samples lie beyond p90
            self.min_passes = math.ceil(100 / len(self.requests))
        elif name == "loop-census":
            self.job["orders"] = list(CENSUS_ORDERS)
        else:
            raise ValueError(f"unknown workload {name!r}")

    def failures(self, outputs: list[dict]) -> list[str | None]:
        if self.name == "verify-all":
            return [checks.verify_all_failure(out, self.golden) for out in outputs]
        if self.name == "query-mix":
            return [checks.query_failure(r, out) for r, out in zip(self.requests, outputs)]
        return [checks.census_failure(n, out) for n, out in zip(CENSUS_ORDERS, outputs)]

    def latencies_ms(self, result: dict) -> list[float]:
        """Per-request latency at the reference speed; for verify-all and
        loop-census the request is the whole command, so its latency is the
        whole process's."""
        if self.name == "query-mix":
            return [s * _scale(result["pace"], *span) * 1000
                    for s, span in zip(result["latency_s"], result["spans_s"])]
        return [_scaled_s(result) * 1000]


def _scaled_s(result: dict) -> float:
    """The worker's CPU seconds, from start to exit, at the reference speed."""
    return result["cpu_s"] * result["scale"]


def _quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a mean of the sorted
    values, weighted by a beta distribution centred on rank q(n+1). Where
    the values cluster with gaps between them, as the query-mix requests do,
    it moves smoothly with them, while a single order statistic jumps across
    a gap."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta function (modified
    Lentz method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


# ------------------------------------------------------------------ metrics

def _run_untraced(wl: Workload, seconds: float, workdir: Path, tally: dict) -> dict:
    """Passes fill the window. A set-up sample precedes each pass, so set-up
    and passes sample the same stretch of machine time; set-up samples are
    topped up to SETUP_MIN after the last pass. Every timing is scaled to the
    reference speed; the wall times only pace the window."""
    setup, setup_walls, times, walls, scales, latencies, rss = [], [], [], [], [], [], []

    def setup_sample() -> None:
        result, wall = _spawn({"mode": "setup"}, workdir, paced=True)
        setup.append(_scaled_s(result))
        setup_walls.append(wall)

    start = time.perf_counter()
    while True:
        setup_sample()
        result, wall = _spawn(wl.job, workdir, paced=True)
        _tally(tally, wl.failures(result["outputs"]))
        times.append(_scaled_s(result))
        walls.append(wall)
        scales.append(result["scale"])
        latencies += wl.latencies_ms(result)
        rss.append(result["rss_kb"] / 1024)
        cycle = statistics.median(walls) + statistics.median(setup_walls)
        if len(walls) >= wl.min_passes and time.perf_counter() - start + cycle > seconds:
            break
    while len(setup) < SETUP_MIN:
        setup_sample()
    p90 = _quantile(latencies, 0.9)
    wl.meta["samples"] = {
        "run_s": len(walls), "setup_s": len(setup),
        "latency_ms.p50": len(latencies), "latency_ms.p90": len(latencies),
        "peak_rss_mb": len(rss),
    }
    wl.meta["beyond_p90"] = sum(v > p90 for v in latencies)
    wl.meta["pass_s"] = times
    wl.meta["pass_wall_s"] = walls
    wl.meta["pass_scale"] = scales
    wl.meta["setup_samples_s"] = setup
    wl.meta["setup_wall_s"] = setup_walls
    values = {
        "run_s": _quantile(times, 0.5),
        "setup_s": _quantile(setup, 0.5),
        "latency_ms.p50": _quantile(latencies, 0.5),
        "latency_ms.p90": p90,
        "peak_rss_mb": statistics.median(rss),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _run_traced(wl: Workload, workdir: Path, tally: dict) -> dict:
    """An untraced pass on each side of the traced one, so that drift in
    machine speed cancels out of the overhead ratio."""
    plain, wall_before = _spawn(wl.job, workdir)
    trace_path = workdir / "trace.json"
    traced, wall_traced = _spawn({**wl.job, "trace": True, "trace_out": str(trace_path)}, workdir)
    plain_after, wall_after = _spawn(wl.job, workdir)
    for result in (plain, traced, plain_after):
        _tally(tally, wl.failures(result["outputs"]))
    # Tracing must not change what the program prints.
    mismatched = [i for i, (a, b) in enumerate(zip(plain["outputs"], traced["outputs"])) if a != b]
    tally["failed"] += len(mismatched)
    tally["reasons"] += [f"operation {i}: traced output differs" for i in mismatched[:3]]
    trace = json.loads(trace_path.read_text())
    wl.meta["trace_missing"] = trace["missing"]
    wl.meta["spans"] = len(trace["spans"])
    families = checks.family_names(checks.golden_report())
    overhead = 2 * wall_traced / (wall_before + wall_after)
    values = layer_values(trace, traced["caches"], overhead, families)
    return {name: (values[name], unit) for name, unit, _, _ in layer_metric_specs(families)}


def layer_values(trace: dict, caches: dict, overhead: float, families: list[str]) -> dict[str, float]:
    st = self_times(trace)

    def calls(name: str) -> int:
        return st.get(name, [0])[0]

    def self_s(name: str) -> float:
        return st.get(name, [0, 0.0])[1]

    def accept_ratio(fn: str, parent: str) -> float:
        tries, accepts = trace["counts"].get(f"{fn}<{parent}", [0, 0])
        return accepts / tries if tries else 0.0

    hot = trace["hot"]
    v: dict[str, float] = {
        "perms.compose.calls": hot["compose"][0],
        "perms.compose.self_s": hot["compose"][1],
        "perms.lookup.calls": hot["lookup"][0],
        "perms.lookup.self_s": hot["lookup"][1],
    }
    for layer, fns in SPANNED.items():
        for fn in fns:
            v[f"{layer}.{fn}.calls"] = calls(f"{layer}.{fn}")
            v[f"{layer}.{fn}.self_s"] = self_s(f"{layer}.{fn}")
    v["neardomain.hom.accept_ratio"] = accept_ratio(
        "neardomain.is_nd_morphism", "neardomain.enumerate_nd_morphisms")
    v["rps.direct.accept_ratio"] = accept_ratio(
        "rps.is_rps_morphism", "rps.enumerate_rps_morphisms_direct")
    timed = {fam["name"]: fam for fam in trace["families"]}
    for name in families:
        fam = timed.get(name, {"elapsed_ms": 0.0, "checked": 0})
        v[f"catcheck.family.{_family_key(name)}.s"] = fam["elapsed_ms"] / 1000
        v[f"catcheck.family.{_family_key(name)}.checked"] = fam["checked"]
    v["zoo.standard_zoo.s"] = st.get("zoo.standard_zoo", [0, 0.0, 0.0])[2]
    for kind in CLI_KINDS:
        v[f"cli.request.{kind}.self_s"] = self_s(f"cli.request.{kind}")
    looked_up = caches["hits"] + caches["misses"]
    v["cache.hit_ratio"] = caches["hits"] / looked_up if looked_up else 0.0
    v["cache.entries"] = caches["entries"]
    v["trace.overhead_ratio"] = overhead
    return v


def _tally(tally: dict, failures: list[str | None]) -> None:
    tally["attempted"] += len(failures)
    bad = [f for f in failures if f is not None]
    tally["failed"] += len(bad)
    tally["reasons"] += bad[:3]


def _provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "algcat" / "cli.py").is_file():
        print(f"error: no algcat sources under {SRC}", file=sys.stderr)
        return 2

    # The worker and the reference loop beside it share one CPU, so that
    # both see the same changes in its speed.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    tally = {"attempted": 0, "failed": 0, "reasons": []}
    try:
        wl = Workload(args.workload, args.seed, workdir)
        if args.trace:
            metrics = _run_traced(wl, workdir, tally)
        else:
            metrics = _run_untraced(wl, args.seconds, workdir, tally)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is using it
            pass

    meta = {**_provenance(args.seed), "workload": args.workload, "trace": args.trace, **wl.meta}
    moves = {}
    if args.trace:
        families = checks.family_names(checks.golden_report())
        moves = {name: m for name, _, _, m in layer_metric_specs(families)}
    print("meta: " + json.dumps(meta, sort_keys=True))
    for reason in tally["reasons"]:
        print(f"failure: {reason}")
    for name, (value, unit) in metrics.items():
        note = f"  (moves {moves[name]})" if name in moves else ""
        print(f"metric: {name} = {value} {unit}{note}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
