"""The process that does the measured work: one pass of one workload.

Usage: python3 perfbench/worker.py JOB.json

The job names the mode, the program's source directory and, for query-mix,
the request list. The program's own output is captured per operation and
returned, with its CPU time per operation, the process's CPU time and peak
RSS, and the lru_cache statistics, as one JSON object on standard output.
With "trace" set, the layer tracer is installed before the first operation
and its spans are written to the job's "trace_out" file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback


def _lru_caches(package: str = "algcat") -> list:
    """Every module-level lru_cache in the package, each once."""
    found: dict[int, object] = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for value in vars(mod).values():
            if callable(value) and hasattr(value, "cache_info"):
                found.setdefault(id(value), value)
    return list(found.values())


def _cache_stats(caches: list) -> dict:
    hits = misses = entries = 0
    for cache in caches:
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    return {"hits": hits, "misses": misses, "entries": entries}


def _captured(fn, *args) -> tuple[dict, float, list[float]]:
    """Run fn with stdout captured; returns its outcome, the CPU seconds it
    took (the worker is single-threaded, so that is its own work only) and
    its start and end on the time.perf_counter() clock."""
    buf = io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    t0 = time.process_time()
    with contextlib.redirect_stdout(buf):
        try:
            rc = fn(*args)
        except SystemExit as exc:  # the console entry point exits with its code
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crash is a failed operation, not a dead worker
            error = traceback.format_exc()
    elapsed = time.process_time() - t0
    return {"rc": rc, "stdout": buf.getvalue(), "error": error}, elapsed, [start, time.perf_counter()]


def _usage() -> dict:
    """Peak RSS, and the CPU seconds used since the interpreter started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"rss_kb": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime}


def _census_order(n: int) -> int:
    import algcat.loops

    loops = algcat.loops.enumerate_loops(n)
    digest = hashlib.sha256(repr([loop.table for loop in loops]).encode()).hexdigest()
    print(f"order {n}: {len(loops)} classes, tables sha256 {digest}")
    return 0


def run_job(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    mode = job["mode"]
    import algcat.cli

    if mode == "setup":
        from algcat.zoo import standard_zoo

        standard_zoo()
        return _usage()

    caches = _lru_caches()
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def request(name: str):
        return tracer.request_span(name) if tracer else contextlib.nullcontext()

    outputs, latencies, spans = [], [], []
    if mode == "verify-all":
        sys.argv = ["algcat", "verify-all", "--no-timestamp"]
        with request("cli.request.verify-all"):
            out, dt, span = _captured(algcat.cli.console_main)
        outputs.append(out)
        latencies.append(dt)
        spans.append(span)
    elif mode == "query-mix":
        for argv in job["requests"]:
            with request(f"cli.request.{argv[0]}"):
                out, dt, span = _captured(algcat.cli.main, argv)
            outputs.append(out)
            latencies.append(dt)
            spans.append(span)
    elif mode == "loop-census":
        for n in job["orders"]:
            with request("census.order"):
                out, dt, span = _captured(_census_order, n)
            outputs.append(out)
            latencies.append(dt)
            spans.append(span)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    result = {
        "outputs": outputs,
        "latency_s": latencies,
        "spans_s": spans,
        "caches": _cache_stats(caches),
        **_usage(),
    }
    if tracer is not None:
        dump = tracer.dump()
        verdicts = tracer.kept.get("catcheck.run_all", [])
        dump["families"] = [
            {"name": v.name, "elapsed_ms": v.elapsed_ms, "checked": v.checked}
            for v in (verdicts[-1] if verdicts else [])
        ]
        with open(job["trace_out"], "w") as fh:
            json.dump(dump, fh)
    return result


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    result = run_job(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
