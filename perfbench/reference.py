"""A fixed pure-Python loop that samples how fast the CPU runs right now.

Usage: python3 perfbench/reference.py

run.py starts it on the same CPU as each measured worker. It prints "ready",
then repeats: CHUNK iterations of a fixed loop, then a PAUSE_S sleep, so it
takes a small share of the CPU and samples its speed throughout the worker's
life. On SIGTERM it drops the iteration in progress and prints, as one JSON
list, each completed iteration's end (time.perf_counter(), which all
processes share on Linux) and the CPU seconds it took.

A shared 2-vCPU Xeon VM, where this benchmark was calibrated, drifts between
speeds about 1.5x apart, for fractions of a second up to minutes at a time,
and the worker's CPU time drifts with it. The loop's CPU time per iteration
drifts alike, so run.py divides it out.
"""

from __future__ import annotations

import json
import signal
import time

CHUNK = 4
PAUSE_S = 0.02


class _Stop(Exception):
    pass


def _stop(signum, frame):
    raise _Stop


# A permutation of 16 points (x -> 7x + 3 mod 16).
PERM = tuple((7 * x + 3) % 16 for x in range(16))


def _iteration() -> int:
    """Compose permutations as tuples, build small tuples and keep them in a
    set. This is the kind of work the program does, and it slows with the
    host as the program does; a loop of bare integer arithmetic slows less."""
    q, seen = PERM, set()
    for i in range(150):
        q = tuple(PERM[x] for x in q)
        seen.add(q)
        seen.add((i, i + 1, i + 2)[::-1])
    return len(seen)


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    samples = []
    print("ready", flush=True)
    try:
        while True:
            for _ in range(CHUNK):
                t0 = time.process_time()
                _iteration()
                samples.append((time.perf_counter(), time.process_time() - t0))
            time.sleep(PAUSE_S)
    except _Stop:
        pass
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
