import time

import pytest
from hypothesis import HealthCheck, settings

from algcat import cli
from algcat.zoo import standard_zoo

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def zoo():
    return standard_zoo()


@pytest.fixture(autouse=True)
def empty_cli_input_cache():
    """Each test starts with the CLI's input cache empty, so no test's
    answer depends on which files the tests before it read."""
    cli._parse.cache_clear()


# CPU seconds _reference_loop takes, the median of 600 runs on the machine the
# time bounds of the tests were set on (a 2-vCPU Xeon VM, Python 3.11)
REFERENCE_LOOP_S = 0.010

# a permutation of 16 points (x -> 7x + 3 mod 16)
_PERM = tuple((7 * x + 3) % 16 for x in range(16))


def _reference_loop() -> float:
    """CPU seconds of a fixed loop that composes permutations as tuples and
    keeps them in a set: the kind of work the program does, so it slows with
    the host as the program does."""
    t0 = time.process_time()
    q, seen = _PERM, set()
    for i in range(4000):
        q = tuple(_PERM[x] for x in q)
        seen.add(q)
        seen.add((i, i + 1, i + 2)[::-1])
    return time.process_time() - t0


@pytest.fixture
def reference_cpu():
    """reference_cpu(region) runs region() and returns its result and its CPU
    seconds scaled to the reference speed: the seconds times
    REFERENCE_LOOP_S over the mean time of the reference loop run just
    before and just after. A shared host drifts between speeds about 1.5x
    apart, and a time bound on unscaled seconds drifts with it."""

    def measure(region):
        before = _reference_loop()
        t0 = time.process_time()
        result = region()
        elapsed = time.process_time() - t0
        return result, elapsed * REFERENCE_LOOP_S * 2 / (before + _reference_loop())

    return measure


@pytest.fixture
def acceptance_report():
    """Recorder for the one-line-per-criterion acceptance verdicts; the lines
    surface in the terminal summary regardless of capture mode."""

    def record(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        _acceptance_lines.append(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
