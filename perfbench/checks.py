"""Output checks: every timed operation is checked before it counts.

Each check returns None for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import re
from pathlib import Path

GOLDEN_VERIFY_ALL = Path(__file__).resolve().parent / "golden" / "verify-all.txt"

# Loops of orders 1..6 up to isomorphism: McKay, Meynert and Myrvold, "Small
# Latin squares, quasigroups and loops", J. Combin. Des. 15 (2007).
CENSUS_COUNTS = (1, 1, 1, 2, 6, 109)


def golden_report() -> str:
    return GOLDEN_VERIFY_ALL.read_text()


def family_names(report: str) -> list[str]:
    """Check-family names in report order, from the verdict lines."""
    return re.findall(r"^verdict: (\S+) ", report, flags=re.MULTILINE)


def _crashed(out: dict) -> str | None:
    if out["error"] is not None:
        return "raised: " + out["error"].strip().splitlines()[-1]
    return None


def verify_all_failure(out: dict, golden: str) -> str | None:
    """The report must equal the seed's byte for byte, checked= counts included."""
    crash = _crashed(out)
    if crash:
        return crash
    if out["rc"] != 0:
        return f"exit code {out['rc']}"
    if out["stdout"] != golden:
        got, want = out["stdout"].splitlines(), golden.splitlines()
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"report line {i + 1}: {g!r} != {w!r}"
        return f"report has {len(got)} lines, expected {len(want)}"
    return None


def census_failure(order: int, out: dict) -> str | None:
    crash = _crashed(out)
    if crash:
        return crash
    m = re.match(r"order (\d+): (\d+) classes", out["stdout"])
    if m is None or int(m.group(1)) != order:
        return f"unreadable census line {out['stdout']!r}"
    got, want = int(m.group(2)), CENSUS_COUNTS[order - 1]
    if got != want:
        return f"order {order}: {got} classes, expected {want}"
    return None


def _fields(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields.setdefault(key, value)
    return fields


def query_failure(req, out: dict) -> str | None:
    """req is a querymix.Request carrying the expected answer."""
    crash = _crashed(out)
    if crash:
        return crash
    if out["rc"] != 0:
        return f"exit code {out['rc']}"
    f = _fields(out["stdout"])
    if req.kind == "check":
        if f.get("valid") != "true" or f.get("kind") != req.file_kinds[0]:
            return f"check: valid={f.get('valid')} kind={f.get('kind')}"
    elif req.kind == "roundtrip":
        if f.get("roundtrip") != "pass":
            return f"roundtrip: {f.get('roundtrip')}"
    elif req.kind == "homset":
        homs = out["stdout"].count("\nhom: ")
        if f.get("count") != str(req.count) or homs != req.count:
            return f"homset: count={f.get('count')} with {homs} hom lines, expected {req.count}"
    elif req.kind == "homset-mixed":
        got = (f.get("bijection"), f.get("count"), f.get("algebraic_count"))
        if got != ("true", str(req.count), str(req.count)):
            return f"homset: bijection={got[0]} count={got[1]} algebraic_count={got[2]}, expected {req.count}"
    else:
        raise ValueError(f"unknown request kind {req.kind!r}")
    return None
