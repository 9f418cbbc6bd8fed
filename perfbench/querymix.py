"""Inputs of the query-mix workload, generated from the seed.

The working set is fifteen structure files over five base neardomains (GF(5),
GF(7), GF(8), GF(9) and the Dickson nearfield of order 9): per base one ndom
file and two s2t files, one listing every member and one presenting the group
by generators. Each file carries its own seeded relabeling of the points, and
each s2t file a seeded pair of base points.

The requests come in one block per base, in the order of BASES, then a round
of repeats. A block touches its base's files for the first time in a fixed
order (BLOCK), so the same request always pays the first-call costs (parsing,
rebuild, canonical isomorphism) and the latency distribution compares across
seeds. The blocks keep one order because bases of one order (GF(9) and the
Dickson nearfield) share cached work, which the first of them pays for. The
repeat round asks each same-base s2t homset a second time, plus one homset
with no morphisms. The seed picks each file's labels, the s2t base points,
the pair of generators and the order of the repeat round; it never changes
the amount of work.

Every request carries its expected answer. Hom counts come from
enumerate_nd_morphisms on the unrelabeled neardomains, an independent code
path, computed in the benchmark's own process and outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

BASES = ("gf5", "gf7", "gf8", "gf9", "dickson9")

# File keys: "nd" ndom, "sl" s2t listing every member, "sg" s2t by generators.
BLOCK: tuple[tuple[str, ...], ...] = (
    ("check", "nd"),
    ("check", "sl"),
    ("check", "sg"),
    ("roundtrip", "nd"),
    ("roundtrip", "sl"),
    ("homset", "sl", "sg"),
    ("homset", "nd", "sl"),
)
REPEATS: tuple[tuple[str, ...], ...] = (
    *(("homset", f"sl:{b}", f"sg:{b}") for b in BASES),
    ("homset", "sl:gf7", "sg:gf5"),  # no morphisms: the count must be 0
)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str  # "check", "roundtrip", "homset" (s2t to s2t) or "homset-mixed"
    file_kinds: tuple[str, ...]
    count: int | None = None  # expected hom count


def _zoo_text(cli, base: str) -> str:
    flag = ["--dickson9"] if base == "dickson9" else ["--gf", base[2:]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["zoo", *flag])
    if rc != 0:
        raise RuntimeError(f"algcat zoo {' '.join(flag)} exited {rc}")
    return buf.getvalue()


def _parse_ndom(text: str) -> tuple[list[list[int]], list[list[int]], int, int]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    _, n, zero, one = lines[0]
    n = int(n)
    add = [[int(v) for v in row] for row in lines[1:1 + n]]
    mul = [[int(v) for v in row] for row in lines[2 + n:2 + 2 * n]]
    return add, mul, int(zero), int(one)


def _relabel(add, mul, zero, one, pi):
    n = len(add)
    add2 = [[0] * n for _ in range(n)]
    mul2 = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            add2[pi[a]][pi[b]] = pi[add[a][b]]
            mul2[pi[a]][pi[b]] = pi[mul[a][b]]
    return add2, mul2, pi[zero], pi[one]


def _closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        fresh = []
        for g in gens:
            for h in frontier:
                c = tuple(g[x] for x in h)
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
        frontier = fresh
    return seen


def _rows(rows) -> list[str]:
    return [" ".join(map(str, row)) for row in rows]


def _write_files(cli, seed: int, workdir: Path) -> dict[str, Path]:
    paths: dict[str, Path] = {}
    for base in BASES:
        add, mul, zero, one = _parse_ndom(_zoo_text(cli, base))
        n = len(add)
        rng = random.Random(f"query-mix:{seed}:{base}")

        pi = list(range(n))
        rng.shuffle(pi)
        a2, m2, z2, o2 = _relabel(add, mul, zero, one, pi)
        nd_path = workdir / f"ndom-{base}.txt"
        nd_path.write_text("\n".join([f"ndom {n} {z2} {o2}", *_rows(a2), "mul", *_rows(m2)]) + "\n")
        paths[f"nd:{base}"] = nd_path

        for variant in ("sl", "sg"):
            pi = list(range(n))
            rng.shuffle(pi)
            a2, m2, z2, _ = _relabel(add, mul, zero, one, pi)
            members = sorted({
                tuple(a2[a][m2[b][x]] for x in range(n))
                for a in range(n) for b in range(n) if b != z2
            })
            omega0, omega1 = rng.sample(range(n), 2)
            header = f"s2t {n} {omega0} {omega1}"
            if variant == "sl":
                rng.shuffle(members)
                body = _rows(members)
            else:
                # Always two generators: the cost of closing them up grows
                # with their number.
                gens = rng.sample(members, 2)
                while len(_closure(gens)) < len(members):
                    gens = rng.sample(members, 2)
                body = ["generators", *_rows(gens)]
            path = workdir / f"s2t-{base}-{'listing' if variant == 'sl' else 'generators'}.txt"
            path.write_text("\n".join([header, *body]) + "\n")
            paths[f"{variant}:{base}"] = path
    return paths


def _oracle(base: str):
    from algcat.neardomain import dickson_nearfield_9, galois_field

    return dickson_nearfield_9() if base == "dickson9" else galois_field(int(base[2:]))


def build(seed: int, workdir: Path) -> list[Request]:
    """Write the working set into workdir and return the seeded request
    sequence with expected answers. Needs algcat importable."""
    from algcat import cli
    from algcat.neardomain import enumerate_nd_morphisms

    paths = _write_files(cli, seed, workdir)
    hom_counts: dict[tuple[str, str], int] = {}

    def count(src_key: str, dst_key: str) -> int:
        pair = (src_key.split(":")[1], dst_key.split(":")[1])
        if pair not in hom_counts:
            hom_counts[pair] = len(enumerate_nd_morphisms(_oracle(pair[0]), _oracle(pair[1])))
        return hom_counts[pair]

    def file_kind(key: str) -> str:
        return "ndom" if key.startswith("nd:") else "s2t"

    rng = random.Random(f"query-mix:{seed}:order")
    repeats = list(REPEATS)
    rng.shuffle(repeats)
    sequence = [(cmd, *(f"{v}:{b}" for v in variants)) for b in BASES for cmd, *variants in BLOCK]
    requests = []
    for cmd, *keys in sequence + repeats:
        argv = (cmd, *(str(paths[k]) for k in keys), "--no-timestamp")
        kinds = tuple(file_kind(k) for k in keys)
        if cmd == "homset":
            kind = "homset-mixed" if kinds[0] != kinds[1] else "homset"
            requests.append(Request(argv, kind, kinds, count(*keys)))
        else:
            requests.append(Request(argv, cmd, kinds))
    return requests


def repeat_share(requests: list[Request]) -> float:
    """Share of requests identical to an earlier one in the sequence."""
    seen: set[tuple[str, ...]] = set()
    repeats = 0
    for r in requests:
        repeats += r.argv in seen
        seen.add(r.argv)
    return repeats / len(requests)
