"""Loops (unital quasigroups) as validated Cayley tables."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    IdentityViolation,
    InvariantViolation,
    LatinSquareViolation,
    ResourceLimitExceeded,
    StructureError,
)
from .perms import Perm

ENUMERATION_CAP = 6

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class Loop:
    """order, full Cayley table (row op column), distinguished identity.

    Build through check_loop(); direct construction skips validation.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]


def check_loop(table: Sequence[Sequence[int]], identity: int = 0) -> Loop:
    """Validate a Cayley table as a loop: every row and column a permutation,
    plus two-sided unit laws for the designated identity."""
    n = len(table)
    if n < 1:
        raise StructureError("loop order must be at least 1")
    if not 0 <= identity < n:
        raise StructureError(f"identity {identity} out of range for order {n}")
    rows = tuple(tuple(row) for row in table)
    for r, row in enumerate(rows):
        if len(row) != n:
            raise StructureError(f"row {r} has length {len(row)}, expected {n}")
        for v in row:
            if not 0 <= v < n:
                raise StructureError(f"entry {v} in row {r} out of range for order {n}")
    for r, row in enumerate(rows):
        seen = set()
        for v in row:
            if v in seen:
                raise LatinSquareViolation("row", r, v)
            seen.add(v)
    for c in range(n):
        seen = set()
        for r in range(n):
            v = rows[r][c]
            if v in seen:
                raise LatinSquareViolation("column", c, v)
            seen.add(v)
    for x in range(n):
        if rows[identity][x] != x:
            raise IdentityViolation("left", x)
        if rows[x][identity] != x:
            raise IdentityViolation("right", x)
    return Loop(n, rows, identity)


def is_associative(loop: Loop) -> bool:
    n = loop.order
    t = loop.table
    return all(
        t[t[a][b]][c] == t[a][t[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def left_translation(loop: Loop, a: int) -> Perm:
    """The permutation x -> a * x, i.e. row a of the table."""
    if not 0 <= a < loop.order:
        raise ValueError(f"element {a} out of range")
    return Perm(loop.table[a])


def is_loop_morphism(f: Sequence[int], src: Loop, dst: Loop) -> bool:
    """True iff f respects the operation on every pair."""
    f = tuple(f)
    if len(f) != src.order or any(not 0 <= v < dst.order for v in f):
        raise ValueError("f is not a total map into the target loop")
    for a in range(src.order):
        for b in range(src.order):
            if f[src.table[a][b]] != dst.table[f[a]][f[b]]:
                return False
    # f(e) == f(e) * f(e) forces f(e) to be the identity in a loop
    if f[src.identity] != dst.identity:
        raise InvariantViolation("morphism fixes the identity", (src.identity, f[src.identity]))
    return True


def table_homomorphisms(
    src_ops: Sequence[Table],
    dst_ops: Sequence[Table],
    pinned: Mapping[int, int],
) -> Iterator[tuple[int, ...]]:
    """Every map f with f(a op b) == f(a) op' f(b) for each paired operation
    (op, op') of src_ops and dst_ops, in lexicographic order of image tuples.
    pinned fixes the image of the points it lists.

    Backtracking over images in element order. Each product a op b == c is
    checked once, at the step that assigns the largest of a, b and c.
    """
    n, m = len(src_ops[0]), len(dst_ops[0])
    checks: list[list[tuple[Table, int, int, int]]] = [[] for _ in range(n)]
    for op, dst_op in zip(src_ops, dst_ops):
        for a in range(n):
            for b in range(n):
                c = op[a][b]
                checks[max(a, b, c)].append((dst_op, a, b, c))
    img = [0] * n

    def rec(k: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(img)
            return
        for v in (pinned[k],) if k in pinned else range(m):
            img[k] = v
            if all(t[img[a]][img[b]] == img[c] for t, a, b, c in checks[k]):
                yield from rec(k + 1)

    return rec(0)


def enumerate_loop_morphisms(src: Loop, dst: Loop) -> tuple[tuple[int, ...], ...]:
    """All operation-preserving maps src -> dst, lexicographic by image tuple.

    The identity image is pinned, which only prunes maps that could never be
    morphisms.
    """
    return tuple(table_homomorphisms((src.table,), (dst.table,), {src.identity: dst.identity}))


def loops_isomorphic(a: Loop, b: Loop) -> tuple[int, ...] | None:
    """First bijective morphism a -> b in lexicographic order, or None."""
    if a.order != b.order:
        return None
    homs = table_homomorphisms((a.table,), (b.table,), {a.identity: b.identity})
    return next((f for f in homs if len(set(f)) == a.order), None)


def relabel(loop: Loop, pi: Sequence[int]) -> Loop:
    """Transport the table along the bijection pi; the identity moves with it."""
    n = loop.order
    pi = tuple(pi)
    if sorted(pi) != list(range(n)):
        raise StructureError("relabeling is not a bijection of the carrier")
    pi_inv = Perm(pi).inverse().images
    return check_loop(_relabeled_table(loop.table, pi, pi_inv, n), pi[loop.identity])


def _relabeled_table(table: Sequence[Sequence[int]], pi: Sequence[int], pi_inv: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(pi[table[pi_inv[r]][pi_inv[c]]] for c in range(n))
        for r in range(n)
    )


def canonical_table(loop: Loop) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least table among all relabelings fixing element 0.

    Defined only for loops whose identity is 0 (the enumerated families);
    brute force over (n-1)! relabelings is fine at desk scale.
    """
    if loop.identity != 0:
        raise StructureError(f"canonical_table needs identity 0, got identity {loop.identity}")
    n = loop.order
    best = loop.table
    for pi, pi_inv in _relabelings_fixing_zero(n):
        cand = _relabeled_table(loop.table, pi, pi_inv, n)
        if cand < best:
            best = cand
    return best


def _relabelings_fixing_zero(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (pi, pi_inv) with pi(0) == 0, the identity first."""
    for rest in itertools.permutations(range(1, n)):
        pi = (0, *rest)
        pi_inv = [0] * n
        for i, v in enumerate(pi):
            pi_inv[v] = i
        yield pi, tuple(pi_inv)


def _relabeling_beats(table: Table, pi: Sequence[int], pi_inv: Sequence[int], n: int) -> bool:
    """Whether relabeling the normalized table by pi (pi(0) == 0) makes it
    lexicographically smaller, decided at the first cell that differs.

    Row 0 and column 0 are skipped: both tables have the identity there. So
    is the last row: in a Latin table the rows above it force it, so it
    cannot be the first row to differ.
    """
    for r in range(1, n - 1):
        src = table[pi_inv[r]]
        own = table[r]
        for c in range(1, n):
            v = pi[src[pi_inv[c]]]
            if v != own[c]:
                return v < own[c]
    return False


def _normalized_tables(n: int) -> Iterable[tuple[tuple[int, ...], ...]]:
    # all loop tables with identity 0: row 0 and column 0 fixed, backtrack the rest
    if n == 1:
        yield ((0,),)
        return
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = i
        table[i][0] = i
    full = (1 << n) - 1
    row_used = [full] + [1 << r for r in range(1, n)]
    col_used = [full] + [1 << c for c in range(1, n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def rec(k: int):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        r, c = cells[k]
        avail = ~(row_used[r] | col_used[c]) & full
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            table[r][c] = v
            row_used[r] |= bit
            col_used[c] |= bit
            yield from rec(k + 1)
            row_used[r] ^= bit
            col_used[c] ^= bit

    yield from rec(0)


def enumerate_loops(n: int) -> tuple[Loop, ...]:
    """All loops of order n with identity 0, one canonical representative per
    isomorphism class, sorted by table.

    Isomorphisms between loops with identity 0 fix 0, so a class's
    representative is its table that no relabeling fixing 0 makes
    lexicographically smaller. Each normalized table is kept exactly when no
    such relabeling beats it, tested cell by cell with an exit at the first
    difference, so no table but the kept ones is stored. Every kept table is
    confirmed against the brute-force canonical_table. Orders above
    ENUMERATION_CAP raise ResourceLimitExceeded.
    """
    if n < 1:
        raise StructureError("loop order must be at least 1")
    if n > ENUMERATION_CAP:
        raise ResourceLimitExceeded(f"loop enumeration capped at order {ENUMERATION_CAP}")
    relabelings = list(_relabelings_fixing_zero(n))[1:]
    reps = []
    for t in _normalized_tables(n):
        if any(_relabeling_beats(t, pi, pi_inv, n) for pi, pi_inv in relabelings):
            continue
        if canonical_table(Loop(n, t, 0)) != t:
            raise InvariantViolation("a table no relabeling beats is its own canonical table", t)
        reps.append(t)
    return tuple(check_loop(t, 0) for t in sorted(reps))
