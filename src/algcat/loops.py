"""Loops (unital quasigroups) as validated Cayley tables. Row a of a table
is the image tuple of the left translation x -> a * x, the form a member of
a permutation set takes (see perms): a morphism intertwines the rows, and
associativity is Light's test (_associativity_witness), which the
neardomain checks run too."""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    IdentityViolation,
    InvariantViolation,
    LatinSquareViolation,
    ResourceLimitExceeded,
    StructureError,
)
from .perms import (
    _all_bijections, _intertwined, _is_point, _relabeling, _right_multiplier, _total_map, check_budget, greedy_walk
)
from .values import Value, cached_hash

ENUMERATION_CAP = 6

Table = tuple[tuple[int, ...], ...]


class Loop(Value):
    """order, full Cayley table (row op column), distinguished identity.

    Build through check_loop(); direct construction skips validation.
    """

    __slots__ = ("order", "table", "identity", "_hash")
    _fields = ("order", "table", "identity")
    __hash__ = cached_hash

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], identity: int):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)


def check_loop(table: Sequence[Sequence[int]], identity: int = 0) -> Loop:
    """Validate a Cayley table of integers as a loop: every row and column a
    permutation, plus two-sided unit laws for the designated identity. The
    identity and every entry must be a point of 0..n-1, an exact int (see
    perms._is_point): a bool or a float equal to a point is refused.

    Valid rows and columns pass one test each, in C (perms._all_bijections):
    a row has length n, holds only ints and holds the set 0..n-1, and each
    column holds the set 0..n-1. n entries covering n values repeat none,
    so the test holds exactly when the row-major scan below finds nothing:
    each row's length and points in turn, then repeats in each row, then in
    each column. Only a table that fails the test runs the scan, which
    names the first failing row, entry or repeat as StructureError or
    LatinSquareViolation. The unit laws read 2n cells either way."""
    n = len(table)
    if n < 1:
        raise StructureError("loop order must be at least 1")
    if not _is_point(identity, n):
        raise StructureError(f"identity {identity} out of range for order {n}")
    rows = tuple(map(tuple, table))
    if not (_all_bijections(rows, n) and _all_bijections(zip(*rows), n, typed=True)):
        for r, row in enumerate(rows):
            if len(row) != n:
                raise StructureError(f"row {r} has length {len(row)}, expected {n}")
            for v in row:
                if not _is_point(v, n):
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
        raise InvariantViolation("check_loop's row and column test", n)
    for x in range(n):
        if rows[identity][x] != x:
            raise IdentityViolation("left", x)
        if rows[x][identity] != x:
            raise IdentityViolation("right", x)
    return Loop(n, rows, identity)


def is_associative(loop: Loop) -> bool:
    """True iff (a * b) * c == a * (b * c) for every triple, by Light's test
    from _generators; an order whose cube (the full loop a failure runs) is
    over the budget is refused before the first row is read."""
    n = loop.order
    check_budget(n**3, f"associativity check of order {n}")
    return _associativity_witness(loop.table, range(n), _generators(loop.table, loop.identity)) is None


def _right_multiplication(table: Table):
    """t -> the map h -> table[h][t], by which greedy_walk grows a set of
    elements under table."""
    return lambda t: [row[t] for row in table].__getitem__


def _generators(table: Table, unit: int) -> list[int]:
    """The greedy generating set of every element under table, grown from
    unit once an n-step scan shows it is a two-sided identity, else from
    nothing, so Light's test on it stays exact on a table built directly."""
    elements = range(len(table))
    start = [unit] if all(table[unit][x] == x == table[x][unit] for x in elements) else []
    return greedy_walk(elements, _right_multiplication(table), start)


def _associativity_witness(table: Table, elements: Sequence[int], gens: Sequence[int]) -> tuple[int, int, int] | None:
    """None when table is associative on elements, else the first triple
    (a, b, c) in row-major order with (ab)c != a(bc). gens comes from
    greedy_walk over the same elements.

    Light's test (Clifford and Preston, The Algebraic Theory of Semigroups,
    vol. 1, 1961, section 1.2) checks (xa)y == x(ay) for every x, y and each
    generator a only, one row per x: (|elements| * |gens|) rows. It is
    exact. The a that pass form a set closed under products: for a, b in it,

        (x(ab))y == ((xa)b)y == (xa)(by) == x(a(by)) == x((ab)y).

    It holds the generators, and the identity the generators were grown
    from, if any, passes by its unit law, so it holds every element. Only a
    table that fails runs the full triple loop, to name the witness; a loop
    that finds none contradicts the test and raises InvariantViolation."""
    # (xa)y over y is the row of xa restricted to the elements, x(ay) the
    # row of x gathered through a * y: one gather each
    restrict = _right_multiplier(elements)
    rows = [restrict(row) for row in table]
    for a in gens:
        through_a = _right_multiplier(rows[a])
        if any(rows[table[x][a]] != through_a(table[x]) for x in elements):
            break
    else:
        return None
    for a in elements:
        for b in elements:
            ab = table[a][b]
            for c in elements:
                if table[ab][c] != table[a][table[b][c]]:
                    return (a, b, c)
    raise InvariantViolation("Light's associativity test", tuple(gens))


def left_translation(loop: Loop, a: int) -> tuple[int, ...]:
    """The image tuple of x -> a * x: row a of the table."""
    if not _is_point(a, loop.order):
        raise ValueError(f"element {a} out of range")
    return loop.table[a]


def is_loop_morphism(f: Sequence[int], src: Loop, dst: Loop) -> bool:
    """True iff f respects the operation on every pair: f intertwines the
    rows of the tables (perms._intertwined)."""
    f = tuple(f)
    if not _total_map(f, src.order, dst.order):
        raise ValueError("f is not a total map into the target loop")
    if not _intertwined(f, f, src.table, dst.table):
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

    The pinned points seed a worklist. Popping a point y checks, for each
    paired operation, the products x op y and y op x for y and every point x
    popped before it: a product c with no image yet gets f(x) op' f(y) (or
    f(y) op' f(x)) and is pushed, and a clash prunes. At the fixpoint the
    search branches on the lowest point with no image, over the target
    points in increasing order, so the maps come out in lexicographic order;
    a complete map has had all n * n products of each operation checked.
    perms.forced_morphisms propagates the same way but stops once its point
    map is total and tests every member in one pass with _intertwined; a
    table search finishing that way measured slower than this cell-by-cell
    finish. An order n into order m with n * n * m over the budget is
    refused before any row is read.
    """
    n, m = len(src_ops[0]), len(dst_ops[0])
    check_budget(n * n * m, f"hom search of order {n} into order {m}")
    ops = list(zip(src_ops, dst_ops))

    def search(img: list[int], done: list[int], todo: list[int]) -> Iterator[tuple[int, ...]]:
        while todo:
            y = todo.pop()
            done.append(y)
            fy = img[y]
            for rows, dst_rows in ops:
                row, dst_row = rows[y], dst_rows[fy]
                for x in done:
                    fx = img[x]
                    c, w = rows[x][y], dst_rows[fx][fy]  # x op y
                    if img[c] < 0:
                        img[c] = w
                        todo.append(c)
                    elif img[c] != w:
                        return
                    c, w = row[x], dst_row[fx]  # y op x
                    if img[c] < 0:
                        img[c] = w
                        todo.append(c)
                    elif img[c] != w:
                        return
        if -1 not in img:
            yield tuple(img)
            return
        x = img.index(-1)
        for v in range(m):
            img[x] = v
            yield from search(img.copy(), done.copy(), [x])

    img = [-1] * n
    for x, v in pinned.items():
        img[x] = v
    return search(img, [], list(pinned))


def enumerate_loop_morphisms(src: Loop, dst: Loop) -> tuple[tuple[int, ...], ...]:
    """All operation-preserving maps src -> dst, lexicographic by image tuple.

    The identity image is pinned, which only prunes maps that could never be
    morphisms.
    """
    return tuple(table_homomorphisms((src.table,), (dst.table,), {src.identity: dst.identity}))


def relabel(loop: Loop, pi: Sequence[int]) -> Loop:
    """Transport the table along the image tuple pi; the identity moves with
    it: row pi(r) becomes pi . row r . pi^-1, two gathers. Raises
    StructureError unless pi is a bijection of the carrier."""
    pi = tuple(pi)
    at_inv = _relabeling(pi, loop.order)
    table = tuple(at_inv(_right_multiplier(row)(pi)) for row in at_inv(loop.table))
    return check_loop(table, pi[loop.identity])


@lru_cache(maxsize=1)
def _canonical_scan(n: int) -> tuple[tuple[tuple[int, ...], bytes, itemgetter], ...]:
    """One entry (pi_inv, pi, gather) for every relabeling of order n that
    fixes 0, the identity first: pi is the relabeling as a bytes translation
    table (bytes.maketrans) and gather is itemgetter(*pi_inv). Keyed on the
    order and holding one order, so a census builds each order's scan once."""
    points = bytes(range(n))
    scan = []
    for rest in itertools.permutations(range(1, n)):
        pi_inv = (0, *rest)
        scan.append((pi_inv, bytes.maketrans(bytes(pi_inv), points), itemgetter(*pi_inv)))
    return tuple(scan)


def canonical_table(loop: Loop) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least table among all relabelings fixing element 0.

    Defined only for loops whose identity is 0 (the enumerated families).
    A full scan of the (n-1)! relabelings of _canonical_scan, kept apart from
    the orderly search of enumerate_loops so that it can confirm it; an order
    whose n! entries are over the budget is refused before the scan is asked
    for. Each row is also held as bytes, so a relabeled row is two C calls:
    the source row's bytes translated through pi, then gathered through
    pi^-1, which gives a tuple of ints. Row 0 is the identity row in every
    relabeling, so each relabeling is first compared on row 1, which decides
    nearly all of them; rows 2..n-1 are read only on a tie, and a whole
    candidate is built only when it wins.
    """
    if loop.identity != 0:
        raise StructureError(f"canonical_table needs identity 0, got identity {loop.identity}")
    n = loop.order
    check_budget(factorial(n - 1) * n, f"canonical form of order {n}")
    best = loop.table
    if n == 1:
        return best
    blobs = [bytes(row) for row in best]
    first = best[1]
    for pi_inv, pi, gather in _canonical_scan(n):
        row = gather(blobs[pi_inv[1]].translate(pi))
        if row > first:
            continue
        if row == first:
            for r in range(2, n):
                row = gather(blobs[pi_inv[r]].translate(pi))
                if row != best[r]:
                    break
            else:
                continue
            if row > best[r]:
                continue
        best = tuple(gather(blobs[s].translate(pi)) for s in pi_inv)
        first = best[1]
    return best


def _advance(
    rows: Sequence[tuple[int, ...]], blobs: Sequence[bytes], k: int, live: Iterable[tuple]
) -> list[tuple] | None:
    """The relabelings of live that still tie with the table once rows
    0..k are placed, or None when one of them beats it.

    blobs[r] is rows[r] as bytes. Each entry is an entry of _canonical_scan,
    (pi_inv, pi, gather), with j appended: the relabeled table is tied with
    the table on rows 0..j-1. Its row j is the bytes of row pi_inv[j]
    translated through pi and gathered through pi_inv, a tuple of ints, so
    it is known once j <= k and pi_inv[j] <= k. While it is known it is
    compared with row j: smaller means the relabeling beats the table,
    larger drops the entry, equal moves j on.
    """
    kept = []
    for pi_inv, pi, gather, j in live:
        while j <= k and pi_inv[j] <= k:
            img = gather(blobs[pi_inv[j]].translate(pi))
            if img != rows[j]:
                break
            j += 1
        else:
            kept.append((pi_inv, pi, gather, j))
            continue
        if img < rows[j]:
            return None
    return kept


def _orderly_tables(n: int) -> list[Table]:
    """Every normalized table of order n that no relabeling fixing 0 makes
    lexicographically smaller, in lexicographic order.

    Backtracking row by row. Row r (0 < r < n-1) is a permutation with
    row[0] == r, taken in lexicographic order; it fits when its (column,
    value) bitmask misses the OR of the rows above. Each placed row is held
    as a tuple and, for _advance's translate, as bytes. Rows 0..n-2 of a
    Latin table leave one value free in each column, and each value is free
    in exactly one column, so row n-1 is forced and is itself a permutation.
    After each row every non-identity relabeling of _canonical_scan still
    tied with the table is moved on by _advance. A prefix is cut only when
    some relabeling's first differing row is smaller than the table's, and
    both rows are read from rows already placed; every completion of the
    prefix then has the same first differing row, so each is beaten by that
    relabeling and none is canonical. The order of the relabelings does not
    matter: a prefix is cut exactly when some one of them beats it. With the
    last row placed every relabeling is decided, so the tables returned are
    exactly the canonical ones.
    """
    identity = tuple(range(n))
    if n == 1:
        return [(identity,)]

    def mask(row: tuple[int, ...]) -> int:
        return sum(1 << (c * n + v) for c, v in enumerate(row))

    top = mask(identity)
    candidates: dict[int, list[tuple[tuple[int, ...], bytes, int]]] = {r: [] for r in range(1, n - 1)}
    for row in itertools.permutations(identity):
        if row[0] in candidates and not (m := mask(row)) & top:
            candidates[row[0]].append((row, bytes(row), m))
    column_total = n * (n - 1) // 2
    rows, blobs = [identity], [bytes(identity)]
    found: list[Table] = []

    def rec(k: int, used: int, live: list[tuple]) -> None:
        if k == n - 1:
            last = tuple(column_total - s for s in map(sum, zip(*rows)))
            rows.append(last)
            blobs.append(bytes(last))
            if _advance(rows, blobs, k, live) is not None:
                found.append(tuple(rows))
            rows.pop()
            blobs.pop()
            return
        for row, blob, m in candidates[k]:
            if m & used:
                continue
            rows.append(row)
            blobs.append(blob)
            kept = _advance(rows, blobs, k, live)
            if kept is not None:
                rec(k + 1, used | m, kept)
            rows.pop()
            blobs.pop()

    # every relabeling but the identity is tied with the table on row 0
    rec(1, top, [(*entry, 1) for entry in _canonical_scan(n)[1:]])
    return found


def enumerate_loops(n: int) -> tuple[Loop, ...]:
    """All loops of order n with identity 0, one canonical representative per
    isomorphism class, sorted by table.

    Isomorphisms between loops with identity 0 fix 0, so a class's
    representative is its table that no relabeling fixing 0 makes
    lexicographically smaller. _orderly_tables builds those tables row by
    row and cuts every prefix that a relabeling already beats, so most
    non-canonical tables are never built. Every kept table is confirmed
    against the full scan of canonical_table. The two read one list of
    relabelings, derived once per order (_canonical_scan), but share no
    comparison: the pruning moves each relabeling on row by row as rows are
    placed, the full scan relabels a finished table. Orders above
    ENUMERATION_CAP raise ResourceLimitExceeded.
    """
    if n < 1:
        raise StructureError("loop order must be at least 1")
    if n > ENUMERATION_CAP:
        raise ResourceLimitExceeded(f"loop enumeration capped at order {ENUMERATION_CAP}")
    reps = _orderly_tables(n)
    for t in reps:
        if canonical_table(Loop(n, t, 0)) != t:
            raise InvariantViolation("a table no relabeling beats is its own canonical table", t)
    return tuple(check_loop(t, 0) for t in reps)
