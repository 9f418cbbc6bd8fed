"""The single table-homomorphism search against brute force and against the
element-order search it replaced, and the invariant checks that must survive
python -O."""

import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algcat.errors import InvariantViolation
from algcat.loops import (
    Loop,
    enumerate_loop_morphisms,
    enumerate_loops,
    is_loop_morphism,
    relabel,
    table_homomorphisms,
)
from algcat.neardomain import (
    SUPPORTED_FIELD_ORDERS,
    Neardomain,
    dickson_nearfield_9,
    enumerate_nd_morphisms,
    galois_field,
    is_nd_morphism,
)
from algcat.perms import closure
from algcat.s2t import S2tGroup, affine_group, base_pair_index, enumerate_s2t_morphisms_direct
from references import loops_isomorphic, preserves

SRC = Path(__file__).resolve().parents[1] / "src"

# every loop class of order <= 4, plus copies whose identity is not 0
SMALL_LOOPS = [loop for n in range(1, 5) for loop in enumerate_loops(n)]
SMALL_LOOPS += [relabel(loop, (1, 0, *range(2, loop.order))) for loop in SMALL_LOOPS if loop.order > 1]


def _brute_force(src_order: int, dst_order: int, is_morphism) -> list[tuple[int, ...]]:
    maps = itertools.product(range(dst_order), repeat=src_order)
    return sorted(f for f in maps if is_morphism(f))


def test_loop_search_matches_brute_force():
    for src in SMALL_LOOPS:
        for dst in SMALL_LOOPS:
            want = _brute_force(src.order, dst.order, lambda f: preserves(f, src.table, dst.table))
            assert list(enumerate_loop_morphisms(src, dst)) == want, (src, dst)
            bijective = [f for f in want if src.order == dst.order and len(set(f)) == src.order]
            assert loops_isomorphic(src, dst) == (bijective[0] if bijective else None), (src, dst)


def _element_order_search(src_ops, dst_ops, pinned):
    """The table hom search before propagation, kept as a reference: every
    point tries every image in element order, and each product a op b == c
    is checked at the step that assigns the largest of a, b and c."""
    n, m = len(src_ops[0]), len(dst_ops[0])
    checks = [[] for _ in range(n)]
    for op, dst_op in zip(src_ops, dst_ops):
        for a in range(n):
            for b in range(n):
                c = op[a][b]
                checks[max(a, b, c)].append((dst_op, a, b, c))
    img = [0] * n

    def rec(k):
        if k == n:
            yield tuple(img)
            return
        for v in (pinned[k],) if k in pinned else range(m):
            img[k] = v
            if all(t[img[a]][img[b]] == img[c] for t, a, b, c in checks[k]):
                yield from rec(k + 1)

    return rec(0)


def _same_search(src_ops, dst_ops, pinned):
    got = list(table_homomorphisms(src_ops, dst_ops, pinned))
    return got == list(_element_order_search(src_ops, dst_ops, pinned))


def test_loop_search_matches_element_order_reference():
    # every class of order <= 5 and its copy with identity 1, and every 9th
    # class of order 6: the same maps in the same order as the reference
    loops = [loop for n in range(1, 6) for loop in enumerate_loops(n)]
    loops += [relabel(loop, (1, 0, *range(2, loop.order))) for loop in loops if loop.order > 1]
    loops += enumerate_loops(6)[::9]
    for src in loops:
        for dst in loops:
            pinned = {src.identity: dst.identity}
            assert _same_search((src.table,), (dst.table,), pinned), (src, dst)


def test_nd_search_matches_element_order_reference():
    fields = [galois_field(q) for q in SUPPORTED_FIELD_ORDERS] + [dickson_nearfield_9()]
    for src in fields:
        for dst in fields:
            pinned = {src.zero: dst.zero, src.one: dst.one}
            assert _same_search((src.add, src.mul), (dst.add, dst.mul), pinned), (src.order, dst.order)


def test_magma_search_matches_element_order_reference():
    # every operation table on 2 points, into every other, with and without
    # a pinned point: loops and fields are commutative often enough that
    # checking only one of x op y and y op x goes unseen on them
    magmas = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(2), repeat=4)]
    for src in magmas:
        for dst in magmas:
            for pinned in ({}, {0: 0}):
                assert _same_search((src,), (dst,), pinned), (src, dst, pinned)


def _nd_preserves(f, src, dst) -> bool:
    return f[src.one] == dst.one and preserves(f, src.add, dst.add) and preserves(f, src.mul, dst.mul)


def test_nd_search_matches_brute_force():
    fields = [galois_field(q) for q in (2, 3, 4, 5)]
    for src in fields:
        for dst in fields:
            want = _brute_force(src.order, dst.order, lambda f: _nd_preserves(f, src, dst))
            assert list(enumerate_nd_morphisms(src, dst)) == want, (src.order, dst.order)


def _outcome(predicate, *args):
    """What predicate returns, or the type of what it raises."""
    try:
        return predicate(*args)
    except Exception as exc:
        return type(exc)


def _loop_reference(f, src, dst):
    """is_loop_morphism's documented outcome, from the cell-by-cell law."""
    if len(f) != src.order or any(not 0 <= v < dst.order for v in f):
        return ValueError
    if not preserves(f, src.table, dst.table):
        return False
    return True if f[src.identity] == dst.identity else InvariantViolation


def _nd_reference(f, src, dst):
    """is_nd_morphism's documented outcome, from the cell-by-cell laws."""
    if len(f) != src.order or any(not 0 <= v < dst.order for v in f):
        return ValueError
    if not _nd_preserves(f, src, dst):
        return False
    return True if f[src.zero] == dst.zero and len(set(f)) == len(f) else InvariantViolation


def _single_cell_corruptions(table):
    """Every table differing from table in one cell, by a value in range."""
    n = len(table)
    for a, b in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v != table[a][b]:
                rows = [list(row) for row in table]
                rows[a][b] = v
                yield tuple(map(tuple, rows))


def _maps_and_misfits(n: int, m: int):
    """Every map of n points into m, then one too long and one out of range."""
    return [*itertools.product(range(m), repeat=n), (0,) * (n + 1), (m,) * n]


def test_loop_morphism_predicate_matches_the_cell_law():
    # every map between the loops of order <= 4 and their relabeled copies,
    # then single-cell corruptions of those of order <= 3, built directly,
    # as source and as target: the same bool, or the same exception type.
    # A corruption can leave a map preserving the operation but moving the
    # identity, so the invariant check is reached too
    corrupted = [
        Loop(l.order, t, l.identity) for l in SMALL_LOOPS if l.order <= 3 for t in _single_cell_corruptions(l.table)
    ]
    small = [l for l in SMALL_LOOPS if l.order <= 3]
    pairs = [(a, b) for a in SMALL_LOOPS for b in SMALL_LOOPS]
    pairs += [(a, b) for a in corrupted for b in small] + [(a, b) for a in small for b in corrupted]
    outcomes = set()
    for src, dst in pairs:
        for f in _maps_and_misfits(src.order, dst.order):
            want = _loop_reference(f, src, dst)
            assert _outcome(is_loop_morphism, f, src, dst) == want, (f, src, dst)
            outcomes.add(want)
    assert outcomes == {True, False, ValueError, InvariantViolation}


def test_nd_morphism_predicate_matches_the_cell_laws():
    # every map among GF(2) to GF(5), then single-cell corruptions of the
    # add and mul tables of GF(2) and GF(3), built directly, as source and
    # as target: the same bool, or the same exception type
    fields = [galois_field(q) for q in (2, 3, 4, 5)]
    corrupted = []
    for nd in fields[:2]:
        corrupted += [Neardomain(nd.order, t, nd.mul, nd.zero, nd.one) for t in _single_cell_corruptions(nd.add)]
        corrupted += [Neardomain(nd.order, nd.add, t, nd.zero, nd.one) for t in _single_cell_corruptions(nd.mul)]
    pairs = [(a, b) for a in fields for b in fields]
    pairs += [(a, b) for a in corrupted for b in fields[:2]] + [(a, b) for a in fields[:2] for b in corrupted]
    outcomes = set()
    for src, dst in pairs:
        for f in _maps_and_misfits(src.order, dst.order):
            want = _nd_reference(f, src, dst)
            assert _outcome(is_nd_morphism, f, src, dst) == want, (f, src, dst)
            outcomes.add(want)
    assert outcomes == {True, False, ValueError, InvariantViolation}


def test_field_hom_counts_match_the_closed_form():
    # GF(p^a) embeds in GF(p^b) iff a divides b, and then by exactly the a
    # Frobenius powers (Lidl and Niederreiter, Finite Fields, 1997, ch. 2):
    # arithmetic alone, no shared code, against both searches on all 100
    # ordered pairs of supported orders
    def prime_power(q):
        p = next(p for p in range(2, q + 1) if q % p == 0)
        k = 0
        while q > 1:
            q, k = q // p, k + 1
        return p, k

    fields = {q: galois_field(q) for q in SUPPORTED_FIELD_ORDERS}
    groups = {q: affine_group(nd) for q, nd in fields.items()}
    for q, r in itertools.product(SUPPORTED_FIELD_ORDERS, repeat=2):
        (p, a), (p2, b) = prime_power(q), prime_power(r)
        want = a if p == p2 and b % a == 0 else 0
        assert len(enumerate_nd_morphisms(fields[q], fields[r])) == want, (q, r)
        assert len(enumerate_s2t_morphisms_direct(groups[q], groups[r])) == want, (q, r)


def test_broken_invariant_names_its_witness():
    # S4 is a closed group, but not sharply 2-transitive: its 24 members
    # reach only the 12 ordered pairs of distinct points
    s4 = S2tGroup(closure([(1, 2, 3, 0), (1, 0, 2, 3)]), 4, 0, 1)
    with pytest.raises(InvariantViolation) as info:
        base_pair_index(s4)
    assert info.value.claim == "members of a sharply 2-transitive group differ on the base points"
    assert info.value.witness == 12


def _run_optimized(code: str) -> None:
    """Run code under python -O; it exits 0 when its check held."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_invariant_checks_survive_optimized_mode():
    code = """
import sys
if __debug__:
    sys.exit("not running under -O")
from algcat.errors import InvariantViolation
from algcat.neardomain import galois_field
from algcat.perms import closure
from algcat.s2t import S2tGroup, affine_group, base_pair_index, enumerate_s2t_morphisms_direct
s4 = S2tGroup(closure([(1, 2, 3, 0), (1, 0, 2, 3)]), 4, 0, 1)
try:
    base_pair_index(s4)
except InvariantViolation as exc:
    sys.exit(0 if exc.witness == 12 else f"witness {exc.witness}")
sys.exit("S4 indexed by its base points")
"""
    _run_optimized(code)


def test_closure_certificate_survives_optimized_mode():
    # a zoo group minus one involution keeps its inverses, so the missing
    # product is what check_s2t must name, even with asserts stripped; so
    # must the generating-set certificate's disagreement with the product
    # scan, the one-pair transitivity witness and the size budget
    code = """
import re
import sys
if __debug__:
    sys.exit("not running under -O")
from algcat.errors import InvariantViolation, NotAGroup, NotSharplyTransitive, ResourceLimitExceeded
from algcat.fileio import parse_structure
from algcat import perms
from algcat.perms import closure, perm_set, subgroup_failure
from algcat.s2t import check_s2t
from algcat.zoo import standard_zoo
g = dict(standard_zoo().groups)["aff(gf5)"]
e = tuple(range(g.degree))
dropped = next(p for p in g.group if p != e and tuple(p[x] for x in p) == e)
members = [p for p in g.group if p != dropped]
present = set(members)
expected = next(
    f"product {list(p)} * {list(q)} missing"
    for p in members for q in members if tuple(p[x] for x in q) not in present
)
try:
    check_s2t(perm_set(members), g.omega0, g.omega1)
    sys.exit("group with a member removed accepted")
except NotAGroup as exc:
    if str(exc) != expected:
        sys.exit(f"witness {exc} != {expected}")
    if not re.fullmatch(r"product \\[[0-9, ]+\\] \\* \\[[0-9, ]+\\] missing", str(exc)):
        sys.exit(f"witness {exc} names no product")
walk, perms.greedy_walk = perms.greedy_walk, lambda *args: None
try:
    subgroup_failure(g.group)
    sys.exit("certificate and product scan disagreed silently")
except InvariantViolation as exc:
    if "closure certificate" not in str(exc):
        sys.exit(f"disagreement witness {exc}")
    perms.greedy_walk = walk
try:
    check_s2t(closure([(1, 2, 0)]), 0, 1)
    sys.exit("rotation group accepted")
except NotSharplyTransitive as exc:
    if (exc.source_pair, exc.target_pair, exc.count) != ((0, 1), (0, 2), 0):
        sys.exit(f"rotation witness {exc}")
try:
    parse_structure("s2t 8 0 1\\ngenerators\\n1 2 3 4 5 6 7 0\\n1 0 2 3 4 5 6 7\\n")
except ResourceLimitExceeded:
    sys.exit(0)
sys.exit("S8 generator file accepted")
"""
    _run_optimized(code)


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so none may carry a check
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "algcat").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
