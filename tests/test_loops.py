import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algcat.errors import (
    IdentityViolation,
    LatinSquareViolation,
    ResourceLimitExceeded,
    StructureError,
)
from algcat.loops import (
    Loop,
    _advance,
    _canonical_scan,
    canonical_table,
    check_loop,
    enumerate_loop_morphisms,
    enumerate_loops,
    is_associative,
    is_loop_morphism,
    left_translation,
    relabel,
    table_homomorphisms,
)
from references import loops_isomorphic, relabeled_table, relabelings_fixing_zero

Z2 = check_loop(((0, 1), (1, 0)))
Z3 = check_loop(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
Z4 = check_loop(tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4)))
KLEIN = check_loop(((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))
ORDER5 = check_loop(
    ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
)


def test_check_loop_accepts():
    assert Z3.order == 3 and Z3.identity == 0
    assert ORDER5.order == 5


def test_check_loop_rejects():
    with pytest.raises(LatinSquareViolation):
        check_loop(((0, 1), (1, 1)))
    with pytest.raises(LatinSquareViolation):
        check_loop(((0, 1, 2), (1, 2, 0), (2, 1, 0)))  # column 1 repeats 1
    with pytest.raises(IdentityViolation):
        check_loop(Z3.table, identity=1)
    with pytest.raises(StructureError):
        check_loop(((0, 5), (1, 0)))
    with pytest.raises(StructureError):
        check_loop(((0, 1), (1, 0)), identity=7)
    with pytest.raises(StructureError):
        check_loop(((0, 1),))


def test_mul_and_division():
    assert Z3.table[1][2] == 0


def test_is_associative():
    assert is_associative(Z3)
    assert not is_associative(ORDER5)
    # witness from the table: (1*1)*2 = 2 but 1*(1*2) = 4
    t = ORDER5.table
    assert t[t[1][1]][2] == 2
    assert t[1][t[1][2]] == 4
    assert is_associative(check_loop(((0,),)))


def test_is_loop_morphism():
    assert is_loop_morphism((0, 1, 2), Z3, Z3)
    assert is_loop_morphism((0, 0, 0), Z3, Z2)
    assert not is_loop_morphism((0, 1), Z2, Z3)


def test_enumerate_loop_morphisms_counts():
    assert len(enumerate_loop_morphisms(Z2, Z2)) == 2
    assert len(enumerate_loop_morphisms(Z3, Z2)) == 1
    assert len(enumerate_loop_morphisms(check_loop(((0,),)), Z3)) == 1
    # hom(Z3, Z3): trivial, identity, and inversion x -> 2x
    assert enumerate_loop_morphisms(Z3, Z3) == ((0, 0, 0), (0, 1, 2), (0, 2, 1))


def test_morphisms_fix_identity_and_sort():
    for src in (Z2, Z3, Z4, KLEIN, ORDER5):
        for dst in (Z2, Z3, Z4):
            homs = enumerate_loop_morphisms(src, dst)
            assert list(homs) == sorted(homs)
            assert len(set(homs)) == len(homs)
            for f in homs:
                assert f[src.identity] == dst.identity


def test_left_translation():
    assert left_translation(Z3, Z3.identity) == (0, 1, 2)
    assert left_translation(Z3, 1) == (1, 2, 0)
    assert left_translation(ORDER5, 1) == (1, 0, 3, 4, 2)
    seen = {left_translation(ORDER5, a) for a in range(5)}
    assert len(seen) == 5


def test_loops_isomorphic():
    swapped = relabel(Z3, (0, 2, 1))
    assert loops_isomorphic(Z3, swapped) is not None
    assert loops_isomorphic(Z4, KLEIN) is None
    assert loops_isomorphic(Z3, Z3) == (0, 1, 2)


def test_relabel_is_isomorphic():
    moved = relabel(ORDER5, (2, 0, 1, 4, 3))
    assert moved.identity == 2
    phi = loops_isomorphic(ORDER5, moved)
    assert phi is not None and is_loop_morphism(phi, ORDER5, moved)


# Isomorphism classes of loops of orders 1-6 and how many are groups, from
# McKay, Meynert and Myrvold, "Small Latin squares, quasigroups and loops",
# J. Combin. Des. 15 (2007).
LOOP_CLASSES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 6, 6: 109}
GROUP_CLASSES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2}

# sha256 of repr() of the order-6 table list, the digest perfbench/worker.py
# prints for its census.
ORDER6_TABLES_SHA256 = "7eec7e0c4831bcef9cccb824480c9412ae538d361c4b1e1fa5d98297f6fdd528"


def test_enumerate_loops_counts():
    for n in (1, 2, 3, 4, 5):
        reps = enumerate_loops(n)
        assert len(reps) == LOOP_CLASSES[n]
        assert sum(is_associative(l) for l in reps) == GROUP_CLASSES[n]
    with pytest.raises(ResourceLimitExceeded):
        enumerate_loops(7)
    # the cap is ENUMERATION_CAP alone: no caller can raise it
    with pytest.raises(TypeError):
        enumerate_loops(7, max_order=7)
    with pytest.raises(StructureError):
        enumerate_loops(0)


def test_enumerate_loops_canonical_and_distinct():
    fives = enumerate_loops(5)
    assert list(fives) == sorted(fives, key=lambda l: l.table)
    for i, a in enumerate(fives):
        for b in fives[i + 1 :]:
            assert loops_isomorphic(a, b) is None


def _normalized_tables(n):
    # every loop table with identity 0, built cell by cell: the brute-force
    # reference for the orderly search
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]
    table = [list(range(n))] + [[r] + [0] * (n - 1) for r in range(1, n)]

    def rec(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        r, c = cells[k]
        taken = set(table[r][:c]) | {table[s][c] for s in range(r)}
        for v in range(n):
            if v not in taken:
                table[r][c] = v
                yield from rec(k + 1)

    yield from rec(0)


def test_normalized_tables_are_the_reduced_latin_squares():
    # reduced Latin squares of orders 1-6 (OEIS A000315)
    assert [sum(1 for _ in _normalized_tables(n)) for n in range(1, 7)] == [1, 1, 1, 4, 56, 9408]


def _count_normalized_tables(n):
    # the cells of rows 1..n-1 and columns 1..n-1 filled in row-major order,
    # each row's and column's used values kept as a bitmask
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]
    row_used = [1 << r for r in range(n)]
    col_used = [1 << c for c in range(n)]
    everything = (1 << n) - 1

    def rec(k):
        if k == len(cells):
            return 1
        r, c = cells[k]
        free = everything & ~(row_used[r] | col_used[c])
        total = 0
        while free:
            bit = free & -free
            free ^= bit
            row_used[r] |= bit
            col_used[c] |= bit
            total += rec(k + 1)
            row_used[r] ^= bit
            col_used[c] ^= bit
        return total

    return rec(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_census_orbits_cover_every_normalized_table(n):
    # the relabelings fixing 0 act on the normalized tables with one orbit
    # per class, of size (n-1)!/|Aut L|, so the orbit sizes of the census
    # add up to the number of tables: a dropped class makes the sum too
    # small, a duplicated one too large. The automorphisms are the bijective
    # self-maps of the table hom search
    def automorphisms(loop):
        homs = table_homomorphisms((loop.table,), (loop.table,), {0: 0})
        return sum(1 for f in homs if len(set(f)) == n)

    orbits = sum(Fraction(factorial(n - 1), automorphisms(loop)) for loop in enumerate_loops(n))
    assert orbits == _count_normalized_tables(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_loops_matches_brute_force(n):
    brute = sorted({canonical_table(Loop(n, t, 0)) for t in _normalized_tables(n)})
    assert [l.table for l in enumerate_loops(n)] == brute


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_relabeling_beats_matches_full_comparison(n):
    # _advance, given one relabeling and only the rows placed so far, ends
    # where the whole relabeled table decides: beaten (None), dropped ([])
    # or tied through every row; while undecided it has moved as far as the
    # placed rows allow
    for t in _normalized_tables(n):
        blobs = [bytes(row) for row in t]
        for pi, pi_inv in relabelings_fixing_zero(n):
            full = relabeled_table(t, pi, pi_inv, n)
            live = [(pi_inv, bytes.maketrans(bytes(range(n)), bytes(pi)), itemgetter(*pi_inv), 1)]
            for k in range(1, n):
                live = _advance(t[: k + 1], blobs[: k + 1], k, live)
                if not live:
                    break
                ((*_, j),) = live
                assert full[:j] == t[:j], (t, pi, k)
                assert j > k or pi_inv[j] > k, (t, pi, k)
            if live is None:
                assert full < t, (t, pi)
            elif live == []:
                assert full > t, (t, pi)
            else:
                assert full == t and live[0][3] == n, (t, pi)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_canonical_table_matches_plain_minimum(n):
    # every representative; for orders up to 5 every normalized table, and
    # for order 6 each representative relabeled by x -> -x mod 6 (an involution)
    tables = [l.table for l in enumerate_loops(n)]
    if n <= 5:
        tables += _normalized_tables(n)
    else:
        neg = tuple(-x % n for x in range(n))
        tables += [relabeled_table(t, neg, neg, n) for t in tables]
    for t in tables:
        plain = min(relabeled_table(t, pi, pi_inv, n) for pi, pi_inv in relabelings_fixing_zero(n))
        assert canonical_table(Loop(n, t, 0)) == plain, t


def test_enumerate_loops_order_six():
    census = {n: enumerate_loops(n) for n in LOOP_CLASSES}
    assert {n: len(reps) for n, reps in census.items()} == LOOP_CLASSES
    assert {n: sum(is_associative(l) for l in reps) for n, reps in census.items()} == GROUP_CLASSES
    digest = hashlib.sha256(repr([l.table for l in census[6]]).encode()).hexdigest()
    assert digest == ORDER6_TABLES_SHA256


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_census_raises_when_the_full_scan_disagrees(flags):
    # every kept table is confirmed by canonical_table with no assert, so the
    # check holds under python -O as well
    code = """
import algcat.loops as loops
from algcat.errors import InvariantViolation
loops.canonical_table = lambda loop: ()
try:
    loops.enumerate_loops(4)
except InvariantViolation as exc:
    raise SystemExit(0 if len(exc.witness) == 4 else "wrong witness")
raise SystemExit("no InvariantViolation")
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_canonical_table_rejects_nonzero_identity():
    with pytest.raises(StructureError, match="identity 1"):
        canonical_table(check_loop([[1, 0], [0, 1]], 1))


def _cyclic(n):
    return check_loop([[(i + j) % n for j in range(n)] for i in range(n)])


def test_canonical_table_is_budgeted():
    # 9! * 10 entries are over the cap, so order 10 is refused before any
    # row is read; 8! * 9 is under it, and order 9 is scanned
    with pytest.raises(ResourceLimitExceeded) as refused:
        canonical_table(_cyclic(10))
    assert str(refused.value) == "canonical form of order 10 needs 3628800, over the cap of 1000000 entries"
    best = canonical_table(_cyclic(9))
    assert best[0] == tuple(range(9)) and best <= _cyclic(9).table


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_scan_lists_each_relabeling_fixing_zero_once(n):
    # a scan that dropped a relabeling would still confirm every canonical
    # table, so the scan is checked against the permutations themselves
    scan = _canonical_scan(n)
    expected = [(0, *rest) for rest in itertools.permutations(range(1, n))]
    assert len(scan) == factorial(n - 1) == len(expected)
    assert sorted(pi_inv for pi_inv, _, _ in scan) == expected
    assert scan[0][0] == tuple(range(n))
    labels = tuple(range(10, 10 + n))
    for pi_inv, pi, gather in scan:
        assert all(pi[pi_inv[x]] == x for x in range(n))
        if n > 1:
            assert gather(labels) == tuple(labels[i] for i in pi_inv)
        else:
            assert gather(labels) == labels[0]


def test_canonical_table_returns_orders_one_and_two_unchanged():
    trivial = check_loop([[0]])
    assert canonical_table(trivial) == trivial.table
    assert canonical_table(Z2) == Z2.table


def test_refused_canonical_table_asks_for_no_scan():
    # the budget is checked before the scan is asked for, so an order-10
    # call builds none of its 9! entries
    before = _canonical_scan.cache_info()
    with pytest.raises(ResourceLimitExceeded) as refused:
        canonical_table(_cyclic(10))
    assert str(refused.value) == "canonical form of order 10 needs 3628800, over the cap of 1000000 entries"
    assert _canonical_scan.cache_info() == before


def test_canonical_table_is_unchanged_by_scan_eviction():
    # the scan holds one order: asking orders 6, 5 and 6 again evicts it
    # twice, and each answer is still the plain minimum
    neg6 = tuple(-x % 6 for x in range(6))
    tables = {
        6: [relabeled_table(l.table, neg6, neg6, 6) for l in enumerate_loops(6)[:20]],
        5: list(_normalized_tables(5)),
    }
    _canonical_scan.cache_clear()
    for n in (6, 5, 6):
        for t in tables[n]:
            plain = min(relabeled_table(t, pi, pi_inv, n) for pi, pi_inv in relabelings_fixing_zero(n))
            assert canonical_table(Loop(n, t, 0)) == plain, t
    info = _canonical_scan.cache_info()
    assert (info.misses, info.currsize) == (3, 1)


@st.composite
def _loop_and_relabeling(draw):
    loop = draw(st.sampled_from(enumerate_loops(4) + enumerate_loops(5)))
    pi = tuple(draw(st.permutations(range(loop.order))))
    return loop, pi


@given(_loop_and_relabeling())
def test_relabel_roundtrip(case):
    loop, pi = case
    moved = relabel(loop, pi)
    assert moved.identity == pi[loop.identity]
    # rows and columns stay Latin after relabeling
    for row in moved.table:
        assert sorted(row) == list(range(loop.order))
    for c in range(loop.order):
        assert sorted(row[c] for row in moved.table) == list(range(loop.order))
    assert loops_isomorphic(loop, moved) is not None


@st.composite
def _representative_and_zero_fixing_relabeling(draw):
    loop = draw(st.sampled_from(enumerate_loops(4) + enumerate_loops(5)))
    rest = draw(st.permutations(range(1, loop.order)))
    return loop, (0, *rest)


@given(_representative_and_zero_fixing_relabeling())
def test_canonical_table_undoes_relabeling(case):
    loop, pi = case
    assert canonical_table(relabel(loop, pi)) == loop.table


@given(st.sampled_from(enumerate_loops(5)))
def test_translation_rows_match_table(loop):
    for a in range(loop.order):
        assert left_translation(loop, a) == loop.table[a]
