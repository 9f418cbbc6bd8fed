import hashlib

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
    _normalized_tables,
    _relabeled_table,
    _relabeling_beats,
    _relabelings_fixing_zero,
    canonical_table,
    check_loop,
    enumerate_loop_morphisms,
    enumerate_loops,
    is_associative,
    is_loop_morphism,
    left_translation,
    loops_isomorphic,
    relabel,
)
from algcat.perms import Perm

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
    assert Z3.mul(1, 2) == 0


def test_is_associative():
    assert is_associative(Z3)
    assert not is_associative(ORDER5)
    # witness from the table: (1*1)*2 = 2 but 1*(1*2) = 4
    assert ORDER5.mul(ORDER5.mul(1, 1), 2) == 2
    assert ORDER5.mul(1, ORDER5.mul(1, 2)) == 4
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
    assert left_translation(Z3, Z3.identity) == Perm.identity(3)
    assert left_translation(Z3, 1) == Perm((1, 2, 0))
    assert left_translation(ORDER5, 1) == Perm((1, 0, 3, 4, 2))
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_loops_matches_brute_force(n):
    brute = sorted({canonical_table(Loop(n, t, 0)) for t in _normalized_tables(n)})
    assert [l.table for l in enumerate_loops(n)] == brute


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_relabeling_beats_matches_full_comparison(n):
    # the early exit skips the last row; the whole relabeled table decides
    for t in _normalized_tables(n):
        for pi, pi_inv in _relabelings_fixing_zero(n):
            assert _relabeling_beats(t, pi, pi_inv, n) == (_relabeled_table(t, pi, pi_inv, n) < t), (t, pi)


def test_enumerate_loops_order_six():
    census = {n: enumerate_loops(n) for n in LOOP_CLASSES}
    assert {n: len(reps) for n, reps in census.items()} == LOOP_CLASSES
    assert {n: sum(is_associative(l) for l in reps) for n, reps in census.items()} == GROUP_CLASSES
    digest = hashlib.sha256(repr([l.table for l in census[6]]).encode()).hexdigest()
    assert digest == ORDER6_TABLES_SHA256


def test_canonical_table_rejects_nonzero_identity():
    with pytest.raises(StructureError, match="identity 1"):
        canonical_table(check_loop([[1, 0], [0, 1]], 1))


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
        assert left_translation(loop, a).images == loop.table[a]
