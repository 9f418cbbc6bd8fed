import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algcat import rps
from algcat.errors import InvariantViolation, MissingIdentity, RegularityViolation, StructureError
from algcat.loops import check_loop, enumerate_loop_morphisms, enumerate_loops
from algcat.perms import Morphism, closure, compose_morphisms, perm_set
from algcat.rps import (
    based_point_maps,
    characterize_morphism,
    check_rps,
    enumerate_rps_morphisms,
    enumerate_rps_morphisms_direct,
    identity_rps_morphism,
    induced_loop,
    is_rps_morphism,
    lift_loop_morphism,
    loop_to_rps,
    member_loop,
)
from algcat.s2t import translations
from algcat.zoo import standard_zoo
from references import compose, is_identity, loops_isomorphic, member_product, to_point, with_basepoint

Z3 = check_loop(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
ORDER5 = check_loop(
    ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
)
ROTATIONS = check_rps(closure([(1, 2, 0)]), 3, 0)


def test_check_rps_accepts():
    assert len(ROTATIONS.members) == 3
    assert check_rps(perm_set([(0,)]), 1, 0).degree == 1


def test_check_rps_rejects():
    s3 = closure([(1, 2, 0), (1, 0, 2)])
    with pytest.raises(RegularityViolation):
        check_rps(s3, 3, 0)
    no_id = perm_set([(1, 2, 0), (2, 0, 1), (1, 0, 2)])
    with pytest.raises(MissingIdentity):
        check_rps(no_id, 3, 0)
    # regular at point 0 only: 0 goes to every point once, 1 to 0 twice
    with pytest.raises(RegularityViolation) as info:
        check_rps(perm_set([(0, 1, 2), (1, 0, 2), (2, 0, 1)]), 3, 0)
    assert (info.value.alpha, info.value.beta, info.value.count) == (1, 0, 2)
    with pytest.raises(StructureError):
        check_rps(closure([(1, 2, 0)]), 3, 5)
    with pytest.raises(StructureError):
        check_rps(closure([(1, 2, 0)]), 4, 0)


def test_evaluation_bijection():
    # to_point is evaluation at the base point; identity lands on the base point
    assert to_point(ROTATIONS, (0, 1, 2)) == 0
    for m in ROTATIONS.members:
        assert ROTATIONS.from_point(to_point(ROTATIONS, m)) == m
    lifted = loop_to_rps(ORDER5)
    for a in range(5):
        assert to_point(lifted, ORDER5.table[a]) == a


def test_member_product():
    one = (0, 1, 2)
    r1, r2 = (1, 2, 0), (2, 0, 1)
    for m in ROTATIONS.members:
        assert member_product(ROTATIONS, m, one) == m
        assert member_product(ROTATIONS, one, m) == m
    assert member_product(ROTATIONS, r1, r2) == one
    lifted = loop_to_rps(ORDER5)
    for a in range(5):
        for b in range(5):
            la, lb = ORDER5.table[a], ORDER5.table[b]
            assert member_product(lifted, la, lb) == ORDER5.table[ORDER5.table[a][b]]


def test_member_loop_transport():
    ml = member_loop(ROTATIONS)
    assert loops_isomorphic(ml, Z3) is not None
    # evaluation transports the member loop onto the induced loop entry for entry
    for r in (ROTATIONS, loop_to_rps(ORDER5), with_basepoint(ROTATIONS, 1)):
        ml, il = member_loop(r), induced_loop(r)
        mu = [to_point(r, m) for m in r.members]
        for i in range(len(r.members)):
            for j in range(len(r.members)):
                assert mu[ml.table[i][j]] == il.table[mu[i]][mu[j]]


def test_point_tables_agree_with_evaluation(zoo):
    objects = [r for _, r in zoo.rps_objects] + [translations(g) for _, g in zoo.groups]
    objects += [with_basepoint(r, b) for r in objects for b in range(r.degree) if b != r.basepoint]
    for r in objects:
        ms, base = r.members.members, r.basepoint
        assert r.base_images == tuple(m[base] for m in ms)
        assert sorted(r.member_at) == list(range(r.degree))
        for i, m in enumerate(ms):
            assert r.member_at[m[base]] == i
            assert r.from_point(m[base]) == m
        # both stored loops against their definitions by composition and evaluation
        assert member_loop(r) is r.member_loop and induced_loop(r) is r.loop
        assert r.member_loop == check_loop(
            tuple(tuple(r.members.index(member_product(r, m, k)) for k in ms) for m in ms),
            r.members.index(tuple(range(r.degree))),
        )
        points = range(r.degree)
        assert r.loop == check_loop(
            tuple(tuple(compose(r.from_point(a), r.from_point(b))[base] for b in points) for a in points),
            base,
        )
    with pytest.raises(ValueError):
        ROTATIONS.from_point(3)
    with pytest.raises(ValueError):
        ROTATIONS.from_point(-1)


def test_derived_loops_pass_check_loop(zoo):
    # check_rps builds both loops straight from the tables regularity
    # guarantees; each must be the loop check_loop makes of its own table
    objects = [r for _, r in zoo.rps_objects] + [translations(g) for _, g in zoo.groups]
    objects += [loop_to_rps(loop) for loop in enumerate_loops(6)]
    assert len(objects) == len(zoo.rps_objects) + len(zoo.groups) + 109
    for r in objects:
        for loop in (r.loop, r.member_loop):
            assert check_loop(loop.table, loop.identity) == loop


def test_induced_loop():
    assert induced_loop(ROTATIONS) == Z3
    moved = with_basepoint(ROTATIONS, 1)
    assert induced_loop(moved).identity == 1
    assert loops_isomorphic(induced_loop(moved), Z3) is not None


def test_roundtrip_is_identity(zoo):
    for _, loop in zoo.loops:
        assert induced_loop(loop_to_rps(loop)) == loop


def test_is_rps_morphism():
    assert is_rps_morphism(identity_rps_morphism(ROTATIONS), ROTATIONS, ROTATIONS)
    # relabel points by a rotation, match members accordingly
    good = enumerate_rps_morphisms_direct(ROTATIONS, ROTATIONS)
    assert len(good) == 3
    m = good[1]
    corrupted = Morphism(f=(m.f[0], m.f[2], m.f[1]), phi=m.phi)
    if corrupted != m:
        assert not is_rps_morphism(corrupted, ROTATIONS, ROTATIONS)
    with pytest.raises(ValueError):
        is_rps_morphism(Morphism((0, 1), (0, 1, 2)), ROTATIONS, ROTATIONS)


def test_characterize_agrees_exhaustively():
    src = ROTATIONS
    # a target based at another point tells the two base points apart
    for dst in (loop_to_rps(Z3), with_basepoint(loop_to_rps(Z3), 1)):
        for f in itertools.product(range(3), repeat=3):
            for rest in itertools.product(range(3), repeat=2):
                phi = (dst.basepoint, *rest)
                cand = Morphism(f, phi)
                assert characterize_morphism(f, phi, src, dst) == is_rps_morphism(cand, src, dst)


def test_characterize_requires_basepoint():
    with pytest.raises(ValueError):
        characterize_morphism((0, 1, 2), (1, 0, 2), ROTATIONS, ROTATIONS)


def test_lift_loop_morphism():
    r = loop_to_rps(Z3)
    ident = lift_loop_morphism((0, 1, 2), r, r)
    assert ident == identity_rps_morphism(r)
    trivial = lift_loop_morphism((0, 0, 0), r, r)
    id_index = next(i for i, m in enumerate(r.members) if is_identity(m))
    assert all(v == id_index for v in trivial.f)
    assert is_rps_morphism(trivial, r, r)
    # the lift checks nothing: a map that is not a loop morphism still
    # lifts, and the definition rejects the pair
    bad = lift_loop_morphism((0, 1, 1), r, r)
    assert bad.phi == (0, 1, 1) and not is_rps_morphism(bad, r, r)


def test_fast_equals_direct(zoo):
    small = [r for _, r in zoo.rps_objects if r.degree <= 4]
    for src in small:
        for dst in small:
            fast = set(enumerate_rps_morphisms(src, dst))
            direct = set(enumerate_rps_morphisms_direct(src, dst))
            assert fast == direct
            assert len(fast) == len(enumerate_loop_morphisms(induced_loop(src), induced_loop(dst)))


def test_fast_equals_direct_at_every_base_point_of_order_5(zoo):
    # the regular sets of every loop of order 5, with every base point: the
    # direct search lists the production hom-set, in lexicographic order of phi
    based = [with_basepoint(r, b) for _, r in zoo.rps_objects if r.degree == 5 for b in range(5)]
    for src in based:
        for dst in based:
            direct = enumerate_rps_morphisms_direct(src, dst)
            assert set(direct) == set(enumerate_rps_morphisms(src, dst)), (src, dst)
            assert [m.phi for m in direct] == sorted(m.phi for m in direct)


def test_direct_oracle_matches_definition_on_every_zoo_pair(zoo, monkeypatch):
    # every candidate of every ordered pair, 28,239, degrees 4 and 5 included;
    # the characterization family stops at degree 3. Pairs such as degree 2
    # into degree 3 are kept: a check that skips the last member or point
    # still finds the right morphisms on the degree 4 and 5 pairs alone
    objects = [r for _, r in zoo.rps_objects]
    confirmed = []

    def counted(m, src, dst):
        confirmed.append(m)
        return is_rps_morphism(m, src, dst)

    monkeypatch.setattr(rps, "is_rps_morphism", counted)
    total = 0
    for src in objects:
        for dst in objects:
            confirmed.clear()
            found = enumerate_rps_morphisms_direct(src, dst)
            # the oracle confirms each pair it accepts, and nothing else
            assert list(found) == confirmed
            want = []
            for phi in based_point_maps(src, dst):
                # f(m) is the target member sending the base point to phi(m(base))
                f = tuple(dst.members.index(dst.from_point(phi[to_point(src, m)])) for m in src.members)
                cand = Morphism(f, phi)
                if is_rps_morphism(cand, src, dst):
                    want.append(cand)
            assert found == tuple(want)
            total += len(found)
    assert total == 217


def test_direct_oracle_raises_when_the_definition_disagrees(monkeypatch):
    monkeypatch.setattr(rps, "is_rps_morphism", lambda m, src, dst: False)
    with pytest.raises(InvariantViolation):
        enumerate_rps_morphisms_direct(ROTATIONS, ROTATIONS)


def test_compose_and_identity_laws():
    r = loop_to_rps(Z3)
    homs = enumerate_rps_morphisms_direct(r, r)
    ident = identity_rps_morphism(r)
    for m in homs:
        assert compose_morphisms(m, ident) == m
        assert compose_morphisms(ident, m) == m
        for k in homs:
            assert is_rps_morphism(compose_morphisms(k, m), r, r)


@given(st.sampled_from([r for _, r in standard_zoo().rps_objects]))
def test_regularity_counting(r):
    assert len(r.members) == r.degree
    one = tuple(range(r.degree))
    for m in r.members:
        assert member_product(r, m, one) == m
        assert member_product(r, one, m) == m
    # exactly one member moves alpha to beta, for every pair
    for alpha in range(r.degree):
        for beta in range(r.degree):
            assert sum(1 for m in r.members if m[alpha] == beta) == 1
