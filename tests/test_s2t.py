import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcat.errors import (
    DegenerateOmega,
    NotAGroup,
    NotSharplyTransitive,
    StructureError,
)
from algcat.neardomain import d_coeff, dickson_nearfield_9, galois_field, is_nearfield
from algcat.perms import Morphism, Perm, PermSet, closure, compose_morphisms, perm_set, subgroup_failure
from algcat.rps import Rps
from algcat.s2t import (
    Characteristic,
    S2tGroup,
    affine_group,
    affine_maps,
    base_involution,
    canonical_isomorphism,
    characteristic,
    check_s2t,
    derived_neardomain,
    derived_nd_morphism,
    enumerate_s2t_morphisms,
    enumerate_s2t_morphisms_direct,
    identity_s2t_morphism,
    image_inclusion_witness,
    involution_products_form_subgroup,
    involutions,
    is_s2t_morphism,
    lift_nd_morphism,
    point_add,
    point_mul,
    relabel,
    translations,
    translations_form_subgroup,
)
from algcat.zoo import standard_zoo

S3 = closure([Perm((1, 2, 0)), Perm((1, 0, 2))])
AFF = {q: affine_group(galois_field(q)) for q in (2, 3, 4, 5, 7, 8, 9)}
AFFD = affine_group(dickson_nearfield_9())


def test_group_orders():
    assert [len(AFF[q].group) for q in (2, 3, 4, 5, 7, 8, 9)] == [2, 6, 12, 20, 42, 56, 72]
    assert len(AFFD.group) == 72


def test_check_s2t_accepts_alternative_basepoints():
    g = check_s2t(S3, 1, 2)
    assert g.omega0 == 1 and g.omega1 == 2
    assert derived_neardomain(g).zero == 1


def test_check_s2t_rejects():
    with pytest.raises(DegenerateOmega):
        check_s2t(S3, 0, 0)
    with pytest.raises(NotAGroup):
        check_s2t(perm_set([p for p in S3 if p != Perm((1, 2, 0))]), 0, 1)
    with pytest.raises(NotSharplyTransitive):
        check_s2t(closure([Perm((1, 2, 0))]), 0, 1)
    with pytest.raises(StructureError):
        check_s2t(S3, 0, 9)
    # degree below 2 cannot carry two distinct base points
    with pytest.raises(StructureError):
        check_s2t(perm_set([Perm((0,))]), 0, 0)


def test_check_s2t_witnesses():
    rotations = closure([Perm((1, 2, 0))])
    with pytest.raises(NotSharplyTransitive) as info:
        check_s2t(rotations, 0, 1)
    assert (info.value.source_pair, info.value.target_pair, info.value.count) == ((0, 1), (0, 2), 0)
    assert str(info.value) == "0 elements map (0, 1) to (0, 2), expected exactly 1"
    # S3 with the involution (0, 2, 1) removed: inverses survive, closure fails
    with pytest.raises(NotAGroup) as info:
        check_s2t(perm_set([p for p in S3 if p != Perm((0, 2, 1))]), 0, 1)
    assert str(info.value) == "product [1, 0, 2] * [1, 2, 0] missing"
    with pytest.raises(NotAGroup) as info:
        check_s2t(perm_set([p for p in S3 if p != Perm((1, 2, 0))]), 0, 1)
    assert str(info.value) == "inverse of [2, 0, 1] missing"
    # base points are checked before the group axioms (no identity here)
    with pytest.raises(DegenerateOmega):
        check_s2t(perm_set([Perm((1, 0, 2))]), 1, 1)


def _reference_check_s2t(group: PermSet, omega0: int, omega1: int) -> S2tGroup:
    """Sharp 2-transitivity the long way: every ordered source pair against
    every ordered target pair, both in lexicographic order. Expects a group
    and valid base points."""
    n = group.degree
    images = [g.images for g in group]
    for a1, a2 in itertools.permutations(range(n), 2):
        seen: dict[tuple[int, int], int] = {}
        for im in images:
            key = (im[a1], im[a2])
            seen[key] = seen.get(key, 0) + 1
        for target in itertools.permutations(range(n), 2):
            c = seen.get(target, 0)
            if c != 1:
                raise NotSharplyTransitive((a1, a2), target, c)
    return S2tGroup(group, n, omega0, omega1)


def _outcome(check, group: PermSet, omega0: int, omega1: int):
    """The group check returns, or the witness it raises."""
    try:
        return check(group, omega0, omega1)
    except NotSharplyTransitive as exc:
        return exc.source_pair, exc.target_pair, exc.count


def _assert_one_pair_matches_reference(group: PermSet) -> None:
    for omega0, omega1 in itertools.permutations(range(group.degree), 2):
        want = _outcome(_reference_check_s2t, group, omega0, omega1)
        assert _outcome(check_s2t, group, omega0, omega1) == want, (group, omega0, omega1)


# generators at degrees 3-5 with the verdict of the closure: S3, AGL(1, 4)
# (the alternating group A4) and AGL(1, 5) are sharply 2-transitive, the
# others fall short of n(n-1) members or exceed it
ONE_PAIR_CASES = [
    ([(1, 2, 0), (1, 0, 2)], True),
    ([(1, 2, 0)], False),
    ([(1, 2, 0, 3), (1, 0, 3, 2)], True),
    ([(1, 2, 3, 0), (1, 0, 2, 3)], False),
    ([(1, 2, 0, 3)], False),
    ([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)], True),
    ([(1, 2, 3, 4, 0)], False),
    ([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], False),
]


def test_one_pair_check_reaches_both_verdicts():
    for gens, sharp in ONE_PAIR_CASES:
        group = closure(Perm(g) for g in gens)
        assert isinstance(_outcome(_reference_check_s2t, group, 0, 1), S2tGroup) == sharp, gens
        _assert_one_pair_matches_reference(group)


@st.composite
def _generated_groups(draw):
    n = draw(st.integers(2, 5))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    return closure(Perm(tuple(g)) for g in gens)


@settings(max_examples=100)
@given(_generated_groups())
def test_one_pair_check_matches_all_pairs_reference(group):
    # check_s2t reads the single source pair (0, 1); on a group it must give
    # the verdict and witness of the all-pairs scan for every base pair
    _assert_one_pair_matches_reference(group)


def test_validated_group_keeps_its_table():
    # the closure certificate builds the table once and leaves it on the set
    members = perm_set(S3.members)
    assert members._table is None
    g = check_s2t(members, 0, 1)
    assert g.group is members and members._table is not None
    assert members.composition_table() is members._table


def test_derived_sets_match_perm_products(zoo):
    # involutions, translations and involution products are read off the
    # composition table; Perm.__mul__ is the independent reference
    for name, g in zoo.groups:
        assert set(involutions(g)) == {p for p in g.group if p.is_involution()}, name
        J = list(involutions(g))
        if characteristic(g) is Characteristic.NOT_TWO:
            nu = base_involution(g)
            assert set(translations(g).members) == {j * nu for j in J}, name
        products = perm_set(p * q for p in J for q in J)
        assert involution_products_form_subgroup(g) == (subgroup_failure(products) is None), name


def test_characteristic_dichotomy():
    assert characteristic(AFF[2]) is Characteristic.TWO
    assert characteristic(AFF[4]) is Characteristic.TWO
    assert characteristic(AFF[8]) is Characteristic.TWO
    for q in (3, 5, 7, 9):
        assert characteristic(AFF[q]) is Characteristic.NOT_TWO
    assert characteristic(AFFD) is Characteristic.NOT_TWO
    # involution counts: q-1 fixpoint-free in even characteristic, else q
    for q, g in AFF.items():
        j = involutions(g)
        if characteristic(g) is Characteristic.TWO:
            assert len(j) == q - 1
            assert all(not p.fixed_points() for p in j)
        else:
            assert len(j) == q
            assert all(len(p.fixed_points()) == 1 for p in j)


def test_base_involution():
    assert base_involution(AFF[3]) == Perm((0, 2, 1))
    for q in (3, 5, 7, 9):
        nu = base_involution(AFF[q])
        assert nu.is_involution() and nu.fixed_points() == frozenset({0})
    with pytest.raises(ValueError):
        base_involution(AFF[2])  # characteristic 2 has no fixing involution


def test_translations_encode_addition():
    for q, g in AFF.items():
        nd = galois_field(q)
        t = translations(g)
        assert isinstance(t, Rps)
        assert t.basepoint == g.omega0
        expected = {Perm(tuple(nd.add[c][x] for x in range(q))) for c in range(q)}
        assert set(t.members) == expected
        for a in range(q):
            for b in range(q):
                assert point_add(g, a, b) == nd.add[a][b]
                assert point_mul(g, a, b) == nd.mul[a][b]


def test_derived_neardomain_matches_point_operations(zoo):
    # every zoo group, the relabeled ones and sym3@(1,2) included
    for name, g in zoo.groups:
        nd = derived_neardomain(g)
        n = g.degree
        assert nd.add == tuple(tuple(point_add(g, a, b) for b in range(n)) for a in range(n)), name
        assert nd.mul == tuple(tuple(point_mul(g, a, b) for b in range(n)) for a in range(n)), name
        assert (nd.zero, nd.one) == (g.omega0, g.omega1), name


def test_derived_neardomain_roundtrip():
    for q, g in AFF.items():
        assert derived_neardomain(g) == galois_field(q)
    assert derived_neardomain(AFFD) == dickson_nearfield_9()


def test_affine_composition_law():
    for nd in (galois_field(3), galois_field(4), galois_field(9), dickson_nearfield_9()):
        maps = affine_maps(nd)
        by_perm = {m.perm: (m.a, m.b) for m in maps}
        for m1 in maps:
            for m2 in maps:
                a, b = m1.a, m1.b
                k, l = m2.a, m2.b
                bk = nd.mul[b][k]
                d = d_coeff(nd, a, bk)
                expected = (nd.add[a][bk], nd.mul[d][nd.mul[b][l]])
                assert by_perm[m1.perm * m2.perm] == expected


def test_composition_table_matches_perm_products(zoo):
    # every zoo group, the relabeled ones and sym3@(1,2) included
    for name, g in zoo.groups:
        table = g.group.composition_table()
        for i, p in enumerate(g.group):
            for j, q in enumerate(g.group):
                assert table[i][j] == g.group.index(p * q), (name, i, j)


def test_composition_table_rejects_non_closed_set():
    g3 = AFF[3]
    with pytest.raises(NotAGroup, match=r"product \[.*\] \* \[.*\] missing"):
        PermSet(g3.degree, g3.group.members[:-1]).composition_table()


def test_affine_params_index_the_affine_maps(zoo):
    for name, nd in zoo.neardomains:
        g = affine_group(nd)
        assert len(g.affine_params) == len(g.group), name
        for am in affine_maps(nd):
            assert g.group.members[g.affine_params[(am.a, am.b)]] == am.perm, (name, am.a, am.b)


def test_canonical_isomorphism():
    for g in list(AFF.values()) + [AFFD, check_s2t(S3, 1, 2)]:
        iso = canonical_isomorphism(g)
        rebuilt = affine_group(derived_neardomain(g))
        assert is_s2t_morphism(iso, rebuilt, g)
        assert len(set(iso.f)) == len(g.group)
        assert len(set(iso.phi)) == g.degree


def test_relabeled_group_roundtrip():
    rot = Perm((1, 2, 3, 4, 5, 6, 7, 8, 0))
    moved = relabel(AFF[9], rot)
    assert moved.omega0 == rot(AFF[9].omega0)
    assert derived_neardomain(moved).zero == moved.omega0
    iso = canonical_isomorphism(moved)
    assert is_s2t_morphism(iso, affine_group(derived_neardomain(moved)), moved)


def test_frozen_hom_counts():
    pairs = {
        (2, 2): 1,
        (2, 3): 0,
        (3, 3): 1,
        (2, 4): 1,
        (4, 4): 2,
        (4, 2): 0,
        (3, 4): 0,
        (3, 9): 1,
        (9, 9): 2,
    }
    for (qs, qd), want in pairs.items():
        assert len(enumerate_s2t_morphisms(AFF[qs], AFF[qd])) == want, (qs, qd)
    assert len(enumerate_s2t_morphisms(AFFD, AFF[9])) == 0
    assert len(enumerate_s2t_morphisms(AFF[9], AFFD)) == 0
    assert len(enumerate_s2t_morphisms(AFFD, AFFD)) == 6


def test_mixed_characteristic_is_empty():
    assert enumerate_s2t_morphisms(AFF[2], AFF[3]) == ()
    assert enumerate_s2t_morphisms(AFF[3], AFF[4]) == ()
    assert enumerate_s2t_morphisms_direct(AFF[2], AFF[3]) == ()


def test_fast_equals_direct_small():
    small = [AFF[2], AFF[3], AFF[4], check_s2t(S3, 1, 2)]
    for src in small:
        for dst in small:
            assert set(enumerate_s2t_morphisms(src, dst)) == set(
                enumerate_s2t_morphisms_direct(src, dst)
            )


def test_morphism_validation_and_inclusions():
    for m in enumerate_s2t_morphisms(AFF[3], AFF[9]):
        assert is_s2t_morphism(m, AFF[3], AFF[9])
        assert image_inclusion_witness(m, AFF[3], AFF[9]) is None
        assert derived_nd_morphism(m, AFF[3], AFF[9]) == m.phi
    good = enumerate_s2t_morphisms(AFF[4], AFF[4])
    assert len(good) == 2
    nontrivial = next(m for m in good if m != identity_s2t_morphism(AFF[4]))
    broken = Morphism(f=nontrivial.f, phi=identity_s2t_morphism(AFF[4]).phi)
    assert not is_s2t_morphism(broken, AFF[4], AFF[4])
    with pytest.raises(ValueError):
        is_s2t_morphism(Morphism((0,), (0, 1)), AFF[2], AFF[2])


def test_lift_and_compose():
    nd3, nd9 = galois_field(3), galois_field(9)
    lifted = lift_nd_morphism((0, 1, 2), nd3, nd3)
    assert lifted == identity_s2t_morphism(AFF[3])
    embed = lift_nd_morphism((0, 1, 2), nd3, nd9)
    assert is_s2t_morphism(embed, AFF[3], AFF[9])
    frob = enumerate_s2t_morphisms(AFF[9], AFF[9])[1]
    assert compose_morphisms(frob, frob) == identity_s2t_morphism(AFF[9])
    with pytest.raises(ValueError):
        lift_nd_morphism((0, 0, 0), nd3, nd3)


def test_subgroup_predicates():
    for g in list(AFF.values()) + [AFFD]:
        t = translations_form_subgroup(g)
        j2 = involution_products_form_subgroup(g)
        assert t == j2 == is_nearfield(derived_neardomain(g))
        assert t  # every built instance is a nearfield


@given(st.sampled_from([g for _, g in standard_zoo().groups]))
def test_sharp_transitivity(g):
    n = g.degree
    assert len(g.group) == n * (n - 1)
    # spot-check regularity on all pairs through the base pair
    for alpha in range(n):
        for beta in range(n):
            if alpha == beta:
                continue
            count = sum(
                1 for p in g.group if p(g.omega0) == alpha and p(g.omega1) == beta
            )
            assert count == 1
