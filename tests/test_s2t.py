import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcat.errors import (
    DegenerateOmega,
    InvariantViolation,
    NotAGroup,
    NotSharplyTransitive,
    StructureError,
)
from algcat import cli, perms, s2t
from algcat.fileio import emit_structure, parse_structure
from algcat.neardomain import (
    Neardomain,
    check_neardomain,
    coefficients,
    d_coeff,
    dickson_nearfield_9,
    enumerate_nd_morphisms,
    galois_field,
    is_nd_morphism,
    is_nearfield,
)
from algcat.perms import Morphism, PermSet, check_group, closure, compose_morphisms, perm_set, subgroup_failure
from algcat.rps import Rps
from algcat.s2t import (
    Characteristic,
    S2tGroup,
    affine_group,
    affine_maps,
    base_involution,
    base_pair_index,
    characteristic,
    check_s2t,
    derived_neardomain,
    enumerate_s2t_morphisms,
    enumerate_s2t_morphisms_direct,
    identity_s2t_morphism,
    image_inclusion_witness,
    involution_products_form_subgroup,
    involutions,
    is_s2t_morphism,
    lift_nd_morphism,
    relabel,
    translations,
    translations_form_subgroup,
)
from algcat.zoo import standard_zoo
import references
from references import compose, fixed_points, inverse, is_involution, point_add, point_mul

S3 = closure([(1, 2, 0), (1, 0, 2)])
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
        check_s2t(perm_set([p for p in S3 if p != (1, 2, 0)]), 0, 1)
    with pytest.raises(NotSharplyTransitive):
        check_s2t(closure([(1, 2, 0)]), 0, 1)
    with pytest.raises(StructureError):
        check_s2t(S3, 0, 9)
    # degree below 2 cannot carry two distinct base points
    with pytest.raises(StructureError):
        check_s2t(perm_set([(0,)]), 0, 0)


def test_check_s2t_witnesses():
    rotations = closure([(1, 2, 0)])
    with pytest.raises(NotSharplyTransitive) as info:
        check_s2t(rotations, 0, 1)
    assert (info.value.source_pair, info.value.target_pair, info.value.count) == ((0, 1), (0, 2), 0)
    assert str(info.value) == "0 elements map (0, 1) to (0, 2), expected exactly 1"
    # S3 with the involution (0, 2, 1) removed: inverses survive, closure fails
    with pytest.raises(NotAGroup) as info:
        check_s2t(perm_set([p for p in S3 if p != (0, 2, 1)]), 0, 1)
    assert str(info.value) == "product [1, 0, 2] * [1, 2, 0] missing"
    with pytest.raises(NotAGroup) as info:
        check_s2t(perm_set([p for p in S3 if p != (1, 2, 0)]), 0, 1)
    assert str(info.value) == "inverse of [2, 0, 1] missing"
    # base points are checked before the group axioms (no identity here)
    with pytest.raises(DegenerateOmega):
        check_s2t(perm_set([(1, 0, 2)]), 1, 1)


def _reference_check_s2t(group: PermSet, omega0: int, omega1: int) -> S2tGroup:
    """Sharp 2-transitivity the long way: every ordered source pair against
    every ordered target pair, both in lexicographic order. Expects a group
    and valid base points."""
    n = group.degree
    for a1, a2 in itertools.permutations(range(n), 2):
        seen: dict[tuple[int, int], int] = {}
        for im in group:
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
        group = closure(gens)
        assert isinstance(_outcome(_reference_check_s2t, group, 0, 1), S2tGroup) == sharp, gens
        _assert_one_pair_matches_reference(group)


@st.composite
def _generated_groups(draw):
    n = draw(st.integers(2, 5))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    return closure(tuple(g) for g in gens)


@settings(max_examples=100)
@given(_generated_groups())
def test_one_pair_check_matches_all_pairs_reference(group):
    # check_s2t reads the single source pair (0, 1); on a group it must give
    # the verdict and witness of the all-pairs scan for every base pair
    _assert_one_pair_matches_reference(group)


def test_certified_group_keeps_its_closure_certificate(monkeypatch, tmp_path):
    # check_s2t certifies closure once per validated group and keeps the
    # certificate on it; the morphism check reads it without running it
    # again; an equal listing is a group of its own, certified on its own;
    # the CLI reading one file twice gets back the first group, with it
    runs = []
    monkeypatch.setattr(s2t, "check_group", lambda members: runs.append(members) or perms.check_group(members))
    members = perm_set(S3.members)
    g = check_s2t(members, 0, 1)
    assert g.group is members and runs == [members]
    assert "check_closed" in g._derived
    s2t.check_closed(g)
    assert is_s2t_morphism(identity_s2t_morphism(g), g, g)
    again = perm_set(S3.members)
    h = check_s2t(again, 0, 1)
    assert h == g and h is not g and runs == [members, again]
    s2t.check_closed(h)
    assert len(runs) == 2
    path = tmp_path / "s3.txt"
    path.write_text(emit_structure(g))
    read = cli._read(str(path))
    assert read == g and len(runs) == 3
    assert cli._read(str(path)) is read
    s2t.check_closed(read)
    assert len(runs) == 3
    # a PermSet stores its member index and its hash, and no table
    assert set(PermSet.__slots__) == {"degree", "members", "_index", "_hash"}


def test_fresh_listing_is_certified_without_its_table(monkeypatch, tmp_path):
    # a listing of AGL(1,16): check_s2t, and the CLI reading it from a file,
    # certify its 240 members by the walk alone, with the product scan that
    # names a failing set's witness refused at its budget call; all 57,600
    # products, by references.compose, are members
    members = perm_set(affine_group(galois_field(16)).group.members)
    path = tmp_path / "agl16.txt"
    path.write_text(emit_structure(S2tGroup(members, 16, 0, 1)))
    budget = perms.check_budget

    def refuse(work, what):
        if what.startswith("composition table"):
            raise AssertionError("a certificate ran the product scan")
        budget(work, what)

    with monkeypatch.context() as patch:
        patch.setattr(perms, "check_budget", refuse)
        g = check_s2t(members, 0, 1)
        assert is_s2t_morphism(identity_s2t_morphism(g), g, g)
        read = cli._read(str(path))
        assert read == g and read is not g and cli._read(str(path)) is read
    assert g.group is members
    assert sum(map(len, references.composition_table(members))) == 57_600


def test_no_success_path_builds_a_composition_table(tmp_path):
    # a cold process whose product scan, the one path that reads every
    # product, is refused at its budget call builds the zoo, runs the
    # verify-all battery and answers check, roundtrip and homset on
    # relabeled order-9 files
    code = f"""
import sys
from algcat import cli
from algcat.catcheck import run_all
from algcat.fileio import emit_structure
from algcat.neardomain import dickson_nearfield_9, galois_field
from algcat import perms
from algcat.s2t import affine_group, relabel
from algcat.zoo import standard_zoo
budget = perms.check_budget

def refuse(work, what):
    if what.startswith("composition table"):
        raise AssertionError("a success path ran the product scan")
    budget(work, what)

perms.check_budget = refuse
standard_zoo()
failed = [v.name for v in run_all() if not v.passed]
if failed:
    sys.exit(f"families failed: {{failed}}")
paths = []
for i, nd in enumerate((galois_field(9), dickson_nearfield_9())):
    g = relabel(affine_group(nd), tuple((4 * x + 2 + i) % 9 for x in range(9)))
    path = {str(tmp_path)!r} + f"/g{{i}}.txt"
    open(path, "w").write(emit_structure(g))
    paths.append(path)
requests = (["check", paths[0]], ["roundtrip", paths[1]], ["homset", *paths], ["homset", paths[1], paths[1]])
for argv in requests:
    if cli.main([*argv, "--no-timestamp"]) != 0:
        sys.exit(f"{{argv}} failed")
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert [line for line in done.stdout.splitlines() if line.startswith("count: ")] == ["count: 0", "count: 6"]


def test_equal_structures_parsed_again_share_derived_values(monkeypatch, tmp_path):
    # the CLI keeps what it parsed, keyed on the file's bytes: reading the
    # same text again returns the first object, which already carries what
    # was derived from it; the library keeps nothing, so parse_structure
    # builds an equal, new object on every call
    text = emit_structure(relabel(AFF[5], (1, 2, 3, 4, 0)))
    path = tmp_path / "g.txt"
    path.write_text(text)
    first = cli._read(str(path))
    built = []
    real = s2t.check_neardomain
    monkeypatch.setattr(s2t, "check_neardomain", lambda *args: built.append(args) or real(*args))
    nd = derived_neardomain(first)
    again = cli._read(str(path))
    assert again is first
    assert derived_neardomain(again) is nd
    assert len(built) == 1
    fresh = parse_structure(text)
    assert fresh == first and fresh is not first
    path.write_text(emit_structure(nd))
    assert cli._read(str(path)) == nd and cli._read(str(path)) is not nd


def test_validators_return_what_they_validated():
    # check_s2t and check_neardomain keep no structures: validating an equal
    # input again builds and returns a new, equal object
    g = AFF[5]
    again = check_s2t(g.group, g.omega0, g.omega1)
    assert again == g and again is not g
    nd = galois_field(5)
    again = check_neardomain(nd.add, nd.mul, nd.zero, nd.one)
    assert again == nd and again is not nd


def test_derived_sets_match_perm_products(zoo):
    # involutions are squared on image tuples, translations and involution
    # products composed directly; references.is_involution and
    # references.compose are the references
    for name, g in zoo.groups:
        assert set(involutions(g)) == {p for p in g.group if is_involution(p)}, name
        J = involutions(g)
        if characteristic(g) is Characteristic.NOT_TWO:
            nu = base_involution(g)
            assert set(translations(g).members) == {compose(j, nu) for j in J}, name
        products = perm_set(compose(p, q) for p in J for q in J)
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
            assert all(not fixed_points(p) for p in j)
        else:
            assert len(j) == q
            assert all(len(fixed_points(p)) == 1 for p in j)


def test_base_involution():
    assert base_involution(AFF[3]) == (0, 2, 1)
    for q in (3, 5, 7, 9):
        nu = base_involution(AFF[q])
        assert is_involution(nu) and fixed_points(nu) == frozenset({0})
    with pytest.raises(ValueError):
        base_involution(AFF[2])  # characteristic 2 has no fixing involution


def test_translations_encode_addition():
    for q, g in AFF.items():
        nd = galois_field(q)
        t = translations(g)
        assert isinstance(t, Rps)
        assert t.basepoint == g.omega0
        expected = {tuple(nd.add[c][x] for x in range(q)) for c in range(q)}
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
    # the law at every pair of maps, the reference for the pairs affine_group
    # checks; composed on image tuples, 57,600 pairs at q = 16
    for nd in (*map(galois_field, (3, 4, 9, 11, 13, 16)), dickson_nearfield_9()):
        n, add, mul = nd.order, nd.add, nd.mul
        maps = affine_maps(nd)
        by_images = {p: (a, b) for a, b, p in maps}
        coeff = [[d_coeff(nd, a, c) for c in range(n)] for a in range(n)]
        for a, b, p in maps:
            for k, l, q in maps:
                bk = mul[b][k]
                expected = (add[a][bk], mul[coeff[a][bk]][mul[b][l]])
                assert by_images[tuple(p[x] for x in q)] == expected, (n, (a, b), (k, l))


def _with_coefficient(nd: Neardomain, a0: int, c0: int, d: int) -> None:
    """Keep on nd the coefficient table of nd with the entry at (a0, c0)
    replaced by d, where affine_group reads it."""
    table = [list(row) for row in coefficients(nd)]
    table[a0][c0] = d
    nd._derived["coefficients"] = tuple(map(tuple, table))


def test_affine_law_names_a_wrong_coefficient():
    # a coefficient wrong at one (a, c) must be caught by the base-point law,
    # naming the first pair of maps in (a, b), (k, l) order that reads it
    real = galois_field(5)
    nd = Neardomain(real.order, real.add, real.mul, real.zero, real.one)  # fresh, nothing derived
    a0, c0 = 2, 3
    _with_coefficient(nd, a0, c0, d_coeff(real, a0, c0) % 4 + 1)  # another nonzero element of GF(5)
    maps = affine_maps(nd)
    expected = next(((a, b), (k, l)) for a, b, _ in maps for k, l, _ in maps if a == a0 and nd.mul[b][k] == c0)
    with pytest.raises(InvariantViolation) as exc:
        affine_group(nd)
    assert (exc.value.claim, exc.value.witness) == ("affine composition law", expected)


def _gf5_with(add=None, mul=None) -> Neardomain:
    """GF(5) with a table replaced, unvalidated and with nothing derived."""
    gf5 = galois_field(5)
    return Neardomain(5, add or gf5.add, mul or gf5.mul, gf5.zero, gf5.one)


@pytest.mark.parametrize("fact", ["zero + y == y", "one * y == y", "d(zero, y) == one"])
def test_affine_law_checks_the_unit_facts_first(fact):
    # each corruption leaves the maps the affine group of GF(5), so
    # check_s2t passes, and the factorization F(a, b) == F(a, one) . F(zero, b)
    # that the checked pairs rest on is refused at the first bad y
    gf5 = galois_field(5)
    if fact == "zero + y == y":
        # zero + y == 2y: the maps F(zero, b) are those of F(zero, 2b)
        nd, y = _gf5_with(add=(gf5.mul[2],) + gf5.add[1:]), 1
    elif fact == "one * y == y":
        # each row b of multiplication is the row of 2b
        nd, y = _gf5_with(mul=tuple(gf5.mul[2 * b % 5] for b in range(5))), 1
    else:
        # wrong at the last y, so that every y is read
        nd, y = _gf5_with(), 4
        _with_coefficient(nd, 0, 4, 2)
    with pytest.raises(InvariantViolation) as exc:
        affine_group(nd)
    assert (exc.value.claim, exc.value.witness) == (fact, y)


def test_affine_group_refuses_parameters_that_give_one_map():
    # rows 2 and 3 of multiplication equal: x -> a + 2x and x -> a + 3x are
    # one map, so 20 parameter pairs give 15 maps
    gf5 = galois_field(5)
    nd = _gf5_with(mul=gf5.mul[:3] + (gf5.mul[2],) + gf5.mul[4:])
    with pytest.raises(InvariantViolation) as exc:
        affine_group(nd)
    assert (exc.value.claim, exc.value.witness) == ("distinct parameters give distinct affine maps", 20)


def test_affine_law_checks_the_multiplication_case():
    # rows 2 and 3 of multiplication swapped: the unit facts and every pair
    # with a translation on the left hold, and the maps are those of GF(5),
    # but F(zero, 2) . F(k, l) is F(3k, 3l), not F(2 * k, 2 * l) as the law
    # reads the tables; the first such pair has the identity on the right
    gf5 = galois_field(5)
    nd = _gf5_with(mul=(gf5.mul[0], gf5.mul[1], gf5.mul[3], gf5.mul[2], gf5.mul[4]))
    with pytest.raises(InvariantViolation) as exc:
        affine_group(nd)
    assert (exc.value.claim, exc.value.witness) == ("affine composition law", ((0, 2), (0, 1)))


def test_check_group_rejects_non_closed_set():
    g3 = AFF[3]
    with pytest.raises(NotAGroup, match=r"product \[.*\] \* \[.*\] missing"):
        check_group(PermSet(g3.degree, g3.group.members[:-1]))


def test_base_pair_index_and_lift_read_the_affine_maps(zoo):
    # the map x -> a + b*x has base images (a, a + b); a neardomain morphism
    # phi lifts to the member map (a, b) -> (phi(a), phi(b))
    params = {}
    for name, nd in zoo.neardomains:
        g = affine_group(nd)
        at = base_pair_index(g)
        assert len(at) == len(g.group), name
        for a, b, p in affine_maps(nd):
            assert g.group.members[at[(a, nd.add[a][b])]] == p, (name, a, b)
        params[name] = {(a, b): p for a, b, p in affine_maps(nd)}
    lifted = 0
    for (ns, src), (nd_name, dst) in itertools.product(zoo.neardomains, repeat=2):
        g_s, g_d = affine_group(src), affine_group(dst)
        for phi in enumerate_nd_morphisms(src, dst):
            m = lift_nd_morphism(phi, src, dst)
            for (a, b), perm in params[ns].items():
                image = g_d.group.members[m.f[g_s.group.index(perm)]]
                assert image == params[nd_name][(phi[a], phi[b])], (ns, nd_name, phi, a, b)
            lifted += 1
    assert lifted == 21


def test_base_pair_index_and_forced_map_refuse_what_they_cannot_read():
    s4 = S2tGroup(closure([(1, 2, 3, 0), (1, 0, 2, 3)]), 4, 0, 1)
    with pytest.raises(InvariantViolation, match="differ on the base points"):
        base_pair_index(s4)
    with pytest.raises(StructureError, match=r"member \[0, 1, 2\] matches no target member"):
        s2t.forced_member_map((0, 0, 0), AFF[3], AFF[3])


def test_canonical_isomorphism(zoo):
    # the canonical isomorphism onto a group from the affine group of its
    # derived neardomain is the identity: the rebuild has the members and the
    # base points of the group (S2tGroup equality compares those and the degree)
    for g in [g for _, g in zoo.groups] + [check_s2t(S3, 1, 2)]:
        rebuilt = affine_group(derived_neardomain(g))
        assert rebuilt == g
        iso = identity_s2t_morphism(g)
        assert is_s2t_morphism(iso, rebuilt, g)
        assert len(set(iso.f)) == len(g.group)
        assert len(set(iso.phi)) == g.degree


def test_relabeled_group_roundtrip():
    rot = (1, 2, 3, 4, 5, 6, 7, 8, 0)
    moved = relabel(AFF[9], rot)
    assert (moved.omega0, moved.omega1) == (rot[AFF[9].omega0], rot[AFF[9].omega1])
    assert derived_neardomain(moved).zero == moved.omega0
    rebuilt = affine_group(derived_neardomain(moved))
    assert rebuilt == moved
    assert is_s2t_morphism(identity_s2t_morphism(moved), rebuilt, moved)


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


def _forced(phi, src: S2tGroup, dst: S2tGroup) -> tuple[int, ...]:
    """The member map phi forces: f(p) the dst member that sends
    phi(omega0) and phi(omega1) where phi . p does, found by a scan of dst."""
    s0, s1 = src.omega0, src.omega1
    return tuple(
        next(j for j, q in enumerate(dst.group) if (q[phi[s0]], q[phi[s1]]) == (phi[p[s0]], phi[p[s1]]))
        for p in src.group
    )


def test_generating_set_homomorphism_check_matches_full_tables(zoo):
    # is_s2t_morphism composes no two members: it derives the homomorphism
    # law from intertwining by sharpness. The reference checks every
    # condition of the definition pointwise and f on full tables. First every
    # member map S3 -> S3 with phi the identity, then, on every ordered pair
    # of small zoo groups and every injective phi (those moving a base point
    # included: conjugation by a member intertwines), the trivial map, the
    # forced f and its conjugates by each member of the target (group
    # homomorphisms that fail to intertwine unless the conjugator is the
    # identity), one-entry perturbations of each, and random maps
    g3 = check_s2t(S3, 0, 1)
    t3 = references.composition_table(S3)
    agree = morphisms = homs = 0
    for f in itertools.product(range(6), repeat=6):
        want = references.is_s2t_morphism(f, (0, 1, 2), g3, g3, t3, t3)
        assert is_s2t_morphism(Morphism(f, (0, 1, 2)), g3, g3) == want, f
        agree += 1
        morphisms += want
        homs += references.is_homomorphism(f, t3, t3)
    # S3 has 10 endomorphisms: trivial, 3 onto each order-2 subgroup, 6
    # automorphisms; only the identity intertwines with the identity phi
    assert (agree, morphisms, homs) == (6**6, 1, 10)
    small = [g for name, g in zoo.groups if len(g.group) <= 20]
    rng = random.Random(13)
    intertwined = 0
    for src in small:
        t_src = references.composition_table(src.group)
        for dst in small:
            t_dst = references.composition_table(dst.group)
            e = dst.group.index(tuple(range(dst.degree)))
            for phi in itertools.permutations(range(dst.degree), src.degree):
                forced = _forced(phi, src, dst)
                intertwined += perms.intertwines(Morphism(forced, phi), src.group, dst.group)
                candidates = [(e,) * len(src.group)]
                candidates += [tuple(t_dst[t_dst[c][v]][t_dst[c].index(e)] for v in forced) for c in range(len(dst.group))]
                for f in list(candidates):
                    i = rng.randrange(len(f))
                    candidates.append(f[:i] + ((f[i] + 1 + rng.randrange(len(dst.group) - 1)) % len(dst.group),) + f[i + 1 :])
                candidates += [tuple(rng.randrange(len(dst.group)) for _ in src.group) for _ in range(4)]
                for f in candidates:
                    want = references.is_s2t_morphism(f, phi, src, dst, t_src, t_dst)
                    assert is_s2t_morphism(Morphism(f, phi), src, dst) == want, (f, phi)
                    agree += 1
                    morphisms += want
                    homs += references.is_homomorphism(f, t_src, t_dst)
    assert (agree, morphisms, homs, intertwined) == (6**6 + 34996, 1 + 30, 10 + 3711, 234)


def test_s2t_morphism_check_matches_full_tables_at_q16():
    # the 240-member affine group of GF(16): its 4 endomorphisms (the
    # Frobenius powers) and one-entry perturbations of each against the
    # reference on the full 240 x 240 table
    a16 = affine_group(galois_field(16))
    table = references.composition_table(a16.group)
    endos = enumerate_s2t_morphisms_direct(a16, a16)
    assert len(endos) == 4
    rng = random.Random(16)
    agree = morphisms = 0
    for m in endos:
        candidates = [m.f]
        for _ in range(16):
            i = rng.randrange(240)
            candidates.append(m.f[:i] + ((m.f[i] + 1 + rng.randrange(239)) % 240,) + m.f[i + 1 :])
        for f in candidates:
            want = references.is_s2t_morphism(f, m.phi, a16, a16, table, table)
            assert is_s2t_morphism(Morphism(f, m.phi), a16, a16) == want
            agree += 1
            morphisms += want
    assert (agree, morphisms) == (68, 4)


def test_homomorphism_check_on_an_unvalidated_source_is_false():
    # AGL(1,5) minus one involution keeps the identity and every inverse, so
    # a product leaves the set: no generating set is certified, and the
    # check answers False rather than raising, though the embedding
    # intertwines
    g5 = AFF[5]
    dropped = next(p for p in g5.group if is_involution(p))
    loose = PermSet(5, tuple(p for p in g5.group if p != dropped))
    src = S2tGroup(loose, 5, 0, 1)
    embed = Morphism(tuple(g5.group.index(p) for p in loose), tuple(range(5)))
    assert perms.intertwines(embed, loose, g5.group)
    with pytest.raises(NotAGroup):
        s2t.check_closed(src)
    assert is_s2t_morphism(embed, src, g5) is False
    # the reference has no table for it: a product is not a member
    with pytest.raises(KeyError):
        references.composition_table(loose)


def test_s2t_morphism_check_on_an_unvalidated_target_is_false():
    # the certificate needs dst closed and its members pinned down by their
    # base images; a target lacking either answers False, though each
    # embedding below intertwines
    embed = lift_nd_morphism((0, 1, 2), galois_field(3), galois_field(9))
    g9 = AFF[9].group
    # not closed: aff(gf9) less a member outside the image that is not an
    # involution, so its inverse is left alone and the involutions all stay
    dropped = next(p for k, p in enumerate(g9) if k not in embed.f and not is_involution(p))
    loose = PermSet(9, tuple(p for p in g9 if p != dropped))
    open9 = S2tGroup(loose, 9, 0, 1)
    into_loose = Morphism(tuple(loose.index(g9.members[k]) for k in embed.f), embed.phi)
    with pytest.raises(NotAGroup):
        s2t.check_closed(open9)
    assert base_pair_index(open9) and characteristic(open9) is Characteristic.NOT_TWO
    assert is_s2t_morphism(into_loose, AFF[3], open9) is False
    # closed but not pinned: S3 inside S4, the characteristic planted so that
    # only the base pairs refuse it
    sym4 = closure([(1, 2, 3, 0), (1, 0, 2, 3)])
    unpinned = S2tGroup(sym4, 4, 0, 1)
    unpinned._derived["characteristic"] = Characteristic.NOT_TWO
    into_sym4 = Morphism(tuple(sym4.index(p + (3,)) for p in AFF[3].group), (0, 1, 2))
    assert perms.intertwines(into_sym4, AFF[3].group, sym4)
    t3, t4 = references.composition_table(AFF[3].group), references.composition_table(sym4)
    assert references.is_homomorphism(into_sym4.f, t3, t4)
    s2t.check_closed(unpinned)
    with pytest.raises(InvariantViolation, match="differ on the base points"):
        base_pair_index(unpinned)
    assert is_s2t_morphism(into_sym4, AFF[3], unpinned) is False


def test_s2t_morphism_check_refuses_a_non_injective_point_map():
    # on a 2-transitive source, a phi that intertwines and fixes both base
    # points is injective: its fibres are blocks, and a 2-transitive group
    # has none but the trivial ones. A closed source that is not
    # 2-transitive shows the injectivity of phi as a condition of its own
    z2 = S2tGroup(perm_set([(0, 1, 2, 3), (1, 0, 3, 2)]), 4, 0, 1)
    fold = Morphism((0, 1), (0, 1, 0, 1))
    assert perms.intertwines(fold, z2.group, AFF[2].group)
    s2t.check_closed(z2)
    assert characteristic(z2) is characteristic(AFF[2])
    assert is_s2t_morphism(fold, z2, AFF[2]) is False


def test_closure_certificate_violation_propagates(monkeypatch):
    # only NotAGroup means an unvalidated group; the certificate's own
    # InvariantViolation is a bug and is not turned into False
    src = S2tGroup(AFF[5].group, 5, 0, 1)
    monkeypatch.setattr(perms, "greedy_walk", lambda *args: None)
    with pytest.raises(InvariantViolation, match="generating-set closure certificate"):
        is_s2t_morphism(identity_s2t_morphism(AFF[5]), src, AFF[5])


def test_mixed_characteristic_is_empty():
    assert enumerate_s2t_morphisms(AFF[2], AFF[3]) == ()
    assert enumerate_s2t_morphisms(AFF[3], AFF[4]) == ()
    assert enumerate_s2t_morphisms_direct(AFF[2], AFF[3]) == ()


def _reference_s2t_morphisms(src: S2tGroup, dst: S2tGroup) -> tuple[Morphism, ...]:
    """Brute force over every injective base-point-preserving point map, in
    lexicographic order: each f(p) is forced by two-point interpolation in
    the target (it agrees with phi . p on both base points) and checked at
    every point on the image tuples, up to the first mismatch; a pair that
    passes is confirmed with is_s2t_morphism. Factorial in the degree."""
    n = src.degree
    others = [x for x in range(n) if x not in (src.omega0, src.omega1)]
    targets = [y for y in range(dst.degree) if y not in (dst.omega0, dst.omega1)]
    dst_im = dst.group.members
    pair_index = {(q[dst.omega0], q[dst.omega1]): j for j, q in enumerate(dst_im)}
    src_im = src.group.members
    out = []
    for choice in itertools.permutations(targets, len(others)):
        phi = [0] * n
        phi[src.omega0], phi[src.omega1] = dst.omega0, dst.omega1
        for x, y in zip(others, choice):
            phi[x] = y
        f = []
        for p in src_im:
            j = pair_index.get((phi[p[src.omega0]], phi[p[src.omega1]]))
            if j is None or any(phi[y] != dst_im[j][phi[x]] for x, y in enumerate(p)):
                break
            f.append(j)
        else:
            cand = Morphism(tuple(f), tuple(phi))
            if is_s2t_morphism(cand, src, dst):
                out.append(cand)
    return tuple(out)


def test_direct_search_matches_production_and_reference_on_every_zoo_pair(monkeypatch):
    # all 144 ordered pairs, the Dickson groups and the relabelings included;
    # the search must list the production hom-set in its order, and the
    # factorial reference must find the same morphisms
    groups = [g for _, g in standard_zoo().groups]
    confirmed = []

    def counted(m, src, dst):
        confirmed.append(m)
        return is_s2t_morphism(m, src, dst)

    total = 0
    for src in groups:
        for dst in groups:
            want = enumerate_s2t_morphisms(src, dst)
            assert _reference_s2t_morphisms(src, dst) == want
            monkeypatch.setattr(s2t, "is_s2t_morphism", counted)
            confirmed.clear()
            found = enumerate_s2t_morphisms_direct(src, dst)
            monkeypatch.undo()
            assert found == want
            # the search confirms each pair it lists, and nothing else
            assert confirmed == list(found)
            total += len(found)
    assert total == 61


def test_direct_search_matches_production_on_relabeled_re_based_groups():
    # the inputs of a mixed homset: a native affine group against a copy
    # relabeled by a fixed permutation and re-based away from its moved base
    # points, both ways; on the 56- and 72-member groups phi is total while
    # most members are still unforced
    for nd in (galois_field(8), galois_field(9), dickson_nearfield_9()):
        native = affine_group(nd)
        n = native.degree
        moved = relabel(native, [(5 * x + 3) % n for x in range(n)])
        presented = check_s2t(moved.group, n - 1, 2)
        for src, dst in ((native, presented), (presented, native)):
            found = enumerate_s2t_morphisms_direct(src, dst)
            assert found and set(found) == set(enumerate_s2t_morphisms(src, dst)), (nd, src, dst)
            assert [m.phi for m in found] == sorted(m.phi for m in found)


def _lift_and_conjugate(src: S2tGroup, dst: S2tGroup) -> tuple[Morphism, ...]:
    """The hom-set by the route enumerate_s2t_morphisms once took: each
    morphism phi of the derived neardomains is lifted to their affine groups
    by parameters, (a, b) -> (phi(a), phi(b)), and conjugated back through
    the two rebuild isomorphisms, each interpolated here from its own
    index."""
    if characteristic(src) is not characteristic(dst):
        return ()

    def params(nd):
        grp = affine_group(nd).group
        return {(a, b): grp.index(p) for a, b, p in affine_maps(nd)}

    def rebuild(g):
        at = {(p[g.omega0], p[g.omega1]): i for i, p in enumerate(g.group)}
        return [at[(m[g.omega0], m[g.omega1])] for m in affine_group(derived_neardomain(g)).group]

    nd_s, nd_d = derived_neardomain(src), derived_neardomain(dst)
    p_s, p_d = params(nd_s), params(nd_d)
    k_s_inv, k_d = inverse(tuple(rebuild(src))), rebuild(dst)
    out = []
    for phi in enumerate_nd_morphisms(nd_s, nd_d):
        lifted = [0] * len(p_s)
        for (a, b), i in p_s.items():
            lifted[i] = p_d[(phi[a], phi[b])]
        out.append(Morphism(tuple(k_d[lifted[k_s_inv[i]]] for i in range(len(src.group))), phi))
    return tuple(out)


def test_forced_homs_equal_lift_and_conjugate_on_every_zoo_pair(zoo):
    total = 0
    for (_, src), (_, dst) in itertools.product(zoo.groups, repeat=2):
        found = enumerate_s2t_morphisms(src, dst)
        assert found == _lift_and_conjugate(src, dst)
        total += len(found)
    assert total == 61


def test_production_homs_read_no_rebuild(zoo, monkeypatch):
    # f is forced by phi through the target's base-pair index, so the
    # production hom-set never rebuilds a group
    def refuse(*args, **kwargs):
        raise AssertionError("the production hom-set reached the rebuild")

    for attr in ("affine_group", "lift_nd_morphism"):
        monkeypatch.setattr(s2t, attr, refuse)
    groups = [g for _, g in zoo.groups]
    assert sum(len(enumerate_s2t_morphisms(a, b)) for a in groups for b in groups) == 61


def test_direct_oracle_raises_when_the_definition_disagrees(monkeypatch):
    monkeypatch.setattr(s2t, "is_s2t_morphism", lambda m, src, dst: False)
    with pytest.raises(InvariantViolation):
        enumerate_s2t_morphisms_direct(AFF[9], AFF[9])


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
        assert is_nd_morphism(m.phi, derived_neardomain(AFF[3]), derived_neardomain(AFF[9]))
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
    # the lift checks nothing; a map that forces no member still raises
    with pytest.raises(StructureError, match=r"member \[0, 1, 2\] matches no target member"):
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
                1 for p in g.group if p[g.omega0] == alpha and p[g.omega1] == beta
            )
            assert count == 1
