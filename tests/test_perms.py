import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import algcat.perms as perms_module
from algcat import catcheck, loops, s2t
from algcat.errors import ResourceLimitExceeded, StructureError
from algcat.neardomain import galois_field
from algcat.perms import Morphism, PermSet, _right_multiplier, closure, greedy_walk, perm_set, subgroup_failure
from algcat.zoo import standard_zoo
from references import compose, fixed_points, inverse, is_involution, relabeled_table


Z3 = loops.check_loop(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
AFF3 = s2t.affine_group(galois_field(3))


def images_of_degree(n):
    return st.permutations(range(n)).map(tuple)


perms = st.integers(min_value=1, max_value=6).flatmap(images_of_degree)


def same_degree_triple(n_max=6):
    return st.integers(min_value=1, max_value=n_max).flatmap(lambda n: st.tuples(*[images_of_degree(n)] * 3))


def test_composition_is_left_action():
    # Fixed project-wide: (p * q)[x] == p[q[x]], q applied first, and
    # _right_multiplier(q) is p -> p * q
    p, q = (0, 2, 1), (1, 0, 2)
    assert _right_multiplier(q)(p) == compose(p, q) == (2, 0, 1)
    assert _right_multiplier(q)(p)[0] == p[q[0]]


def test_compose():
    assert _right_multiplier((2, 0, 1))((1, 2, 0)) == compose((1, 2, 0), (2, 0, 1)) == (0, 1, 2)
    assert _right_multiplier((1, 0))((1, 0)) == compose((1, 0), (1, 0)) == (0, 1)


@pytest.mark.parametrize("n", range(1, 7))
@given(data=st.data())
def test_right_multiplier_matches_reference_composition(n, data):
    # degree 1 included: itemgetter of one index gives a bare item, so
    # _right_multiplier builds that case apart
    p, q = data.draw(images_of_degree(n)), data.draw(images_of_degree(n))
    assert _right_multiplier(q)(p) == compose(p, q)


def test_inverse():
    assert inverse((0, 1, 2)) == (0, 1, 2)
    assert inverse((1, 2, 0)) == (2, 0, 1)
    assert inverse((1, 0, 3, 4, 2)) == (1, 0, 4, 2, 3)


def test_is_involution():
    assert is_involution((1, 0))
    assert not is_involution((0, 1, 2))  # identity excluded
    assert not is_involution((1, 2, 0))


def test_fixed_points():
    assert fixed_points((0, 1, 2, 3)) == frozenset(range(4))
    assert fixed_points((1, 0)) == frozenset()
    assert fixed_points((0, 2, 1)) == frozenset({0})


def test_perm_set_sorts_and_dedups():
    ps = perm_set([(1, 0), (0, 1), (1, 0)])
    assert ps.members == ((0, 1), (1, 0))
    assert len(ps) == 2
    assert (1, 0) in ps
    assert ps.index((1, 0)) == 1
    with pytest.raises(StructureError):
        perm_set([])
    with pytest.raises(StructureError):
        perm_set([(0, 1), (0, 1, 2)])


def test_perm_set_and_closure_check_members_as_perm_does():
    # the messages of perms._check_images, the first bad member named in the
    # order given: (0, 0), bad too, sorts before (0, 0, 1)
    for bad, message in (
        ((0, 0, 1), "image array [0, 0, 1] is not a bijection of 0..2"),
        ((), "permutation degree must be at least 1"),
    ):
        for build in (perm_set, closure):
            with pytest.raises(StructureError) as set_error:
                build([(1, 0, 2), bad, (0, 0)])
            assert str(set_error.value) == message
    for build, args, message in (
        (perm_set, [], "permutation set cannot be empty"),
        (perm_set, [(0, 1), (0, 1, 2)], "permutation set mixes degrees"),
        (closure, [], "closure needs at least one generator"),
        (closure, [(0, 1), (0, 1, 2)], "generators mix degrees"),
    ):
        with pytest.raises(StructureError) as error:
            build(args)
        assert str(error.value) == message


@pytest.mark.parametrize(
    "pi, message",
    [
        ((0, 0, 1), "image array [0, 0, 1] is not a bijection of 0..2"),
        ((), "permutation degree must be at least 1"),
        ((1, 0), "relabeling degree mismatch"),
        ((1, 0, 3, 2), "relabeling degree mismatch"),
    ],
    ids=["non-bijection", "empty", "too-short", "too-long"],
)
@pytest.mark.parametrize("relabel, structure", [(loops.relabel, Z3), (s2t.relabel, AFF3)], ids=["loop", "s2t"])
def test_relabel_refuses_a_non_bijection_and_a_wrong_degree(relabel, structure, pi, message):
    # both relabel functions check pi as perm_set checks a member, then its
    # degree against the structure's
    with pytest.raises(StructureError) as error:
        relabel(structure, pi)
    assert str(error.value) == message


def test_closure_examples():
    assert closure([(1, 0)]).members == ((0, 1), (1, 0))
    rots = closure([(1, 2, 0)])
    assert set(rots) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    s3 = closure([(1, 2, 0), (1, 0, 2)])
    assert len(s3) == 6
    assert list(s3) == sorted(s3.members)


def test_closure_cap(monkeypatch):
    # the closure budget is the table budget: S3 needs 36 entries
    gens = [(1, 2, 0), (1, 0, 2)]
    monkeypatch.setattr(perms_module, "TABLE_CAP", 36)
    assert len(closure(gens)) == 6
    monkeypatch.setattr(perms_module, "TABLE_CAP", 35)
    with pytest.raises(ResourceLimitExceeded, match="closure reached 6 members"):
        closure(gens)
    with pytest.raises(StructureError):
        closure([])


def _reference_subgroup_failure(members: PermSet) -> str | None:
    """Brute-force oracle: the same three checks in the same order, with
    products formed by references.compose and membership in a plain set."""
    listed = list(members)
    present = set(listed)
    if tuple(range(members.degree)) not in present:
        return "identity missing"
    for p in listed:
        if inverse(p) not in present:
            return f"inverse of {list(p)} missing"
    for p in listed:
        for q in listed:
            if compose(p, q) not in present:
                return f"product {list(p)} * {list(q)} missing"
    return None


def test_subgroup_failure():
    s3 = closure([(1, 2, 0), (1, 0, 2)])
    assert subgroup_failure(s3) is None
    assert subgroup_failure(perm_set([(1, 0)])) == "identity missing"
    # dropping a 3-cycle leaves its inverse without one
    no_cycle = perm_set([p for p in s3 if p != (1, 2, 0)])
    assert subgroup_failure(no_cycle) == "inverse of [2, 0, 1] missing"
    # dropping an involution keeps inverses; the first missing product in
    # row-major order over the sorted members is named
    no_swap = perm_set([p for p in s3 if p != (0, 2, 1)])
    assert subgroup_failure(no_swap) == "product [1, 0, 2] * [1, 2, 0] missing"
    two_swaps = perm_set([(0, 1, 2), (0, 2, 1), (1, 0, 2)])
    assert subgroup_failure(two_swaps) == "product [0, 2, 1] * [1, 0, 2] missing"
    # the rotations plus the last member in sorted order, a reflection that
    # the rotations never reach: the certificate must pick it as a generator
    rotations_and_last = perm_set([(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
    assert subgroup_failure(rotations_and_last) == "product [1, 2, 0] * [2, 1, 0] missing"


def _subsets_of_symmetric_group(n: int):
    """Subsets of S_n built to reach every verdict: raw subsets (mostly no
    identity), identity added, inverse-closed (mostly a missing product),
    generated subgroups, and subgroups with one member dropped."""
    elements = list(itertools.permutations(range(n)))

    def build(args):
        chosen, mode, drop = args
        members = set(chosen)
        if mode != "raw":
            members.add(tuple(range(n)))
        if mode == "inverse-closed":
            members |= {inverse(p) for p in members}
        if mode in ("group", "group-minus-one"):
            members = set(closure(members))
        if mode == "group-minus-one" and len(members) > 1:
            members.discard(sorted(members)[drop % len(members)])
        return perm_set(members)

    modes = st.sampled_from(["raw", "identity", "inverse-closed", "group", "group-minus-one"])
    return st.tuples(
        st.lists(st.sampled_from(elements), min_size=1, max_size=4), modes, st.integers(0, len(elements) - 1)
    ).map(build)


@given(st.sampled_from([3, 4, 5]).flatmap(_subsets_of_symmetric_group))
def test_subgroup_failure_matches_brute_force(members):
    assert subgroup_failure(members) == _reference_subgroup_failure(members)


@given(same_degree_triple())
def test_composition_associative(triple):
    p, q, r = triple
    times = _right_multiplier
    assert times(r)(times(q)(p)) == times(times(r)(q))(p) == compose(p, compose(q, r))


@given(perms)
def test_inverse_laws(p):
    e, p_inv = tuple(range(len(p))), inverse(p)
    assert _right_multiplier(p_inv)(p) == e
    assert _right_multiplier(p)(p_inv) == e
    assert inverse(p_inv) == p
    assert _right_multiplier(e)(p) == _right_multiplier(p)(e) == p


@given(st.lists(st.permutations(range(4)), min_size=1, max_size=3))
def test_closure_idempotent(raw):
    gens = [tuple(xs) for xs in raw]
    once = closure(gens)
    assert closure(once.members) == once
    assert subgroup_failure(once) is None
    assert (0, 1, 2, 3) in once


def test_perm_set_hash_and_index_contract():
    s3 = closure([(1, 2, 0), (1, 0, 2)])
    shuffled = perm_set(reversed(s3.members))
    assert shuffled == s3 and hash(shuffled) == hash(s3)
    direct = PermSet(s3.degree, s3.members)
    assert direct == s3 and hash(direct) == hash(s3)
    assert {s3: "x"}[direct] == "x"
    assert [direct.index(p) for p in s3] == list(range(6))
    rotations = closure([(1, 2, 0)])
    assert (1, 0, 2) not in rotations
    with pytest.raises(KeyError):
        rotations.index((1, 0, 2))
    assert (0, 1) not in rotations
    # perms keeps no cache
    assert not [v for v in vars(perms_module).values() if hasattr(v, "cache_info")]


def test_greedy_walk_of_small_sets():
    s3 = closure([(1, 2, 0), (1, 0, 2)])
    e = (0, 1, 2)
    reached = [e]
    # (0, 2, 1) reaches only itself; (1, 0, 2) then reaches the rest
    assert greedy_walk(s3, _right_multiplier, reached, s3._index) == [(0, 2, 1), (1, 0, 2)]
    assert sorted(reached) == list(s3) and reached[0] == e
    # grown from nothing, the first candidate is a generator too
    reached = []
    assert greedy_walk(s3, _right_multiplier, reached) == [e, (0, 2, 1), (1, 0, 2)]
    assert sorted(reached) == list(s3)
    # the one-member group has no generators, and the walk succeeds
    for n in (1, 3):
        one = PermSet(n, (tuple(range(n)),))
        assert greedy_walk(one, _right_multiplier, [tuple(range(n))], one._index) == []
        assert subgroup_failure(one) is None
    # a product that leaves the member set ends the walk
    rotations = closure([(1, 2, 0)])
    assert greedy_walk(s3, _right_multiplier, [e], rotations._index) is None


def _translation_sets():
    """The translations of every loop of order at most 6 and the member sets
    of every zoo group, each whole and with each one member removed, and
    the one-member group."""
    sets = [perm_set(l.table) for n in range(1, 7) for l in loops.enumerate_loops(n)]
    sets += [g.group for _, g in standard_zoo().groups]
    for whole in list(sets):
        listed = whole.members
        sets += [PermSet(whole.degree, listed[:k] + listed[k + 1 :]) for k in range(len(listed)) if len(listed) > 1]
    return [*sets, PermSet(4, ((0, 1, 2, 3),))]


def test_subgroup_failure_matches_the_reference_on_loops_and_zoo_groups():
    verdicts = set()
    for members in _translation_sets():
        want = _reference_subgroup_failure(members)
        assert subgroup_failure(members) == want, members
        verdicts.add(want.split(" ")[0] if want else want)
    assert verdicts == {None, "identity", "inverse", "product"}


def test_closure_of_generator_choices_is_the_zoo_group():
    # every member, the greedy generators over the members in sorted and in
    # reversed order, and the last two generators beside the first
    for name, g in standard_zoo().groups:
        e = tuple(range(g.degree))
        greedy = greedy_walk(g.group, _right_multiplier, [e])
        backwards = greedy_walk(reversed(g.group.members), _right_multiplier, [e])
        for gens in (g.group.members, greedy, backwards, greedy[:1] + backwards[-2:] + greedy[1:]):
            assert closure(gens) == g.group, (name, gens)


def _reference_forced_morphisms(src: PermSet, dst: PermSet, src_base, dst_base) -> tuple[Morphism, ...]:
    """Every point map fixing the base points, in lexicographic order, with
    its forced member map checked at every member and point."""
    at = {tuple(q[b] for b in dst_base): j for j, q in enumerate(dst)}
    based = dict(zip(src_base, dst_base))
    choices = [(based[x],) if x in based else range(dst.degree) for x in range(src.degree)]
    out = []
    for phi in itertools.product(*choices):
        f = tuple(at.get(tuple(phi[p[b]] for b in src_base)) for p in src)
        if None not in f and all(
            phi[p[x]] == dst.members[j][phi[x]] for p, j in zip(src, f) for x in range(src.degree)
        ):
            out.append(Morphism(f, phi))
    return tuple(out)


def _search_targets():
    zoo = standard_zoo()
    out = []
    for _, r in zoo.rps_objects:
        if r.degree <= 5:
            out += [(r.members, (b,)) for b in range(r.degree)]
    out += [(g.group, (g.omega0, g.omega1)) for _, g in zoo.groups if g.degree <= 5]
    # 42 members on 7 points: phi is total while most members are unforced
    aff7 = s2t.affine_group(galois_field(7))
    return [*out, (aff7.group, (aff7.omega0, aff7.omega1))]


@given(st.data())
def test_forced_morphisms_match_the_definition_on_arbitrary_sources(data):
    # the zoo's sources are regular sets and sharply 2-transitive groups, on
    # which the propagation has slack; a source of a few arbitrary members
    # needs every step of it
    dst, dst_base = data.draw(st.sampled_from(_search_targets()))
    n = data.draw(st.integers(min_value=len(dst_base), max_value=5))
    raw = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    src = perm_set(tuple(p) for p in raw)
    src_base = tuple(range(len(dst_base)))
    want = _reference_forced_morphisms(src, dst, src_base, dst_base)
    assert perms_module.forced_morphisms(src, dst, src_base, dst_base) == want


def test_forced_morphisms_test_each_member_once_phi_is_total():
    # from aff(gf5) into itself phi is total after the propagation has
    # forced 10 of the 20 members, x -> 4x not among them; with the images of
    # 2 and 3 under x -> 4x swapped the member still has a base-pair image,
    # so only the final intertwining test refuses the identity point map
    aff5 = s2t.affine_group(galois_field(5)).group
    swapped = [(0, 4, 2, 3, 1) if p == (0, 4, 3, 2, 1) else p for p in aff5]
    src = PermSet(5, tuple(sorted(swapped)))
    assert perms_module.forced_morphisms(aff5, aff5, (0, 1), (0, 1)) == (perms_module.identity_morphism(aff5),)
    assert _reference_forced_morphisms(src, aff5, (0, 1), (0, 1)) == ()
    assert perms_module.forced_morphisms(src, aff5, (0, 1), (0, 1)) == ()


def test_composites_and_relabelings_match_the_references():
    # the composites of maps (catcheck's) and of morphisms, each a gather,
    # on every pair of maps of degree 1 to 3, inner into the outer's domain;
    # both relabel functions on every relabeling of the loops of order <= 4
    # and of the zoo groups of degree <= 4
    for n, m in itertools.product(range(1, 4), repeat=2):
        inner_maps = list(itertools.product(range(m), repeat=n))
        for outer, inner in itertools.product(itertools.product(range(3), repeat=m), inner_maps):
            assert catcheck._compose_maps(outer, inner) == compose(outer, inner)
            composite = perms_module.compose_morphisms(Morphism(outer, outer[::-1]), Morphism(inner, inner[::-1]))
            assert composite == Morphism(compose(outer, inner), compose(outer[::-1], inner[::-1]))
    for loop in [l for n in range(1, 5) for l in loops.enumerate_loops(n)]:
        for pi in itertools.permutations(range(loop.order)):
            moved = loops.relabel(loop, pi)
            assert moved.table == relabeled_table(loop.table, pi, inverse(pi), loop.order), (loop, pi)
            assert moved.identity == pi[loop.identity]
    for _, g in standard_zoo().groups:
        if g.degree <= 4:
            for pi in itertools.permutations(range(g.degree)):
                moved = s2t.relabel(g, pi)
                assert moved.group == perm_set(compose(compose(pi, p), inverse(pi)) for p in g.group), (g, pi)
                assert (moved.omega0, moved.omega1) == (pi[g.omega0], pi[g.omega1])
