import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import algcat.perms as perms_module
from algcat import zoo as zoo_module
from algcat.catcheck import run_all
from algcat.errors import ResourceLimitExceeded, StructureError
from algcat.perms import Morphism, Perm, PermSet, closure, perm_set, subgroup_failure
from algcat.zoo import standard_zoo
from references import is_involution

perms = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(range(n)).map(lambda xs: Perm(tuple(xs)))
)


def same_degree_pair(n_max=6):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.tuples(
            *[st.permutations(range(n)).map(lambda xs: Perm(tuple(xs)))] * 3
        )
    )


def test_composition_is_left_action():
    # Fixed project-wide: (p * q)(x) == p(q(x)), q applied first.
    p, q = Perm((0, 2, 1)), Perm((1, 0, 2))
    assert (p * q).images == (2, 0, 1)
    assert (p * q)(0) == p(q(0))


def test_apply():
    assert Perm.identity(3)(2) == 2
    assert Perm((1, 2, 0))(0) == 1
    assert Perm((1, 0, 3, 4, 2))(2) == 3
    with pytest.raises(ValueError):
        Perm((1, 0))(2)


def test_compose():
    assert Perm((1, 2, 0)) * Perm((2, 0, 1)) == Perm.identity(3)
    assert Perm((1, 0)) * Perm((1, 0)) == Perm.identity(2)
    with pytest.raises(ValueError):
        Perm((0, 1)) * Perm((0, 1, 2))


def test_inverse():
    assert Perm((0, 1, 2)).inverse() == Perm((0, 1, 2))
    assert Perm((1, 2, 0)).inverse() == Perm((2, 0, 1))
    assert Perm((1, 0, 3, 4, 2)).inverse() == Perm((1, 0, 4, 2, 3))


def test_is_involution():
    assert is_involution((1, 0))
    assert not is_involution((0, 1, 2))  # identity excluded
    assert not is_involution((1, 2, 0))


def test_fixed_points():
    assert Perm.identity(4).fixed_points() == frozenset(range(4))
    assert Perm((1, 0)).fixed_points() == frozenset()
    assert Perm((0, 2, 1)).fixed_points() == frozenset({0})


def test_perm_validation():
    with pytest.raises(StructureError):
        Perm((0, 0, 1))
    with pytest.raises(StructureError):
        Perm(())
    with pytest.raises(StructureError):
        Perm((1, 2))


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
    # the messages Perm raises, the first bad member named in the order given:
    # (0, 0), bad too, sorts before (0, 0, 1)
    for bad, message in (
        ((0, 0, 1), "image array [0, 0, 1] is not a bijection of 0..2"),
        ((), "permutation degree must be at least 1"),
    ):
        with pytest.raises(StructureError) as perm_error:
            Perm(bad)
        assert str(perm_error.value) == message
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
    products formed by Perm.__mul__ and membership in a plain set."""
    listed = [Perm(p) for p in members]
    present = set(listed)
    if Perm.identity(members.degree) not in present:
        return "identity missing"
    for p in listed:
        if p.inverse() not in present:
            return f"inverse of {list(p.images)} missing"
    for p in listed:
        for q in listed:
            if p * q not in present:
                return f"product {list(p.images)} * {list(q.images)} missing"
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
            members |= {Perm(p).inverse().images for p in members}
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


@given(same_degree_pair())
def test_composition_associative(triple):
    p, q, r = triple
    assert (p * q) * r == p * (q * r)


@given(perms)
def test_inverse_laws(p):
    e = Perm.identity(p.degree)
    assert p * p.inverse() == e
    assert p.inverse() * p == e
    assert p.inverse().inverse() == p
    assert p * e == e * p == p


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


def test_composition_table_of_small_sets():
    s3 = closure([(1, 2, 0), (1, 0, 2)])
    table = s3.composition_table()
    # built on each call, not kept
    assert table == s3.composition_table() and table is not s3.composition_table()
    for i, p in enumerate(s3):
        for j, q in enumerate(s3):
            assert s3.members[table[i][j]] == (Perm(p) * Perm(q)).images
    assert PermSet(1, ((0,),)).composition_table() == ((0,),)


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
    return out


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


def test_internal_paths_build_no_perm(monkeypatch):
    # members are image tuples on every internal path: a fresh zoo builds only
    # its three relabeling arguments and their inverses, and the battery none
    built = [0]
    init = Perm.__init__

    def counting(self, images):
        built[0] += 1
        init(self, images)

    monkeypatch.setattr(Perm, "__init__", counting)
    fresh = zoo_module.standard_zoo.__wrapped__()
    assert built[0] == 6
    built[0] = 0
    assert all(v.passed for v in run_all(fresh))
    assert built[0] == 0
