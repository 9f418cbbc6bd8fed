import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import algcat.perms as perms_module
from algcat.errors import ResourceLimitExceeded, StructureError
from algcat.perms import Perm, PermSet, closure, perm_set, subgroup_failure

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
    assert Perm((1, 0)).is_involution()
    assert not Perm((0, 1, 2)).is_involution()  # identity excluded
    assert not Perm((1, 2, 0)).is_involution()


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
    ps = perm_set([Perm((1, 0)), Perm((0, 1)), Perm((1, 0))])
    assert ps.members == (Perm((0, 1)), Perm((1, 0)))
    assert len(ps) == 2
    assert Perm((1, 0)) in ps
    assert ps.index(Perm((1, 0))) == 1
    with pytest.raises(StructureError):
        perm_set([])
    with pytest.raises(StructureError):
        perm_set([Perm((0, 1)), Perm((0, 1, 2))])


def test_closure_examples():
    assert closure([Perm((1, 0))]).members == (Perm((0, 1)), Perm((1, 0)))
    rots = closure([Perm((1, 2, 0))])
    assert set(rots) == {Perm((0, 1, 2)), Perm((1, 2, 0)), Perm((2, 0, 1))}
    s3 = closure([Perm((1, 2, 0)), Perm((1, 0, 2))])
    assert len(s3) == 6
    assert list(s3) == sorted(s3.members)


def test_closure_cap(monkeypatch):
    # the closure budget is the table budget: S3 needs 36 entries
    gens = [Perm((1, 2, 0)), Perm((1, 0, 2))]
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
    listed = list(members)
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
    s3 = closure([Perm((1, 2, 0)), Perm((1, 0, 2))])
    assert subgroup_failure(s3) is None
    assert subgroup_failure(perm_set([Perm((1, 0))])) == "identity missing"
    # dropping a 3-cycle leaves its inverse without one
    no_cycle = perm_set([p for p in s3 if p != Perm((1, 2, 0))])
    assert subgroup_failure(no_cycle) == "inverse of [2, 0, 1] missing"
    # dropping an involution keeps inverses; the first missing product in
    # row-major order over the sorted members is named
    no_swap = perm_set([p for p in s3 if p != Perm((0, 2, 1))])
    assert subgroup_failure(no_swap) == "product [1, 0, 2] * [1, 2, 0] missing"
    two_swaps = perm_set([Perm((0, 1, 2)), Perm((0, 2, 1)), Perm((1, 0, 2))])
    assert subgroup_failure(two_swaps) == "product [0, 2, 1] * [1, 0, 2] missing"


def _subsets_of_symmetric_group(n: int):
    """Subsets of S_n built to reach every verdict: raw subsets (mostly no
    identity), identity added, inverse-closed (mostly a missing product),
    generated subgroups, and subgroups with one member dropped."""
    elements = [Perm(xs) for xs in itertools.permutations(range(n))]

    def build(args):
        chosen, mode, drop = args
        members = set(chosen)
        if mode != "raw":
            members.add(Perm.identity(n))
        if mode == "inverse-closed":
            members |= {p.inverse() for p in members}
        if mode in ("group", "group-minus-one"):
            members = set(closure(members))
        if mode == "group-minus-one" and len(members) > 1:
            members.discard(sorted(members)[drop % len(members)])
        return perm_set(members)

    modes = st.sampled_from(["raw", "identity", "inverse-closed", "group", "group-minus-one"])
    return st.tuples(
        st.lists(st.sampled_from(elements), min_size=1, max_size=4), modes, st.integers(0, 23)
    ).map(build)


@given(st.sampled_from([3, 4]).flatmap(_subsets_of_symmetric_group))
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
    gens = [Perm(tuple(xs)) for xs in raw]
    once = closure(gens)
    assert closure(once.members) == once
    assert subgroup_failure(once) is None
    assert Perm.identity(4) in once


def test_perm_set_hash_and_index_contract():
    s3 = closure([Perm((1, 2, 0)), Perm((1, 0, 2))])
    shuffled = perm_set(reversed(s3.members))
    assert shuffled == s3 and hash(shuffled) == hash(s3)
    direct = PermSet(s3.degree, s3.members)
    assert direct == s3 and hash(direct) == hash(s3)
    assert {s3: "x"}[direct] == "x"
    assert [direct.index(p) for p in s3] == list(range(6))
    rotations = closure([Perm((1, 2, 0))])
    assert Perm((1, 0, 2)) not in rotations
    with pytest.raises(KeyError):
        rotations.index(Perm((1, 0, 2)))
    assert Perm((0, 1)) not in rotations
    assert not any(hasattr(v, "cache_info") for v in vars(perms_module).values())


def test_composition_table_of_small_sets():
    s3 = closure([Perm((1, 2, 0)), Perm((1, 0, 2))])
    table = s3.composition_table()
    assert table is s3.composition_table()
    for i, p in enumerate(s3):
        for j, q in enumerate(s3):
            assert s3.members[table[i][j]] == p * q
    assert PermSet(1, (Perm((0,)),)).composition_table() == ((0,),)
