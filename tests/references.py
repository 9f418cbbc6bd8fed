"""Reference definitions that only the tests read: each states a notion
plainly, for tests to compare the package's own computations against."""

from algcat.loops import Loop, table_homomorphisms
from algcat.perms import Perm, PermSet
from algcat.rps import Rps, check_rps


def loops_isomorphic(a: Loop, b: Loop) -> tuple[int, ...] | None:
    """First bijective morphism a -> b in lexicographic order, or None."""
    if a.order != b.order:
        return None
    homs = table_homomorphisms((a.table,), (b.table,), {a.identity: b.identity})
    return next((f for f in homs if len(set(f)) == a.order), None)


def is_involution(p: Perm) -> bool:
    """Order exactly two: squares to the identity without being it."""
    return not p.is_identity() and (p * p).is_identity()


def with_basepoint(r: Rps, basepoint: int) -> Rps:
    """Same member set, relocated base point."""
    return check_rps(r.members, r.degree, basepoint)


def to_point(r: Rps, m: Perm) -> int:
    """Evaluate a member of r at the base point."""
    if m not in r.members:
        raise ValueError("permutation is not a member of this set")
    return m(r.basepoint)


def composition_table(members: PermSet) -> list[list[int]]:
    """table[i][j] is the index of members[i] * members[j], by Perm.__mul__
    and PermSet.index; KeyError when a product is not a member."""
    return [[members.index(p * q) for q in members] for p in members]


def is_homomorphism(f, t_src, t_dst) -> bool:
    """f(p * q) == f(p) * f(q) at every pair, on full composition tables."""
    return all(f[k] == t_dst[f[i]][f[j]] for i, row in enumerate(t_src) for j, k in enumerate(row))


def involution_fixed_points(g) -> set[int]:
    """The fixed-point counts of the involutions of a group, {0} in
    characteristic two and {1} otherwise."""
    return {len(p.fixed_points()) for p in g.group if is_involution(p)}


def is_s2t_morphism(f, phi, src, dst, t_src, t_dst) -> bool:
    """The morphism definition of sharply 2-transitive groups, stated
    plainly: phi injective and fixing the base points, phi(p(x)) ==
    f(p)(phi(x)) at every member p and point x, equal sets of involution
    fixed-point counts (the characteristic), and f a homomorphism on the
    full tables t_src and t_dst of the two groups."""
    dst_ms = dst.group.members
    return (
        len(set(phi)) == len(phi)
        and (phi[src.omega0], phi[src.omega1]) == (dst.omega0, dst.omega1)
        and all(phi[y] == dst_ms[f[i]].images[phi[x]] for i, p in enumerate(src.group) for x, y in enumerate(p.images))
        and involution_fixed_points(src) == involution_fixed_points(dst)
        and is_homomorphism(f, t_src, t_dst)
    )
