"""Reference definitions that only the tests read: each states a notion
plainly, for tests to compare the package's own computations against."""

from algcat.loops import Loop, table_homomorphisms
from algcat.perms import Perm
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
