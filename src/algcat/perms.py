"""Finite permutations of {0..n-1} and composition-closure utilities.

Composition is fixed project-wide as the left action: (p * q)(x) == p(q(x)),
so q is applied first. Everything downstream (translation sets, affine maps,
group checks) relies on this orientation; test_perms pins it.

A PermSet derives its integer index data once per object: the member index
(image tuple -> position) and its hash are stored at construction, and the
member composition table (table[i][j] is the index of members[i] *
members[j]) is built on first request and kept. The table is exact: every
product is composed from the image tuples and looked up in the member index,
so a set that is not closed under composition raises NotAGroup instead of
yielding a table. subgroup_failure certifies closure by building that table,
so each group is composed exactly once and every later reader (group checks,
morphism checks, the affine composition law) reuses the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import NotAGroup, ResourceLimitExceeded, StructureError

# most entries a composition table may hold, and so (its square root) most
# members a closure may reach; the largest bundled group, the affine group of
# GF(16), needs 57,600
TABLE_CAP = 10**6


@dataclass(frozen=True, slots=True, order=True)
class Perm:
    """A permutation stored as its image tuple: images[x] is where x goes."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n < 1:
            raise StructureError("permutation degree must be at least 1")
        if sorted(self.images) != list(range(n)):
            raise StructureError(f"image array {list(self.images)} is not a bijection of 0..{n - 1}")

    @staticmethod
    def identity(n: int) -> Perm:
        return Perm(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        if not 0 <= x < len(self.images):
            raise ValueError(f"point {x} out of range for degree {len(self.images)}")
        return self.images[x]

    def __mul__(self, other: Perm) -> Perm:
        """Composite self after other: (self * other)(x) == self(other(x))."""
        if len(self.images) != len(other.images):
            raise ValueError("cannot compose permutations of different degree")
        return Perm(tuple(self.images[i] for i in other.images))

    def inverse(self) -> Perm:
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def is_involution(self) -> bool:
        """Order exactly two: squares to the identity without being it."""
        return not self.is_identity() and (self * self).is_identity()

    def fixed_points(self) -> frozenset[int]:
        return frozenset(i for i, j in enumerate(self.images) if i == j)


@dataclass(frozen=True, slots=True)
class PermSet:
    """A duplicate-free collection of equal-degree permutations.

    Members are kept sorted by image array, so equality of two PermSets is
    plain tuple equality and iteration order is deterministic. Build through
    perm_set(); direct construction skips validation.
    """

    degree: int
    members: tuple[Perm, ...]
    _index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _table: tuple[tuple[int, ...], ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {p.images: i for i, p in enumerate(self.members)})
        object.__setattr__(self, "_hash", hash((self.degree, self.members)))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.members)

    def __contains__(self, p: Perm) -> bool:
        return p.images in self._index

    def index(self, p: Perm) -> int:
        return self._index[p.images]

    def composition_table(self) -> tuple[tuple[int, ...], ...]:
        """table[i][j] is the index of members[i] * members[j], built on the
        first call by composing image tuples and kept. Raises NotAGroup,
        naming the factors of the first product in row-major order that is
        not a member, and ResourceLimitExceeded, before building any row,
        when the table would hold more than TABLE_CAP entries."""
        if self._table is None:
            size = len(self.members)
            if size * size > TABLE_CAP:
                raise ResourceLimitExceeded(
                    f"composition table of {size} members needs {size * size} entries, over the cap of {TABLE_CAP}"
                )
            get = self._index.get
            images = [p.images for p in self.members]
            # compose[j](a) is the image tuple of a * members[j]; itemgetter
            # of a single index returns the bare item, hence degree 1 apart
            compose = [itemgetter(*b) if len(b) > 1 else lambda a, b=b: (a[b[0]],) for b in images]
            rows = []
            for a in images:
                row = tuple([get(c(a)) for c in compose])
                if None in row:
                    b = images[row.index(None)]
                    raise NotAGroup(f"product {list(a)} * {list(b)} missing")
                rows.append(row)
            object.__setattr__(self, "_table", tuple(rows))
        return self._table


def perm_set(perms: Iterable[Perm]) -> PermSet:
    members = tuple(sorted(set(perms)))
    if not members:
        raise StructureError("permutation set cannot be empty")
    degree = members[0].degree
    if any(p.degree != degree for p in members):
        raise StructureError("permutation set mixes degrees")
    return PermSet(degree, members)


@dataclass(frozen=True, slots=True)
class Morphism:
    """A morphism of permutation sets: f maps source member indices (sorted
    order) to target member indices, phi maps points. Unchecked container;
    the is_*_morphism predicates validate."""

    f: tuple[int, ...]
    phi: tuple[int, ...]


def identity_morphism(members: PermSet) -> Morphism:
    return Morphism(tuple(range(len(members))), tuple(range(members.degree)))


def compose_morphisms(outer: Morphism, inner: Morphism) -> Morphism:
    """Composite inner-then-outer, index maps juggled accordingly."""
    return Morphism(
        tuple(outer.f[v] for v in inner.f),
        tuple(outer.phi[v] for v in inner.phi),
    )


def intertwines(m: Morphism, src: PermSet, dst: PermSet) -> bool:
    """True iff phi(p(x)) == f(p)(phi(x)) for every source member p and
    point x. Raises ValueError unless f and phi are total maps into dst."""
    f, phi = m.f, m.phi
    size = len(dst)
    if len(f) != len(src) or any(not 0 <= v < size for v in f):
        raise ValueError("f is not a total map into the target members")
    if len(phi) != src.degree or any(not 0 <= v < dst.degree for v in phi):
        raise ValueError("phi is not a total map into the target points")
    dst_ms = dst.members
    for p, i in zip(src.members, f):
        q = dst_ms[i].images
        if any(phi[y] != q[phi[x]] for x, y in enumerate(p.images)):
            return False
    return True


def closure(generators: Iterable[Perm]) -> PermSet:
    """Smallest set containing the generators that is closed under composition,
    inversion, and contains the identity.

    Worklist breadth-first search from the identity; in a finite setting
    composition closure alone already yields inverses. Raises
    ResourceLimitExceeded as soon as the set's composition table would hold
    more than TABLE_CAP entries, the test composition_table applies, so an
    over-budget group is refused after about sqrt(TABLE_CAP) members.
    """
    gens = list(generators)
    if not gens:
        raise StructureError("closure needs at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise StructureError("generators mix degrees")
    seen = {Perm.identity(degree)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for g in gens:
            for h in frontier:
                c = g * h
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
                    if len(seen) ** 2 > TABLE_CAP:
                        raise ResourceLimitExceeded(
                            f"closure reached {len(seen)} members, so its composition table is over the cap of {TABLE_CAP} entries"
                        )
        frontier = fresh
    return perm_set(seen)


def subgroup_failure(members: PermSet) -> str | None:
    """None when members form a subgroup of the symmetric group; otherwise a
    human-readable witness of the first failure found: the identity, then
    each member's inverse, then every ordered product in row-major order.

    Closure is certified by members.composition_table(), which composes every
    ordered pair exactly and looks the product up in the member index; on
    success the table stays on the set for later readers."""
    if Perm.identity(members.degree) not in members:
        return "identity missing"
    for p in members:
        if p.inverse() not in members:
            return f"inverse of {list(p.images)} missing"
    try:
        members.composition_table()
    except NotAGroup as exc:
        return str(exc)
    return None
