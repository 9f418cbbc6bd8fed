"""Finite permutations of {0..n-1} and composition-closure utilities.

Composition is fixed project-wide as the left action: (p * q)(x) == p(q(x)),
so q is applied first. Everything downstream (translation sets, affine maps,
group checks) relies on this orientation; test_perms pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import ClosureSizeExceeded, StructureError

DEFAULT_CLOSURE_CAP = 10**6


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

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.members)

    def __contains__(self, p: Perm) -> bool:
        return p in _member_set(self)

    def index(self, p: Perm) -> int:
        return _index_map(self)[p]


def perm_set(perms: Iterable[Perm]) -> PermSet:
    members = tuple(sorted(set(perms)))
    if not members:
        raise StructureError("permutation set cannot be empty")
    degree = members[0].degree
    if any(p.degree != degree for p in members):
        raise StructureError("permutation set mixes degrees")
    return PermSet(degree, members)


@lru_cache(maxsize=None)
def _member_set(ps: PermSet) -> frozenset[Perm]:
    return frozenset(ps.members)


@lru_cache(maxsize=None)
def _index_map(ps: PermSet) -> dict[Perm, int]:
    return {p: i for i, p in enumerate(ps.members)}


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
    if len(f) != len(src) or any(not 0 <= v < len(dst) for v in f):
        raise ValueError("f is not a total map into the target members")
    if len(phi) != src.degree or any(not 0 <= v < dst.degree for v in phi):
        raise ValueError("phi is not a total map into the target points")
    dst_ms = dst.members
    for p, i in zip(src.members, f):
        q = dst_ms[i].images
        if any(phi[y] != q[phi[x]] for x, y in enumerate(p.images)):
            return False
    return True


def closure(generators: Iterable[Perm], max_size: int = DEFAULT_CLOSURE_CAP) -> PermSet:
    """Smallest set containing the generators that is closed under composition,
    inversion, and contains the identity.

    Worklist breadth-first search; in a finite setting composition closure
    alone already yields inverses, the identity is seeded explicitly.
    Raises ClosureSizeExceeded once the set grows past max_size.
    """
    gens = list(generators)
    if not gens:
        raise StructureError("closure needs at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise StructureError("generators mix degrees")
    seen = {Perm.identity(degree), *gens}
    if len(seen) > max_size:
        raise ClosureSizeExceeded(f"closure exceeded {max_size} elements")
    frontier = list(seen)
    while frontier:
        fresh = []
        for g in gens:
            for h in frontier:
                c = g * h
                if c not in seen:
                    seen.add(c)
                    fresh.append(c)
                    if len(seen) > max_size:
                        raise ClosureSizeExceeded(f"closure exceeded {max_size} elements")
        frontier = fresh
    return perm_set(seen)


def subgroup_failure(members: PermSet) -> str | None:
    """None when members form a subgroup of the symmetric group; otherwise a
    human-readable witness of the first failure found."""
    if Perm.identity(members.degree) not in members:
        return "identity missing"
    for p in members:
        if p.inverse() not in members:
            return f"inverse of {list(p.images)} missing"
    for p in members:
        for q in members:
            if (p * q) not in members:
                return f"product {list(p.images)} * {list(q.images)} missing"
    return None
