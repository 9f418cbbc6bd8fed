"""Regular permutation sets with a base point, and their induced loops.

A regular set M on points {0..n-1} contains the identity and, for every
ordered point pair (alpha, beta), exactly one member sending alpha to beta.
Evaluation at the base point is then a bijection members -> points; pulling
the point structure back and forth along it is what this module implements:

  member_product(r, m, k): the unique member agreeing with m * k at the base
  induced_loop(r):         points under (alpha, beta) -> (m_alpha * m_beta)(base)
  loop_to_rps(loop):       the set of left translations, based at the identity

The two constructions invert each other bit-exactly; catcheck verifies this
on the whole zoo.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import InvariantViolation, MissingIdentity, RegularityViolation, StructureError
from .loops import Loop, check_loop, enumerate_loop_morphisms, is_loop_morphism, left_translation
from .perms import Morphism, Perm, PermSet, compose_morphisms, identity_morphism, intertwines, perm_set

RpsMorphism = Morphism


@dataclass(frozen=True, slots=True)
class Rps:
    """Validated regular permutation set; build through check_rps()."""

    members: PermSet
    degree: int
    basepoint: int

    def to_point(self, m: Perm) -> int:
        """Evaluate a member at the base point."""
        if m not in self.members:
            raise ValueError("permutation is not a member of this set")
        return m(self.basepoint)

    def from_point(self, alpha: int) -> Perm:
        """The unique member sending the base point to alpha."""
        return _transport(self)[alpha]


@lru_cache(maxsize=None)
def _transport(r: Rps) -> dict[int, Perm]:
    return {m(r.basepoint): m for m in r.members}


def check_rps(members: PermSet, degree: int, basepoint: int) -> Rps:
    """Validate regularity: identity present, every ordered point pair hit by
    exactly one member."""
    if members.degree != degree:
        raise StructureError(f"members have degree {members.degree}, expected {degree}")
    if not 0 <= basepoint < degree:
        raise StructureError(f"base point {basepoint} out of range for degree {degree}")
    if Perm.identity(degree) not in members:
        raise MissingIdentity("regular set must contain the identity permutation")
    for alpha in range(degree):
        counts = [0] * degree
        for m in members:
            counts[m(alpha)] += 1
        for beta, c in enumerate(counts):
            if c != 1:
                raise RegularityViolation(alpha, beta, c)
    return Rps(members, degree, basepoint)


def with_basepoint(r: Rps, basepoint: int) -> Rps:
    """Same member set, relocated base point."""
    return check_rps(r.members, r.degree, basepoint)


def member_product(r: Rps, m: Perm, k: Perm) -> Perm:
    """The unique member whose base-point image equals (m * k)(base).

    This is the loop product transported onto the members; it agrees with
    m * k at the base point but is generally a different permutation.
    """
    if m not in r.members or k not in r.members:
        raise ValueError("both factors must be members of the set")
    return r.from_point((m * k)(r.basepoint))


@lru_cache(maxsize=None)
def member_loop(r: Rps) -> Loop:
    """The loop on member indices under member_product."""
    ms = r.members.members
    table = tuple(
        tuple(r.members.index(member_product(r, m, k)) for k in ms)
        for m in ms
    )
    # regularity makes this a loop; a violation here is an internal bug
    return check_loop(table, r.members.index(Perm.identity(r.degree)))


@lru_cache(maxsize=None)
def induced_loop(r: Rps) -> Loop:
    """The loop on points: alpha * beta = (m_alpha * m_beta)(base), where
    m_gamma is the member sending the base point to gamma. Identity is the
    base point. This is the object part of the functor onto loops."""
    n = r.degree
    table = tuple(
        tuple((r.from_point(a) * r.from_point(b))(r.basepoint) for b in range(n))
        for a in range(n)
    )
    return check_loop(table, r.basepoint)


def loop_to_rps(loop: Loop) -> Rps:
    """All left translations, based at the loop identity.

    Unique solvability of a * x = b makes the translation rows a regular set;
    check_rps failure here would be an internal bug.
    """
    members = perm_set(left_translation(loop, a) for a in range(loop.order))
    return check_rps(members, loop.order, loop.identity)


def is_rps_morphism(m: Morphism, src: Rps, dst: Rps) -> bool:
    """True iff (f, phi) commutes with every member at every point and phi
    preserves the base point."""
    if not intertwines(m, src.members, dst.members) or m.phi[src.basepoint] != dst.basepoint:
        return False
    # the identity member fixes the base point, so regularity forces its image
    src_e = src.members.index(Perm.identity(src.degree))
    if m.f[src_e] != dst.members.index(Perm.identity(dst.degree)):
        raise InvariantViolation("morphism sends the identity member to the identity", (src_e, m.f[src_e]))
    return True


def _forced_member_map(phi: tuple[int, ...], src: Rps, dst: Rps) -> tuple[int, ...]:
    """The member map that phi forces by target regularity: f(m) is the
    target member whose base-point image is phi(m(base))."""
    return tuple(
        dst.members.index(dst.from_point(phi[p(src.basepoint)]))
        for p in src.members
    )


def characterize_morphism(f: Sequence[int], phi: Sequence[int], src: Rps, dst: Rps) -> bool:
    """Two-condition test: (1) each f(m) agrees with phi . m at the base point,
    and (2) f is a loop morphism between the member loops.

    The contract is that this equals is_rps_morphism on every candidate;
    the test suite checks the agreement, it is never assumed.
    """
    f = tuple(f)
    phi = tuple(phi)
    if phi[src.basepoint] != dst.basepoint:
        raise ValueError("phi must send base point to base point")
    src_ms = src.members.members
    dst_ms = dst.members.members
    cond1 = all(
        dst_ms[f[i]](dst.basepoint) == phi[p(src.basepoint)]
        for i, p in enumerate(src_ms)
    )
    cond2 = is_loop_morphism(f, member_loop(src), member_loop(dst))
    return cond1 and cond2


def lift_loop_morphism(phi: Sequence[int], src: Rps, dst: Rps) -> Morphism:
    """The unique member map making (f, phi) a morphism, given a loop
    morphism phi between the induced loops: f(m) is the target member whose
    base-point image is phi(m(base))."""
    phi = tuple(phi)
    if not is_loop_morphism(phi, induced_loop(src), induced_loop(dst)):
        raise ValueError("phi is not a loop morphism between the induced loops")
    return Morphism(_forced_member_map(phi, src, dst), phi)


def enumerate_rps_morphisms(src: Rps, dst: Rps) -> tuple[Morphism, ...]:
    """Hom-set via lifting every induced-loop morphism (the production path)."""
    return tuple(
        lift_loop_morphism(phi, src, dst)
        for phi in enumerate_loop_morphisms(induced_loop(src), induced_loop(dst))
    )


def based_point_maps(src: Rps, dst: Rps) -> Iterator[tuple[int, ...]]:
    """Every point map sending the source base point to the target's, in
    lexicographic order."""
    choices = [(dst.basepoint,) if x == src.basepoint else range(dst.degree) for x in range(src.degree)]
    return itertools.product(*choices)


def enumerate_rps_morphisms_direct(src: Rps, dst: Rps) -> tuple[Morphism, ...]:
    """Brute-force oracle: try every base-point-preserving point map.

    For each phi the member map is forced by target regularity (f(m) must
    agree with phi . m at the base point), so it suffices to verify the
    forced pair. Independent of the induced-loop reduction; exponential in
    the source degree, intended for desk-scale objects only.
    """
    out = []
    for phi in based_point_maps(src, dst):
        cand = Morphism(_forced_member_map(phi, src, dst), phi)
        if is_rps_morphism(cand, src, dst):
            out.append(cand)
    return tuple(out)


def identity_rps_morphism(r: Rps) -> Morphism:
    return identity_morphism(r.members)


compose_rps_morphisms = compose_morphisms
