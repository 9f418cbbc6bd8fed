"""Regular permutation sets with a base point, and their induced loops.

A regular set M on points {0..n-1} contains the identity and, for every
ordered point pair (alpha, beta), exactly one member sending alpha to beta.
Evaluation at the base point is then a bijection members -> points; pulling
the point structure back and forth along it is what this module implements:

  member_loop(r):     members under (m, k) -> the unique member agreeing
                      with m * k at the base
  induced_loop(r):    points under (alpha, beta) -> (m_alpha * m_beta)(base)
  loop_to_rps(loop):  the set of left translations, based at the identity;
                      these are the rows of the table, read as members

induced_loop and loop_to_rps invert each other bit-exactly; catcheck verifies this
on the whole zoo.

Members are image tuples (see perms), so a member is its own row: check_rps
stores the bijection as two integer tuples, member index -> base-point image
and its inverse (perms._inverse), point -> member index (forced by
regularity), builds both loops from them once and stores them too; member
products and forced member maps are lookups in the tuples.

enumerate_rps_morphisms lifts the induced-loop morphisms; the oracle
enumerate_rps_morphisms_direct runs perms.forced_morphisms on the members.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .errors import InvariantViolation, MissingIdentity, RegularityViolation, StructureError
from .loops import Loop, enumerate_loop_morphisms, is_loop_morphism
from .perms import (
    Morphism,
    PermSet,
    _all_bijections,
    _inverse,
    _is_point,
    _right_multiplier,
    forced_morphisms,
    identity_morphism,
    intertwines,
    perm_set,
)
from .values import Value, cached_hash


class Rps(Value):
    """Validated regular permutation set; build through check_rps().

    Compared, hashed and shown by members, degree and base point; the other
    fields are derived from those. base_images maps member index ->
    base-point image and member_at is its inverse, point -> member index;
    loop is the induced loop on points and member_loop the loop on member
    indices."""

    __slots__ = ("members", "degree", "basepoint", "base_images", "member_at", "loop", "member_loop", "_hash")
    _fields = ("members", "degree", "basepoint")
    __hash__ = cached_hash

    def __init__(
        self,
        members: PermSet,
        degree: int,
        basepoint: int,
        base_images: tuple[int, ...],
        member_at: tuple[int, ...],
        loop: Loop,
        member_loop: Loop,
    ):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(self, "base_images", base_images)
        object.__setattr__(self, "member_at", member_at)
        object.__setattr__(self, "loop", loop)
        object.__setattr__(self, "member_loop", member_loop)

    def from_point(self, alpha: int) -> tuple[int, ...]:
        """The unique member sending the base point to alpha."""
        if not _is_point(alpha, self.degree):
            raise ValueError(f"point {alpha} out of range for degree {self.degree}")
        return self.members.members[self.member_at[alpha]]


def check_rps(members: PermSet, degree: int, basepoint: int) -> Rps:
    """Validate regularity: identity present, every ordered point pair hit by
    exactly one member. Then store the evaluation bijection and the two
    loops it carries (see induced_loop and member_loop); each is O(n^2),
    like the regularity check. degree must equal the members' degree and
    basepoint be a point of 0..degree-1, both exact ints (see
    perms._is_point): a bool or a float equal to one is refused.

    A regular set passes one length and one set test per point alpha, in C:
    the images m(alpha), one per member, number n and hold every point. n
    images covering n points hit each once, and a set hitting each
    (alpha, beta) once has n members, so the test holds exactly when the
    count below finds nothing. Only a set that fails it runs the count,
    point by point, which names the first (alpha, beta) in lexicographic
    order hit by other than one member as RegularityViolation.

    The loops are read off with gathers, no step per cell: the base
    images are one gather over the members, the induced loop's rows one
    gather of the members through member_at, and each member's row of the
    member loop two gathers."""
    if type(degree) is not int or members.degree != degree:
        raise StructureError(f"members have degree {members.degree}, expected {degree}")
    if not _is_point(basepoint, degree):
        raise StructureError(f"base point {basepoint} out of range for degree {degree}")
    identity = tuple(range(degree))
    if identity not in members:
        raise MissingIdentity("regular set must contain the identity permutation")
    ms = members.members
    if not _all_bijections(zip(*ms), degree, typed=True):
        for alpha in range(degree):
            counts = [0] * degree
            for m in ms:
                counts[m[alpha]] += 1
            for beta, c in enumerate(counts):
                if c != 1:
                    raise RegularityViolation(alpha, beta, c)
        raise InvariantViolation("check_rps's point-column test", degree)
    base_images = tuple(map(itemgetter(basepoint), ms))
    member_at = _inverse(base_images)
    # row alpha of the induced loop is m_alpha itself, since
    # m_beta(base) == beta; member m times member k is the member at point
    # m(k(base)), so row m of the member loop is member_at gathered through
    # m gathered through base_images. Regularity makes both tables loops, so
    # neither is checked again; the test suite checks each against check_loop.
    induced = Loop(degree, _right_multiplier(member_at)(ms), basepoint)
    at_base = _right_multiplier(base_images)
    rows = tuple([_right_multiplier(at_base(m))(member_at) for m in ms])
    on_members = Loop(degree, rows, members.index(identity))
    return Rps(members, degree, basepoint, base_images, member_at, induced, on_members)


def member_loop(r: Rps) -> Loop:
    """The loop on member indices: m * k is the member at point m(k(base)),
    the one agreeing with the composite at the base. Built once by check_rps
    and stored on r."""
    return r.member_loop


def induced_loop(r: Rps) -> Loop:
    """The loop on points: alpha * beta = (m_alpha * m_beta)(base), where
    m_gamma is the member sending the base point to gamma. Identity is the
    base point. This is the object part of the functor onto loops; built
    once by check_rps and stored on r."""
    return r.loop


def loop_to_rps(loop: Loop) -> Rps:
    """All left translations, based at the loop identity: the rows of the
    table, since row a is x -> a * x.

    Unique solvability of a * x = b makes the translation rows a regular set;
    check_rps failure here would be an internal bug.
    """
    return check_rps(perm_set(loop.table), loop.order, loop.identity)


def is_rps_morphism(m: Morphism, src: Rps, dst: Rps) -> bool:
    """True iff (f, phi) commutes with every member at every point and phi
    preserves the base point."""
    if not intertwines(m, src.members, dst.members) or m.phi[src.basepoint] != dst.basepoint:
        return False
    # the identity member fixes the base point, so regularity forces its
    # image; check_rps stores each identity index as its member loop identity
    src_e = src.member_loop.identity
    if m.f[src_e] != dst.member_loop.identity:
        raise InvariantViolation("morphism sends the identity member to the identity", (src_e, m.f[src_e]))
    return True


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
        dst_ms[f[i]][dst.basepoint] == phi[p[src.basepoint]]
        for i, p in enumerate(src_ms)
    )
    cond2 = is_loop_morphism(f, member_loop(src), member_loop(dst))
    return cond1 and cond2


def lift_loop_morphism(phi: Sequence[int], src: Rps, dst: Rps) -> Morphism:
    """f forced by phi: f(m) is the target member whose base-point image is
    phi(m(base)); for a loop morphism phi between the induced loops, (f, phi)
    is the unique morphism over it. Checks nothing: enumerate_rps_morphisms
    lifts only the maps the loop hom search found."""
    phi = tuple(phi)
    return Morphism(tuple(dst.member_at[phi[x]] for x in src.base_images), phi)


def enumerate_rps_morphisms(src: Rps, dst: Rps, loop_hom: Callable | None = None) -> tuple[Morphism, ...]:
    """Hom-set via lifting every induced-loop morphism that loop_hom (by
    default enumerate_loop_morphisms) lists (the production path)."""
    homs = (loop_hom or enumerate_loop_morphisms)(induced_loop(src), induced_loop(dst))
    return tuple(lift_loop_morphism(phi, src, dst) for phi in homs)


def based_point_maps(src: Rps, dst: Rps) -> Iterator[tuple[int, ...]]:
    """Every point map sending the source base point to the target's, in
    lexicographic order."""
    choices = [(dst.basepoint,) if x == src.basepoint else range(dst.degree) for x in range(src.degree)]
    return itertools.product(*choices)


def enumerate_rps_morphisms_direct(src: Rps, dst: Rps) -> tuple[Morphism, ...]:
    """Definitional oracle: perms.forced_morphisms from the base point,
    each pair confirmed by is_rps_morphism (a disagreement raises
    InvariantViolation). Never reads a loop."""
    found = forced_morphisms(src.members, dst.members, (src.basepoint,), (dst.basepoint,))
    for m in found:
        if not is_rps_morphism(m, src, dst):
            raise InvariantViolation("is_rps_morphism accepts every pair the search finds", m)
    return found


def identity_rps_morphism(r: Rps) -> Morphism:
    return identity_morphism(r.members)
