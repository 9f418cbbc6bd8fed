"""Sharply 2-transitive permutation groups and their derived neardomains.

A sharply 2-transitive group on n >= 2 points moves every ordered pair of
distinct points to every other by exactly one element, so |G| = n(n-1) and
an element is pinned down by its images on any two distinct points. For a
group it is enough that the pair (0, 1) goes to every pair exactly once, and
that is all check_s2t counts. Two base points (omega0, omega1) play the roles
of zero and one.

The derived structure rests on the involutions J (never empty here):

  involutions      the members that square to the identity without being
                   it
  characteristic   all involutions fixed-point-free -> TWO; all with exactly
                   one fixed point -> NOT_TWO; anything else is corrupt input
  translations     char two: J plus the identity; otherwise J composed with
                   the unique involution fixing omega0. A regular set either
                   way, validated as such.

derived_neardomain builds the neardomain on the points a row at a time:
alpha + beta = a(beta), a the translation with a(omega0) = alpha, and
alpha * beta = g(beta), g the omega0-stabilizer element with
g(omega1) = alpha (products with omega0 are omega0); it re-validates. The
addition is read as the induced loop of the translations (rps.induced_loop),
the tuple check_rps already built, so the additive loop is by construction
the loop the translation set induces: the loops <-> rps functor.
Going the other way, affine_group builds the maps x -> a + b*x of a
neardomain, a sharply 2-transitive group, and certifies its closed-form
composition law for every pair of maps. Every map is a translation after a
multiplication, so it checks the law only on the (2n - 2) * n(n - 1) pairs
whose left factor is one of those (1,152 of the 5,184 pairs at n = 9), each
by the composite's images at the base points, with the reassociation
coefficients read off the table the neardomain keeps (see
neardomain.coefficients). Each direction inverts the other on the nose:
derived_neardomain(affine_group(nd)) equals nd, and
affine_group(derived_neardomain(g)) equals g, the same members with zero
and one at (omega0, omega1), since each affine map composes a translation
of g with a member of g fixing omega0 (Kerby, On infinite sharply multiply
transitive groups, 1974). catcheck turns each of these statements into an
exhaustive check.

Hom-sets: morphisms are pairs (f, phi), f a group homomorphism and phi an
injective base-point-preserving point map intertwining the actions; between
groups of different characteristic the hom-set is empty by definition. So
phi fixes f: f(p) is the one target member agreeing with phi . p on the
base points, read off the target's base_pair_index ((p(omega0), p(omega1))
-> index of p). lift_nd_morphism and enumerate_s2t_morphisms (phi each
morphism of the derived neardomains, the production path) both force f so
and check nothing; the catcheck families confirm what they produce.
enumerate_s2t_morphisms_direct runs the definitional search
perms.forced_morphisms on the groups themselves, an independent oracle at
every degree in the zoo. is_s2t_morphism, the definition, checks that phi
intertwines the actions, |G| gathers, and derives the homomorphism law from
that by sharpness: it composes no two members.

No certificate here reads a composition table: a certified group is
closed, and two of its members agreeing on two points are equal, so a
product is compared by its images at the base points, never looked up in a
|G|^2 table.

Each derived value above is a function of one object, so it is computed on
the first request and kept on that object (check_closed, base_pair_index,
involutions, characteristic, translations and derived_neardomain on the
group, the coefficient table and affine_group on the neardomain). check_s2t
validates in full on every call; nothing outlives the objects a caller holds.
"""

from __future__ import annotations

import enum
import itertools
from operator import eq, itemgetter
from typing import Callable, Sequence

from .errors import (
    DegenerateOmega,
    DichotomyViolation,
    InvariantViolation,
    NotAGroup,
    NotSharplyTransitive,
    StructureError,
)
from .neardomain import Neardomain, check_neardomain, coefficients, enumerate_nd_morphisms
from .perms import (
    Morphism,
    PermSet,
    _is_point,
    _relabeling,
    _right_multiplier,
    check_group,
    forced_morphisms,
    identity_morphism,
    intertwines,
    perm_set,
    subgroup_failure,
)
from .rps import Rps, check_rps, induced_loop
from .values import Value, cached_hash, per_object


class Characteristic(enum.Enum):
    TWO = "2"
    NOT_TWO = "not 2"


class S2tGroup(Value):
    """Validated sharply 2-transitive group; build through check_s2t().

    _derived holds the values the @per_object functions below compute from
    this one group, set on first request and kept for the group's life."""

    __slots__ = ("group", "degree", "omega0", "omega1", "_derived", "_hash")
    _fields = ("group", "degree", "omega0", "omega1")
    __hash__ = cached_hash

    def __init__(self, group: PermSet, degree: int, omega0: int, omega1: int):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "omega0", omega0)
        object.__setattr__(self, "omega1", omega1)
        object.__setattr__(self, "_derived", {})


def check_s2t(group: PermSet, omega0: int, omega1: int) -> S2tGroup:
    """Validate the base points, distinct points of 0..n-1 and exact ints
    (see perms._is_point; a bool or a float equal to a point raises
    DegenerateOmega), then the group axioms, then sharp
    2-transitivity on the single source pair (0, 1): every ordered target
    pair must be reached by exactly one member, else NotSharplyTransitive
    names (0, 1), the first failing target in lexicographic order and its
    count.

    One source pair suffices for a group (Dixon and Mortimer, Permutation
    Groups, 1996): if h(0) = a1 and h(1) = a2, then g -> gh is a bijection of
    the group, and g moves (a1, a2) to a target exactly when gh moves (0, 1)
    to it. So a scan of all n(n-1) source pairs fails first at (0, 1), with
    the same witness, or not at all.

    A sharp group passes one test, in C: it has n(n-1) members and their
    images of (0, 1) are distinct. Each image is a pair of distinct points,
    and there are n(n-1) of those, so n(n-1) distinct images hit each once
    (pigeonhole); conversely a group hitting each once has n(n-1) members
    with distinct images. So the test holds exactly when the count below
    finds nothing, and only a group that fails it runs the count.

    The group axioms are checked by check_closed(g), which certifies closure
    from a generating set through perms.check_group and builds no
    composition table; the group keeps that certificate, which
    is_s2t_morphism reads.

    Returns the group it built and validated."""
    n = group.degree
    if n < 2:
        raise DegenerateOmega("need at least 2 points")
    if not _is_point(omega0, n) or not _is_point(omega1, n) or omega0 == omega1:
        raise DegenerateOmega(f"base points ({omega0}, {omega1}) invalid for degree {n}")
    g = S2tGroup(group, n, omega0, omega1)
    check_closed(g)
    size = len(group)
    if size == n * (n - 1) and len(set(map(itemgetter(0, 1), group.members))) == size:
        return g
    seen: dict[tuple[int, int], int] = {}
    for p in group:
        key = p[:2]
        seen[key] = seen.get(key, 0) + 1
    # targets generated rather than listed: a listing of a few members on many
    # points fails at the second target, and a list of all n(n-1) pairs would
    # cost memory quadratic in n before that
    for target in itertools.permutations(range(n), 2):
        count = seen.get(target, 0)
        if count != 1:
            raise NotSharplyTransitive((0, 1), target, count)
    raise InvariantViolation("check_s2t's order and distinct-images test", size)


@per_object
def check_closed(g: S2tGroup) -> None:
    """Certify the group axioms of g.group through perms.check_group, once
    per group: check_s2t calls it first, so a validated group carries the
    certificate. Raises NotAGroup when g.group is not a group (only for an
    S2tGroup built without check_s2t)."""
    check_group(g.group)


@per_object
def base_pair_index(g: S2tGroup) -> dict[tuple[int, int], int]:
    """(p(omega0), p(omega1)) -> index of p, over the members of g: sharp
    2-transitivity pins a member down by its two base images."""
    at = {(p[g.omega0], p[g.omega1]): i for i, p in enumerate(g.group.members)}
    if len(at) != len(g.group):
        raise InvariantViolation("members of a sharply 2-transitive group differ on the base points", len(at))
    return at


def forced_member_map(phi: Sequence[int], src: S2tGroup, dst: S2tGroup) -> tuple[int, ...]:
    """The member map phi forces: f(p) is the dst member agreeing with phi . p
    on the base points, read off base_pair_index(dst); else StructureError."""
    at, s0, s1 = base_pair_index(dst), src.omega0, src.omega1
    f = tuple(at.get((phi[p[s0]], phi[p[s1]])) for p in src.group.members)
    if None in f:
        p = src.group.members[f.index(None)]
        raise StructureError(f"member {list(p)} matches no target member on the base points")
    return f


@per_object
def involutions(g: S2tGroup) -> PermSet:
    """All elements of order exactly two: the members p other than the
    identity with p * p the identity, each square one gather of p through
    itself. Never empty in a valid group."""
    e = tuple(range(g.degree))
    # a sub-tuple of the group's members, so sorted and validated already
    return PermSet(g.degree, tuple(p for p in g.group if p != e and _right_multiplier(p)(p) == e))


@per_object
def characteristic(g: S2tGroup) -> Characteristic:
    points = range(g.degree)
    counts = {sum(map(eq, p, points)) for p in involutions(g)}
    if counts == {0}:
        return Characteristic.TWO
    if counts == {1}:
        return Characteristic.NOT_TWO
    raise DichotomyViolation(f"involution fixed-point counts {sorted(counts)}, expected all 0 or all 1")


def base_involution(g: S2tGroup) -> tuple[int, ...]:
    """The involution fixing omega0; only defined away from characteristic
    two. Its uniqueness holds in every valid group and is re-verified here."""
    if characteristic(g) is Characteristic.TWO:
        raise ValueError("characteristic two groups have no involution with a fixed point")
    fixing = [p for p in involutions(g) if p[g.omega0] == g.omega0]
    if len(fixing) != 1:
        raise StructureError(f"expected exactly one involution fixing {g.omega0}, found {len(fixing)}")
    return fixing[0]


@per_object
def translations(g: S2tGroup) -> Rps:
    """The involution-derived regular set encoding addition, based at omega0.

    Characteristic two: the involutions plus the identity. Otherwise: every
    involution composed (on the right) with the base involution, one
    composition each. check_rps must pass; failure would be corrupt input or
    an internal bug.
    """
    J = involutions(g)
    # the identity sorts first, and right multiplication by a member is
    # injective: both lists are distinct bijections of the group's degree
    if characteristic(g) is Characteristic.TWO:
        members = (tuple(range(g.degree)), *J)
    else:
        members = tuple(sorted(map(_right_multiplier(base_involution(g)), J)))
    return check_rps(PermSet(g.degree, members), g.degree, g.omega0)


@per_object
def derived_neardomain(g: S2tGroup) -> Neardomain:
    """The neardomain on the points, zero = omega0 and one = omega1, a row
    at a time. The addition table is the induced loop of the translations,
    which check_rps built: row alpha is the translation sending omega0 to
    alpha. Multiplication row alpha != omega0 is the member at
    (omega0, alpha) in base_pair_index. Revalidated through
    check_neardomain; the object part of the functor onto neardomains."""
    n, zero = g.degree, g.omega0
    add = induced_loop(translations(g)).table
    at, members = base_pair_index(g), g.group.members
    mul = tuple((zero,) * n if a == zero else members[at[(zero, a)]] for a in range(n))
    return check_neardomain(add, mul, zero, g.omega1)


def is_s2t_morphism(m: Morphism, src: S2tGroup, dst: S2tGroup) -> bool:
    """True iff characteristics match, f is a group homomorphism, and phi is
    an injective base-point-preserving map intertwining the actions.

    No two members are composed: the homomorphism law follows from the
    intertwining check, |G| gathers, by sharpness (two members of a sharply
    2-transitive group that agree on two points are equal; Dixon and
    Mortimer, Permutation Groups, 1996). For members p, q of src,

        phi . pq == f(p) . phi . q == f(p) f(q) . phi,

    and phi . pq == f(pq) . phi, so f(pq) and f(p) f(q) agree on the image
    of phi, which holds both base points of dst. Both are members of dst,
    so they are equal. That needs src closed (pq is a member, so f(pq) is
    defined), dst closed (f(p) f(q) is a member) and the members of dst
    pinned down by their base images: the closure certificate and
    base_pair_index that a validated group carries. An unvalidated group
    that fails any of the three gives False; the closure certificate's own
    InvariantViolation still propagates.

    A true result is checked to have injective f (forced by phi injective
    and the intertwining; a failure means a source listing one permutation
    twice, or an implementation bug).
    """
    f, phi = m.f, m.phi
    if not intertwines(m, src.group, dst.group):
        return False
    try:
        check_closed(src)
        check_closed(dst)
    except NotAGroup:
        return False
    try:
        base_pair_index(dst)
    except InvariantViolation:
        return False
    if characteristic(src) is not characteristic(dst):
        return False
    if len(set(phi)) != len(phi):
        return False
    if phi[src.omega0] != dst.omega0 or phi[src.omega1] != dst.omega1:
        return False
    if len(set(f)) != len(f):
        raise InvariantViolation("morphisms of sharply 2-transitive groups have injective f", f)
    return True


def image_inclusion_witness(m: Morphism, src: S2tGroup, dst: S2tGroup) -> str | None:
    """None when f maps involutions into involutions and translations into
    translations; otherwise a witness description. Expects a valid morphism."""
    dst_ms = dst.group.members
    inv_dst = involutions(dst)
    for p in involutions(src):
        q = dst_ms[m.f[src.group.index(p)]]
        if q not in inv_dst:
            return f"involution {list(p)} maps to non-involution {list(q)}"
    trans_dst = translations(dst).members
    for p in translations(src).members:
        q = dst_ms[m.f[src.group.index(p)]]
        if q not in trans_dst:
            return f"translation {list(p)} maps to non-translation {list(q)}"
    return None


def affine_maps(nd: Neardomain) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """All maps x -> a + b * x with b nonzero, as (a, b, image tuple),
    ordered by (a, b)."""
    n, add = nd.order, nd.add
    # x -> a + b*x is add[a] after mul[b]
    times = [_right_multiplier(row) for row in nd.mul]
    return tuple((a, b, times[b](add[a])) for a in range(n) for b in range(n) if b != nd.zero)


@per_object
def affine_group(nd: Neardomain) -> S2tGroup:
    """The affine maps as a sharply 2-transitive group on the carrier, based
    at (zero, one).

    Construction re-runs check_s2t, and then certifies the closed-form
    composition law

        (a, b) . (k, l) == (a + b*k, d * b * l),  d the reassociation
                                                  coefficient of (a, b*k)

    for every pair of maps, while checking it on the (2n - 2) * n(n - 1)
    pairs whose left factor is a translation (b == one) or a multiplication
    (a == zero): 1,152 of the 5,184 pairs at n = 9, 7,200 of 57,600 at
    n = 16. Each pair is checked by the images of the composite at
    (zero, one), compared with those of the map the law names. That is
    exact: check_s2t has certified the maps a sharply 2-transitive group, so
    the composite is a member, and two members agreeing on two points are
    equal. Before the pairs, three unit facts are checked for every y:
    zero + y == y, one * y == y and d(zero, y) == one. Every d is read off
    the coefficient table the neardomain keeps: check_neardomain built it,
    and a Neardomain built directly solves it here, on first request.

    Why these pairs suffice. Write F(a, b) for the map x -> a + b*x. By the
    first two unit facts, F(a, one) . F(zero, b) sends x to
    a + one*(zero + b*x) == a + b*x, so F(a, b) == F(a, one) . F(zero, b).
    The multiplication case gives F(zero, b) . F(k, l) ==
    F(zero + b*k, d(zero, b*k) * b*l), which is F(b*k, b*l) by the unit
    facts. The translation case then gives, again with one * y == y,

        F(a, b) . F(k, l) == F(a, one) . F(b*k, b*l)
                          == F(a + b*k, d(a, b*k) * b*l),

    the law at (a, b), (k, l). The multiplication and translation cases are
    equalities of members because both sides are members of a certified
    sharply 2-transitive group that agree at the two base points.
    """
    maps = affine_maps(nd)
    members = perm_set(p for _, _, p in maps)
    if len(members) != len(maps):
        raise InvariantViolation("distinct parameters give distinct affine maps", len(maps))
    grp = check_s2t(members, nd.zero, nd.one)
    n, zero, one = nd.order, nd.zero, nd.one
    add, mul = nd.add, nd.mul
    for y in range(n):
        if add[zero][y] != y:
            raise InvariantViolation("zero + y == y", y)
    for y in range(n):
        if mul[one][y] != y:
            raise InvariantViolation("one * y == y", y)
    coeff = coefficients(nd)
    for y in range(n):
        if coeff[zero][y] != one:
            raise InvariantViolation("d(zero, y) == one", y)
    base = {(a, b): (p[zero], p[one]) for a, b, p in maps}
    for a, b, p in maps:
        if b != one and a != zero:
            continue
        add_a, mul_b, coeff_a = add[a], mul[b], coeff[a]
        for k, l, q in maps:
            bk = mul_b[k]
            if base.get((add_a[bk], mul[coeff_a[bk]][mul_b[l]])) != (p[q[zero]], p[q[one]]):
                raise InvariantViolation("affine composition law", ((a, b), (k, l)))
    return grp


def lift_nd_morphism(phi: Sequence[int], src: Neardomain, dst: Neardomain) -> Morphism:
    """The induced morphism between affine groups, f forced by phi: the map
    x -> a + b*x, base images (a, a + b), goes to the one with parameters
    (phi(a), phi(b)). The morphism part of the functor from neardomains; it
    checks nothing, and functor-laws/ndom->s2t confirms each image."""
    phi = tuple(phi)
    return Morphism(forced_member_map(phi, affine_group(src), affine_group(dst)), phi)


def enumerate_s2t_morphisms(
    src: S2tGroup, dst: S2tGroup, nd_hom: Callable | None = None
) -> tuple[Morphism, ...]:
    """Hom-set via the derived neardomains (the production path): for each
    neardomain morphism phi that nd_hom (by default enumerate_nd_morphisms)
    lists, the pair (f, phi) with f forced by phi through the base-pair index
    of dst. Mixed characteristics give the empty hom-set outright."""
    if characteristic(src) is not characteristic(dst):
        return ()
    homs = (nd_hom or enumerate_nd_morphisms)(derived_neardomain(src), derived_neardomain(dst))
    return tuple(Morphism(forced_member_map(phi, src, dst), phi) for phi in homs)


def enumerate_s2t_morphisms_direct(src: S2tGroup, dst: S2tGroup) -> tuple[Morphism, ...]:
    """Definitional oracle: empty for mixed characteristics, as
    enumerate_s2t_morphisms is; otherwise perms.forced_morphisms from both
    base points, each pair confirmed by is_s2t_morphism (a disagreement
    raises InvariantViolation). Never reads a neardomain."""
    if characteristic(src) is not characteristic(dst):
        return ()
    found = forced_morphisms(src.group, dst.group, (src.omega0, src.omega1), (dst.omega0, dst.omega1))
    for m in found:
        if not is_s2t_morphism(m, src, dst):
            raise InvariantViolation("is_s2t_morphism accepts every pair the search finds", m)
    return found


def translations_form_subgroup(g: S2tGroup) -> bool:
    return subgroup_failure(translations(g).members) is None


def involution_products_form_subgroup(g: S2tGroup) -> bool:
    J = involutions(g)
    times = [_right_multiplier(q) for q in J]
    return subgroup_failure(perm_set(t(p) for p in J for t in times)) is None


def relabel(g: S2tGroup, pi: Sequence[int]) -> S2tGroup:
    """Conjugate the group by the image tuple pi, a bijection of its points
    (else StructureError), and move the base points along."""
    # pi * p * pi^-1: p composed with pi on the left, then gathered
    # through pi^-1
    at_inv = _relabeling(pi, g.degree)
    members = perm_set(at_inv(_right_multiplier(p)(pi)) for p in g.group)
    return check_s2t(members, pi[g.omega0], pi[g.omega1])


def identity_s2t_morphism(g: S2tGroup) -> Morphism:
    return identity_morphism(g.group)
