"""Sharply 2-transitive permutation groups and their derived neardomains.

A sharply 2-transitive group on n >= 2 points moves every ordered pair of
distinct points to every other by exactly one element, so |G| = n(n-1) and
an element is pinned down by its images on any two distinct points. For a
group it is enough that the pair (0, 1) goes to every pair exactly once, and
that is all check_s2t counts. Two base points (omega0, omega1) play the roles
of zero and one.

The derived structure rests on the involutions J (never empty here):

  characteristic   all involutions fixed-point-free -> TWO; all with exactly
                   one fixed point -> NOT_TWO; anything else is corrupt input
  translations     char two: J plus the identity; otherwise J composed with
                   the unique involution fixing omega0. A regular set either
                   way, validated as such.
  point_add        alpha + beta = a(beta), a the translation with
                   a(omega0) = alpha
  point_mul        alpha * beta = g(beta), g the omega0-stabilizer element
                   with g(omega1) = alpha; products with omega0 are omega0

point_add and point_mul are the per-cell reference definitions.
derived_neardomain builds the same tables row by row from one translation
set and one stabilizer table, and must re-validate; going the
other way, affine_group builds the maps x -> a + b*x of a neardomain, which
form a sharply 2-transitive group. One direction inverts the other on the
nose, the composite the other way around is matched back to the original
group by canonical_isomorphism (two-point interpolation). catcheck turns
each of these statements into an exhaustive check.

Hom-sets: morphisms are pairs (f, phi), f a group homomorphism and phi an
injective base-point-preserving point map intertwining the actions; between
groups of different characteristic the hom-set is empty by definition.
enumerate_s2t_morphisms routes through the derived neardomains, while
enumerate_s2t_morphisms_direct brute-forces point maps (kept as an
independent oracle for small degrees).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .errors import (
    DegenerateOmega,
    DichotomyViolation,
    InvariantViolation,
    NotAGroup,
    NotSharplyTransitive,
    StructureError,
)
from .neardomain import Neardomain, check_neardomain, d_coeff, enumerate_nd_morphisms, is_nd_morphism
from .perms import (
    Morphism,
    Perm,
    PermSet,
    identity_morphism,
    intertwines,
    perm_set,
    subgroup_failure,
)
from .rps import Rps, check_rps


class Characteristic(enum.Enum):
    TWO = "2"
    NOT_TWO = "not 2"


@dataclass(frozen=True, slots=True)
class S2tGroup:
    """Validated sharply 2-transitive group; build through check_s2t()."""

    group: PermSet
    degree: int
    omega0: int
    omega1: int
    # set by affine_group only: (a, b) -> index of the member x -> a + b * x
    affine_params: dict[tuple[int, int], int] | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class AffineMap:
    """x -> a + b * x over a neardomain, with its permutation realization."""

    a: int
    b: int
    perm: Perm


def check_s2t(group: PermSet, omega0: int, omega1: int) -> S2tGroup:
    """Validate the base points, then the group axioms, then sharp
    2-transitivity on the single source pair (0, 1): every ordered target
    pair must be reached by exactly one member, else NotSharplyTransitive
    names (0, 1), the first failing target in lexicographic order and its
    count.

    One source pair suffices for a group (Dixon and Mortimer, Permutation
    Groups, 1996): if h(0) = a1 and h(1) = a2, then g -> gh is a bijection of
    the group, and g moves (a1, a2) to a target exactly when gh moves (0, 1)
    to it. So a scan of all n(n-1) source pairs fails first at (0, 1), with
    the same witness, or not at all.

    The group axioms go through subgroup_failure, which certifies closure by
    building the member composition table; the validated group keeps it, so
    affine_group, is_s2t_morphism and canonical_isomorphism read that table
    instead of composing the members again."""
    n = group.degree
    if n < 2:
        raise DegenerateOmega("need at least 2 points")
    if not 0 <= omega0 < n or not 0 <= omega1 < n or omega0 == omega1:
        raise DegenerateOmega(f"base points ({omega0}, {omega1}) invalid for degree {n}")
    witness = subgroup_failure(group)
    if witness is not None:
        raise NotAGroup(witness)
    seen: dict[tuple[int, int], int] = {}
    for g in group:
        key = g.images[:2]
        seen[key] = seen.get(key, 0) + 1
    # targets generated rather than listed: a listing of a few members on many
    # points fails at the second target, and a list of all n(n-1) pairs would
    # cost memory quadratic in n before that
    for target in itertools.permutations(range(n), 2):
        count = seen.get(target, 0)
        if count != 1:
            raise NotSharplyTransitive((0, 1), target, count)
    return S2tGroup(group, n, omega0, omega1)


@lru_cache(maxsize=None)
def involutions(g: S2tGroup) -> PermSet:
    """All elements of order exactly two, read off the diagonal of the
    composition table. Never empty in a valid group."""
    table = g.group.composition_table()
    e = g.group.index(Perm.identity(g.degree))
    return perm_set(p for i, p in enumerate(g.group) if i != e and table[i][i] == e)


@lru_cache(maxsize=None)
def characteristic(g: S2tGroup) -> Characteristic:
    counts = {len(p.fixed_points()) for p in involutions(g)}
    if counts == {0}:
        return Characteristic.TWO
    if counts == {1}:
        return Characteristic.NOT_TWO
    raise DichotomyViolation(f"involution fixed-point counts {sorted(counts)}, expected all 0 or all 1")


def base_involution(g: S2tGroup) -> Perm:
    """The involution fixing omega0; only defined away from characteristic two.

    Uniqueness holds for every valid group, but it is re-verified per object
    here rather than assumed.
    """
    if characteristic(g) is Characteristic.TWO:
        raise ValueError("characteristic two groups have no involution with a fixed point")
    fixing = [p for p in involutions(g) if p(g.omega0) == g.omega0]
    if len(fixing) != 1:
        raise StructureError(f"expected exactly one involution fixing {g.omega0}, found {len(fixing)}")
    return fixing[0]


@lru_cache(maxsize=None)
def translations(g: S2tGroup) -> Rps:
    """The involution-derived regular set encoding addition, based at omega0.

    Characteristic two: the involutions plus the identity. Otherwise: every
    involution composed (on the right) with the base involution. check_rps
    must pass; failure would be corrupt input or an internal bug.
    """
    J = involutions(g)
    if characteristic(g) is Characteristic.TWO:
        members = perm_set([Perm.identity(g.degree), *J])
    else:
        grp = g.group
        column = grp.index(base_involution(g))
        table = grp.composition_table()
        members = perm_set(grp.members[table[grp.index(j)][column]] for j in J)
    return check_rps(members, g.degree, g.omega0)


def _stabilizer_action(g: S2tGroup) -> dict[int, Perm]:
    """omega1-image -> element, over the stabilizer of omega0.

    Sharp 2-transitivity makes the stabilizer regular on the remaining
    points; checked on every call.
    """
    stab = [p for p in g.group if p(g.omega0) == g.omega0]
    table = {p(g.omega1): p for p in stab}
    if len(stab) != g.degree - 1 or set(table) != set(range(g.degree)) - {g.omega0}:
        raise InvariantViolation("stabilizer of omega0 is regular on the other points", sorted(table))
    return table


def point_add(g: S2tGroup, alpha: int, beta: int) -> int:
    """alpha + beta via the translation sending omega0 to alpha: the
    reference definition of one cell of the derived addition."""
    return translations(g).from_point(alpha)(beta)


def point_mul(g: S2tGroup, alpha: int, beta: int) -> int:
    """alpha * beta via the omega0-stabilizer element sending omega1 to alpha;
    any product with omega0 is omega0. The reference definition of one cell
    of the derived multiplication; derives the stabilizer table per call."""
    if alpha == g.omega0 or beta == g.omega0:
        return g.omega0
    return _stabilizer_action(g)[alpha](beta)


@lru_cache(maxsize=None)
def derived_neardomain(g: S2tGroup) -> Neardomain:
    """The neardomain on the points, zero = omega0 and one = omega1: the
    tables of point_add and point_mul, built a row at a time from one
    translation set and one stabilizer table. Row alpha of the addition is
    the translation sending omega0 to alpha; row alpha != omega0 of the
    multiplication is the stabilizer element sending omega1 to alpha, which
    fixes omega0 as point_mul requires.

    Revalidated through check_neardomain on every construction; this is the
    object part of the functor onto neardomains.
    """
    n, zero = g.degree, g.omega0
    trans = translations(g)
    stab = _stabilizer_action(g)
    add = tuple(trans.from_point(a).images for a in range(n))
    mul = tuple((zero,) * n if a == zero else stab[a].images for a in range(n))
    return check_neardomain(add, mul, zero, g.omega1)


def is_s2t_morphism(m: Morphism, src: S2tGroup, dst: S2tGroup) -> bool:
    """True iff characteristics match, f is a group homomorphism (checked on
    the member composition tables), and phi is an injective
    base-point-preserving map intertwining the actions.

    A true result is checked to have injective f (forced by phi injective
    plus sharp transitivity; a failure is an implementation bug).
    """
    f, phi = m.f, m.phi
    if not intertwines(m, src.group, dst.group):
        return False
    if characteristic(src) is not characteristic(dst):
        return False
    if len(set(phi)) != len(phi):
        return False
    if phi[src.omega0] != dst.omega0 or phi[src.omega1] != dst.omega1:
        return False
    t_src = src.group.composition_table()
    t_dst = dst.group.composition_table()
    for i, row in enumerate(t_src):
        image_row = t_dst[f[i]]
        if any(f[k] != image_row[f[j]] for j, k in enumerate(row)):
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
            return f"involution {list(p.images)} maps to non-involution {list(q.images)}"
    trans_dst = translations(dst).members
    for p in translations(src).members:
        q = dst_ms[m.f[src.group.index(p)]]
        if q not in trans_dst:
            return f"translation {list(p.images)} maps to non-translation {list(q.images)}"
    return None


def derived_nd_morphism(m: Morphism, src: S2tGroup, dst: S2tGroup) -> tuple[int, ...]:
    """The point map of a valid morphism, re-checked as a neardomain morphism
    between the derived structures (a failure here is a bug, the point map of
    a valid morphism always qualifies)."""
    phi = m.phi
    if not is_nd_morphism(phi, derived_neardomain(src), derived_neardomain(dst)):
        raise InvariantViolation("point map of a group morphism is a neardomain morphism", phi)
    return phi


def affine_maps(nd: Neardomain) -> tuple[AffineMap, ...]:
    """All maps x -> a + b * x with b nonzero, ordered by (a, b)."""
    n = nd.order
    out = []
    for a in range(n):
        for b in range(n):
            if b == nd.zero:
                continue
            images = tuple(nd.add[a][nd.mul[b][x]] for x in range(n))
            out.append(AffineMap(a, b, Perm(images)))
    return tuple(out)


@lru_cache(maxsize=None)
def affine_group(nd: Neardomain) -> S2tGroup:
    """The affine maps as a sharply 2-transitive group on the carrier, based
    at (zero, one), carrying its parameter -> member index table.

    Construction re-runs check_s2t, and the closed-form composition law

        (a, b) . (k, l) == (a + b*k, d * b * l),  d the reassociation
                                                  coefficient of (a, b*k)

    is checked for every pair of maps against the exact composition table.
    """
    maps = affine_maps(nd)
    if len({am.perm for am in maps}) != len(maps):
        raise InvariantViolation("distinct parameters give distinct affine maps", len(maps))
    grp = check_s2t(perm_set(am.perm for am in maps), nd.zero, nd.one)
    params = {(am.a, am.b): grp.group.index(am.perm) for am in maps}
    table = grp.group.composition_table()
    add, mul = nd.add, nd.mul
    coeff = [[d_coeff(nd, a, c) for c in range(nd.order)] for a in range(nd.order)]
    for (a, b), i in params.items():
        row = table[i]
        for (k, l), j in params.items():
            bk = mul[b][k]
            if row[j] != params[(add[a][bk], mul[coeff[a][bk]][mul[b][l]])]:
                raise InvariantViolation("affine composition law", ((a, b), (k, l)))
    return S2tGroup(grp.group, grp.degree, grp.omega0, grp.omega1, params)


def lift_nd_morphism(phi: Sequence[int], src: Neardomain, dst: Neardomain) -> Morphism:
    """The induced morphism between affine groups: the map with parameters
    (a, b) goes to the one with parameters (phi(a), phi(b)). This is the
    morphism part of the functor from neardomains."""
    phi = tuple(phi)
    if not is_nd_morphism(phi, src, dst):
        raise ValueError("phi is not a neardomain morphism")
    src_params = affine_group(src).affine_params
    dst_params = affine_group(dst).affine_params
    f = [0] * len(src_params)
    for (a, b), i in src_params.items():
        f[i] = dst_params[(phi[a], phi[b])]
    return Morphism(tuple(f), phi)


def _base_pair_index(g: S2tGroup) -> dict[tuple[int, int], int]:
    """(p(omega0), p(omega1)) -> index of p; sharp 2-transitivity makes the
    base images determine the member."""
    return {(p(g.omega0), p(g.omega1)): i for i, p in enumerate(g.group.members)}


@lru_cache(maxsize=None)
def canonical_isomorphism(g: S2tGroup) -> Morphism:
    """The isomorphism from the rebuilt group (affine maps of the derived
    neardomain) back onto g, solved by two-point interpolation: each rebuilt
    member is matched with the unique element of g agreeing with it on both
    base points. Validity, bijectivity, and invertibility are all verified
    before returning."""
    rebuilt = affine_group(derived_neardomain(g))
    pair_index = _base_pair_index(g)
    for m in rebuilt.group:
        key = (m(g.omega0), m(g.omega1))
        if key not in pair_index:
            raise StructureError(f"rebuilt member {list(m.images)} matches no group element on the base points")
    f = tuple(pair_index[(m(g.omega0), m(g.omega1))] for m in rebuilt.group)
    if sorted(f) != list(range(len(f))):
        raise StructureError("two-point interpolation is not bijective")
    iso = Morphism(f, tuple(range(g.degree)))
    if not is_s2t_morphism(iso, rebuilt, g):
        raise StructureError("interpolated map is not a morphism")
    inverse = Morphism(Perm(f).inverse().images, tuple(range(g.degree)))
    if not is_s2t_morphism(inverse, g, rebuilt):
        raise StructureError("interpolated map is not invertible as a morphism")
    return iso


def enumerate_s2t_morphisms(src: S2tGroup, dst: S2tGroup) -> tuple[Morphism, ...]:
    """Hom-set via the derived neardomains (the production path): each
    neardomain morphism is lifted to the affine groups and conjugated back
    through the canonical isomorphisms. Mixed characteristics give the empty
    hom-set outright."""
    if characteristic(src) is not characteristic(dst):
        return ()
    nd_s, nd_d = derived_neardomain(src), derived_neardomain(dst)
    k_s, k_d = canonical_isomorphism(src), canonical_isomorphism(dst)
    k_s_inv = Perm(k_s.f).inverse().images
    out = []
    for phi in enumerate_nd_morphisms(nd_s, nd_d):
        lifted = lift_nd_morphism(phi, nd_s, nd_d)
        f = tuple(k_d.f[lifted.f[k_s_inv[i]]] for i in range(len(src.group)))
        out.append(Morphism(f, phi))
    return tuple(out)


def enumerate_s2t_morphisms_direct(src: S2tGroup, dst: S2tGroup) -> tuple[Morphism, ...]:
    """Brute-force oracle: every injective base-point-preserving point map is
    tried; f is forced by two-point interpolation in the target (each f(p)
    must agree with phi . p on both base points), then the pair is verified
    in full. Independent of the derived-neardomain reduction; factorial in
    the degree, intended for degree <= 4."""
    n, m = src.degree, dst.degree
    others = [x for x in range(n) if x not in (src.omega0, src.omega1)]
    targets = [y for y in range(m) if y not in (dst.omega0, dst.omega1)]
    pair_index = _base_pair_index(dst)
    out = []
    for choice in itertools.permutations(targets, len(others)):
        phi_l = [0] * n
        phi_l[src.omega0] = dst.omega0
        phi_l[src.omega1] = dst.omega1
        for pos, v in zip(others, choice):
            phi_l[pos] = v
        phi = tuple(phi_l)
        keys = [(phi[p(src.omega0)], phi[p(src.omega1)]) for p in src.group]
        if all(key in pair_index for key in keys):
            cand = Morphism(tuple(pair_index[key] for key in keys), phi)
            if is_s2t_morphism(cand, src, dst):
                out.append(cand)
    return tuple(out)


def translations_form_subgroup(g: S2tGroup) -> bool:
    return subgroup_failure(translations(g).members) is None


def involution_products_form_subgroup(g: S2tGroup) -> bool:
    grp = g.group
    rows = [grp.index(p) for p in involutions(g)]
    table = grp.composition_table()
    products = perm_set(grp.members[table[i][j]] for i in rows for j in rows)
    return subgroup_failure(products) is None


def relabel(g: S2tGroup, pi: Perm) -> S2tGroup:
    """Conjugate the whole group by pi and move the base points along."""
    if pi.degree != g.degree:
        raise StructureError("relabeling degree mismatch")
    pi_inv = pi.inverse()
    members = perm_set(pi * p * pi_inv for p in g.group)
    return check_s2t(members, pi(g.omega0), pi(g.omega1))


def identity_s2t_morphism(g: S2tGroup) -> Morphism:
    return identity_morphism(g.group)
