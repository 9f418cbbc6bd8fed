"""Finite permutations of {0..n-1} and composition-closure utilities.

A permutation is its image tuple: images[x] is where x goes. Composition is
fixed project-wide as the left action on image tuples: p * q is the tuple
whose x-th entry is p[q[x]], so q is applied first, and
_right_multiplier(q) is the map p -> p * q that every algorithm composes
through, composites and relabelings included. Everything downstream relies
on this orientation; test_perms pins it.

This module is the one place that decides what a point is. A point of
0..n-1 is an exact int in range: type(x) is int, so a bool or a float equal
to a point is none. Every validator, constant, morphism candidate and
relabeling of the package asks one of five tests: _is_point (one value),
_all_points (the rows of a table), _total_map (a map of 0..n-1 into
0..m-1), _all_bijections (rows that each hold every point once) and
_check_images (one permutation, named when it fails); inverses are read
through _inverse and relabelings checked and applied through _relabeling.
The type test is one C call over all the entries a test reads, never a
Python step per entry, and skipped on the columns of rows that passed it.
A PermSet's members are its sorted image tuples, and it stores its member
index (image tuple -> position) and its hash.

greedy_walk is the one way a set is grown by right multiplication: closure
grows a group from its generators with it, check_group certifies that a
listed set is closed with it, and the neardomain checks take their
generating sets from it. No path builds a composition table: a group
validated downstream keeps the certificate that it is closed, which the
morphism check of sharply 2-transitive groups reads, and a set that is not
closed has its first missing product named by a row-major scan.

_intertwined is the one intertwining test: of the members, for the rps and
s2t morphisms (through intertwines) and as the final test of each total
point map in forced_morphisms; of the table rows, for the loop and
neardomain morphisms and for left distributivity. forced_morphisms is the
hom search of both permutation categories, built from the definition of a
morphism alone.
"""

from __future__ import annotations

from itertools import chain
from math import inf, isqrt
from operator import itemgetter
from typing import Callable, Container, Iterable, Iterator, Sequence

from .errors import InvariantViolation, NotAGroup, ResourceLimitExceeded, StructureError
from .values import Value

# sets a field of a value type once, in __init__
_set = object.__setattr__

Images = tuple[int, ...]

# the one size budget: most entries a composition table may hold (so, its
# square root, most members a closure may reach) and most steps a triple loop
# over a table may take (so, its cube root, most rows it may read); the
# largest bundled group, the affine group of GF(16), needs 57,600 entries, the
# largest bundled table, GF(16), 4,096 steps
TABLE_CAP = 10**6


def check_budget(work: int, what: str) -> None:
    """Raise ResourceLimitExceeded, naming what, when work (the entries of a
    table, or the steps of a loop) is over TABLE_CAP. Every table and triple
    loop that input can reach calls this before it builds a row or takes a
    step."""
    if work > TABLE_CAP:
        raise ResourceLimitExceeded(f"{what} needs {work}, over the cap of {TABLE_CAP} entries")


# the one type a point may have, as a set for the C-level type test
_POINT_TYPES = frozenset({int})


def _is_point(x, n: int) -> bool:
    """True when x is a point of 0..n-1: an exact int (not a bool, not a
    float equal to one) with 0 <= x < n."""
    return type(x) is int and 0 <= x < n


def _all_points(rows: Iterable[Sequence], n: int) -> bool:
    """True when every entry of rows is a point of 0..n-1 (see _is_point):
    one type test of all the entries, then one subset test of them against
    0..n-1, each a C call; rows is read twice."""
    ints = _POINT_TYPES.issuperset(map(type, chain.from_iterable(rows)))
    return ints and set(range(n)).issuperset(chain.from_iterable(rows))


def _total_map(f: Sequence, n: int, m: int) -> bool:
    """True when f is a total map of 0..n-1 into 0..m-1: n entries, each a
    point of 0..m-1."""
    return len(f) == n and _all_points((f,), m)


def _all_bijections(lines: Iterable[Sequence[int]], n: int, *, typed: bool = False) -> bool:
    """True when every sequence in lines has length n, holds only exact ints
    and holds each of 0..n-1, so each is a bijection of 0..n-1 (n entries
    covering n values repeat none): one type test of all the entries, then
    one length test and one set comparison per sequence, each one C call;
    lines is read twice. typed lines are known to hold ints only (the
    columns of rows that passed this test, or of the members of a validated
    set), so the type test is skipped and lines is read once."""
    full = set(range(n))
    ints = typed or _POINT_TYPES.issuperset(map(type, chain.from_iterable(lines)))
    return ints and all(len(p) == n and set(p) == full for p in lines)


def _check_images(images: Images) -> None:
    """Raise StructureError unless images is a bijection of 0..n-1, n >= 1,
    of exact ints (see _all_bijections)."""
    n = len(images)
    if n < 1:
        raise StructureError("permutation degree must be at least 1")
    if not _all_bijections((images,), n):
        raise StructureError(f"image array {list(images)} is not a bijection of 0..{n - 1}")


def _inverse(p: Sequence[int]) -> Images:
    """The image tuple of the inverse of the bijection p: _inverse(p)[p[x]]
    is x. One C sort of the points keyed by their images."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _relabeling(pi: Sequence[int], n: int):
    """The gather through pi^-1 (a -> a * pi^-1) that both relabelings
    apply, once pi is checked as a bijection of 0..n-1; raises
    StructureError naming pi, or the degree mismatch."""
    _check_images(pi)
    if len(pi) != n:
        raise StructureError("relabeling degree mismatch")
    return _right_multiplier(_inverse(pi))


class PermSet(Value):
    """A duplicate-free collection of equal-degree image tuples.

    Members are kept sorted, so equality of two PermSets is plain tuple
    equality and iteration order is deterministic. Build through perm_set();
    direct construction skips validation.
    """

    __slots__ = ("degree", "members", "_index", "_hash")
    _fields = ("degree", "members")

    def __init__(self, degree: int, members: tuple[Images, ...]):
        _set(self, "degree", degree)
        _set(self, "members", members)
        _set(self, "_index", {p: i for i, p in enumerate(members)})
        _set(self, "_hash", hash((degree, members)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.degree == other.degree and self.members == other.members
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Images]:
        return iter(self.members)

    def __contains__(self, p: Images) -> bool:
        return p in self._index

    def index(self, p: Images) -> int:
        return self._index[p]


def _right_multiplier(b: Images):
    """The map a -> a * b on image tuples; itemgetter of a single index
    returns the bare item, hence degree 1 apart."""
    return itemgetter(*b) if len(b) > 1 else lambda a: (a[b[0]],)


def perm_set(images: Iterable[Images]) -> PermSet:
    """The set of the given image tuples, validated: each a bijection of
    0..n-1 with n >= 1, its entries exact ints (a bool or a float equal to
    a point is refused; the first member that is not a bijection, in the
    order given, is named), at least one, all of one degree.

    Valid input passes one test per distinct member (_all_bijections): it
    has the first member's length n >= 1, holds only ints and holds the set
    0..n-1. That holds exactly when every member is a bijection of 0..n-1
    (n entries covering n values repeat none) of one degree, so exactly
    when the checks below raise nothing. Only input that fails runs them:
    _check_images on each member in the order given, then the empty set,
    then mixed degrees."""
    distinct = dict.fromkeys(images)
    degree = len(next(iter(distinct), ()))
    if not (degree and _all_bijections(distinct, degree)):
        for p in distinct:
            _check_images(p)
        if not distinct:
            raise StructureError("permutation set cannot be empty")
        if any(len(p) != degree for p in distinct):
            raise StructureError("permutation set mixes degrees")
        raise InvariantViolation("perm_set's one-pass member test", degree)
    return PermSet(degree, tuple(sorted(distinct)))


class Morphism(Value):
    """A morphism of permutation sets: f maps source member indices (sorted
    order) to target member indices, phi maps points. Unchecked container;
    the is_*_morphism predicates validate."""

    __slots__ = _fields = ("f", "phi")

    def __init__(self, f: tuple[int, ...], phi: tuple[int, ...]):
        _set(self, "f", f)
        _set(self, "phi", phi)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.f == other.f and self.phi == other.phi
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.f, self.phi))


def identity_morphism(members: PermSet) -> Morphism:
    return Morphism(tuple(range(len(members))), tuple(range(members.degree)))


def compose_morphisms(outer: Morphism, inner: Morphism) -> Morphism:
    """Composite inner-then-outer: each outer map gathered through the inner."""
    return Morphism(_right_multiplier(inner.f)(outer.f), _right_multiplier(inner.phi)(outer.phi))


def intertwines(m: Morphism, src: PermSet, dst: PermSet) -> bool:
    """True iff phi . p == f(p) . phi for every source member p (see
    _intertwined). Raises ValueError unless f and phi are total maps into
    dst."""
    f, phi = m.f, m.phi
    if not _total_map(f, len(src), len(dst)):
        raise ValueError("f is not a total map into the target members")
    if not _total_map(phi, src.degree, dst.degree):
        raise ValueError("phi is not a total map into the target points")
    return _intertwined(f, phi, src.members, dst.members)


def _intertwined(f: Sequence[int], phi: Sequence[int], src_rows: Sequence, dst_rows: Sequence) -> bool:
    """True iff phi . p == dst_rows[f[i]] . phi for the i-th row p of
    src_rows, the two composites compared as whole image tuples, each one
    gather (phi . p gathers phi through p, q . phi gathers q through phi).
    Stops at the first row that fails; the caller checks the shapes. Read
    on Cayley table rows (row a is x -> a * x) as (f, f), it is
    f(a * x) == f(a) * f(x); as (mul[a], mul[a]) on add, a(b + c) == ab + ac."""
    after_phi = _right_multiplier(phi)
    for p, i in zip(src_rows, f):
        if _right_multiplier(p)(phi) != after_phi(dst_rows[i]):
            return False
    return True


def forced_morphisms(
    src: PermSet, dst: PermSet, src_base: tuple[int, ...], dst_base: tuple[int, ...]
) -> tuple[Morphism, ...]:
    """Every pair (f, phi) with phi(src_base[k]) == dst_base[k], f(p) the
    target member agreeing with phi . p on the base points (one base point
    forces it in a regular set, two in a sharply 2-transitive group) and
    phi(p(x)) == f(p)(phi(x)) at every member p and point x, in lexicographic
    order of phi. Refused before the first pass when |src| * n * m is over
    TABLE_CAP; the callers confirm each pair with their definition.

    While phi has a point with no image, popping a newly imaged point y from
    the worklist forces f(p) for each p whose base images y completes,
    applied at every imaged point, then images p(y) as f(p)(phi(y)) for
    every forced p; a member with no forced image, or a clash, prunes. At
    the fixpoint the search branches on the lowest point with no image, over
    the target points in increasing order. Once phi is total, often with
    most members not yet forced, every member's f is read off phi in one
    gather of all their base images, and the pair is kept when every member
    has an image and _intertwined holds. That final test is exact: carried
    on, the propagation would force every member by its base images and
    check phi(p(x)) == f(p)(phi(x)) at every point x, pruning exactly when a
    member has no image or _intertwined fails. Up to a total phi the
    branches are those of a propagation carried to the end, so the pairs
    come out in lexicographic order of phi."""
    n, m = src.degree, dst.degree
    check_budget(len(src) * n * m, f"morphism search of {len(src)} members on {n} points into {m} points")
    src_im, dst_im = src.members, dst.members
    at = {tuple(q[b] for b in dst_base): j for j, q in enumerate(dst_im)}
    # phi -> every member's base images under phi, one key per member
    k = len(src_base)
    gather = _right_multiplier([p[b] for p in src_im for b in src_base])
    # the members whose forced image waits on each point, read off each
    # member's base images
    waits: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(src_im):
        for y in {p[b] for b in src_base}:
            waits[y].append(i)
    out = []

    def search(phi: list[int], free: int, f: list, forced: list, todo: list[int]) -> None:
        # free counts the points of phi with no image
        while todo and free:
            y = todo.pop()
            for i in waits[y]:
                if f[i] is not None:
                    continue
                p = src_im[i]
                key = tuple(phi[p[b]] for b in src_base)
                if -1 in key:
                    continue
                j = f[i] = at.get(key)
                if j is None:
                    return
                q = dst_im[j]
                forced.append((p, q))
                # phi grows as it is read: a point imaged here is applied too
                for x, v in enumerate(phi):
                    if v >= 0:
                        z, w = p[x], q[v]
                        if phi[z] < 0:
                            phi[z] = w
                            free -= 1
                            todo.append(z)
                        elif phi[z] != w:
                            return
            v = phi[y]
            for p, q in forced:
                z, w = p[y], q[v]
                if phi[z] < 0:
                    phi[z] = w
                    free -= 1
                    todo.append(z)
                elif phi[z] != w:
                    return
        if free:
            x = phi.index(-1)
            for v in range(m):
                branch = phi.copy()
                branch[x] = v
                search(branch, free - 1, f.copy(), forced.copy(), [x])
            return
        f = list(map(at.get, zip(*[iter(gather(phi))] * k)))
        if None not in f and _intertwined(f, phi, src_im, dst_im):
            out.append(Morphism(tuple(f), tuple(phi)))

    based = dict(zip(src_base, dst_base))
    phi = [based.get(x, -1) for x in range(n)]
    search(phi, phi.count(-1), [None] * len(src_im), [], list(src_base))
    return tuple(out)


def greedy_walk(
    candidates: Iterable, right_multiplier: Callable, reached: list, members: Container | None = None
) -> list | None:
    """The greedy generating set of candidates, walked in order: each
    candidate not yet reached becomes a generator t, and reached grows by
    right multiplication h -> h * t, right_multiplier(t) being that map,
    until every member of reached has been multiplied by every generator.
    reached is the caller's list, holding a unit or nothing, and is grown in
    place; it ends holding every candidate and every product of its start
    and the generators. When members is given, the walk returns None at the
    first product not yet reached that is not in members; the start and the
    candidates must be in members, so a product already reached is one, and
    reached never outgrows members. When members is not given, the walk
    raises ResourceLimitExceeded as soon as reached holds more members than
    a composition table of TABLE_CAP entries can index.

    A member is reached inline, with no Python call: a product is hashed
    once by the reached-set test, and a new member once more when it is
    added and, in a walk bounded by members, once by the member-set test.
    The budget is one comparison with the largest count whose square is
    within TABLE_CAP, and check_budget runs only to refuse.

    Grown from the unit of a group, reached is a subgroup H whenever a new
    generator t is picked, and t is not in H, so the coset H * t is disjoint
    from H and |H| at least doubles (Lagrange): there are at most log2|G|
    generators, and the walk composes |G| times that many pairs (Dixon and
    Mortimer, Permutation Groups, 1996; Seress, Permutation Group
    Algorithms, 2003)."""
    seen = set(reached)
    gens: list = []
    multipliers: list = []
    # the most members reached holds before the budget refuses it; a walk
    # bounded by members is never refused
    most = isqrt(TABLE_CAP) if members is None else inf
    for t in candidates:
        if t in seen:
            continue
        new = right_multiplier(t)
        gens.append(t)
        multipliers.append(new)
        # every member reached before t times t, then t and every member
        # reached since times every generator
        grown = len(reached)
        seen.add(t)
        reached.append(t)
        if len(reached) > most:
            _refuse_walk(len(reached))
        for k, h in enumerate(reached):
            for g in (new,) if k < grown else multipliers:
                c = g(h)
                if c not in seen:
                    if members is not None and c not in members:
                        return None
                    seen.add(c)
                    reached.append(c)
                    if len(reached) > most:
                        _refuse_walk(len(reached))
    return gens


def _refuse_walk(size: int) -> None:
    check_budget(size**2, f"closure reached {size} members, so its composition table")


def closure(generators: Iterable[Images]) -> PermSet:
    """Smallest set containing the generators that is closed under composition,
    inversion, and contains the identity.

    The generators are checked as perm_set checks members, in the order
    given, then greedy_walk grows the set from the identity over them; in a
    finite setting composition closure alone already yields inverses. The
    walk refuses the set as soon as its composition table would hold more
    than TABLE_CAP entries, so an over-budget group is refused after about
    sqrt(TABLE_CAP) members.
    """
    gens = list(generators)
    for g in gens:
        _check_images(g)
    if not gens:
        raise StructureError("closure needs at least one generator")
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise StructureError("generators mix degrees")
    reached = [tuple(range(degree))]
    greedy_walk(gens, _right_multiplier, reached)
    # products of bijections of one degree: nothing left to check
    return PermSet(degree, tuple(sorted(reached)))


def subgroup_failure(members: PermSet) -> str | None:
    """None when members form a subgroup of the symmetric group; otherwise
    the witness check_group raises, as text."""
    try:
        check_group(members)
    except NotAGroup as exc:
        return str(exc)
    return None


def check_group(members: PermSet) -> None:
    """Certify that members form a group; raises NotAGroup with a
    human-readable witness of the first failure found: the identity, then
    each member's inverse (both looked up in the member index), then every
    ordered product in row-major order.

    Closure is certified by greedy_walk over the members in sorted order,
    grown from the identity and bounded by the member set, not from the
    |G|^2 products. The certificate is exact:

    - if the walk never leaves the set, it reaches every member (each one
      not reached becomes a generator), and the set is closed under right
      multiplication by the generators T; a finite set of permutations
      containing the identity and closed under multiplication by T is the
      group T generates, so the set is a group;
    - conversely, in a group every product is a member, so no group fails.

    Valid input within the budget runs the identity lookup and the walk
    only. The inverse scan is not needed there: a finite set of
    permutations closed under products is a group, since the powers of a
    member p repeat, so p^-1 is a power of p and a member. Only a set that
    fails the walk, or is over the budget, runs the checks in the order
    named above: the inverse scan, then the budget refusal, then the
    row-major scan of the products, which stops at the first one missing.
    So an over-budget set missing an inverse is named by that inverse
    before it is refused. A scan that finds no missing product contradicts
    the walk and raises InvariantViolation. The budget bounds the scan's
    |G|^2 products, not the walk's |G| * |T|, so about 1,000 listed members
    is the size policy: the one path that names a failing set's witness
    reads every product. closure applies the same bound as it grows."""
    index, degree = members._index, members.degree
    identity = tuple(range(degree))
    if identity not in index:
        raise NotAGroup("identity missing")
    size = len(members)
    if size * size <= TABLE_CAP and greedy_walk(members.members, _right_multiplier, [identity], index) is not None:
        return
    for images in index:
        if _inverse(images) not in index:
            raise NotAGroup(f"inverse of {list(images)} missing")
    check_budget(size * size, f"composition table of {size} members")
    factors = [(b, _right_multiplier(b)) for b in members.members]
    for a in members.members:
        for b, times_b in factors:
            if times_b(a) not in index:
                raise NotAGroup(f"product {list(a)} * {list(b)} missing")
    raise InvariantViolation("generating-set closure certificate", f"{size} members the product scan finds closed")
