"""Exhaustive certification battery: round trips, functor laws, hom-set
bijections, naturality, and the nearfield equivalence.

run_all declares the battery once, as an ordered table of families. Each
entry names a family, a lazily produced source of labelled items and, when
each item is one case, its witness; one runner, _run_family, turns each
entry into a Verdict: it pulls the items one at a time, stops at the first
failure, and labels the failure with its item. The per-morphism families
and the functor laws are items of that same runner, labelled with the
object, the pair, the member or the triple they check.

Checks never assume the properties they certify; failing inputs (including
the deliberately corrupted ones in the test suite) produce failing verdicts,
not crashes.
"""

from __future__ import annotations

import itertools
import time
from functools import cache, partial
from typing import Callable, Sequence

from .errors import StructureError
from .loops import Loop, enumerate_loop_morphisms, is_loop_morphism
from .neardomain import (
    Neardomain,
    characteristic_two,
    enumerate_nd_morphisms,
    is_nd_morphism,
    is_nearfield,
)
from .rps import (
    Rps,
    based_point_maps,
    characterize_morphism,
    enumerate_rps_morphisms,
    enumerate_rps_morphisms_direct,
    identity_rps_morphism,
    induced_loop,
    is_rps_morphism,
    loop_to_rps,
)
from .s2t import (
    Characteristic,
    S2tGroup,
    affine_group,
    characteristic,
    derived_neardomain,
    enumerate_s2t_morphisms,
    enumerate_s2t_morphisms_direct,
    identity_s2t_morphism,
    image_inclusion_witness,
    involution_products_form_subgroup,
    is_s2t_morphism,
    lift_nd_morphism,
    translations,
    translations_form_subgroup,
)
from .perms import Morphism, _right_multiplier, compose_morphisms, perm_set
from .values import Value
from .zoo import Zoo, standard_zoo


class Verdict(Value):
    __slots__ = _fields = ("name", "passed", "witness", "checked", "elapsed_ms")

    def __init__(self, name: str, passed: bool, witness: str | None = None, checked: int = 0, elapsed_ms: float = 0.0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "elapsed_ms", elapsed_ms)


# Category plumbing: hom-set enumeration, identities, composition and the
# definitional morphism predicate per world, wired into the three functors.
class CategoryOps(Value):
    __slots__ = _fields = ("hom", "identity", "compose", "is_morphism")

    def __init__(self, hom: Callable, identity: Callable, compose: Callable, is_morphism: Callable):
        object.__setattr__(self, "hom", hom)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "compose", compose)
        object.__setattr__(self, "is_morphism", is_morphism)


class FunctorOps(Value):
    """A functor: its name, source and target categories, its object map and
    its morphism map, (morphism, src_obj, dst_obj) -> target morphism."""

    __slots__ = _fields = ("name", "source", "target", "obj", "mor")

    def __init__(self, name: str, source: CategoryOps, target: CategoryOps, obj: Callable, mor: Callable):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "obj", obj)
        object.__setattr__(self, "mor", mor)


def _identity_map(obj) -> tuple[int, ...]:
    return tuple(range(obj.order))


def _compose_maps(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    return _right_multiplier(inner)(outer)


def _point_map(m: Morphism, src, dst) -> tuple[int, ...]:
    return m.phi


# Each functor is built on request from the names of this module as they are
# bound at that moment, so a caller that rebinds one (a test's stub, a
# tracer's wrapper) reaches every functor built after it. The hom arguments
# replace the default enumerators, with run_all's memos for instance. Both
# permutation categories list hom-sets with the definitional search by
# default, so full faithfulness compares two independent enumerations.

def rps_to_loop(rps_hom: Callable | None = None, loop_hom: Callable | None = None) -> FunctorOps:
    """Regular permutation sets onto their induced loops: phi of each morphism."""
    return FunctorOps(
        "rps->loop",
        CategoryOps(
            rps_hom or enumerate_rps_morphisms_direct, identity_rps_morphism, compose_morphisms, is_rps_morphism
        ),
        CategoryOps(loop_hom or enumerate_loop_morphisms, _identity_map, _compose_maps, is_loop_morphism),
        induced_loop,
        _point_map,
    )


def s2t_to_ndom(s2t_hom: Callable | None = None, nd_hom: Callable | None = None) -> FunctorOps:
    """Sharply 2-transitive groups onto their derived neardomains: phi of each morphism."""
    return FunctorOps(
        "s2t->ndom",
        CategoryOps(
            s2t_hom or enumerate_s2t_morphisms_direct, identity_s2t_morphism, compose_morphisms, is_s2t_morphism
        ),
        CategoryOps(nd_hom or enumerate_nd_morphisms, _identity_map, _compose_maps, is_nd_morphism),
        derived_neardomain,
        _point_map,
    )


def ndom_to_s2t(nd_hom: Callable | None = None) -> FunctorOps:
    """Neardomains onto their affine groups, each morphism lifted."""
    return FunctorOps(
        "ndom->s2t",
        CategoryOps(nd_hom or enumerate_nd_morphisms, _identity_map, _compose_maps, is_nd_morphism),
        CategoryOps(enumerate_s2t_morphisms_direct, identity_s2t_morphism, compose_morphisms, is_s2t_morphism),
        affine_group,
        lift_nd_morphism,
    )


def _run_family(name: str, items, witness_fn: Callable | None = None) -> Verdict:
    """Check labelled items, pulled one at a time; the first failure wins,
    and no item after it is pulled.

    With witness_fn, an item is a label and an argument tuple, one case
    witnessed by witness_fn(*args). Without, an item is a label and a lazy
    iterable of the witnesses of its cases, zero or more (see _members and
    _functor_laws). Each case is one checked. Structured validation errors
    (broken invariants included), raised while an item is checked, become a
    failing verdict labelled with the item and counted once, so corrupted
    inputs yield witnesses instead of crashes. This is the only place a
    Verdict is made."""
    t0 = time.perf_counter()
    checked = 0
    witness = label = None
    for label, cases in items:
        try:
            for witness in cases if witness_fn is None else (witness_fn(*cases),):
                checked += 1
                if witness is not None:
                    break
        except (StructureError, KeyError, ValueError) as exc:
            witness = f"{type(exc).__name__}: {exc}"
            checked += 1
        if witness is not None:
            break
    elapsed = (time.perf_counter() - t0) * 1000
    return Verdict(name, witness is None, None if witness is None else f"{label}: {witness}", checked, elapsed)


# ---------------------------------------------------------------- round trips

def loop_roundtrip_witness(loop: Loop) -> str | None:
    back = induced_loop(loop_to_rps(loop))
    if back != loop:
        return f"rebuilt loop differs: identity {back.identity} vs {loop.identity}, table {back.table} vs {loop.table}"
    return None


def neardomain_roundtrip_witness(nd: Neardomain) -> str | None:
    back = derived_neardomain(affine_group(nd))
    if back == nd:
        return None
    for a in range(nd.order):
        for b in range(nd.order):
            if back.add[a][b] != nd.add[a][b]:
                return f"add[{a}][{b}]: {back.add[a][b]} != {nd.add[a][b]}"
            if back.mul[a][b] != nd.mul[a][b]:
                return f"mul[{a}][{b}]: {back.mul[a][b]} != {nd.mul[a][b]}"
    return f"constants differ: ({back.zero}, {back.one}) vs ({nd.zero}, {nd.one})"


def group_roundtrip_witness(g: S2tGroup) -> str | None:
    rebuilt = affine_group(derived_neardomain(g))
    if rebuilt.group != g.group:
        return "rebuilt affine group is not the original member set"
    return None


# ------------------------------------------------------------- functor checks

def _functor_laws(functor: FunctorOps, objects: Sequence[tuple[str, object]]) -> tuple:
    """The functor-law family of functor over objects, as an entry of
    run_all's table. Its items, in order:

    - each object's image, labelled with the object;
    - each hom-set of an ordered pair, labelled with the pair, then the image
      of each of its members, labelled with the pair and the member, and
      confirmed by the target's is_morphism (the morphism maps check
      nothing, so this family owns that check);
    - each identity, labelled with the object;
    - the composites of the composable pairs drawn from those hom-sets,
      labelled with the triple.

    Each item's cases are a generator. Object, hom-set and image items yield
    only a failure, so checked counts identities and composites. Each
    hom-set is enumerated, and each member mapped, once per family; only
    identities and composites are mapped again."""
    hom = cache(functor.source.hom)
    image: dict = {}  # object -> its image; (a, b) -> the images of hom(a, b), in order

    def object_image(a):
        image[a] = functor.obj(a)
        yield from ()

    def member_image(m, a, b):
        mapped = functor.mor(m, a, b)
        image[a, b].append(mapped)
        if not functor.target.is_morphism(mapped, image[a], image[b]):
            yield f"not a morphism: {mapped}"

    def identity(a):
        mapped = functor.mor(functor.source.identity(a), a, a)
        yield None if mapped == functor.target.identity(image[a]) else f"identity maps to non-identity {mapped}"

    def composites(a, b, c):
        for m1, image1 in zip(hom(a, b), image[a, b]):
            for m2, image2 in zip(hom(b, c), image[b, c]):
                left = functor.mor(functor.source.compose(m2, m1), a, c)
                right = functor.target.compose(image2, image1)
                yield None if left == right else f"composition broken: {left} != {right}"

    def items():
        for name, a in objects:
            yield name, object_image(a)
        for (na, a), (nb, b) in itertools.product(objects, repeat=2):
            image[a, b] = []
            yield f"{na}->{nb}", _listing(hom, a, b)
            for m in hom(a, b):  # listed by the item before, so it cannot raise here
                yield f"{na}->{nb}: image of {m}", member_image(m, a, b)
        for name, a in objects:
            yield name, identity(a)
        for (na, a), (nb, b), (nc, c) in itertools.product(objects, repeat=3):
            yield f"{na}->{nb}->{nc}", composites(a, b, c)

    return f"functor-laws/{functor.name}", items()


def check_functor_laws(functor: FunctorOps, objects: Sequence[tuple[str, object]]) -> Verdict:
    """Functoriality of functor on objects: the family of _functor_laws, run."""
    return _run_family(*_functor_laws(functor, objects))


def check_full_faithful(functor: FunctorOps, a, b) -> tuple[Sequence, Sequence, str | None]:
    """Full faithfulness of functor on the ordered object pair (a, b): the
    source hom-set, the target hom-set between the images, and a witness,
    None exactly when the functor maps the first bijectively onto the
    second. The witness names the first of: two members with one image, a
    target morphism not hit, an image outside the target hom-set, and two
    listings of different lengths (a listing that repeats a morphism)."""
    src_homs = functor.source.hom(a, b)
    dst_homs = functor.target.hom(functor.obj(a), functor.obj(b))
    induced = [functor.mor(m, a, b) for m in src_homs]
    hit, listed = set(induced), set(dst_homs)
    witness = None
    if len(hit) != len(induced):
        witness = "induced map is not injective (faithfulness fails)"
    elif listed - hit:
        witness = f"target morphism not hit: {min(listed - hit)}"
    elif hit - listed:
        witness = f"induced morphism not in target hom-set: {min(hit - listed)}"
    elif len(src_homs) != len(dst_homs):
        witness = "count mismatch"
    return src_homs, dst_homs, witness


def full_faithful_witness(functor: FunctorOps, a, b) -> str | None:
    src_homs, dst_homs, witness = check_full_faithful(functor, a, b)
    return None if witness is None else f"{len(src_homs)} vs {len(dst_homs)}: {witness}"


# ---------------------------------------------------------- pointwise witnesses

def characterization_witness(src: Rps, dst: Rps, f: tuple[int, ...], phi: tuple[int, ...]) -> str | None:
    """The two-condition test must agree with the definitional check."""
    cand = Morphism(f, phi)
    if characterize_morphism(f, phi, src, dst) != is_rps_morphism(cand, src, dst):
        return f"characterization disagrees on f={f}, phi={phi}"
    return None


def oracle_agreement_witness(fast: Callable, direct: Callable, src, dst) -> str | None:
    """The production hom enumerator and its definitional oracle must find
    the same morphisms."""
    got, want = set(fast(src, dst)), set(direct(src, dst))
    if got != want:
        return f"fast path found {len(got)}, direct oracle {len(want)}"
    return None


def naturality_witness(src: S2tGroup, dst: S2tGroup, m: Morphism) -> str | None:
    """The naturality square of m under the unit of the equivalence. The
    unit is the identity, each group equal to the affine group of its
    derived neardomain, so the square commutes iff lifting the point map of
    m through the affine groups gives back m itself.

    phi is confirmed by is_nd_morphism, lifted by lift_nd_morphism, which
    checks nothing, and the lift confirmed by is_s2t_morphism on src and dst
    before it is compared with m."""
    nd_s, nd_d = derived_neardomain(src), derived_neardomain(dst)
    phi = tuple(m.phi)
    if not is_nd_morphism(phi, nd_s, nd_d):
        return "point map is not a neardomain morphism"
    if affine_group(nd_s) != src:
        return "rebuilt group is not the original source"
    if affine_group(nd_d) != dst:
        return "rebuilt group is not the original target"
    lifted = lift_nd_morphism(phi, nd_s, nd_d)
    if not is_s2t_morphism(lifted, src, dst):
        return f"lift of phi={m.phi} is not a morphism of the affine groups"
    if lifted != m:
        return f"square does not commute: {m.f} != {lifted.f}"
    return None


def characteristic_coherence_witness(g: S2tGroup) -> str | None:
    char = characteristic(g)
    two = characteristic_two(derived_neardomain(g))
    if (char is Characteristic.TWO) != two:
        return f"group characteristic {char.value} but derived 1+1 {'==' if two else '!='} 0"
    return None


def translation_regularity_witness(g: S2tGroup) -> None:
    """translations checks its set regular at g.degree, so this family fails
    only when that raises."""
    translations(g)


def nearfield_witness(nd: Neardomain) -> str | None:
    return None if is_nearfield(nd) else "finite neardomain is not a nearfield"


def translation_form_witness(nd: Neardomain) -> str | None:
    """Over an affine group the translation set must be exactly the b == one
    affine maps."""
    g = affine_group(nd)
    expected = perm_set(nd.add)
    got = translations(g).members
    if got != expected:
        return f"translation set {[list(p) for p in got]} != affine b=1 maps"
    return None


def nearfield_equivalence_witness(g: S2tGroup) -> str | None:
    """Translations form a subgroup iff involution products do iff the derived
    neardomain is a nearfield; the three bits must agree."""
    a = translations_form_subgroup(g)
    b = involution_products_form_subgroup(g)
    c = is_nearfield(derived_neardomain(g))
    if not (a == b == c):
        return f"translations-subgroup={a}, involution-products-subgroup={b}, derived-nearfield={c}"
    return None


def nd_injectivity_witness(src: Neardomain, dst: Neardomain, hom: Callable) -> str | None:
    """Every map that hom lists must be injective."""
    for phi in hom(src, dst):
        if len(set(phi)) != len(phi):
            return f"non-injective morphism {phi}"
    return None


def s2t_injectivity_witness(src: S2tGroup, dst: S2tGroup, hom: Callable) -> str | None:
    """Every pair that hom lists must pass is_s2t_morphism, which rejects a
    non-injective phi and raises InvariantViolation on a non-injective f."""
    for m in hom(src, dst):
        if not is_s2t_morphism(m, src, dst):
            return f"enumerated pair is not a valid morphism: phi={m.phi}"
    return None


# ------------------------------------------------------------------ run_all

def _each(objects):
    """One item per object, labelled with its name."""
    return ((name, (obj,)) for name, obj in objects)


def _pairs(objects):
    """One item per ordered pair of objects (a, b), labelled a->b."""
    return ((f"{na}->{nb}", (a, b)) for na, a in objects for nb, b in objects)


def _candidates(objects):
    """One item per (f, phi) with phi fixing the base point, on each ordered
    pair of objects (a, b), labelled a->b:f=...,phi=..."""
    for na, a in objects:
        for nb, b in objects:
            for f in itertools.product(range(len(b.members)), repeat=len(a.members)):
                for phi in based_point_maps(a, b):
                    yield f"{na}->{nb}:f={f},phi={phi}", (a, b, f, phi)


def _listing(hom: Callable, a, b):
    """No case: lists hom(a, b) when pulled, so a listing that raises fails."""
    hom(a, b)
    yield from ()


def _once(witness_fn: Callable, *args):
    """One case: witness_fn(*args), computed when pulled."""
    yield witness_fn(*args)


def _members(objects, hom: Callable, witness_fn: Callable):
    """Per ordered pair of objects (a, b), an item listing hom(a, b),
    labelled a->b, then one case per member m, labelled a->b: m, witnessed
    by witness_fn(a, b, m). hom is read twice per pair: memoize it."""
    for na, a in objects:
        for nb, b in objects:
            yield f"{na}->{nb}", _listing(hom, a, b)
            for m in hom(a, b):  # listed by the item before, so it cannot raise here
                yield f"{na}->{nb}: {m}", _once(witness_fn, a, b, m)


def run_all(zoo: Zoo | None = None) -> list[Verdict]:
    """The whole battery over the zoo: one table of families, run in order,
    one verdict each, each witness naming the failing instance. The table is
    built on each call from the module's names as bound at that moment, like
    the functors, so a stub or a tracer's wrapper bound before reaches it."""
    if zoo is None:
        zoo = standard_zoo()
    # the rps oracle, loop, s2t and neardomain hom-sets of each ordered pair,
    # enumerated once in this run and shared by the families that read them
    rps_hom_direct = cache(enumerate_rps_morphisms_direct)
    loop_homs = cache(enumerate_loop_morphisms)
    nd_homs = cache(enumerate_nd_morphisms)
    s2t_homs = cache(lambda src, dst: enumerate_s2t_morphisms(src, dst, nd_homs))
    rps_functor = rps_to_loop(rps_hom_direct, loop_homs)
    s2t_functor = s2t_to_ndom(s2t_homs, nd_homs)
    rpss, ndoms, groups = zoo.rps_objects, zoo.neardomains, zoo.groups
    small_rps = [(n, r) for n, r in rpss if r.degree <= 3]
    small_groups = [(n, g) for n, g in groups if g.degree <= 4]
    rps_fast = partial(enumerate_rps_morphisms, loop_hom=loop_homs)
    table = (
        ("loop-rps-roundtrip", _each(zoo.loops), loop_roundtrip_witness),
        ("rps-full-faithful", _pairs(rpss), partial(full_faithful_witness, rps_functor)),
        ("rps-hom-oracle-agreement", _pairs(rpss), partial(oracle_agreement_witness, rps_fast, rps_hom_direct)),
        ("rps-morphism-characterization", _candidates(small_rps), characterization_witness),
        _functor_laws(rps_functor, [(n, r) for n, r in rpss if r.degree <= 4]),
        ("neardomain-is-nearfield", _each(ndoms), nearfield_witness),
        ("neardomain-roundtrip", _each(ndoms), neardomain_roundtrip_witness),
        ("translation-form", _each(ndoms), translation_form_witness),
        ("group-roundtrip", _each(groups), group_roundtrip_witness),
        ("characteristic-coherence", _each(groups), characteristic_coherence_witness),
        ("translation-regularity", _each(groups), translation_regularity_witness),
        ("s2t-full-faithful", _pairs(groups), partial(full_faithful_witness, s2t_functor)),
        ("s2t-naturality", _members(groups, s2t_homs, naturality_witness)),
        ("s2t-image-inclusions", _members(groups, s2t_homs, lambda a, b, m: image_inclusion_witness(m, a, b))),
        ("s2t-hom-oracle-agreement", _pairs(small_groups),
         partial(oracle_agreement_witness, s2t_homs, enumerate_s2t_morphisms_direct)),
        ("nearfield-equivalence", _each(groups), nearfield_equivalence_witness),
        ("nd-morphism-injectivity", _pairs(ndoms), partial(nd_injectivity_witness, hom=nd_homs)),
        ("s2t-morphism-injectivity", _pairs(groups), partial(s2t_injectivity_witness, hom=s2t_homs)),
        _functor_laws(ndom_to_s2t(nd_homs), [(n, nd) for n, nd in ndoms if nd.order <= 4 or n in ("gf9", "dickson9")]),
        _functor_laws(s2t_functor, small_groups),
    )
    return [_run_family(*family) for family in table]
