"""Exhaustive certification battery: round trips, functor laws, hom-set
bijections, naturality, and the nearfield equivalence, each packaged as a
Verdict with a concrete witness on failure.

Checks never assume the properties they certify; failing inputs (including
the deliberately corrupted ones in the test suite) produce failing verdicts,
not crashes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .errors import StructureError
from .loops import Loop, enumerate_loop_morphisms
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
    canonical_isomorphism,
    characteristic,
    derived_neardomain,
    derived_nd_morphism,
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
from .perms import Morphism, Perm, compose_morphisms, perm_set
from .zoo import Zoo, standard_zoo


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    witness: str | None = None
    checked: int = 0
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class HomSetReport:
    source: str
    target: str
    source_count: int
    target_count: int
    bijection: bool
    witness: str | None = None
    # the source hom-set the report was computed from, for callers that list it
    source_homs: tuple = field(default=(), repr=False, compare=False)


# Lightweight category plumbing: hom-set enumeration, identities and
# composition per world, wired into the three object-and-morphism maps.
# No further abstraction; the instances below are the whole story.
@dataclass(frozen=True)
class CategoryOps:
    hom: Callable
    identity: Callable
    compose: Callable


@dataclass(frozen=True)
class FunctorOps:
    name: str
    source: CategoryOps
    target: CategoryOps
    obj: Callable
    mor: Callable  # (morphism, src_obj, dst_obj) -> target morphism


def _compose_maps(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    return tuple(outer[v] for v in inner)


LOOP_CAT = CategoryOps(
    hom=enumerate_loop_morphisms,
    identity=lambda L: tuple(range(L.order)),
    compose=_compose_maps,
)
NDOM_CAT = CategoryOps(
    hom=enumerate_nd_morphisms,
    identity=lambda F: tuple(range(F.order)),
    compose=_compose_maps,
)
RPS_CAT_DIRECT = CategoryOps(
    hom=enumerate_rps_morphisms_direct,
    identity=identity_rps_morphism,
    compose=compose_morphisms,
)
RPS_CAT_FAST = CategoryOps(
    hom=enumerate_rps_morphisms,
    identity=identity_rps_morphism,
    compose=compose_morphisms,
)
S2T_CAT = CategoryOps(
    hom=enumerate_s2t_morphisms,
    identity=identity_s2t_morphism,
    compose=compose_morphisms,
)

RPS_TO_LOOP = FunctorOps(
    name="rps->loop",
    source=RPS_CAT_DIRECT,
    target=LOOP_CAT,
    obj=induced_loop,
    mor=lambda m, src, dst: m.phi,
)
# Same functor over the fast hom enumerator; the battery certifies the two
# enumerators agree, the CLI then leans on the cheap one.
RPS_TO_LOOP_FAST = FunctorOps(
    name="rps->loop",
    source=RPS_CAT_FAST,
    target=LOOP_CAT,
    obj=induced_loop,
    mor=lambda m, src, dst: m.phi,
)
S2T_TO_NDOM = FunctorOps(
    name="s2t->ndom",
    source=S2T_CAT,
    target=NDOM_CAT,
    obj=derived_neardomain,
    mor=derived_nd_morphism,
)
NDOM_TO_S2T = FunctorOps(
    name="ndom->s2t",
    source=NDOM_CAT,
    target=S2T_CAT,
    obj=affine_group,
    mor=lambda phi, src, dst: lift_nd_morphism(phi, src, dst),
)


def _run_family(name: str, items, witness_fn) -> Verdict:
    """Run witness_fn over labelled argument tuples; first failure wins.

    Structured validation errors (broken invariants included) become
    failing verdicts so corrupted inputs yield witnesses instead of crashes.
    """
    t0 = time.perf_counter()
    checked = 0
    for label, args in items:
        try:
            witness = witness_fn(*args)
        except (StructureError, KeyError, ValueError) as exc:
            witness = f"{type(exc).__name__}: {exc}"
        checked += 1
        if witness is not None:
            elapsed = (time.perf_counter() - t0) * 1000
            return Verdict(name, False, f"{label}: {witness}", checked, elapsed)
    elapsed = (time.perf_counter() - t0) * 1000
    return Verdict(name, True, None, checked, elapsed)


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
    canonical_isomorphism(g)  # raises with a witness if interpolation fails
    return None


# ------------------------------------------------------------- functor checks

def check_functor_laws(functor: FunctorOps, objects: Sequence[tuple[str, object]]) -> Verdict:
    """Identities to identities; composition preserved on every composable
    pair drawn from the enumerated hom-sets of the given objects."""
    t0 = time.perf_counter()
    checked = 0

    def fail(witness: str) -> Verdict:
        return Verdict(
            f"functor-laws/{functor.name}", False, witness, checked,
            (time.perf_counter() - t0) * 1000,
        )

    try:
        for name, a in objects:
            fa = functor.obj(a)
            image = functor.mor(functor.source.identity(a), a, a)
            checked += 1
            if image != functor.target.identity(fa):
                return fail(f"identity of {name} maps to non-identity {image}")
        for name_a, a in objects:
            for name_b, b in objects:
                for name_c, c in objects:
                    for m1 in functor.source.hom(a, b):
                        for m2 in functor.source.hom(b, c):
                            composite = functor.source.compose(m2, m1)
                            left = functor.mor(composite, a, c)
                            right = functor.target.compose(
                                functor.mor(m2, b, c), functor.mor(m1, a, b)
                            )
                            checked += 1
                            if left != right:
                                return fail(
                                    f"composition broken on {name_a}->{name_b}->{name_c}: {left} != {right}"
                                )
    except (StructureError, KeyError, ValueError) as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    return Verdict(
        f"functor-laws/{functor.name}", True, None, checked,
        (time.perf_counter() - t0) * 1000,
    )


def check_full_faithful(
    functor: FunctorOps,
    name_a: str,
    a: object,
    name_b: str,
    b: object,
) -> HomSetReport:
    """Hom-count bijection through the functor on one ordered object pair.
    The report keeps the source hom-set it enumerated."""
    src_homs = functor.source.hom(a, b)
    dst_homs = functor.target.hom(functor.obj(a), functor.obj(b))
    induced = [functor.mor(m, a, b) for m in src_homs]
    witness = None
    if len(set(induced)) != len(induced):
        witness = "induced map is not injective (faithfulness fails)"
    elif set(induced) != set(dst_homs):
        missing = set(dst_homs) - set(induced)
        extra = set(induced) - set(dst_homs)
        if missing:
            witness = f"target morphism not hit: {sorted(missing)[0]}"
        else:
            witness = f"induced morphism not in target hom-set: {sorted(extra)[0]}"
    return HomSetReport(
        source=name_a,
        target=name_b,
        source_count=len(src_homs),
        target_count=len(dst_homs),
        bijection=witness is None and len(src_homs) == len(dst_homs),
        witness=witness,
        source_homs=src_homs,
    )


def full_faithful_witness(functor: FunctorOps, name_a: str, a, name_b: str, b) -> str | None:
    report = check_full_faithful(functor, name_a, a, name_b, b)
    if not report.bijection:
        return f"{report.source_count} vs {report.target_count}: {report.witness or 'count mismatch'}"
    return None


# ---------------------------------------------------------- pointwise witnesses

def characterization_witness(src: Rps, dst: Rps, f: tuple[int, ...], phi: tuple[int, ...]) -> str | None:
    """The two-condition test must agree with the definitional check."""
    cand = Morphism(f, phi)
    if characterize_morphism(f, phi, src, dst) != is_rps_morphism(cand, src, dst):
        return f"characterization disagrees on f={f}, phi={phi}"
    return None


def oracle_agreement_witness(fast: Callable, direct: Callable, src, dst) -> str | None:
    """The production hom enumerator and its brute-force oracle must find the
    same morphisms."""
    got, want = set(fast(src, dst)), set(direct(src, dst))
    if got != want:
        return f"fast path found {len(got)}, direct oracle {len(want)}"
    return None


def naturality_witness(src: S2tGroup, dst: S2tGroup, m: Morphism) -> str | None:
    """The rebuild isomorphisms commute with every morphism: going rebuilt ->
    src -> dst must equal rebuilt -> rebuilt -> dst over the lifted point map."""
    nd_s, nd_d = derived_neardomain(src), derived_neardomain(dst)
    if not is_nd_morphism(m.phi, nd_s, nd_d):
        return "point map is not a neardomain morphism"
    lifted = lift_nd_morphism(m.phi, nd_s, nd_d)
    left = compose_morphisms(m, canonical_isomorphism(src))
    right = compose_morphisms(canonical_isomorphism(dst), lifted)
    if left != right:
        return f"square does not commute: {left.f} != {right.f}"
    return None


def characteristic_coherence_witness(g: S2tGroup) -> str | None:
    char = characteristic(g)
    two = characteristic_two(derived_neardomain(g))
    if (char is Characteristic.TWO) != two:
        return f"group characteristic {char.value} but derived 1+1 {'==' if two else '!='} 0"
    return None


def translation_form_witness(nd: Neardomain) -> str | None:
    """Over an affine group the translation set must be exactly the b == one
    affine maps."""
    g = affine_group(nd)
    expected = perm_set(
        Perm(tuple(nd.add[c][x] for x in range(nd.order))) for c in range(nd.order)
    )
    got = translations(g).members
    if got != expected:
        return f"translation set {[list(p.images) for p in got]} != affine b=1 maps"
    return None


def nearfield_equivalence_witness(g: S2tGroup) -> str | None:
    """Translations form a subgroup iff involution products do iff the derived
    neardomain is a nearfield; the three bits must agree."""
    a = translations_form_subgroup(g)
    b = involution_products_form_subgroup(g)
    c = is_nearfield(derived_neardomain(g))
    if not (a == b == c):
        return (
            f"translations-subgroup={a}, involution-products-subgroup={b}, derived-nearfield={c}"
        )
    return None


def nd_injectivity_witness(src: Neardomain, dst: Neardomain) -> str | None:
    for phi in enumerate_nd_morphisms(src, dst):
        if len(set(phi)) != len(phi):
            return f"non-injective morphism {phi}"
    return None


def s2t_injectivity_witness(src: S2tGroup, dst: S2tGroup, hom: Callable | None = None) -> str | None:
    """Every pair that hom (by default enumerate_s2t_morphisms) lists must
    pass is_s2t_morphism, which rejects a non-injective phi and raises
    InvariantViolation on a non-injective f."""
    for m in (hom or enumerate_s2t_morphisms)(src, dst):
        if not is_s2t_morphism(m, src, dst):
            return f"enumerated pair is not a valid morphism: phi={m.phi}"
    return None


# ------------------------------------------------------------------ run_all

def _all_candidates(src: Rps, dst: Rps):
    """Every (f, phi) pair with phi fixing the base point."""
    for f in itertools.product(range(len(dst.members)), repeat=len(src.members)):
        for phi in based_point_maps(src, dst):
            yield f, phi


def _memoized(hom: Callable) -> Callable:
    """hom over ordered object pairs, each pair enumerated once for the life
    of the returned function."""
    homs: dict = {}

    def memo(src, dst):
        if (src, dst) not in homs:
            homs[src, dst] = hom(src, dst)
        return homs[src, dst]

    return memo


def run_all(zoo: Zoo | None = None) -> list[Verdict]:
    """The whole battery over the zoo; deterministic order, one verdict per
    check family, each witness naming the failing instance."""
    if zoo is None:
        zoo = standard_zoo()
    verdicts: list[Verdict] = []
    # the rps oracle hom-set and the s2t hom-set of each ordered pair,
    # enumerated once in this run and shared by the families that read them
    rps_hom_direct = _memoized(enumerate_rps_morphisms_direct)
    s2t_homs = _memoized(enumerate_s2t_morphisms)
    rps_to_loop = replace(RPS_TO_LOOP, source=replace(RPS_CAT_DIRECT, hom=rps_hom_direct))
    s2t_to_ndom = replace(S2T_TO_NDOM, source=replace(S2T_CAT, hom=s2t_homs))

    loops = list(zoo.loops)
    rps_objects = list(zoo.rps_objects)
    ndoms = list(zoo.neardomains)
    groups = list(zoo.groups)

    verdicts.append(_run_family(
        "loop-rps-roundtrip",
        [(name, (loop,)) for name, loop in loops],
        loop_roundtrip_witness,
    ))
    verdicts.append(_run_family(
        "rps-full-faithful",
        [
            (f"{na}->{nb}", (rps_to_loop, na, a, nb, b))
            for na, a in rps_objects
            for nb, b in rps_objects
        ],
        full_faithful_witness,
    ))
    verdicts.append(_run_family(
        "rps-hom-oracle-agreement",
        [
            (f"{na}->{nb}", (enumerate_rps_morphisms, rps_hom_direct, a, b))
            for na, a in rps_objects
            for nb, b in rps_objects
        ],
        oracle_agreement_witness,
    ))
    small_rps = [(n, r) for n, r in rps_objects if r.degree <= 3]
    verdicts.append(_run_family(
        "rps-morphism-characterization",
        [
            (f"{na}->{nb}:f={f},phi={phi}", (a, b, f, phi))
            for na, a in small_rps
            for nb, b in small_rps
            for f, phi in _all_candidates(a, b)
        ],
        characterization_witness,
    ))
    slice_rps = [(n, r) for n, r in rps_objects if r.degree <= 4]
    verdicts.append(check_functor_laws(rps_to_loop, slice_rps))

    verdicts.append(_run_family(
        "neardomain-is-nearfield",
        [(name, (nd,)) for name, nd in ndoms],
        lambda nd: None if is_nearfield(nd) else "finite neardomain is not a nearfield",
    ))
    verdicts.append(_run_family(
        "neardomain-roundtrip",
        [(name, (nd,)) for name, nd in ndoms],
        neardomain_roundtrip_witness,
    ))
    verdicts.append(_run_family(
        "translation-form",
        [(name, (nd,)) for name, nd in ndoms],
        translation_form_witness,
    ))

    verdicts.append(_run_family(
        "group-roundtrip",
        [(name, (g,)) for name, g in groups],
        group_roundtrip_witness,
    ))
    verdicts.append(_run_family(
        "characteristic-coherence",
        [(name, (g,)) for name, g in groups],
        characteristic_coherence_witness,
    ))
    verdicts.append(_run_family(
        "translation-regularity",
        [(name, (g,)) for name, g in groups],
        lambda g: None if translations(g).degree == g.degree else "unreachable",
    ))
    verdicts.append(_run_family(
        "s2t-full-faithful",
        [
            (f"{na}->{nb}", (s2t_to_ndom, na, a, nb, b))
            for na, a in groups
            for nb, b in groups
        ],
        full_faithful_witness,
    ))
    verdicts.append(_run_family(
        "s2t-naturality",
        [
            (f"{na}->{nb}", (a, b, m))
            for na, a in groups
            for nb, b in groups
            for m in s2t_homs(a, b)
        ],
        naturality_witness,
    ))
    verdicts.append(_run_family(
        "s2t-image-inclusions",
        [
            (f"{na}->{nb}", (m, a, b))
            for na, a in groups
            for nb, b in groups
            for m in s2t_homs(a, b)
        ],
        image_inclusion_witness,
    ))
    small_groups = [(n, g) for n, g in groups if g.degree <= 4]
    verdicts.append(_run_family(
        "s2t-hom-oracle-agreement",
        [
            (f"{na}->{nb}", (s2t_homs, enumerate_s2t_morphisms_direct, a, b))
            for na, a in small_groups
            for nb, b in small_groups
        ],
        oracle_agreement_witness,
    ))
    verdicts.append(_run_family(
        "nearfield-equivalence",
        [(name, (g,)) for name, g in groups],
        nearfield_equivalence_witness,
    ))
    verdicts.append(_run_family(
        "nd-morphism-injectivity",
        [
            (f"{na}->{nb}", (a, b))
            for na, a in ndoms
            for nb, b in ndoms
        ],
        nd_injectivity_witness,
    ))
    verdicts.append(_run_family(
        "s2t-morphism-injectivity",
        [
            (f"{na}->{nb}", (a, b, s2t_homs))
            for na, a in groups
            for nb, b in groups
        ],
        s2t_injectivity_witness,
    ))
    nd_slice = [(n, nd) for n, nd in ndoms if nd.order <= 4 or n in ("gf9", "dickson9")]
    verdicts.append(check_functor_laws(NDOM_TO_S2T, nd_slice))
    group_slice = [(n, g) for n, g in groups if g.degree <= 4]
    verdicts.append(check_functor_laws(s2t_to_ndom, group_slice))

    return verdicts
