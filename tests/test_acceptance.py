"""Acceptance battery: ten numbered criteria, each printing one PASS/FAIL
line, each enforced at exact equality. Helpers build deliberately corrupted
inputs for the sensitivity criterion by constructing value types directly,
bypassing the validating constructors.
"""

import itertools
import random

from algcat.catcheck import (
    FunctorOps,
    _run_family,
    check_full_faithful,
    check_functor_laws,
    full_faithful_witness,
    group_roundtrip_witness,
    naturality_witness,
    nearfield_equivalence_witness,
    neardomain_roundtrip_witness,
    rps_to_loop,
    s2t_to_ndom,
    translation_form_witness,
)
from algcat.errors import (
    AxiomViolation,
    LatinSquareViolation,
    StructureError,
)
from algcat.loops import check_loop, enumerate_loop_morphisms
from algcat.neardomain import (
    characteristic_two,
    check_neardomain,
    d_coeff,
    dickson_nearfield_9,
    enumerate_nd_morphisms,
    galois_field,
    is_nearfield,
)
from algcat.perms import Morphism, PermSet
from algcat.rps import (
    characterize_morphism,
    enumerate_rps_morphisms_direct,
    induced_loop,
    is_rps_morphism,
    loop_to_rps,
)
from algcat.s2t import (
    Characteristic,
    S2tGroup,
    affine_group,
    affine_maps,
    characteristic,
    check_s2t,
    derived_neardomain,
    enumerate_s2t_morphisms,
    translations,
)
from algcat.zoo import standard_zoo
from references import compose, fixed_points, inverse, is_involution

ZOO = standard_zoo()
RPS_TO_LOOP = rps_to_loop()
S2T_TO_NDOM = s2t_to_ndom()
S2T_FOR = {
    **{f"gf{q}": affine_group(galois_field(q)) for q in (2, 3, 4, 5, 7, 8, 9)},
    "dickson9": affine_group(dickson_nearfield_9()),
}


def test_criterion_01_loop_rps_equivalence(acceptance_report):
    failures = []
    for name, loop in ZOO.loops:
        if induced_loop(loop_to_rps(loop)) != loop:
            failures.append(f"roundtrip {name}")
    pairs = 0
    for na, a in ZOO.rps_objects:
        for nb, b in ZOO.rps_objects:
            pairs += 1
            loop_count = len(enumerate_loop_morphisms(induced_loop(a), induced_loop(b)))
            direct = enumerate_rps_morphisms_direct(a, b)
            if loop_count != len(direct):
                failures.append(f"count {na}->{nb}: {loop_count} vs {len(direct)}")
            witness = full_faithful_witness(RPS_TO_LOOP, a, b)
            if witness is not None:
                failures.append(f"bijection {na}->{nb}: {witness}")
    ok = not failures
    acceptance_report(1, "loop/rps equivalence", ok, f"{len(ZOO.loops)} loops, {pairs} hom pairs")
    assert ok, failures


def test_criterion_02_characterization_agreement(acceptance_report):
    small = [r for _, r in ZOO.rps_objects if r.degree <= 3]
    disagreements = []
    checked = 0
    for src in small:
        for dst in small:
            rest = [p for p in range(src.degree) if p != src.basepoint]
            for f in itertools.product(range(dst.degree), repeat=src.degree):
                for tail in itertools.product(range(dst.degree), repeat=len(rest)):
                    phi = [0] * src.degree
                    phi[src.basepoint] = dst.basepoint
                    for pos, v in zip(rest, tail):
                        phi[pos] = v
                    phi = tuple(phi)
                    checked += 1
                    if characterize_morphism(f, phi, src, dst) != is_rps_morphism(
                        Morphism(f, phi), src, dst
                    ):
                        disagreements.append((f, phi))
    rng = random.Random(20260816)
    big = [r for _, r in ZOO.rps_objects if r.degree in (4, 5)]
    for _ in range(1000):
        src = rng.choice(big)
        dst = rng.choice(big)
        f = tuple(rng.randrange(dst.degree) for _ in range(src.degree))
        phi = [rng.randrange(dst.degree) for _ in range(src.degree)]
        phi[src.basepoint] = dst.basepoint
        phi = tuple(phi)
        checked += 1
        if characterize_morphism(f, phi, src, dst) != is_rps_morphism(
            Morphism(f, phi), src, dst
        ):
            disagreements.append((f, phi))
    ok = not disagreements
    acceptance_report(2, "morphism characterization", ok, f"{checked} candidates, 0 tolerated")
    assert ok, disagreements[:3]


def test_criterion_03_neardomain_validity(acceptance_report):
    failures = []
    for name, nd in ZOO.neardomains:
        try:
            check_neardomain(nd.add, nd.mul, nd.zero, nd.one)
        except StructureError as exc:
            failures.append(f"{name}: {exc}")
        if not is_nearfield(nd):
            failures.append(f"{name}: finite neardomain is not a nearfield")
    # exhaustive bijection search, nothing pinned: no structure-preserving
    # bijection may exist between the twisted and the straight order-9 tables
    iso_count = _count_isomorphisms(dickson_nearfield_9(), galois_field(9))
    if iso_count != 0:
        failures.append(f"dickson9 ~ gf9: {iso_count} bijections found")
    iso_back = _count_isomorphisms(galois_field(9), dickson_nearfield_9())
    if iso_back != 0:
        failures.append(f"gf9 ~ dickson9: {iso_back} bijections found")
    ok = not failures
    acceptance_report(3, "neardomain validity", ok, f"{len(ZOO.neardomains)} instances, 0 cross isomorphisms")
    assert ok, failures


def _count_isomorphisms(src, dst) -> int:
    """Backtracking census of all bijections preserving both tables."""
    n = src.order
    count = 0
    image = [-1] * n
    used = [False] * n

    def rec(x: int) -> None:
        nonlocal count
        if x == n:
            count += 1
            return
        for y in range(n):
            if used[y]:
                continue
            image[x] = y
            used[y] = True
            consistent = True
            for a in range(x + 1):
                for b in range(x + 1):
                    za, zm = src.add[a][b], src.mul[a][b]
                    if image[za] != -1 and dst.add[image[a]][image[b]] != image[za]:
                        consistent = False
                        break
                    if image[zm] != -1 and dst.mul[image[a]][image[b]] != image[zm]:
                        consistent = False
                        break
                if not consistent:
                    break
            if consistent:
                rec(x + 1)
            used[y] = False
            image[x] = -1

    rec(0)
    return count


def test_criterion_04_affine_construction(acceptance_report):
    expected = {2: 2, 3: 6, 4: 12, 5: 20, 7: 42, 8: 56, 9: 72}
    failures = []
    built = [(f"gf{q}", galois_field(q)) for q in expected] + [
        ("dickson9", dickson_nearfield_9())
    ]
    for name, nd in built:
        g = S2T_FOR[name]
        n = nd.order
        if len(g.group) != n * (n - 1):
            failures.append(f"{name}: order {len(g.group)} != {n * (n - 1)}")
        maps = affine_maps(nd)
        by_perm = {p: (a, b) for a, b, p in maps}
        for a, b, p in maps:
            for k, l, q in maps:
                bk = nd.mul[b][k]
                d = d_coeff(nd, a, bk)
                want = (nd.add[a][bk], nd.mul[d][nd.mul[b][l]])
                if by_perm[compose(p, q)] != want:
                    failures.append(f"{name}: composition law fails at {(a, b)} {(k, l)}")
    ok = not failures
    acceptance_report(4, "affine group construction", ok, f"{len(built)} neardomains, all pairs")
    assert ok, failures



def test_criterion_05_characteristic_coherence(acceptance_report):
    failures = []
    for name, g in ZOO.groups:
        counts = {len(fixed_points(p)) for p in g.group if is_involution(p)}
        if counts not in ({0}, {1}):
            failures.append(f"{name}: involution fixpoint counts {counts}")
        char_two = characteristic(g) is Characteristic.TWO
        if char_two != characteristic_two(derived_neardomain(g)):
            failures.append(f"{name}: characteristic disagrees with derived 1+1")
    ok = not failures
    acceptance_report(5, "characteristic coherence", ok, f"{len(ZOO.groups)} groups, 0 exceptions")
    assert ok, failures


def test_criterion_06_translation_set(acceptance_report):
    failures = []
    for name, g in ZOO.groups:
        try:
            translations(g)  # validated as a regular permutation set internally
        except StructureError as exc:
            failures.append(f"{name}: {exc}")
    for name, nd in ZOO.neardomains:
        witness = translation_form_witness(nd)
        if witness is not None:
            failures.append(f"{name}: {witness}")
    ok = not failures
    acceptance_report(6, "translation structure", ok, f"{len(ZOO.groups)} groups + {len(ZOO.neardomains)} affine forms")
    assert ok, failures


def test_criterion_07_main_equivalence(acceptance_report):
    failures = []
    for name, nd in ZOO.neardomains:
        witness = neardomain_roundtrip_witness(nd)
        if witness is not None:
            failures.append(f"roundtrip {name}: {witness}")
    nonnative = [n for n, _ in ZOO.groups if "relabeled" in n or "@" in n]
    if len(nonnative) < 2:
        failures.append(f"zoo must carry at least two non-native presentations, has {nonnative}")
    for name, g in ZOO.groups:
        witness = group_roundtrip_witness(g)
        if witness is not None:
            failures.append(f"gamma {name}: {witness}")
    pairs = morphisms = 0
    for na, a in ZOO.groups:
        for nb, b in ZOO.groups:
            pairs += 1
            homs = enumerate_s2t_morphisms(a, b)
            if characteristic(a) is not characteristic(b) and homs:
                failures.append(f"{na}->{nb}: mixed characteristics admit no morphisms")
            for m in homs:
                morphisms += 1
                witness = naturality_witness(a, b, m)
                if witness is not None:
                    failures.append(f"naturality {na}->{nb}: {witness}")
            _, _, witness = check_full_faithful(S2T_TO_NDOM, a, b)
            if witness is not None:
                failures.append(f"hom bijection {na}->{nb}: {witness}")
    ok = not failures
    acceptance_report(
        7,
        "categorical equivalence",
        ok,
        f"{len(ZOO.neardomains)} roundtrips, {pairs} hom pairs, {morphisms} naturality squares",
    )
    assert ok, failures


def test_criterion_08_nearfield_restriction(acceptance_report):
    failures = []
    for name, g in ZOO.groups:
        witness = nearfield_equivalence_witness(g)
        if witness is not None:
            failures.append(f"{name}: {witness}")
    for name, nd in ZOO.neardomains:
        if not is_nearfield(nd):
            continue
        witness = neardomain_roundtrip_witness(nd)
        if witness is not None:
            failures.append(f"restriction roundtrip {name}: {witness}")
    ok = not failures
    acceptance_report(8, "nearfield restriction", ok, f"{len(ZOO.groups)} groups, three-way equivalence")
    assert ok, failures


def test_criterion_09_injectivity(acceptance_report):
    failures = []
    nd_homs = s2t_homs = 0
    for na, a in ZOO.neardomains:
        for nb, b in ZOO.neardomains:
            for phi in enumerate_nd_morphisms(a, b):
                nd_homs += 1
                if len(set(phi)) != len(phi):
                    failures.append(f"nd {na}->{nb}: {phi}")
    for na, a in ZOO.groups:
        for nb, b in ZOO.groups:
            for m in enumerate_s2t_morphisms(a, b):
                s2t_homs += 1
                if len(set(m.f)) != len(m.f):
                    failures.append(f"s2t {na}->{nb}: f not injective")
    ok = not failures
    acceptance_report(9, "morphism injectivity", ok, f"{nd_homs} nd + {s2t_homs} group morphisms")
    assert ok, failures


def test_criterion_10_mutation_sensitivity(acceptance_report):
    failures = []

    # criterion 1 material: a corrupted Cayley table and a corrupted functor
    try:
        check_loop(((0, 1), (1, 1)))
        failures.append("corrupted loop table accepted")
    except LatinSquareViolation as exc:
        if "1" not in str(exc):
            failures.append("loop violation lacks a witness")
    z3 = check_loop(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    r3 = loop_to_rps(z3)
    scrambled = FunctorOps(
        name="corrupted",
        source=RPS_TO_LOOP.source,
        target=RPS_TO_LOOP.target,
        obj=RPS_TO_LOOP.obj,
        mor=lambda m, s, d: tuple(reversed(m.phi)),
    )
    verdict = check_functor_laws(scrambled, [("z3", r3)])
    if verdict.passed or not verdict.witness:
        failures.append("corrupted functor passed the law check")

    # criterion 3 material: one poisoned cell per axiom family
    gf3 = galois_field(3)
    bad_mul = [list(r) for r in gf3.mul]
    bad_mul[1][2] = 0
    try:
        check_neardomain(gf3.add, bad_mul, 0, 1)
        failures.append("corrupted multiplication accepted")
    except AxiomViolation as exc:
        if exc.axiom != 3 or exc.witness is None:
            failures.append(f"wrong axiom witness: {exc}")

    # criterion 4 material: drop one member, sharp transitivity must name a pair
    g3 = S2T_FOR["gf3"]
    try:
        check_s2t(PermSet(g3.degree, g3.group.members[:-1]), 0, 1)
        failures.append("mutilated group accepted")
    except StructureError as exc:
        if not str(exc):
            failures.append("mutilated group witness empty")

    # criterion 7 material: a corrupted morphism breaks the naturality square
    g9 = S2T_FOR["gf9"]
    good = enumerate_s2t_morphisms(g9, g9)[1]
    bad = Morphism(f=good.f, phi=tuple(range(9)))
    if naturality_witness(g9, g9, bad) is None:
        failures.append("corrupted naturality square not flagged")
    _, _, witness = check_full_faithful(
        FunctorOps(
            name="collapse",
            source=S2T_TO_NDOM.source,
            target=S2T_TO_NDOM.target,
            obj=S2T_TO_NDOM.obj,
            mor=lambda m, s, d: tuple(range(9)),
        ),
        g9,
        g9,
    )
    if not witness:
        failures.append("collapsed functor reported as a bijection")

    # criterion 8 material: a poisoned member set must fail with a witness
    poisoned_members = list(g3.group.members)
    poisoned_members[-1] = compose(inverse(poisoned_members[-1]), poisoned_members[1])
    poisoned = S2tGroup(
        group=PermSet(3, tuple(sorted(set(poisoned_members)))),
        degree=3,
        omega0=0,
        omega1=1,
    )
    verdict = _run_family(
        "mutated-equivalence", [("poisoned", (poisoned,))], nearfield_equivalence_witness
    )
    if verdict.passed or not verdict.witness:
        failures.append("poisoned group slipped through the equivalence check")

    ok = not failures
    acceptance_report(10, "mutation sensitivity", ok, "criteria 1, 3, 4, 7, 8 corrupted inputs")
    assert ok, failures
