import ast
import importlib
import itertools
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import algcat
from algcat import catcheck, cli, loops, neardomain, rps, s2t
from algcat.catcheck import (
    CategoryOps,
    FunctorOps,
    _run_family,
    characteristic_coherence_witness,
    characterization_witness,
    check_full_faithful,
    check_functor_laws,
    full_faithful_witness,
    group_roundtrip_witness,
    loop_roundtrip_witness,
    naturality_witness,
    nd_injectivity_witness,
    nearfield_equivalence_witness,
    ndom_to_s2t,
    neardomain_roundtrip_witness,
    oracle_agreement_witness,
    rps_to_loop,
    run_all,
    s2t_injectivity_witness,
    s2t_to_ndom,
    translation_form_witness,
    translation_regularity_witness,
)
from algcat.errors import StructureError
from algcat.loops import Loop, check_loop, enumerate_loop_morphisms, is_associative
from algcat.neardomain import Neardomain, coefficients, dickson_nearfield_9, enumerate_nd_morphisms, galois_field
from algcat.perms import Morphism, PermSet, closure, perm_set
from algcat.rps import Rps, enumerate_rps_morphisms_direct, identity_rps_morphism, induced_loop, lift_loop_morphism, loop_to_rps
from algcat.s2t import (
    S2tGroup,
    affine_group,
    enumerate_s2t_morphisms,
    enumerate_s2t_morphisms_direct,
    forced_member_map,
    identity_s2t_morphism,
    involution_products_form_subgroup,
    lift_nd_morphism,
    translations_form_subgroup,
)
from algcat.zoo import Zoo

Z3 = check_loop(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
RPS_TO_LOOP = rps_to_loop()
S2T_TO_NDOM = s2t_to_ndom()
NDOM_TO_S2T = ndom_to_s2t()


def test_run_all_green(zoo):
    verdicts = run_all(zoo)
    names = [v.name for v in verdicts]
    assert len(set(names)) == len(names)
    failing = [v for v in verdicts if not v.passed]
    assert not failing, failing
    assert all(v.checked > 0 for v in verdicts)
    # the per-family counts of the verify-all report: each family still runs
    # on the same inputs, so the counts are fixed
    expected = {
        "loop-rps-roundtrip": 11,
        "rps-full-faithful": 121,
        "rps-hom-oracle-agreement": 121,
        "rps-morphism-characterization": 318,
        "functor-laws/rps->loop": 999,
        "neardomain-is-nearfield": 8,
        "neardomain-roundtrip": 8,
        "translation-form": 8,
        "group-roundtrip": 12,
        "characteristic-coherence": 12,
        "translation-regularity": 12,
        "s2t-full-faithful": 144,
        "s2t-naturality": 61,
        "s2t-image-inclusions": 61,
        "s2t-hom-oracle-agreement": 36,
        "nearfield-equivalence": 12,
        "nd-morphism-injectivity": 64,
        "s2t-morphism-injectivity": 144,
        "functor-laws/ndom->s2t": 64,
        "functor-laws/s2t->ndom": 76,
    }
    assert {v.name: v.checked for v in verdicts} == expected


def test_run_all_searches_each_loop_pair_once(zoo, monkeypatch):
    # rps-full-faithful's target category and rps-hom-oracle-agreement's
    # production path read one memo of the induced-loop hom-sets, so the
    # table search runs once per ordered pair of loops
    calls = Counter()
    search = loops.table_homomorphisms

    def counted(src_ops, dst_ops, pinned):
        calls[src_ops, dst_ops] += 1
        return search(src_ops, dst_ops, pinned)

    monkeypatch.setattr(loops, "table_homomorphisms", counted)
    assert all(v.passed for v in run_all(zoo))
    assert len(calls) == len(zoo.rps_objects) ** 2 and set(calls.values()) == {1}


def test_module_level_caches_are_pinned():
    # a module-global cache keyed on whole structures keeps them alive for
    # the life of the process; adding one must show up as an edit here
    package = Path(algcat.__file__).parent
    found = set()
    for info in pkgutil.iter_modules([str(package)]):
        mod = importlib.import_module(f"algcat.{info.name}")
        for name, value in vars(mod).items():
            if hasattr(value, "cache_info") and value.__module__ == mod.__name__:
                found.add(f"{info.name}.{name}")
    assert found == {
        "cli._parse",
        "loops._canonical_scan",
        "neardomain.galois_field",
        "neardomain.dickson_nearfield_9",
        "zoo.standard_zoo",
    }
    # the three constant constructors take no structure; the CLI's input
    # cache is keyed on bytes, not on structures, and it is bounded; the
    # canonical-form scan is keyed on an order, not a structure, and it
    # holds one order
    assert cli._parse.cache_parameters()["maxsize"] == 64
    assert loops._canonical_scan.cache_parameters()["maxsize"] == 1


def test_no_source_line_is_over_120_characters():
    # the package's size is read in lines, so a line count must not fall by
    # packing more onto each line
    package = Path(algcat.__file__).parent
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 120
    ]
    assert not long_lines, long_lines


def _point_decisions(tree: ast.AST) -> list[int]:
    """The lines of tree that decide by themselves whether a value is a
    point: an `in range(...)` or `not in range(...)` test, or a chained
    bound such as `0 <= x < n`."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        in_range = any(
            isinstance(op, (ast.In, ast.NotIn))
            and isinstance(right, ast.Call)
            and isinstance(right.func, ast.Name)
            and right.func.id == "range"
            for op, right in zip(node.ops, node.comparators)
        )
        chained = len(node.ops) > 1 and all(isinstance(op, (ast.Lt, ast.LtE)) for op in node.ops)
        if in_range or chained:
            found.add(node.lineno)
    return sorted(found)


def test_only_perms_decides_what_a_point_is():
    # perms holds the one point, row, bijection and total-map test; a range
    # test restated in another module would accept what perms refuses
    package = Path(algcat.__file__).parent
    sites = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        if path.name != "perms.py"
        for number in _point_decisions(ast.parse(path.read_text()))
    ]
    assert not sites, sites
    # the detector itself sees both forms
    assert _point_decisions(ast.parse("v in range(n)\nnot 0 <= x < n\nv not in range(n)\na < b")) == [1, 2, 3]


def test_functor_laws_pass_on_slice(zoo):
    slice_rps = [(n, r) for n, r in zoo.rps_objects if r.degree <= 3]
    verdict = check_functor_laws(RPS_TO_LOOP, slice_rps)
    assert verdict.passed and verdict.checked > 0


def test_functor_laws_enumerate_each_hom_set_once(zoo):
    calls = Counter()

    def hom(a, b):
        calls[a, b] += 1
        return NDOM_TO_S2T.source.hom(a, b)

    functor = ndom_to_s2t(hom)
    assert functor.source.hom is hom and NDOM_TO_S2T.source.hom is enumerate_nd_morphisms
    objects = [(n, nd) for n, nd in zoo.neardomains if nd.order <= 4]
    verdict = check_functor_laws(functor, objects)
    assert verdict.passed and verdict.checked == check_functor_laws(NDOM_TO_S2T, objects).checked
    assert len(calls) == len(objects) ** 2 and set(calls.values()) == {1}


def test_corrupted_functor_fails_laws():
    # a "functor" that garbles the point map of every nonidentity morphism
    def bad_mor(m, src, dst):
        phi = list(m.phi)
        if phi != sorted(phi) and len(phi) >= 2:
            phi[0], phi[1] = phi[1], phi[0]
        return tuple(phi)

    broken = FunctorOps(
        name="corrupted",
        source=RPS_TO_LOOP.source,
        target=RPS_TO_LOOP.target,
        obj=RPS_TO_LOOP.obj,
        mor=bad_mor,
    )
    r3 = loop_to_rps(Z3)
    verdict = check_functor_laws(broken, [("z3", r3)])
    assert not verdict.passed
    assert verdict.witness


def test_full_faithful_report():
    r3 = loop_to_rps(Z3)
    src_homs, dst_homs, witness = check_full_faithful(RPS_TO_LOOP, r3, r3)
    assert witness is None and len(src_homs) == len(dst_homs) == 3

    def collapse(m, src, dst):
        return tuple(0 for _ in m.phi)

    broken = FunctorOps("c", RPS_TO_LOOP.source, RPS_TO_LOOP.target, RPS_TO_LOOP.obj, collapse)
    _, _, witness = check_full_faithful(broken, r3, r3)
    assert witness
    assert full_faithful_witness(broken, r3, r3) is not None


def test_full_faithful_names_a_count_mismatch():
    # a target hom-set listing one loop morphism twice: every induced
    # morphism is hit, injectively, and the two listings still differ in
    # length
    r3 = loop_to_rps(Z3)
    target = RPS_TO_LOOP.target

    def doubled(a, b):
        homs = enumerate_loop_morphisms(a, b)
        return homs + homs[:1]

    functor = FunctorOps(
        "doubled",
        RPS_TO_LOOP.source,
        CategoryOps(doubled, target.identity, target.compose, target.is_morphism),
        RPS_TO_LOOP.obj,
        RPS_TO_LOOP.mor,
    )
    assert full_faithful_witness(functor, r3, r3) == "3 vs 4: count mismatch"


# fixes 0 and 1 of GF(5) and is a bijection, so it forces a member map, but
# it is no neardomain morphism
PHI5 = (0, 1, 4, 3, 2)


def _listing_also(hom, src, dst, extra):
    """hom, with extra listed last on the pair (src, dst)."""
    return lambda a, b: hom(a, b) + ((extra,) if (a, b) == (src, dst) else ())


@pytest.mark.parametrize("family", ["ndom->s2t", "s2t->ndom", "rps->loop"])
def test_families_fail_on_a_hom_set_with_one_bad_member(zoo, family):
    # the morphism maps check nothing, so each functor-laws family confirms
    # each image itself, and names the pair and the member whose image fails;
    # each full-faithfulness family finds that image outside the target
    # hom-set
    nds, groups, rpss = dict(zoo.neardomains), dict(zoo.groups), dict(zoo.rps_objects)
    if family == "ndom->s2t":
        gf5 = nds["gf5"]
        functor = ndom_to_s2t(_listing_also(enumerate_nd_morphisms, gf5, gf5, PHI5))
        objects, bad, image = [("gf2", nds["gf2"]), ("gf5", gf5)], PHI5, lift_nd_morphism(PHI5, gf5, gf5)
        full_faithful = None
    elif family == "s2t->ndom":
        a5 = groups["aff(gf5)"]
        bad = Morphism(forced_member_map(PHI5, a5, a5), PHI5)
        functor = s2t_to_ndom(_listing_also(enumerate_s2t_morphisms_direct, a5, a5, bad))
        objects, image, full_faithful = [("aff(gf2)", groups["aff(gf2)"]), ("aff(gf5)", a5)], PHI5, "s2t-full-faithful"
    else:
        r3 = rpss["rps(loop3_0)"]
        bad = Morphism(identity_rps_morphism(r3).f, (0, 0, 1))
        functor = rps_to_loop(_listing_also(enumerate_rps_morphisms_direct, r3, r3, bad))
        objects, image, full_faithful = [("rps(loop3_0)", r3)], (0, 0, 1), "rps-full-faithful"
    name, obj = objects[-1]
    verdict = check_functor_laws(functor, objects)
    assert (verdict.name, verdict.passed) == (f"functor-laws/{family}", False)
    assert verdict.witness == f"{name}->{name}: image of {bad}: not a morphism: {image}"
    if full_faithful:
        count = len(functor.source.hom(obj, obj))
        verdict = _run_family(full_faithful, [(f"{name}->{name}", (functor, obj, obj))], full_faithful_witness)
        assert not verdict.passed
        assert verdict.witness == (
            f"{name}->{name}: {count} vs {count - 1}: induced morphism not in target hom-set: {image}"
        )


@pytest.mark.parametrize("family", ["ndom->s2t", "rps->loop"])
def test_functor_laws_name_the_pair_when_an_image_raises(zoo, family):
    # a member the morphism map cannot lift, or whose image the target
    # predicate refuses to read, is named with its pair like one that fails
    nds, rpss = dict(zoo.neardomains), dict(zoo.rps_objects)
    if family == "ndom->s2t":
        gf5, bad = nds["gf5"], (0, 1, 1, 1, 1)
        functor = ndom_to_s2t(_listing_also(enumerate_nd_morphisms, gf5, gf5, bad))
        objects = [("gf2", nds["gf2"]), ("gf5", gf5)]
        raised = "StructureError: member [1, 2, 3, 4, 0] matches no target member on the base points"
    else:
        r3 = rpss["rps(loop3_0)"]
        bad = Morphism(identity_rps_morphism(r3).f, (0, 0, 3))
        functor = rps_to_loop(_listing_also(enumerate_rps_morphisms_direct, r3, r3, bad))
        objects = [("rps(loop3_0)", r3)]
        raised = "ValueError: f is not a total map into the target loop"
    name = objects[-1][0]
    verdict = check_functor_laws(functor, objects)
    assert (verdict.name, verdict.passed) == (f"functor-laws/{family}", False)
    assert verdict.witness == f"{name}->{name}: image of {bad}: {raised}"


def test_functor_laws_map_each_morphism_once(zoo, monkeypatch):
    # each member of each hom-set is lifted once, for its image check, and
    # each identity and composite once more: on the slice of verify-all,
    # 15 morphisms, 5 identities and 59 composites
    calls = []

    def counted(phi, src, dst):
        calls.append(phi)
        return lift_nd_morphism(phi, src, dst)

    monkeypatch.setattr(catcheck, "lift_nd_morphism", counted)
    nd_slice = [(n, nd) for n, nd in zoo.neardomains if nd.order <= 4 or n in ("gf9", "dickson9")]
    verdict = check_functor_laws(ndom_to_s2t(), nd_slice)
    assert (verdict.passed, verdict.checked) == (True, 64)
    assert len(calls) == 15 + 5 + 59


def test_s2t_hom_set_families_fail_on_one_bad_member(zoo):
    # s2t-morphism-injectivity confirms each listed pair with is_s2t_morphism:
    # PHI5 is injective and fixes the base points, and f is forced from it,
    # but it does not intertwine. s2t-hom-oracle-agreement counts a pair the
    # definitional search does not find: the nontrivial f of aff(gf4) with
    # the identity phi
    groups = dict(zoo.groups)
    a4, a5 = groups["aff(gf4)"], groups["aff(gf5)"]
    bad = Morphism(forced_member_map(PHI5, a5, a5), PHI5)
    hom = _listing_also(enumerate_s2t_morphisms, a5, a5, bad)
    items = [(f"{na}->{nb}", (a, b, hom)) for na, a in zoo.groups for nb, b in zoo.groups]
    verdict = _run_family("s2t-morphism-injectivity", items, s2t_injectivity_witness)
    assert not verdict.passed
    assert verdict.witness == "aff(gf5)->aff(gf5): enumerated pair is not a valid morphism: phi=(0, 1, 4, 3, 2)"
    frobenius = enumerate_s2t_morphisms(a4, a4)[1]
    extra = Morphism(frobenius.f, identity_s2t_morphism(a4).phi)
    hom = _listing_also(enumerate_s2t_morphisms, a4, a4, extra)
    small = [(n, g) for n, g in zoo.groups if g.degree <= 4]
    items = [(f"{na}->{nb}", (hom, enumerate_s2t_morphisms_direct, a, b)) for na, a in small for nb, b in small]
    verdict = _run_family("s2t-hom-oracle-agreement", items, oracle_agreement_witness)
    assert not verdict.passed
    assert verdict.witness == "aff(gf4)->aff(gf4): fast path found 3, direct oracle 2"


def test_nd_injectivity_family_fails_on_one_non_injective_map(zoo):
    # a hom-set of gf3 that also lists a map folding 1 and 2 together
    gf3 = dict(zoo.neardomains)["gf3"]
    hom = _listing_also(enumerate_nd_morphisms, gf3, gf3, (0, 1, 1))
    items = [(f"{na}->{nb}", (a, b, hom)) for na, a in zoo.neardomains for nb, b in zoo.neardomains]
    verdict = _run_family("nd-morphism-injectivity", items, nd_injectivity_witness)
    assert (verdict.passed, verdict.checked) == (False, 10)
    assert verdict.witness == "gf3->gf3: non-injective morphism (0, 1, 1)"


def test_characterization_family_fails_on_a_corrupted_member_loop(zoo):
    # the rps of Z3 built directly with two entries of its stored member
    # loop swapped: the two-condition test reads that table, the definition
    # reads the members, and they part at the first automorphism of Z3
    r3 = dict(zoo.rps_objects)["rps(loop3_0)"]
    table = [list(row) for row in r3.member_loop.table]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    swapped = Loop(3, tuple(map(tuple, table)), r3.member_loop.identity)
    bad = Rps(r3.members, r3.degree, r3.basepoint, r3.base_images, r3.member_at, r3.loop, swapped)
    verdicts = {v.name: v for v in run_all(Zoo((), (("rps(loop3_0)/swapped", bad),), (), ()))}
    verdict = verdicts["rps-morphism-characterization"]
    assert (verdict.passed, verdict.checked) == (False, 71)
    assert verdict.witness == (
        "rps(loop3_0)/swapped->rps(loop3_0)/swapped:f=(0, 2, 1),phi=(0, 2, 1): "
        "characterization disagrees on f=(0, 2, 1), phi=(0, 2, 1)"
    )


def test_morphism_maps_check_nothing(zoo, monkeypatch):
    # the functor-laws families own the definitional checks, so the morphism
    # maps run none: they build the same morphisms with every loop and
    # neardomain morphism check refused
    rps_pairs = [(a, b) for _, a in zoo.rps_objects for _, b in zoo.rps_objects]
    nd_pairs = [(a, b) for _, a in zoo.neardomains for _, b in zoo.neardomains]
    loop_homs = {(a, b): enumerate_loop_morphisms(induced_loop(a), induced_loop(b)) for a, b in rps_pairs}
    nd_homs = {(a, b): enumerate_nd_morphisms(a, b) for a, b in nd_pairs}
    lifts = lambda lift, homs: {(a, b): [lift(phi, a, b) for phi in phis] for (a, b), phis in homs.items()}
    loop_lifts, nd_lifts = lifts(lift_loop_morphism, loop_homs), lifts(lift_nd_morphism, nd_homs)

    def refuse(*args):
        raise AssertionError("a morphism map ran a definitional check")

    for module in (rps, s2t, catcheck):
        for attr in ("is_loop_morphism", "is_nd_morphism"):
            monkeypatch.setattr(module, attr, refuse, raising=False)
    assert lifts(lift_loop_morphism, loop_homs) == loop_lifts
    assert lifts(lift_nd_morphism, nd_homs) == nd_lifts
    assert sum(map(len, loop_lifts.values())) == 217 and sum(map(len, nd_lifts.values())) == 21
    mor = s2t_to_ndom().mor
    for _, a in zoo.groups:
        for _, b in zoo.groups:
            for m in enumerate_s2t_morphisms_direct(a, b):
                assert mor(m, a, b) == m.phi


def test_roundtrip_witnesses_none(zoo):
    for _, loop in zoo.loops:
        assert loop_roundtrip_witness(loop) is None
    for _, nd in zoo.neardomains:
        assert neardomain_roundtrip_witness(nd) is None
    for _, g in zoo.groups:
        assert group_roundtrip_witness(g) is None


def test_roundtrip_witness_on_corrupted_group():
    g = affine_group(galois_field(4))
    # bypass validation: swap the roles of the base points
    tampered = S2tGroup(group=g.group, degree=g.degree, omega0=g.omega1, omega1=g.omega0)
    # the derived structure moves with the base points, so the rebuild matches
    assert group_roundtrip_witness(tampered) is None
    # but a non-member set cannot rebuild
    smaller = S2tGroup(
        group=type(g.group)(g.degree, g.group.members[:-1]),
        degree=g.degree,
        omega0=g.omega0,
        omega1=g.omega1,
    )
    with pytest.raises(Exception):
        group_roundtrip_witness(smaller)


def test_roundtrip_families_fail_on_a_corrupted_input():
    # neardomain-roundtrip: GF(5) with zero * y == y; no affine map reads
    # the row of zero, so affine_group certifies the group of GF(5) and only
    # the rebuild tells the tables apart.
    # group-roundtrip: aff(gf5) with x -> 1 + 2x changed off the base points
    # by swapping the images of 2 and 3; no involution and no member fixing
    # 0 moves, so the derived neardomain is GF(5), whose group differs.
    gf5 = galois_field(5)
    nd = Neardomain(5, gf5.add, (tuple(range(5)),) + gf5.mul[1:], 0, 1)
    members = affine_group(gf5).group.members
    moved = [(1, 3, 2, 0, 4) if p == (1, 3, 0, 2, 4) else p for p in members]
    g = S2tGroup(perm_set(moved), 5, 0, 1)
    assert g.group != affine_group(gf5).group
    verdicts = {v.name: v for v in run_all(Zoo((), (), (("gf5/mul0", nd),), (("aff(gf5)/moved", g),)))}
    assert verdicts["neardomain-roundtrip"].witness == "gf5/mul0: mul[0][1]: 0 != 1"
    assert verdicts["group-roundtrip"].witness == "aff(gf5)/moved: rebuilt affine group is not the original member set"


def test_injectivity_family_names_non_injective_pairs():
    g2 = affine_group(galois_field(2))
    identity, swap = g2.group.members
    # unvalidated source listing the swap twice, so that f = (0, 1, 1)
    # passes every other condition of is_s2t_morphism
    doubled = S2tGroup(PermSet(2, (identity, swap, swap)), 2, 0, 1)
    hom = lambda src, dst: (Morphism((0, 1, 1), (0, 1)),)
    pairs = [("doubled->aff(gf2)", (doubled, g2, hom))]
    verdict = catcheck._run_family("s2t-morphism-injectivity", pairs, s2t_injectivity_witness)
    assert not verdict.passed
    assert verdict.witness.startswith("doubled->aff(gf2): InvariantViolation")
    assert "have injective f fails at (0, 1, 1)" in verdict.witness
    # a non-injective phi is rejected as an invalid morphism
    g3 = affine_group(galois_field(3))
    hom = lambda src, dst: (Morphism((0,) * 6, (0, 1, 1)),)
    verdict = catcheck._run_family("s2t-morphism-injectivity", [("aff(gf3)", (g3, g3, hom))], s2t_injectivity_witness)
    assert verdict.witness == "aff(gf3): enumerated pair is not a valid morphism: phi=(0, 1, 1)"


def test_naturality_witness_flags_corruption():
    g9 = affine_group(galois_field(9))
    good = enumerate_s2t_morphisms(g9, g9)[1]
    assert naturality_witness(g9, g9, good) is None
    bad = Morphism(f=good.f, phi=tuple(range(9)))
    assert naturality_witness(g9, g9, bad).startswith("square does not commute: ")
    # a point map that is not a total map into the target raises before any witness
    with pytest.raises(ValueError, match="not a total map"):
        naturality_witness(g9, g9, Morphism(f=good.f, phi=(0, 1)))


def test_naturality_names_a_rebuilt_group_that_is_not_the_original():
    # an unvalidated group carrying a derived neardomain not its own: the
    # members of aff(gf9) with the Dickson nearfield of order 9
    affd = affine_group(dickson_nearfield_9())
    t = S2tGroup(affine_group(galois_field(9)).group, 9, 0, 1)
    t._derived["derived_neardomain"] = dickson_nearfield_9()
    assert group_roundtrip_witness(t) == "rebuilt affine group is not the original member set"
    assert naturality_witness(t, t, identity_s2t_morphism(t)) == "rebuilt group is not the original source"
    # each side is checked on its own
    assert naturality_witness(t, affd, identity_s2t_morphism(t)) == "rebuilt group is not the original source"
    assert naturality_witness(affd, t, identity_s2t_morphism(affd)) == "rebuilt group is not the original target"


def test_naturality_family_confirms_each_lift(zoo, monkeypatch):
    # the lift is forced from base images; the family must still fail, naming
    # the first pair, when is_s2t_morphism does not confirm it
    monkeypatch.setattr(catcheck, "is_s2t_morphism", lambda m, src, dst: False)
    verdict = next(v for v in run_all(zoo) if v.name == "s2t-naturality")
    assert not verdict.passed
    assert verdict.witness == (
        "aff(gf2)->aff(gf2): Morphism(f=(0, 1), phi=(0, 1)): lift of phi=(0, 1) is not a morphism of the affine groups"
    )


def test_per_morphism_families_name_the_failing_member(zoo):
    # a hom-set listing a good morphism of aff(gf9), then a bad one: the
    # witness names the pair and the bad member, whether the witness
    # function returns a witness or raises, and both members are counted
    g = affine_group(galois_field(9))
    good = enumerate_s2t_morphisms(g, g)[1]
    for phi, error in (
        ((0, 1), "ValueError: phi is not a total map into the target carrier"),
        (good.phi[::-1], "point map is not a neardomain morphism"),
    ):
        bad = Morphism(good.f, phi)
        items = catcheck._members([("gf9", g)], lambda a, b: (good, bad), naturality_witness)
        verdict = _run_family("s2t-naturality", items)
        assert (verdict.passed, verdict.checked, verdict.witness) == (False, 2, f"gf9->gf9: {bad}: {error}")
    # s2t-image-inclusions, on aff(gf5) listing its identity and then that
    # identity with one involution sent to the identity member
    g = dict(zoo.groups)["aff(gf5)"]
    identity = identity_s2t_morphism(g)
    f = list(identity.f)
    f[g.group.index(s2t.involutions(g).members[0])] = 0
    bad = Morphism(tuple(f), identity.phi)
    witness_fn = lambda a, b, m: catcheck.image_inclusion_witness(m, a, b)
    items = catcheck._members([("aff(gf5)", g)], lambda a, b: (identity, bad), witness_fn)
    verdict = _run_family("s2t-image-inclusions", items)
    assert (verdict.passed, verdict.checked, verdict.witness) == (
        False,
        2,
        f"aff(gf5)->aff(gf5): {bad}: involution [0, 4, 3, 2, 1] maps to non-involution [0, 1, 2, 3, 4]",
    )


def test_naturality_checks_each_point_map_once(zoo, monkeypatch):
    # one full-table neardomain check per square: the lift is forced without
    # checking phi again; s2t binds no is_nd_morphism, and one bound there
    # again would be counted too
    calls = []

    def counted(phi, src, dst):
        calls.append(tuple(phi))
        return neardomain.is_nd_morphism(phi, src, dst)

    monkeypatch.setattr(catcheck, "is_nd_morphism", counted)
    monkeypatch.setattr(s2t, "is_nd_morphism", counted, raising=False)
    squares = 0
    for _, src in zoo.groups:
        for _, dst in zoo.groups:
            for m in enumerate_s2t_morphisms(src, dst):
                calls.clear()
                assert naturality_witness(src, dst, m) is None
                assert calls == [m.phi]
                squares += 1
    assert squares == 61


def test_equivalence_and_translation_witnesses(zoo):
    for _, g in zoo.groups:
        assert nearfield_equivalence_witness(g) is None
    for _, nd in zoo.neardomains:
        assert translation_form_witness(nd) is None


def test_nearfield_equivalence_bits_fail_on_corrupted_inputs(zoo, monkeypatch):
    # on valid input all three bits are always true (every finite neardomain
    # is a nearfield), so each predicate is fed a corrupted derived set
    name, g = next((n, g) for n, g in zoo.groups if n == "aff(gf5)")
    assert nearfield_equivalence_witness(g) is None  # derives and keeps all three
    # a non-associative regular set of degree 5: its members do not close
    loose = next(r for _, r in zoo.rps_objects if r.degree == 5 and not is_associative(induced_loop(r)))
    monkeypatch.setattr(s2t, "translations", lambda grp: loose)
    assert translations_form_subgroup(g) is False
    verdict = _run_family("nearfield-equivalence", [(name, (g,))], nearfield_equivalence_witness)
    assert not verdict.passed
    assert verdict.witness == (
        f"{name}: translations-subgroup=False, involution-products-subgroup=True, derived-nearfield=True"
    )
    monkeypatch.undo()
    # two point reflections of GF(5): their products e, t and t^-1 miss t^2
    pair = perm_set(s2t.involutions(g).members[:2])
    monkeypatch.setattr(s2t, "involutions", lambda grp: pair)
    assert involution_products_form_subgroup(g) is False
    verdict = _run_family("nearfield-equivalence", [(name, (g,))], nearfield_equivalence_witness)
    assert not verdict.passed
    assert verdict.witness == (
        f"{name}: translations-subgroup=True, involution-products-subgroup=False, derived-nearfield=True"
    )


def test_direct_oracles_read_no_algebraic_hom_set(zoo, monkeypatch):
    # the definitional search behind both permutation categories, so also
    # the source side of a mixed CLI homset, never runs a loop or neardomain
    # hom search and never derives a neardomain
    def refuse(*args, **kwargs):
        raise AssertionError("the definitional search reached the algebraic side")

    for module in (loops, neardomain, rps, s2t, catcheck, cli):
        for attr in ("table_homomorphisms", "enumerate_nd_morphisms", "derived_neardomain"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    # the functors a mixed CLI homset builds
    rps_functor, s2t_functor = cli.rps_to_loop(), cli.s2t_to_ndom()
    assert rps_functor.source.hom is rps.enumerate_rps_morphisms_direct
    assert s2t_functor.source.hom is s2t.enumerate_s2t_morphisms_direct
    rps_objects = [r for _, r in zoo.rps_objects]
    groups = [g for _, g in zoo.groups]
    assert sum(len(rps_functor.source.hom(a, b)) for a in rps_objects for b in rps_objects) == 217
    assert sum(len(s2t_functor.source.hom(a, b)) for a in groups for b in groups) == 61


def test_functors_are_built_from_the_current_bindings(monkeypatch):
    # each functor reads catcheck's names when it is built, so a name rebound
    # before (a stub here, a layer tracer's wrapper in a benchmark) is the one
    # every functor built after it calls; the hom arguments replace the
    # enumerators and nothing else
    stubs = {}
    for attr in (
        "enumerate_rps_morphisms_direct",
        "enumerate_loop_morphisms",
        "enumerate_s2t_morphisms_direct",
        "enumerate_nd_morphisms",
        "induced_loop",
        "derived_neardomain",
        "affine_group",
        "lift_nd_morphism",
        "_point_map",
        "is_rps_morphism",
        "is_loop_morphism",
        "is_s2t_morphism",
        "is_nd_morphism",
    ):
        stubs[attr] = lambda *args: None
        monkeypatch.setattr(catcheck, attr, stubs[attr])
    # both forgetful functors send (f, phi) to phi with the same map, and
    # each category's definitional predicate is the module's name for it
    f = catcheck.rps_to_loop()
    assert (f.source.hom, f.target.hom, f.obj, f.mor, f.source.is_morphism, f.target.is_morphism) == (
        stubs["enumerate_rps_morphisms_direct"],
        stubs["enumerate_loop_morphisms"],
        stubs["induced_loop"],
        stubs["_point_map"],
        stubs["is_rps_morphism"],
        stubs["is_loop_morphism"],
    )
    f = catcheck.s2t_to_ndom()
    assert (f.source.hom, f.target.hom, f.obj, f.mor, f.source.is_morphism, f.target.is_morphism) == (
        stubs["enumerate_s2t_morphisms_direct"],
        stubs["enumerate_nd_morphisms"],
        stubs["derived_neardomain"],
        stubs["_point_map"],
        stubs["is_s2t_morphism"],
        stubs["is_nd_morphism"],
    )
    f = catcheck.ndom_to_s2t()
    assert (f.source.hom, f.target.hom, f.obj, f.mor, f.source.is_morphism, f.target.is_morphism) == (
        stubs["enumerate_nd_morphisms"],
        stubs["enumerate_s2t_morphisms_direct"],
        stubs["affine_group"],
        stubs["lift_nd_morphism"],
        stubs["is_nd_morphism"],
        stubs["is_s2t_morphism"],
    )
    memo = lambda a, b: ()
    for f in (catcheck.rps_to_loop(memo, memo), catcheck.s2t_to_ndom(memo, memo)):
        assert f.source.hom is memo and f.target.hom is memo
    f = catcheck.ndom_to_s2t(memo)
    assert f.source.hom is memo and f.target.hom is stubs["enumerate_s2t_morphisms_direct"]


def test_characterization_witness():
    r3 = loop_to_rps(Z3)
    assert characterization_witness(r3, r3, (0, 1, 2), (0, 1, 2)) is None
    assert characterization_witness(r3, r3, (0, 2, 1), (0, 1, 2)) is None


def test_category_ops_compose():
    loop_cat = RPS_TO_LOOP.target
    f = loop_cat.compose((0, 2, 1), (0, 1, 2))
    assert f == (0, 2, 1)
    assert loop_cat.identity(Z3) == (0, 1, 2)
    assert isinstance(loop_cat, CategoryOps)
    assert S2T_TO_NDOM.name == "s2t->ndom" and NDOM_TO_S2T.name == "ndom->s2t"


def test_translation_form_names_a_group_that_is_not_the_affine_one():
    # a neardomain built directly carries whatever affine group is kept for
    # it; relabeled by the swap of 1 and 2, the translations of that group
    # are not the addition rows of GF(5)
    gf5 = galois_field(5)
    nd = Neardomain(5, gf5.add, gf5.mul, 0, 1)
    nd._derived["affine_group"] = s2t.relabel(affine_group(gf5), (0, 2, 1, 3, 4))
    verdict = _run_family("translation-form", [("gf5/relabeled", (nd,))], translation_form_witness)
    assert verdict.witness == (
        "gf5/relabeled: translation set [[0, 1, 2, 3, 4], [1, 4, 3, 0, 2], [2, 3, 1, 4, 0], "
        "[3, 0, 4, 2, 1], [4, 2, 0, 1, 3]] != affine b=1 maps"
    )
    verdicts = {v.name: v for v in run_all(Zoo((), (), (("gf5/relabeled", nd),), ()))}
    assert verdicts["translation-form"].witness == verdict.witness


def test_image_inclusions_name_an_involution_sent_to_the_identity(zoo):
    g = dict(zoo.groups)["aff(gf5)"]
    f = list(identity_s2t_morphism(g).f)
    # the identity member sorts first, so its index is 0
    f[g.group.index(s2t.involutions(g).members[0])] = 0
    m = Morphism(tuple(f), tuple(range(5)))
    verdict = _run_family("s2t-image-inclusions", [("aff(gf5)->aff(gf5)", (m, g, g))], catcheck.image_inclusion_witness)
    assert verdict.witness == "aff(gf5)->aff(gf5): involution [0, 4, 3, 2, 1] maps to non-involution [0, 1, 2, 3, 4]"


def test_loop_rps_roundtrip_names_a_loop_with_the_wrong_identity(zoo):
    # the table of Z3 listed with identity 1, built without check_loop
    loop = Loop(3, dict(zoo.loops)["loop3_0"].table, 1)
    verdict = _run_family("loop-rps-roundtrip", [("loop3_0@1", (loop,))], loop_roundtrip_witness)
    assert verdict.witness == (
        "loop3_0@1: rebuilt loop differs: identity 1 vs 1, "
        "table ((2, 0, 1), (0, 1, 2), (1, 2, 0)) vs ((0, 1, 2), (1, 2, 0), (2, 0, 1))"
    )
    verdicts = {v.name: v for v in run_all(Zoo((("loop3_0@1", loop),), (), (), ()))}
    assert verdicts["loop-rps-roundtrip"].witness == verdict.witness


def test_rps_oracle_agreement_names_a_dropped_morphism(zoo):
    r3 = dict(zoo.rps_objects)["rps(loop3_0)"]
    fast = lambda src, dst: rps.enumerate_rps_morphisms(src, dst)[1:]
    pairs = [("rps(loop3_0)->rps(loop3_0)", (fast, enumerate_rps_morphisms_direct, r3, r3))]
    verdict = _run_family("rps-hom-oracle-agreement", pairs, oracle_agreement_witness)
    assert verdict.witness == "rps(loop3_0)->rps(loop3_0): fast path found 2, direct oracle 3"


def _s4():
    # S4 is 2-transitive but not sharply: its involutions fix 0 or 2 points,
    # so translations cannot settle the characteristic
    return S2tGroup(closure([(1, 2, 3, 0), (1, 0, 2, 3)]), 4, 0, 1)


def _aff_gf3_kept_with_gf4():
    # aff(gf3) built directly, keeping GF(4) as its derived neardomain: the
    # involutions of the group fix one point, while 1 + 1 == 0 in GF(4)
    g3 = affine_group(galois_field(3))
    g = S2tGroup(g3.group, 3, g3.omega0, g3.omega1)
    g._derived["derived_neardomain"] = galois_field(4)
    return g


def _gf5_with_d23():
    # GF(5) built directly, keeping a coefficient table with d(2, 3) == 2
    gf5 = galois_field(5)
    nd = Neardomain(5, gf5.add, gf5.mul, 0, 1)
    table = [list(row) for row in coefficients(gf5)]
    table[2][3] = 2
    nd._derived["coefficients"] = tuple(map(tuple, table))
    return nd


def test_characteristic_coherence_names_a_group_kept_with_another_neardomain():
    g = _aff_gf3_kept_with_gf4()
    verdict = _run_family("characteristic-coherence", [("aff(gf3)/gf4", (g,))], characteristic_coherence_witness)
    assert verdict.witness == "aff(gf3)/gf4: group characteristic not 2 but derived 1+1 == 0"
    verdicts = {v.name: v for v in run_all(Zoo((), (), (), (("aff(gf3)/gf4", g),)))}
    assert verdicts["characteristic-coherence"].witness == verdict.witness


def test_nearfield_family_names_a_neardomain_with_a_coefficient_other_than_one():
    # every finite neardomain is a nearfield, so only an object built without
    # check_neardomain can fail
    nd = _gf5_with_d23()
    verdicts = {v.name: v for v in run_all(Zoo((), (), (("gf5/d23", nd),), ()))}
    assert verdicts["neardomain-is-nearfield"].witness == "gf5/d23: finite neardomain is not a nearfield"


def test_translation_regularity_names_a_group_whose_translations_raise():
    s4 = _s4()
    verdict = _run_family("translation-regularity", [("s4", (s4,))], translation_regularity_witness)
    assert verdict.witness == "s4: DichotomyViolation: involution fixed-point counts [0, 2], expected all 0 or all 1"
    verdicts = {v.name: v for v in run_all(Zoo((), (), (), (("s4", s4),)))}
    assert verdicts["translation-regularity"].witness == verdict.witness


@pytest.mark.parametrize(
    "name, make, error",
    [
        ("s4", _s4, "DichotomyViolation: involution fixed-point counts [0, 2], expected all 0 or all 1"),
        ("aff(gf3)/gf4", _aff_gf3_kept_with_gf4, "StructureError: member [0, 2, 1] matches no target member on the base points"),
    ],
)
def test_run_all_names_the_pair_whose_hom_set_raises(name, make, error):
    # the two per-morphism families enumerate each pair's hom-set under the
    # family's guard, so a hom-set that cannot be listed fails its pair
    verdicts = {v.name: v for v in run_all(Zoo((), (), (), ((name, make()),)))}
    for family in ("s2t-naturality", "s2t-image-inclusions"):
        verdict = verdicts[family]
        assert (verdict.passed, verdict.checked) == (False, 1)
        assert verdict.witness == f"{name}->{name}: {error}"


def test_naturality_names_a_group_kept_with_a_relabeled_neardomain():
    # aff(gf5) built directly, keeping as its derived neardomain GF(5)
    # relabeled by the swap of 2 and 3: isomorphic, but its affine group is
    # another member set, so the unit square cannot close
    g5 = affine_group(galois_field(5))
    g = S2tGroup(g5.group, 5, g5.omega0, g5.omega1)
    g._derived["derived_neardomain"] = s2t.derived_neardomain(s2t.relabel(g5, (0, 1, 3, 2, 4)))
    m = identity_s2t_morphism(g)
    label = f"aff(gf5)/swap23->aff(gf5)/swap23: {m}"
    verdict = _run_family("s2t-naturality", [(label, (g, g, m))], naturality_witness)
    assert verdict.witness == f"{label}: rebuilt group is not the original source"
    verdicts = {v.name: v for v in run_all(Zoo((), (), (), (("aff(gf5)/swap23", g),)))}
    assert verdicts["s2t-naturality"].witness == verdict.witness
    assert verdicts["s2t-image-inclusions"].passed


def test_nearfield_equivalence_names_a_group_kept_with_a_non_nearfield():
    # aff(gf5) built directly, keeping GF(5) with d(2, 3) == 2: the group's
    # two bits hold, the kept neardomain is not a nearfield
    g5 = affine_group(galois_field(5))
    g = S2tGroup(g5.group, 5, g5.omega0, g5.omega1)
    g._derived["derived_neardomain"] = _gf5_with_d23()
    verdict = _run_family("nearfield-equivalence", [("aff(gf5)/d23", (g,))], nearfield_equivalence_witness)
    assert verdict.witness == (
        "aff(gf5)/d23: translations-subgroup=True, involution-products-subgroup=True, derived-nearfield=False"
    )
    verdicts = {v.name: v for v in run_all(Zoo((), (), (), (("aff(gf5)/d23", g),)))}
    assert verdicts["nearfield-equivalence"].witness == verdict.witness


def test_functor_laws_name_the_object_whose_image_raises():
    # the object map of s2t->ndom raises on S4, and the family's first item,
    # the image of that object, fails with its name and is counted once
    verdicts = {v.name: v for v in run_all(Zoo((), (), (), (("s4", _s4()),)))}
    verdict = verdicts["functor-laws/s2t->ndom"]
    assert (verdict.passed, verdict.checked, verdict.witness) == (
        False,
        1,
        "s4: DichotomyViolation: involution fixed-point counts [0, 2], expected all 0 or all 1",
    )


def test_functor_laws_name_the_pair_whose_hom_set_raises(zoo):
    # a source hom that cannot list one pair fails that pair's hom-set item
    nds = dict(zoo.neardomains)
    gf2, gf3 = nds["gf2"], nds["gf3"]

    def hom(a, b):
        if (a, b) == (gf3, gf2):
            raise StructureError("no listing")
        return enumerate_nd_morphisms(a, b)

    verdict = check_functor_laws(ndom_to_s2t(hom), [("gf2", gf2), ("gf3", gf3)])
    assert (verdict.name, verdict.passed, verdict.checked) == ("functor-laws/ndom->s2t", False, 1)
    assert verdict.witness == "gf3->gf2: StructureError: no listing"


def test_families_pull_items_lazily():
    # the first item fails, so the family returns without pulling the
    # second, which an endless source would never let a list reach
    pulled = []

    def endless():
        for i in itertools.count():
            pulled.append(i)
            yield f"item{i}", (i,)

    verdict = _run_family("lazy", endless(), lambda i: f"item {i} fails")
    assert (verdict.passed, verdict.checked, verdict.witness) == (False, 1, "item0: item 0 fails")
    assert pulled == [0]
