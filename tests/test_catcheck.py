import importlib
import pkgutil
from pathlib import Path

import pytest

import algcat
from algcat import catcheck
from algcat.catcheck import (
    LOOP_CAT,
    NDOM_TO_S2T,
    RPS_TO_LOOP,
    S2T_TO_NDOM,
    CategoryOps,
    FunctorOps,
    characterization_witness,
    check_full_faithful,
    check_functor_laws,
    full_faithful_witness,
    group_roundtrip_witness,
    loop_roundtrip_witness,
    naturality_witness,
    nearfield_equivalence_witness,
    neardomain_roundtrip_witness,
    run_all,
    s2t_injectivity_witness,
    translation_form_witness,
)
from algcat.loops import Loop, check_loop
from algcat.neardomain import galois_field
from algcat.perms import Morphism, Perm, PermSet
from algcat.rps import loop_to_rps
from algcat.s2t import S2tGroup, affine_group, enumerate_s2t_morphisms

Z3 = check_loop(((0, 1, 2), (1, 2, 0), (2, 0, 1)))


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
        "neardomain.enumerate_nd_morphisms",
        "neardomain.galois_field",
        "neardomain.dickson_nearfield_9",
        "s2t.involutions",
        "s2t.characteristic",
        "s2t.translations",
        "s2t.derived_neardomain",
        "s2t.affine_group",
        "s2t.canonical_isomorphism",
        "zoo.standard_zoo",
    }


def test_functor_laws_pass_on_slice(zoo):
    slice_rps = [(n, r) for n, r in zoo.rps_objects if r.degree <= 3]
    verdict = check_functor_laws(RPS_TO_LOOP, slice_rps)
    assert verdict.passed and verdict.checked > 0


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
    report = check_full_faithful(RPS_TO_LOOP, "a", r3, "b", r3)
    assert report.bijection and report.source_count == report.target_count == 3

    def collapse(m, src, dst):
        return tuple(0 for _ in m.phi)

    broken = FunctorOps("c", RPS_TO_LOOP.source, RPS_TO_LOOP.target, RPS_TO_LOOP.obj, collapse)
    bad = check_full_faithful(broken, "a", r3, "b", r3)
    assert not bad.bijection and bad.witness
    assert full_faithful_witness(broken, "a", r3, "b", r3) is not None


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


def test_injectivity_family_names_non_injective_pairs(monkeypatch):
    g2 = affine_group(galois_field(2))
    identity, swap = g2.group.members
    # unvalidated source listing the swap twice, so that f = (0, 1, 1)
    # passes every other condition of is_s2t_morphism
    doubled = S2tGroup(PermSet(2, (identity, swap, swap)), 2, 0, 1)
    pairs = [("doubled->aff(gf2)", (doubled, g2))]
    monkeypatch.setattr(catcheck, "enumerate_s2t_morphisms", lambda src, dst: (Morphism((0, 1, 1), (0, 1)),))
    verdict = catcheck._run_family("s2t-morphism-injectivity", pairs, s2t_injectivity_witness)
    assert not verdict.passed
    assert verdict.witness.startswith("doubled->aff(gf2): InvariantViolation")
    assert "have injective f fails at (0, 1, 1)" in verdict.witness
    # a non-injective phi is rejected as an invalid morphism
    g3 = affine_group(galois_field(3))
    monkeypatch.setattr(catcheck, "enumerate_s2t_morphisms", lambda src, dst: (Morphism((0,) * 6, (0, 1, 1)),))
    verdict = catcheck._run_family("s2t-morphism-injectivity", [("aff(gf3)", (g3, g3))], s2t_injectivity_witness)
    assert verdict.witness == "aff(gf3): enumerated pair is not a valid morphism: phi=(0, 1, 1)"


def test_naturality_witness_flags_corruption():
    g9 = affine_group(galois_field(9))
    good = enumerate_s2t_morphisms(g9, g9)[1]
    assert naturality_witness(g9, g9, good) is None
    bad = Morphism(f=good.f, phi=tuple(range(9)))
    assert naturality_witness(g9, g9, bad) is not None


def test_equivalence_and_translation_witnesses(zoo):
    for _, g in zoo.groups:
        assert nearfield_equivalence_witness(g) is None
    for _, nd in zoo.neardomains:
        assert translation_form_witness(nd) is None


def test_characterization_witness():
    r3 = loop_to_rps(Z3)
    assert characterization_witness(r3, r3, (0, 1, 2), (0, 1, 2)) is None
    assert characterization_witness(r3, r3, (0, 2, 1), (0, 1, 2)) is None


def test_category_ops_compose():
    f = LOOP_CAT.compose((0, 2, 1), (0, 1, 2))
    assert f == (0, 2, 1)
    assert LOOP_CAT.identity(Z3) == (0, 1, 2)
    assert isinstance(LOOP_CAT, CategoryOps)
    assert S2T_TO_NDOM.name == "s2t->ndom" and NDOM_TO_S2T.name == "ndom->s2t"
