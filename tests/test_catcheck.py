import pytest

from algcat.catcheck import (
    LOOP_CAT,
    NDOM_TO_S2T,
    RPS_TO_LOOP,
    S2T_TO_NDOM,
    CategoryOps,
    FunctorOps,
    HomSetReport,
    Verdict,
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
    translation_form_witness,
)
from algcat.loops import Loop, check_loop
from algcat.neardomain import galois_field
from algcat.perms import Perm
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


def test_verdict_serialization():
    v = Verdict("demo", False, "row 3", 7, 1.25)
    assert v.as_dict() == {
        "name": "demo",
        "passed": False,
        "witness": "row 3",
        "checked": 7,
        "elapsed_ms": 1.25,
    }
    r = HomSetReport("a", "b", 2, 2, True)
    assert r.as_dict()["bijection"] is True


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


def test_naturality_witness_flags_corruption():
    g9 = affine_group(galois_field(9))
    good = enumerate_s2t_morphisms(g9, g9)[1]
    assert naturality_witness(g9, g9, good) is None
    from algcat.s2t import S2tMorphism

    bad = S2tMorphism(f=good.f, phi=tuple(range(9)))
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
