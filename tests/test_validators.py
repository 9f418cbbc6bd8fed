"""Every structure validator passes valid input with one set or count test
per row, column or member, and runs its cell-by-cell scan only to name the
witness of input that fails. Here each validator is compared with an
independent reference on small valid inputs and on every single-cell
corruption of them, and the inputs a one-pass test could wrongly pass are
pinned. A point is an exact int: 0.0, 1.0, True and 1.5 compare or hash
like points or lie between them, so each is put in every cell and every
constant, and each validator must refuse it with its documented error."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algcat import neardomain
from algcat.errors import (
    AxiomViolation,
    DegenerateOmega,
    InvariantViolation,
    MissingIdentity,
    NotAGroup,
    NotSharplyTransitive,
    RegularityViolation,
    ResourceLimitExceeded,
    StructureError,
)
from algcat import loops
from algcat.fileio import emit_structure, parse_structure
from algcat.loops import Loop, check_loop, enumerate_loops, is_loop_morphism, left_translation
from algcat.neardomain import Neardomain, check_neardomain, coefficients, d_coeff, galois_field, is_nd_morphism
from algcat.perms import Morphism, PermSet, check_group, closure, intertwines, perm_set
from algcat.rps import Rps, check_rps, is_rps_morphism, loop_to_rps
from algcat.s2t import S2tGroup, affine_group, check_s2t, involutions, is_s2t_morphism, relabel, translations
from algcat.values import Value
from algcat.zoo import standard_zoo
from references import (
    check_neardomain_by_triples,
    compose,
    is_involution,
    latin_witness,
    member_product,
    reassociation_witness,
)
from test_nd_certificates import AXIOM_6_FAILURES
from test_perms import _reference_subgroup_failure
from test_s2t import _reference_check_s2t


# values that are no point: equal to a point with an equal hash, or between
# two points
OFF_POINTS = (0.0, 1.0, True, 1.5)


def _outcome(check, *args):
    """"ok" and the fields of the value check returns, or the type and text
    of the StructureError it raises. A structure returned must survive
    emission and parsing unchanged."""
    try:
        got = check(*args)
    except StructureError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, (Loop, Rps, Neardomain, S2tGroup)):
        assert parse_structure(emit_structure(got)) == got, args
    return "ok", tuple(getattr(got, f) for f in got._fields) if isinstance(got, Value) else got


def _corruptions(rows):
    """rows with one cell changed, for every cell and every other value of
    0..n-1 plus the out-of-range n, n the row length: as tuples, in
    row-major order."""
    for r, row in enumerate(rows):
        n = len(row)
        for c, v in itertools.product(range(n), range(n + 1)):
            if v != row[c]:
                yield tuple(row if k != r else row[:c] + (v,) + row[c + 1 :] for k, row in enumerate(rows))


def _off_point_corruptions(rows):
    """rows with one cell replaced by each value of OFF_POINTS, for every
    cell, as tuples, in row-major order."""
    for r, row in enumerate(rows):
        for c, v in itertools.product(range(len(row)), OFF_POINTS):
            yield tuple(row if k != r else row[:c] + (v,) + row[c + 1 :] for k, row in enumerate(rows))


def _replacements(rows):
    """rows with one member swapped for another permutation of its degree,
    a duplicate of another member included."""
    n = len(rows[0])
    for r, p in itertools.product(range(len(rows)), itertools.permutations(range(n))):
        if p != rows[r]:
            yield rows[:r] + (p,) + rows[r + 1 :]


def _reference_perm_set(rows) -> PermSet:
    """The members checked in the order given, then the count, then one
    degree, with perm_set's messages."""
    distinct = list(dict.fromkeys(rows))
    for p in distinct:
        if len(p) < 1:
            raise StructureError("permutation degree must be at least 1")
        if any(type(v) is not int for v in p) or sorted(p) != list(range(len(p))):
            raise StructureError(f"image array {list(p)} is not a bijection of 0..{len(p) - 1}")
    if not distinct:
        raise StructureError("permutation set cannot be empty")
    if len({len(p) for p in distinct}) != 1:
        raise StructureError("permutation set mixes degrees")
    return PermSet(len(distinct[0]), tuple(sorted(distinct)))


def _reference_check_loop(rows, identity):
    latin_witness(rows, identity)
    return len(rows), tuple(rows), identity


def _reference_check_rps(members: PermSet, degree: int, basepoint: int):
    """Regularity by counting the members that send each alpha to each beta,
    pairs in lexicographic order, after the degree, the base point and the
    identity."""
    if type(degree) is not int or degree != members.degree:
        raise StructureError(f"members have degree {members.degree}, expected {degree}")
    if type(basepoint) is not int or basepoint not in range(degree):
        raise StructureError(f"base point {basepoint} out of range for degree {degree}")
    if tuple(range(degree)) not in members:
        raise MissingIdentity("regular set must contain the identity permutation")
    for alpha, beta in itertools.product(range(degree), repeat=2):
        count = sum(m[alpha] == beta for m in members)
        if count != 1:
            raise RegularityViolation(alpha, beta, count)
    return members, degree, basepoint


def _reference_group(members: PermSet) -> None:
    witness = _reference_subgroup_failure(members)
    if witness is not None:
        raise NotAGroup(witness)


def _reference_s2t(members: PermSet, omega0: int, omega1: int):
    n = members.degree
    if any(type(w) is not int or w not in range(n) for w in (omega0, omega1)) or omega0 == omega1:
        raise DegenerateOmega(f"base points ({omega0}, {omega1}) invalid for degree {n}")
    _reference_group(members)
    return _reference_check_s2t(members, omega0, omega1)


def _reference_check_neardomain(add, mul, zero, one):
    """The reads of both tables, row-major, then the constants, with
    check_neardomain's messages, then the axioms cell by cell."""
    n = len(add)
    for name, rows in (("add", add), ("mul", mul)):
        for r, row in enumerate(rows):
            for v in row:
                if type(v) is not int or v not in range(n):
                    raise StructureError(f"{name} entry {v} in row {r} out of range")
    if any(type(c) is not int or c not in range(n) for c in (zero, one)) or zero == one:
        raise StructureError(f"constants zero={zero}, one={one} invalid for order {n}")
    return check_neardomain_by_triples(add, mul, zero, one)


def _compare(check, reference, args, seen) -> bool:
    """Assert that check and reference agree on args, note the outcome's
    kind in seen, and return whether check passed."""
    got = _outcome(check, *args)
    assert got == _outcome(reference, *args), args
    seen.add(got[0])
    return got[0] == "ok"


def test_check_loop_and_check_rps_name_the_reference_witness():
    seen_loop, seen_set, seen_rps = set(), set(), set()
    for _, loop in standard_zoo().loops:
        if loop.order > 4:
            continue
        corrupted = [*_corruptions(loop.table), *_off_point_corruptions(loop.table), *_replacements(loop.table)]
        for table in [loop.table, *corrupted]:
            _compare(check_loop, _reference_check_loop, (table, loop.identity), seen_loop)
        # a corrupted cell repeats a value, so the unit laws fail only at
        # another identity
        for identity in [*range(loop.order + 1), *OFF_POINTS]:
            _compare(check_loop, _reference_check_loop, (loop.table, identity), seen_loop)
        # the rps of the loop lists its rows as members
        for rows in [loop.table, *corrupted]:
            if _compare(perm_set, _reference_perm_set, (rows,), seen_set):
                _compare(check_rps, _reference_check_rps, (perm_set(rows), loop.order, loop.identity), seen_rps)
        # the constants: a base point that is no point, a degree that is no
        # int (True equals the degree of an order-1 set)
        members = perm_set(loop.table)
        for basepoint in OFF_POINTS:
            _compare(check_rps, _reference_check_rps, (members, loop.order, basepoint), seen_rps)
        for degree in (float(loop.order), loop.order - 0.5, True):
            _compare(check_rps, _reference_check_rps, (members, degree, loop.identity), seen_rps)
    assert seen_loop == {"ok", "StructureError", "LatinSquareViolation", "IdentityViolation"}
    assert seen_set == {"ok", "StructureError"}
    assert seen_rps == {"ok", "StructureError", "MissingIdentity", "RegularityViolation"}


@pytest.mark.parametrize("q", [3, 4])
def test_perm_set_check_group_and_check_s2t_name_the_reference_witness(q):
    # aff(GF(3)) is S3
    listing = affine_group(galois_field(q)).group.members
    seen_set, seen_group, seen_s2t = set(), set(), set()
    for rows in [listing, *_corruptions(listing), *_off_point_corruptions(listing), *_replacements(listing)]:
        if _compare(perm_set, _reference_perm_set, (rows,), seen_set):
            members = perm_set(rows)
            _compare(check_group, _reference_group, (members,), seen_group)
            _compare(check_s2t, _reference_s2t, (members, 0, 1), seen_s2t)
    members = perm_set(listing)
    for w in OFF_POINTS:
        _compare(check_s2t, _reference_s2t, (members, w, 1), seen_s2t)
        _compare(check_s2t, _reference_s2t, (members, 0, w), seen_s2t)
    assert seen_set == {"ok", "StructureError"}
    assert seen_group == {"ok", "NotAGroup"}
    assert seen_s2t == {"ok", "NotAGroup", "DegenerateOmega"}


@pytest.mark.parametrize("q", [4, 5])
def test_check_neardomain_names_the_reference_witness(q):
    gf = galois_field(q)
    cases = [(gf.add, gf.mul, gf.zero, gf.one)]
    cases += [(add, gf.mul, gf.zero, gf.one) for add in (*_corruptions(gf.add), *_off_point_corruptions(gf.add))]
    cases += [
        (gf.add, mul, gf.zero, gf.one)
        for mul in (*_corruptions(gf.mul), *_off_point_corruptions(gf.mul), *_replacements(gf.mul))
    ]
    cases += [(gf.add, gf.mul, w, gf.one) for w in OFF_POINTS] + [(gf.add, gf.mul, gf.zero, w) for w in OFF_POINTS]
    # every loop of order q as the addition: some lack two-sided inverses
    cases += [(loop.table, gf.mul, gf.zero, gf.one) for _, loop in standard_zoo().loops if loop.order == q]
    seen = set()
    for args in cases:
        got = _outcome(check_neardomain, *args)
        assert got == _outcome(_reference_check_neardomain, *args), args
        seen.add(got[1] if got[0] != "ok" else "ok")
    axioms = {text.split(" fails")[0] for text in seen}
    assert {"ok", "axiom 1", "axiom 3", "axiom 4"} <= axioms
    assert any(text.startswith("add entry") for text in seen) and any(text.startswith("mul entry") for text in seen)
    assert {f"{name} entry {v} in row 1 out of range" for name in ("add", "mul") for v in OFF_POINTS} <= seen
    assert sum(text.startswith("constants") for text in seen) == 2 * len(OFF_POINTS)
    assert any("right translation not bijective" in text for text in seen)
    if q == 5:
        assert "axiom 2" in axioms


def test_check_group_names_a_missing_inverse_before_refusing_the_budget():
    s7 = list(itertools.permutations(range(7)))
    with pytest.raises(ResourceLimitExceeded, match="composition table of 5040 members"):
        check_group(perm_set(s7))
    s7.remove((1, 2, 3, 4, 5, 6, 0))
    with pytest.raises(NotAGroup, match=r"^inverse of \[6, 0, 1, 2, 3, 4, 5\] missing$"):
        check_group(perm_set(s7))


def test_check_s2t_refuses_a_group_of_order_n_n_minus_1_that_is_not_transitive():
    # S3 on {0, 1, 2} times A4 on {3, 4, 5, 6}: 72 = 9 * 8 members
    e = tuple(range(9))

    def cycle(*points):
        p = list(e)
        for a, b in zip(points, points[1:] + points[:1]):
            p[a] = b
        return tuple(p)

    group = closure([cycle(1, 0), cycle(0, 1, 2), cycle(3, 4, 5), cycle(4, 5, 6)])
    assert len(group) == 72
    with pytest.raises(NotSharplyTransitive) as info:
        check_s2t(group, 0, 1)
    assert str(info.value) == "12 elements map (0, 1) to (0, 1), expected exactly 1"


def test_perm_set_names_a_member_that_is_no_bijection_before_mixed_degrees():
    with pytest.raises(StructureError) as info:
        perm_set([(0, 1), (1, 0, 0)])
    assert str(info.value) == "image array [1, 0, 0] is not a bijection of 0..2"


def test_check_loop_names_an_entry_that_is_no_point():
    # 1.5 lies between two points and repeats nothing; it is named as out of
    # range, not accepted, and not left to the row and column test alone
    with pytest.raises(StructureError) as info:
        check_loop(((0, 1), (1, 1.5)))
    assert type(info.value) is StructureError
    assert str(info.value) == "entry 1.5 in row 1 out of range for order 2"


@pytest.mark.parametrize("name", ["add", "mul"])
def test_check_neardomain_names_an_entry_that_is_no_point(name):
    # GF(3) with 1.5 in row 1, column 0 of one table: the entry lies between
    # two points, so a min and max test passes it; it is named as out of
    # range before any axiom reads it, as the reference reads it
    gf = galois_field(3)
    tables = {"add": [list(row) for row in gf.add], "mul": [list(row) for row in gf.mul]}
    tables[name][1][0] = 1.5
    args = (tables["add"], tables["mul"], gf.zero, gf.one)
    with pytest.raises(StructureError) as info:
        check_neardomain(*args)
    assert type(info.value) is StructureError
    assert str(info.value) == f"{name} entry 1.5 in row 1 out of range"
    assert _outcome(check_neardomain, *args) == _outcome(_reference_check_neardomain, *args)


def _coefficients_by_pairs(nd):
    """The coefficient table one d_coeff call per pair, in row-major order."""
    return tuple(tuple(d_coeff(nd, a, b) for b in range(nd.order)) for a in range(nd.order))


def _raised(fn, *args):
    """"ok" and what fn returns, or the type and text of whatever it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the raised type is compared
        return type(exc).__name__, str(exc)


def test_relabelings_predicates_and_accessors_refuse_values_that_are_no_point():
    # the identity map of degree 3 with one entry that is no point: as a
    # relabeling or generator it is named as no bijection, as a morphism
    # candidate it is no total map, and an accessor refuses the value alone;
    # nothing raises TypeError and nothing is returned
    zoo = standard_zoo()
    loop = next(x for _, x in zoo.loops if x.order == 3)
    group = next(g for _, g in zoo.groups if g.degree == 3)
    r, nd = loop_to_rps(loop), galois_field(3)
    e, members = (0, 1, 2), tuple(range(len(group.group)))
    no_f = ("ValueError", "f is not a total map into the target members")
    no_phi = ("ValueError", "phi is not a total map into the target points")
    for c, v in itertools.product(range(3), OFF_POINTS):
        pi, f = e[:c] + (v,) + e[c + 1 :], members[:c] + (v,) + members[c + 1 :]
        named = ("StructureError", f"image array {list(pi)} is not a bijection of 0..2")
        assert _raised(loops.relabel, loop, pi) == _raised(relabel, group, pi) == _raised(closure, [pi]) == named
        assert _raised(is_loop_morphism, pi, loop, loop) == ("ValueError", "f is not a total map into the target loop")
        assert _raised(is_nd_morphism, pi, nd, nd) == ("ValueError", "phi is not a total map into the target carrier")
        assert _raised(intertwines, Morphism(pi, e), r.members, r.members) == no_f
        assert _raised(is_rps_morphism, Morphism(pi, e), r, r) == no_f
        assert _raised(is_s2t_morphism, Morphism(f, e), group, group) == no_f
        assert _raised(is_rps_morphism, Morphism(e, pi), r, r) == no_phi
        assert _raised(is_s2t_morphism, Morphism(members, pi), group, group) == no_phi
    for v in OFF_POINTS:
        assert _raised(r.from_point, v) == ("ValueError", f"point {v} out of range for degree 3")
        assert _raised(left_translation, loop, v) == ("ValueError", f"element {v} out of range")


def test_row_solved_coefficients_equal_the_pair_by_pair_table():
    # every zoo neardomain, the larger fields, and neardomains built
    # directly (nothing kept): the same table as one d_coeff per pair
    nds = [nd for _, nd in standard_zoo().neardomains] + [galois_field(q) for q in (11, 13, 16)]
    for nd in nds:
        fresh = Neardomain(nd.order, nd.add, nd.mul, nd.zero, nd.one)
        assert coefficients(fresh) == coefficients(nd) == _coefficients_by_pairs(nd), nd.order
    # the additions that pass axioms 1 to 5 and fail axiom 6: the same
    # AxiomViolation(6) as the pair-by-pair scan and the cell-by-cell
    # reference, through coefficients and through check_neardomain
    for add, mul, witness in AXIOM_6_FAILURES:
        nd = Neardomain(6, add, mul, 0, 1)
        want = ("AxiomViolation", str(AxiomViolation(6, witness)))
        assert reassociation_witness(add, mul, 0, 1) == witness
        assert _raised(coefficients, nd) == _raised(_coefficients_by_pairs, nd) == want
        assert _raised(check_neardomain, add, mul, 0, 1) == want


@pytest.mark.parametrize("q", [4, 5])
def test_row_solved_coefficients_name_the_pair_by_pair_failure(q):
    # every single-cell corruption of the addition of GF(q), built directly
    # so that axiom 6 reads it. A corrupted row repeats a value, so none is
    # a loop and none passes axioms 1 to 5 (the additions that do are
    # tested above); some rows miss the target d_coeff solves for, and the
    # out-of-range value q is read as an index. Whatever the pair-by-pair
    # scan raises first in row-major order, the row solve must raise too
    gf = galois_field(q)
    seen, rows = set(), set()
    for add in _corruptions(gf.add):
        nd = Neardomain(q, add, gf.mul, gf.zero, gf.one)
        got = _raised(coefficients, nd)
        assert got == _raised(_coefficients_by_pairs, nd), add
        seen.add(got[0])
        if got[0] == "AxiomViolation":
            rows.add(got[1].split("(")[1].split(",")[0])
    assert seen == {"AxiomViolation", "ValueError", "IndexError"}, seen
    # some failures are named in row 1, after row 0 passed the row test
    assert rows == {"0", "1"}, rows


def test_row_test_that_disagrees_with_the_scan_raises_invariant_violation_under_optimize():
    code = """
import sys
if __debug__:
    sys.exit("not running under -O")
from algcat import neardomain
from algcat.errors import InvariantViolation
gf = neardomain.galois_field(5)
neardomain._row_solver = lambda nd: (lambda a: None)
for check in (
    lambda: neardomain.check_neardomain(gf.add, gf.mul, gf.zero, gf.one),
    lambda: neardomain.coefficients(neardomain.Neardomain(5, gf.add, gf.mul, gf.zero, gf.one)),
):
    try:
        check()
    except InvariantViolation as exc:
        assert "axiom 6's row test" in str(exc), exc
        print("refused")
    else:
        sys.exit("the scan's disagreement passed")
"""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["refused", "refused"]


def _relabelings(degree):
    """A few bijections of 0..degree-1: the identity, the reversal and the
    rotation by one, and every bijection for degree 3 or less."""
    if degree <= 3:
        return list(itertools.permutations(range(degree)))
    return [tuple(range(degree)), tuple(reversed(range(degree))), (*range(1, degree), 0)]


def test_involutions_equal_the_all_points_reference():
    seen = 0
    for name, g in standard_zoo().groups:
        for pi in _relabelings(g.degree):
            h = relabel(g, pi)
            want = {p for p in h.group if is_involution(p)}
            assert set(involutions(h)) == want and want, (name, pi)
            seen += 1
    assert seen > 36


def test_rps_loops_equal_the_member_product_reference():
    # the member loop through the member products of the definition, the
    # induced loop through composites at the base point
    zoo = standard_zoo()
    objects = [r for _, r in zoo.rps_objects] + [loop_to_rps(loop) for loop in enumerate_loops(6)]
    assert len(objects) == 11 + 109
    for r in objects:
        ms, base = r.members.members, r.basepoint
        again = check_rps(r.members, r.degree, base)
        assert again.member_loop.table == tuple(
            tuple(r.members.index(member_product(r, m, k)) for k in ms) for m in ms
        )
        assert again.loop.table == tuple(
            tuple(compose(r.from_point(a), r.from_point(b))[base] for b in range(r.degree)) for a in range(r.degree)
        )
        assert again.base_images == tuple(m[base] for m in ms)
    for _, g in zoo.groups:
        t = translations(g)
        assert t.member_loop.table == tuple(
            tuple(t.members.index(member_product(t, m, k)) for k in t.members) for m in t.members
        )
