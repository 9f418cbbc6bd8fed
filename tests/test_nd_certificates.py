"""check_neardomain certifies axioms 3 and 5 on a generating set, and keeps
the coefficient table of axiom 6; here each certificate is compared with the
full loops of tests/references.py on corrupted inputs. The module imports
neither pytest nor hypothesis, so its run under python -O starts fast."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from algcat import cli, loops, neardomain, s2t
from algcat.errors import AxiomViolation, InvariantViolation
from algcat.fileio import emit_structure
from algcat.loops import Loop, check_loop, enumerate_loops, is_associative
from algcat.neardomain import Neardomain, check_neardomain, dickson_nearfield_9, galois_field, is_nearfield
from algcat.perms import greedy_walk
from algcat.zoo import standard_zoo
import references

ORACLE_NEARDOMAINS = [*(galois_field(q) for q in (3, 4, 5, 7, 8, 9, 16)), dickson_nearfield_9()]


def _relabeled(table, pi):
    """The table carried along the point bijection pi: pi(x) * pi(y) is
    pi(x * y)."""
    n = len(table)
    inv = [0] * n
    for x, y in enumerate(pi):
        inv[y] = x
    return tuple(tuple(pi[table[inv[x]][inv[y]]] for y in range(n)) for x in range(n))


def _corrupted_multiplications(nd):
    """Multiplication tables of nd corrupted so that the nonzero elements
    stay closed, so the greedy set generates them:

    - every swap of two nonzero rows, which breaks the unit law;
    - every row-cycle switch: rows r, s outside zero and one hold the same
      values on a set C of columns that avoids zero and one, and swapping
      their entries on C keeps every row and column of the nonzero part a
      permutation and keeps the unit law, so axiom 3 comes down to
      associativity, and an associative result to axiom 5;
    - a * zero made nonzero in one row, which only axiom 5 catches.
    """
    n, zero, one, mul = nd.order, nd.zero, nd.one, nd.mul
    nonzero = [x for x in range(n) if x != zero]
    for r, s in itertools.combinations(nonzero, 2):
        rows = list(mul)
        rows[r], rows[s] = rows[s], rows[r]
        yield tuple(rows)
    inner = [x for x in nonzero if x != one]
    for r, s in itertools.combinations(inner, 2):
        col_of = {mul[r][c]: c for c in nonzero}
        seen = {zero, one}
        for start in inner:
            if start in seen:
                continue
            cycle, c = [], start
            while c not in cycle:
                cycle.append(c)
                c = col_of[mul[s][c]]
            seen.update(cycle)
            if one not in cycle:
                rows = [list(row) for row in mul]
                for c in cycle:
                    rows[r][c], rows[s][c] = mul[s][c], mul[r][c]
                yield tuple(map(tuple, rows))
    for a in inner[:2]:
        rows = [list(row) for row in mul]
        rows[a][zero] = one
        yield tuple(map(tuple, rows))


def _relabeled_additions(nd, rng):
    """Addition tables of nd carried along bijections of the points: the
    power maps x -> x^k that permute the nonzero elements, which pass when
    they are automorphisms of the multiplicative group; seeded random
    bijections fixing zero, which mostly fail axiom 5; and bijections moving
    zero, which fail axiom 1."""
    n, zero, one, mul = nd.order, nd.zero, nd.one, nd.mul
    nonzero = [x for x in range(n) if x != zero]
    for k in range(2, n - 1):
        pi = [zero] * n
        for x in nonzero:
            y = one
            for _ in range(k):
                y = mul[y][x]
            pi[x] = y
        if sorted(pi) == list(range(n)):
            yield _relabeled(nd.add, pi)
    for _ in range(12):
        rest = nonzero[:]
        rng.shuffle(rest)
        yield _relabeled(nd.add, [zero if x == zero else rest.pop() for x in range(n)])
    for _ in range(2):
        pi = list(range(n))
        rng.shuffle(pi)
        if pi[zero] != zero:
            yield _relabeled(nd.add, pi)


def _outcome(check, add, mul, zero, one):
    """What a neardomain check returns, as its two tables, or the axiom and
    witness it raises."""
    try:
        nd = check(add, mul, zero, one)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return nd.add, nd.mul


def oracle_report() -> dict:
    """check_neardomain and the full-loop reference on every corrupted input
    of ORACLE_NEARDOMAINS: the disagreements, the count of each verdict (the
    axiom failed, 0 for a pass), and how many inputs failed axiom 3 at
    associativity, the law Light's test certifies."""
    rng = random.Random(21)
    report = {"disagreements": [], "verdicts": {}, "not associative": 0}
    for nd in ORACLE_NEARDOMAINS:
        cases = [(nd.add, mul) for mul in _corrupted_multiplications(nd)]
        cases += [(add, nd.mul) for add in _relabeled_additions(nd, rng)]
        for add, mul in cases:
            want = _outcome(references.check_neardomain_by_triples, add, mul, nd.zero, nd.one)
            got = _outcome(check_neardomain, add, mul, nd.zero, nd.one)
            if got != want:
                report["disagreements"].append((nd.order, add, mul, got, want))
            verdict = want[0] if isinstance(want[0], int) else 0
            report["verdicts"][verdict] = report["verdicts"].get(verdict, 0) + 1
            report["not associative"] += verdict == 3 and want[1][0] == "not associative"
    return report


def assert_oracle_report(report: dict) -> None:
    assert report["disagreements"] == [], report["disagreements"][:3]
    # passes and the failures of every axiom these corruptions reach
    # (axiom 6 needs an addition that is not a group; see below), with
    # associativity failures among those of axiom 3
    assert set(report["verdicts"]) == {0, 1, 3, 5}, report["verdicts"]
    assert report["not associative"] > 0


def test_certificates_agree_with_the_full_loops():
    assert_oracle_report(oracle_report())


def test_certificates_agree_with_the_full_loops_optimized():
    code = """
import sys
if __debug__:
    sys.exit("not running under -O")
import test_nd_certificates as t
t.assert_oracle_report(t.oracle_report())
"""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_light_test_agrees_with_the_full_loop():
    # every loop of orders 5 and 6, most of them not associative, from a
    # greedy generating set grown from the identity and from nothing, as
    # check_neardomain and is_nearfield grow it
    failing = 0
    for loop in enumerate_loops(5) + enumerate_loops(6):
        elements = range(loop.order)
        want = references.associativity_witness(loop.table, elements)
        failing += want is not None
        for start in ([loop.identity], []):
            gens = greedy_walk(elements, loops._right_multiplication(loop.table), start)
            assert loops._associativity_witness(loop.table, elements, gens) == want, (loop, start)
    assert failing > 100


def test_is_associative_agrees_with_the_full_loop():
    # the 120 loops of orders 1 to 6, the additive loops of GF(9), GF(16)
    # and the Dickson nearfield, and tables built directly: copies whose
    # identity is not a unit of the table (so the generators grow from
    # nothing), and the multiplications of those neardomains, where zero
    # is no loop element but one is a two-sided unit
    tables = [(l.table, l.identity) for n in range(1, 7) for l in enumerate_loops(n)]
    assert len(tables) == 120
    big = [galois_field(9), galois_field(16), dickson_nearfield_9()]
    tables += [(nd.add, nd.zero) for nd in big] + [(nd.mul, nd.one) for nd in big]
    tables += [(t, 1) for t, _ in tables if len(t) > 1]
    failing = 0
    for table, identity in tables:
        want = references.associativity_witness(table, range(len(table))) is None
        assert is_associative(Loop(len(table), table, identity)) == want, (table, identity)
        failing += not want
    # the five loops of order 5 and 107 of order 6 that are not groups,
    # each with its copy
    assert failing == 2 * (5 + 107)


def test_distributivity_check_agrees_with_the_cell_loop():
    # each element of every zoo neardomain, against its own multiplication,
    # the corrupted ones of _corrupted_multiplications and the transposed
    # one, which distributes on the other side
    failing = 0
    for _, nd in standard_zoo().neardomains:
        n, add = nd.order, nd.add
        for mul in [nd.mul, *_corrupted_multiplications(nd), tuple(zip(*nd.mul))]:
            for a in range(n):
                want = all(mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]] for b in range(n) for c in range(n))
                assert neardomain._distributes(add, mul, [a]) == want, (nd, mul, a)
                failing += not want
    assert failing > 100


def test_greedy_generating_sets_stay_small():
    # the certificates cost |A| rows per element: one generator for the
    # cyclic groups GF(3)*, GF(4)*, GF(5)*, GF(8)* and GF(16)*, two for
    # GF(7)* (2 has order 3), three for GF(9)* and the quaternion group of
    # the Dickson nearfield
    sizes = []
    for nd in ORACLE_NEARDOMAINS:
        nonzero = [x for x in range(nd.order) if x != nd.zero]
        sizes.append(len(greedy_walk(nonzero, loops._right_multiplication(nd.mul), [nd.one])))
    assert sizes == [1, 1, 1, 2, 1, 3, 1, 3]
    # each generator at least doubles the set reached in a group, so no
    # group of order n needs more than log2(n) of them
    for n in range(2, 7):
        for loop in enumerate_loops(n):
            if references.associativity_witness(loop.table, range(n)) is None:
                gens = greedy_walk(range(n), loops._right_multiplication(loop.table), [loop.identity])
                assert len(gens) <= math.log2(n), loop


def test_coefficient_table_agrees_with_the_cell_loop():
    # every loop of orders 5 and 6 as an addition, beside a multiplication
    # with zero absorbing and a cyclic group on the rest: the table solves
    # the coefficients in the reference's order and names its witness
    failing = 0
    for loop in enumerate_loops(5) + enumerate_loops(6):
        n = loop.order
        mul = tuple(tuple(0 if 0 in (x, y) else (x + y - 2) % (n - 1) + 1 for y in range(n)) for x in range(n))
        want = references.reassociation_witness(loop.table, mul, 0, 1)
        try:
            neardomain.coefficients(Neardomain(n, loop.table, mul, 0, 1))
            got = None
        except AxiomViolation as exc:
            got = exc.witness if exc.axiom == 6 else exc
        assert got == want, loop
        failing += want is not None
    assert failing > 100


def test_nearfield_check_names_a_non_associative_addition():
    # every coefficient of this addition is one, but only against a
    # multiplication whose row of one is not the identity (x -> 2 - x), and
    # the addition has no identity: the fact is_nearfield re-checks fails,
    # at the first triple of the full loop
    add = ((1, 0, 2), (2, 1, 0), (0, 2, 1))
    nd = Neardomain(3, add, ((0, 0, 0), (2, 1, 0), (0, 0, 0)), 0, 1)
    assert set(itertools.chain(*neardomain.coefficients(nd))) == {1}
    want = ("nearfield addition is associative", references.associativity_witness(add, range(3)))
    try:
        is_nearfield(nd)
    except InvariantViolation as exc:
        assert (exc.claim, exc.witness) == want
    else:
        raise AssertionError("is_nearfield accepted an addition that is not associative")


def test_nearfield_check_grows_the_additive_generators_from_zero(monkeypatch):
    # zero is the additive identity of every validated neardomain, so it is
    # never taken as a generator: GF(5)+ is cyclic, GF(9)+ and GF(16)+ are
    # elementary abelian of ranks 2 and 4
    fields = [galois_field(q) for q in (5, 9, 16)]
    grown = []
    monkeypatch.setattr(loops, "greedy_walk", lambda *args: grown.append(greedy_walk(*args)) or grown[-1])
    assert all(map(is_nearfield, fields))
    assert grown == [[1], [1, 3], [1, 2, 4, 8]]


def test_nearfield_check_agrees_with_the_full_loop_from_either_start():
    # every loop of orders 5 and 6 as an addition, kept beside a coefficient
    # table that is all one (element 2 here), so that the associativity
    # re-check runs: with zero its identity the generators grow from zero,
    # with zero == 1 (no identity) from nothing, and either way is_nearfield
    # passes exactly the associative ones and names the reference's first
    # triple otherwise
    failing = 0
    for loop in enumerate_loops(5) + enumerate_loops(6):
        n = loop.order
        want = references.associativity_witness(loop.table, range(n))
        failing += want is not None
        for zero in (0, 1):
            nd = Neardomain(n, loop.table, loop.table, zero, 2)
            nd._derived["coefficients"] = ((2,) * n,) * n
            try:
                got = None if is_nearfield(nd) else "refused"
            except InvariantViolation as exc:
                got = exc.witness
            assert got == want, (loop, zero)
    assert failing > 100


def test_validated_neardomains_keep_their_coefficient_table(monkeypatch, tmp_path):
    # check_neardomain solves the coefficient table once and keeps it;
    # affine_group and is_nearfield read it and solve none; on a Neardomain
    # built directly the first request solves the table; the CLI reading
    # one file twice validates it, and solves its table, once. A solve is
    # counted as one build of the row solver
    solves = []
    solver = neardomain._row_solver
    monkeypatch.setattr(neardomain, "_row_solver", lambda nd: solves.append(nd) or solver(nd))
    gf7 = galois_field(7)
    pi = (0, 3, 6, 2, 5, 1, 4)
    nd = check_neardomain(_relabeled(gf7.add, pi), _relabeled(gf7.mul, pi), 0, pi[1])
    assert solves == [nd]
    solves.clear()
    assert s2t.affine_group(nd).degree == 7 and is_nearfield(nd)
    assert solves == []
    fresh = Neardomain(nd.order, nd.add, nd.mul, nd.zero, nd.one)
    assert is_nearfield(fresh) and s2t.affine_group(fresh) == s2t.affine_group(nd)
    assert len(solves) == 1 and solves[0] is fresh
    assert neardomain.coefficients(fresh) == neardomain.coefficients(nd)
    solves.clear()
    path = tmp_path / "nd.txt"
    path.write_text(emit_structure(nd))
    read = cli._read(str(path))
    assert read == nd and read is not nd and len(solves) == 1
    assert cli._read(str(path)) is read and is_nearfield(read)
    assert len(solves) == 1


# Additions that are loops but not groups, each with the multiplication
# mul[sigma^k(1)] = sigma^k for an automorphism sigma of the loop of order 5
# fixing 0: the three such non-associative loops of order 6 with symmetric
# zero sums. They pass axioms 1 to 5 and fail axiom 6, which no corruption
# above reaches; the witness is the first failing (a, b, x)
AXIOM_6_FAILURES = [
    (
        ((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), (2, 4, 0, 5, 1, 3), (3, 5, 4, 0, 2, 1), (4, 3, 5, 1, 0, 2), (5, 2, 1, 4, 3, 0)),
        ((0,) * 6, (0, 1, 2, 3, 4, 5), (0, 2, 4, 1, 5, 3), (0, 3, 1, 5, 2, 4), (0, 4, 5, 2, 3, 1), (0, 5, 3, 4, 1, 2)),
        (1, 2, 2),
    ),
    (
        ((0, 1, 2, 3, 4, 5), (1, 0, 3, 4, 5, 2), (2, 3, 0, 5, 1, 4), (3, 4, 5, 0, 2, 1), (4, 5, 1, 2, 0, 3), (5, 2, 4, 1, 3, 0)),
        ((0,) * 6, (0, 1, 2, 3, 4, 5), (0, 2, 5, 4, 1, 3), (0, 3, 4, 2, 5, 1), (0, 4, 1, 5, 3, 2), (0, 5, 3, 1, 2, 4)),
        (1, 1, 2),
    ),
    (
        ((0, 1, 2, 3, 4, 5), (1, 0, 3, 4, 5, 2), (2, 4, 0, 5, 3, 1), (3, 5, 1, 0, 2, 4), (4, 2, 5, 1, 0, 3), (5, 3, 4, 2, 1, 0)),
        ((0,) * 6, (0, 1, 2, 3, 4, 5), (0, 2, 3, 5, 1, 4), (0, 3, 5, 4, 2, 1), (0, 4, 1, 2, 5, 3), (0, 5, 4, 1, 3, 2)),
        (1, 1, 2),
    ),
]


def test_axiom_6_fails_end_to_end():
    for add, mul, witness in AXIOM_6_FAILURES:
        assert references.associativity_witness(check_loop(add).table, range(6)) is not None
        for check in (check_neardomain, references.check_neardomain_by_triples):
            assert _outcome(check, add, mul, 0, 1) == (6, witness), (check, add)
