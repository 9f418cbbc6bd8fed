import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algcat import perms
from algcat.errors import AxiomViolation, ResourceLimitExceeded, StructureError
from algcat.neardomain import (
    SUPPORTED_FIELD_ORDERS,
    characteristic_two,
    check_neardomain,
    d_coeff,
    dickson_nearfield_9,
    enumerate_nd_morphisms,
    galois_field,
    is_nd_morphism,
    is_nearfield,
)

GF2, GF3, GF4, GF9 = (galois_field(q) for q in (2, 3, 4, 9))
DICKSON = dickson_nearfield_9()

# a valid order-5 loop whose zero sums are not symmetric: 2+3=0 but 3+2=1
ASYMMETRIC_ADD = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
)


def test_supported_fields_validate():
    for q in sorted(SUPPORTED_FIELD_ORDERS):
        nd = galois_field(q)
        assert nd.order == q
        assert nd.zero == 0 and nd.one == 1
        assert is_nearfield(nd)
        # field tables are symmetric in both operations
        assert all(
            nd.add[a][b] == nd.add[b][a] and nd.mul[a][b] == nd.mul[b][a]
            for a in range(q)
            for b in range(q)
        )
    with pytest.raises(StructureError):
        galois_field(6)


def test_characteristic_two():
    assert [q for q in sorted(SUPPORTED_FIELD_ORDERS) if characteristic_two(galois_field(q))] == [2, 4, 8, 16]
    assert not characteristic_two(DICKSON)


def test_frozen_reduction_constants():
    # extension arithmetic pinned cell-by-cell: t generates, digits little-endian
    assert GF4.mul[2][2] == 3  # t*t = t+1
    assert galois_field(8).mul[4][2] == 3  # t^2 * t = t+1
    assert GF9.mul[3][3] == 2  # t*t = 2
    assert galois_field(16).mul[4][4] == 3  # t^2 * t^2 = t+1
    # prime fields are plain modular arithmetic
    for q in (2, 3, 5, 7, 11, 13):
        nd = galois_field(q)
        assert all(
            nd.add[a][b] == (a + b) % q and nd.mul[a][b] == (a * b) % q
            for a in range(q)
            for b in range(q)
        )


def test_one_construction_builds_every_field():
    # the polynomial construction with an empty reduction is modular
    # arithmetic at every supported prime, found from the supported orders
    primes = [q for q in SUPPORTED_FIELD_ORDERS if all(q % d for d in range(2, q))]
    assert primes == [2, 3, 5, 7, 11, 13]
    for p in primes:
        nd = galois_field(p)
        assert nd.add == tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        assert nd.mul == tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
    # the extension fields' tables, pinned byte for byte
    pinned = {
        4: "02e97d63760c85b5c9f7ee8ab8c89e9edf899cd24cb83257aceffd24ce7f20ec",
        8: "a9108d00e742f7973266535dbd5069544b0ff76e14063e9ef4020219516e9d27",
        9: "6c001db6648a5ecb15798059cf7716d6c9a2648d66c02d86a1c0408ef6e3e671",
        16: "372d6d7bb2b01a13fae1d3f0063cc4883fd9209c828447b122a3cbada7c7edaf",
    }
    for q, digest in pinned.items():
        nd = galois_field(q)
        assert hashlib.sha256(repr((nd.add, nd.mul)).encode()).hexdigest() == digest, q


def test_check_neardomain_rejects():
    bad_mul = [list(row) for row in GF3.mul]
    bad_mul[1][2] = 0
    with pytest.raises(AxiomViolation) as exc:
        check_neardomain(GF3.add, bad_mul, 0, 1)
    assert exc.value.axiom == 3

    bad_add = [list(row) for row in GF3.add]
    bad_add[1][1] = 1
    with pytest.raises(AxiomViolation) as exc:
        check_neardomain(bad_add, GF3.mul, 0, 1)
    assert exc.value.axiom == 1

    mul5 = tuple(tuple(a * b % 5 for b in range(5)) for a in range(5))
    with pytest.raises(AxiomViolation) as exc:
        check_neardomain(ASYMMETRIC_ADD, mul5, 0, 1)
    assert exc.value.axiom == 2

    zero_row = [list(row) for row in GF3.mul]
    zero_row[0][2] = 1
    with pytest.raises(AxiomViolation) as exc:
        check_neardomain(GF3.add, zero_row, 0, 1)
    assert exc.value.axiom == 4

    # breaking one product in GF(4) breaks left distributivity or the group
    bad = [list(row) for row in GF4.mul]
    bad[2][3], bad[2][2] = bad[2][2], bad[2][3]
    with pytest.raises(AxiomViolation):
        check_neardomain(GF4.add, bad, 0, 1)

    with pytest.raises(StructureError):
        check_neardomain(GF3.add, GF3.mul, 0, 0)
    with pytest.raises(StructureError):
        check_neardomain(((0,),), ((0,),), 0, 1)


def test_d_coefficients():
    for nd in (GF2, GF3, GF4, GF9, DICKSON):
        for a in range(nd.order):
            assert d_coeff(nd, a, 0) == nd.one
            assert d_coeff(nd, 0, a) == nd.one
            for b in range(nd.order):
                assert d_coeff(nd, a, b) == nd.one  # all built instances are nearfields


def test_every_built_neardomain_is_nearfield(zoo):
    for _, nd in zoo.neardomains:
        assert is_nearfield(nd)


def test_dickson_structure():
    assert DICKSON.add == GF9.add
    assert not characteristic_two(DICKSON)
    assert is_nearfield(DICKSON)
    # multiplication is twisted: noncommutative, left distributive only
    witnesses = [
        (a, b)
        for a in range(9)
        for b in range(9)
        if DICKSON.mul[a][b] != DICKSON.mul[b][a]
    ]
    assert len(witnesses) == 24
    add, mul = DICKSON.add, DICKSON.mul
    assert all(
        mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        for a in range(9)
        for b in range(9)
        for c in range(9)
    )
    assert any(
        mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]
        for a in range(9)
        for b in range(9)
        for c in range(9)
    )
    # squares multiply as in the field, nonsquares are twisted through the cube
    squares = {GF9.mul[x][x] for x in range(1, 9)}
    for a in range(9):
        for b in range(9):
            if a == 0 or a in squares:
                assert DICKSON.mul[a][b] == GF9.mul[a][b]


def test_nd_morphisms_are_unital_and_injective():
    ident = tuple(range(9))
    assert is_nd_morphism(ident, GF9, GF9)
    zero_map = (0,) * 9
    assert not is_nd_morphism(zero_map, GF9, GF9)  # preserves ops, not the unit
    for src in (GF2, GF3, GF4, GF9, DICKSON):
        for dst in (GF2, GF3, GF4, GF9, DICKSON):
            for phi in enumerate_nd_morphisms(src, dst):
                assert phi[src.zero] == dst.zero
                assert phi[src.one] == dst.one
                assert len(set(phi)) == len(phi)


def test_frozen_hom_counts():
    frob = (0, 1, 2, 6, 7, 8, 3, 4, 5)  # the cube map x -> x^3
    assert enumerate_nd_morphisms(GF9, GF9) == (tuple(range(9)), frob)
    assert all(GF9.mul[GF9.mul[x][x]][x] == frob[x] for x in range(9))
    assert len(enumerate_nd_morphisms(GF2, GF3)) == 0
    assert len(enumerate_nd_morphisms(GF2, GF4)) == 1
    assert len(enumerate_nd_morphisms(GF3, GF9)) == 1
    assert len(enumerate_nd_morphisms(GF4, galois_field(8))) == 0
    assert len(enumerate_nd_morphisms(DICKSON, GF9)) == 0
    assert len(enumerate_nd_morphisms(GF9, DICKSON)) == 0
    assert len(enumerate_nd_morphisms(DICKSON, DICKSON)) == 6


@given(st.sampled_from([galois_field(q) for q in sorted(SUPPORTED_FIELD_ORDERS)] + [DICKSON]))
def test_axiom_consequences(nd):
    n = nd.order
    # a*0 = 0 follows from the axioms and is part of the validated contract
    assert all(nd.mul[a][nd.zero] == nd.zero for a in range(n))
    # negation pairs off symmetrically
    for a in range(n):
        neg = nd.add[a].index(nd.zero)
        assert nd.add[neg][a] == nd.zero
    # nonzero multiplicative part is a group with identity one
    nonzero = [x for x in range(n) if x != nd.zero]
    for a in nonzero:
        assert nd.mul[a][nd.one] == a and nd.mul[nd.one][a] == a
        assert sorted(nd.mul[a][b] for b in nonzero) == nonzero


def test_cubic_checks_refuse_over_budget_orders(monkeypatch):
    # GF(5) takes 5**3 = 125 steps: refused just under that budget, before
    # the first triple, and accepted at it
    gf5 = galois_field(5)
    monkeypatch.setattr(perms, "TABLE_CAP", 124)
    with pytest.raises(ResourceLimitExceeded, match="nearfield check of order 5 needs 125"):
        is_nearfield(gf5)
    with pytest.raises(ResourceLimitExceeded, match="neardomain axioms of order 5 needs 125"):
        check_neardomain(gf5.add, gf5.mul, 0, 1)
    monkeypatch.setattr(perms, "TABLE_CAP", 125)
    assert is_nearfield(gf5)
    assert check_neardomain(gf5.add, gf5.mul, 0, 1) == gf5
