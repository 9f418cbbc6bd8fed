"""Neardomains and nearfields as paired Cayley tables.

A neardomain is a set with two tables (add, mul) and constants zero, one:

  1. (F, +) is a loop with identity zero
  2. a + b == zero implies b + a == zero
  3. the nonzero elements form a group under mul with identity one
  4. zero * a == zero for every a (a * zero == zero then follows)
  5. a * (b + c) == a * b + a * c for all a, b, c
  6. for all a, b there is a nonzero d with
         a + (b + x) == (a + b) + d * x   for every x

It is a nearfield when every such d equals one; addition is then a group.
Every finite neardomain is a nearfield, which the test suite re-checks as a
standing property on everything this module ever builds.

Morphisms preserve both operations and the multiplicative identity (without
the unital requirement the constant-zero map would slip in, collapsing the
hom-sets this package certifies). Morphisms are automatically injective;
that is checked, never assumed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import (
    AxiomViolation,
    IdentityViolation,
    InvariantViolation,
    LatinSquareViolation,
    StructureError,
)
from .loops import Table, check_loop, table_homomorphisms
from .perms import check_budget, intern
from .values import Value, cached_hash


class Neardomain(Value):
    """Build through check_neardomain(); direct construction skips validation.

    _derived holds what other layers derive from this one object (its affine
    group), set on first request and kept for the object's life."""

    __slots__ = ("order", "add", "mul", "zero", "one", "_derived", "_hash")
    _fields = ("order", "add", "mul", "zero", "one")
    __hash__ = cached_hash

    def __init__(self, order: int, add: Table, mul: Table, zero: int, one: int):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "_derived", {})


def _as_table(rows: Sequence[Sequence[int]], n: int, name: str) -> Table:
    if len(rows) != n:
        raise StructureError(f"{name} table has {len(rows)} rows, expected {n}")
    out = []
    for r, row in enumerate(rows):
        row = tuple(row)
        if len(row) != n:
            raise StructureError(f"{name} row {r} has length {len(row)}, expected {n}")
        for v in row:
            if not 0 <= v < n:
                raise StructureError(f"{name} entry {v} in row {r} out of range")
        out.append(row)
    return tuple(out)


def check_neardomain(
    add: Sequence[Sequence[int]],
    mul: Sequence[Sequence[int]],
    zero: int,
    one: int,
) -> Neardomain:
    """Validate the six axioms in order; the first failure is reported as
    AxiomViolation(k, witness). Axioms 3, 5 and 6 loop over triples, so an
    order whose cube is over the budget is refused before anything is read.
    Returns the interned copy of the validated neardomain."""
    n = len(add)
    if n < 2:
        raise StructureError("neardomain order must be at least 2, zero and one are distinct")
    check_budget(n**3, f"neardomain axioms of order {n}")
    add_t = _as_table(add, n, "add")
    mul_t = _as_table(mul, n, "mul")
    if not 0 <= zero < n or not 0 <= one < n or zero == one:
        raise StructureError(f"constants zero={zero}, one={one} invalid for order {n}")

    # axiom 1: (F, +) is a loop with identity zero
    try:
        check_loop(add_t, zero)
    except (LatinSquareViolation, IdentityViolation) as exc:
        raise AxiomViolation(1, str(exc)) from exc

    # axiom 2: zero sums are symmetric
    for a in range(n):
        for b in range(n):
            if add_t[a][b] == zero and add_t[b][a] != zero:
                raise AxiomViolation(2, (a, b))

    # axiom 3: nonzero elements are a group under mul
    nonzero = [x for x in range(n) if x != zero]
    for a in nonzero:
        for b in nonzero:
            if mul_t[a][b] == zero:
                raise AxiomViolation(3, ("not closed", a, b))
    for a in nonzero:
        if mul_t[one][a] != a or mul_t[a][one] != a:
            raise AxiomViolation(3, ("unit law", a))
    for a in nonzero:
        if sorted(mul_t[a][b] for b in nonzero) != nonzero:
            raise AxiomViolation(3, ("left translation not bijective", a))
        if sorted(mul_t[b][a] for b in nonzero) != nonzero:
            raise AxiomViolation(3, ("right translation not bijective", a))
    for a in nonzero:
        for b in nonzero:
            for c in nonzero:
                if mul_t[mul_t[a][b]][c] != mul_t[a][mul_t[b][c]]:
                    raise AxiomViolation(3, ("not associative", a, b, c))

    # axiom 4: zero absorbs from the left
    for a in range(n):
        if mul_t[zero][a] != zero:
            raise AxiomViolation(4, (a,))

    # axiom 5: left distributivity
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul_t[a][add_t[b][c]] != add_t[mul_t[a][b]][mul_t[a][c]]:
                    raise AxiomViolation(5, (a, b, c))

    # a * zero == zero follows from axioms 1 and 5; check rather than re-derive
    for a in range(n):
        if mul_t[a][zero] != zero:
            raise InvariantViolation("a * zero == zero", (a,))

    nd = Neardomain(n, add_t, mul_t, zero, one)

    # axiom 6: the reassociation coefficient exists, is nonzero, works for all x
    for a in range(n):
        for b in range(n):
            d_coeff(nd, a, b)

    return intern(nd)


def d_coeff(nd: Neardomain, a: int, b: int) -> int:
    """The unique nonzero d with a + (b + x) == (a + b) + d * x for all x.

    Solved at the witness x = one (where d * one == d reduces the equation to
    a loop division), then verified against every x.
    """
    ab = nd.add[a][b]
    target = nd.add[a][nd.add[b][nd.one]]
    d = nd.add[ab].index(target)
    if d == nd.zero:
        raise AxiomViolation(6, (a, b, "coefficient is zero"))
    for x in range(nd.order):
        if nd.add[a][nd.add[b][x]] != nd.add[ab][nd.mul[d][x]]:
            raise AxiomViolation(6, (a, b, x))
    return d


def is_nearfield(nd: Neardomain) -> bool:
    """True iff every reassociation coefficient is one; addition is then a
    group, which is checked."""
    check_budget(nd.order**3, f"nearfield check of order {nd.order}")
    for a in range(nd.order):
        for b in range(nd.order):
            if d_coeff(nd, a, b) != nd.one:
                return False
    n = nd.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if nd.add[nd.add[a][b]][c] != nd.add[a][nd.add[b][c]]:
                    raise InvariantViolation("nearfield addition is associative", (a, b, c))
    return True


def characteristic_two(nd: Neardomain) -> bool:
    return nd.add[nd.one][nd.one] == nd.zero


def is_nd_morphism(phi: Sequence[int], src: Neardomain, dst: Neardomain) -> bool:
    """True iff phi preserves add, mul, and the multiplicative identity.

    A true result is checked injective and zero-preserving: both follow, and
    a failure marks an implementation bug rather than a bad candidate.
    """
    phi = tuple(phi)
    if len(phi) != src.order or any(not 0 <= v < dst.order for v in phi):
        raise ValueError("phi is not a total map into the target carrier")
    if phi[src.one] != dst.one:
        return False
    for a in range(src.order):
        for b in range(src.order):
            if phi[src.add[a][b]] != dst.add[phi[a]][phi[b]]:
                return False
            if phi[src.mul[a][b]] != dst.mul[phi[a]][phi[b]]:
                return False
    if phi[src.zero] != dst.zero:
        raise InvariantViolation("morphism fixes zero", (src.zero, phi[src.zero]))
    if len(set(phi)) != len(phi):
        raise InvariantViolation("neardomain morphisms are injective", phi)
    return True


def enumerate_nd_morphisms(src: Neardomain, dst: Neardomain) -> tuple[tuple[int, ...], ...]:
    """All morphisms src -> dst, lexicographic by image tuple.

    Searches maps preserving both operations with the images of zero and one
    pinned, which discards only maps that could never be morphisms; every
    result is then re-checked in full.
    """
    homs = table_homomorphisms(
        (src.add, src.mul), (dst.add, dst.mul), {src.zero: dst.zero, src.one: dst.one}
    )
    return tuple(phi for phi in homs if is_nd_morphism(phi, src, dst))


# Fixed representations for the supported field orders. A prime power p^k is
# modelled as polynomials over GF(p) modulo the listed irreducible polynomial;
# the element with base-p digits (d0, d1, ...) is the index sum(di * p^i), so
# the scalars 0..p-1 sit at indices 0..p-1.
#
#   q = 4:  t^2 + t + 1      q = 8:  t^3 + t + 1
#   q = 9:  t^2 + 1          q = 16: t^4 + t + 1
#
# _GF_PARAMS maps q -> (p, k, reduction), where reduction lists the
# coefficients (c0, c1, ...) of t^k == c0 + c1 t + ... modulo p; a prime
# order needs no reduction and lists none.
_GF_PARAMS: dict[int, tuple[int, int, tuple[int, ...]]] = {
    2: (2, 1, ()),
    3: (3, 1, ()),
    4: (2, 2, (1, 1)),
    5: (5, 1, ()),
    7: (7, 1, ()),
    8: (2, 3, (1, 1, 0)),
    9: (3, 2, (2, 0)),
    11: (11, 1, ()),
    13: (13, 1, ()),
    16: (2, 4, (1, 1, 0, 0)),
}

SUPPORTED_FIELD_ORDERS = tuple(sorted(_GF_PARAMS))


def _digits(x: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds: Sequence[int], p: int) -> int:
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


def _poly_mul(x: int, y: int, p: int, k: int, red: tuple[int, ...]) -> int:
    a, b = _digits(x, p, k), _digits(y, p, k)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j, rj in enumerate(red):
                prod[i - k + j] = (prod[i - k + j] + c * rj) % p
    return _undigits(prod[:k], p)


@lru_cache(maxsize=None)
def galois_field(q: int) -> Neardomain:
    """The field of order q as a (validated) neardomain, q in SUPPORTED_FIELD_ORDERS."""
    if q not in _GF_PARAMS:
        raise StructureError(f"unsupported field order {q}, supported: {SUPPORTED_FIELD_ORDERS}")
    p, k, red = _GF_PARAMS[q]
    if k == 1:
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
    else:
        add = tuple(
            tuple(
                _undigits([(da + db) % p for da, db in zip(_digits(a, p, k), _digits(b, p, k))], p)
                for b in range(q)
            )
            for a in range(q)
        )
        mul = tuple(tuple(_poly_mul(a, b, p, k, red) for b in range(q)) for a in range(q))
    return check_neardomain(add, mul, 0, 1)


@lru_cache(maxsize=None)
def dickson_nearfield_9() -> Neardomain:
    """The proper nearfield of order 9: GF(9) addition, multiplication twisted
    by the cubing automorphism.

    The twist tests the left factor: x * y stays x . y when x is a nonzero
    square, and becomes x . y^3 when x is a nonsquare (squares of indices are
    taken in GF(9)). Cubing is additive in characteristic 3, which is exactly
    what left distributivity needs; twisting on the right factor instead
    would distribute on the other side and fail validation here.

    The result is non-commutative and admits no bijective morphism to or
    from GF(9); the test suite witnesses both.
    """
    gf = galois_field(9)
    squares = {gf.mul[x][x] for x in range(1, 9)}

    def cube(y: int) -> int:
        return gf.mul[y][gf.mul[y][y]]

    mul = tuple(
        tuple(
            gf.mul[x][y] if (x == 0 or x in squares) else gf.mul[x][cube(y)]
            for y in range(9)
        )
        for x in range(9)
    )
    return check_neardomain(gf.add, mul, 0, 1)
