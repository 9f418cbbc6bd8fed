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

check_neardomain certifies axioms 3 and 5 on the generating set of the
nonzero elements that perms.greedy_walk grows from one, associativity by
Light's test (loops._associativity_witness) and left distributivity on the
generators alone (perms._intertwined, as is_nd_morphism runs it on both
tables), and runs a full triple loop only to name the witness of an input
that fails. Axiom 6 solves and verifies the n^2 coefficients a row at a
time, n^3 steps taken by gathers of whole rows, runs its pair-by-pair scan
(d_coeff) only on a row that fails, and the neardomain keeps the
coefficients as one table (coefficients), which affine_group and
is_nearfield read.

Morphisms preserve both operations and the multiplicative identity (without
the unital requirement the constant-zero map would slip in, collapsing the
hom-sets this package certifies). Morphisms are automatically injective;
that is checked, never assumed.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .errors import (
    AxiomViolation,
    IdentityViolation,
    InvariantViolation,
    LatinSquareViolation,
    StructureError,
)
from .loops import Table, _associativity_witness, _generators, _right_multiplication, check_loop, table_homomorphisms
from .perms import _all_points, _intertwined, _is_point, _right_multiplier, _total_map, check_budget, greedy_walk
from .values import Value, cached_hash, per_object


class Neardomain(Value):
    """Build through check_neardomain(); direct construction skips validation.

    _derived holds what is derived from this one object (its coefficient
    table and its affine group), set on first request and kept for the
    object's life."""

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
    """rows as a tuple of n tuples of n points of 0..n-1, n >= 1, each an
    exact int (see perms._is_point): a bool or a float equal to a point is
    refused. Valid rows pass one length test each and one test that every
    entry is a point (perms._all_points), in C; only rows that fail run the
    row-major scan, which names the first row of the wrong length or entry
    that is no point."""
    if len(rows) != n:
        raise StructureError(f"{name} table has {len(rows)} rows, expected {n}")
    out = tuple(map(tuple, rows))
    if all(len(row) == n for row in out) and _all_points(out, n):
        return out
    for r, row in enumerate(out):
        if len(row) != n:
            raise StructureError(f"{name} row {r} has length {len(row)}, expected {n}")
        for v in row:
            if not _is_point(v, n):
                raise StructureError(f"{name} entry {v} in row {r} out of range")
    raise InvariantViolation("_as_table's length and range test", name)


def check_neardomain(
    add: Sequence[Sequence[int]],
    mul: Sequence[Sequence[int]],
    zero: int,
    one: int,
) -> Neardomain:
    """Validate the six axioms in order; the first failure is reported as
    AxiomViolation(k, witness), the witness being the first failing cell in
    row-major order. Returns the neardomain it built and validated, which
    keeps its coefficient table (see coefficients). zero, one and every
    entry of both tables must be points of 0..n-1, exact ints (see
    perms._is_point): a bool or a float equal to a point is refused with a
    StructureError before any axiom is read.

    Only axiom 6 loops over triples. The triple laws of axioms 3 and 5 are
    certified on the generating set A of the nonzero elements under mul that
    perms.greedy_walk grows from one (1 to 3 elements for the bundled
    neardomains, at most log2(n - 1) in a group):

    - associativity of the nonzero elements by Light's test, (n - 1)^2 |A|
      steps (see _associativity_witness);
    - left distributivity on A alone, n^2 |A| steps, once a * zero == zero
      holds for every a. The a with a(b + c) == ab + ac for all b, c form a
      set S. It holds zero, by axiom 4 and zero + zero == zero. It is closed
      under products, (aa')(b + c) == a(a'b + a'c) == (aa')b + (aa')c,
      which rests on three facts: the nonzero elements are associative
      (axiom 3), zero absorbs on the left (axiom 4) and zero absorbs on the
      right (a * zero == zero). Together they make mul associative on all
      elements, so (aa')x == a(a'x) for every x. S holds A and one (one
      times every element is that element, by the unit law and a * zero ==
      zero), so it holds every product of them, which is every element.

    a * zero == zero follows from axioms 1 and 5 (a * zero ==
    a * (zero + zero) == a * zero + a * zero, and in a loop only zero is its
    own double), so a table failing it fails axiom 5 too. When either check
    fails, the full row-major loop of axiom 5 names the witness, as the full
    loop of axiom 3 does when Light's test fails; a full loop that finds
    nothing contradicts the certificate and raises InvariantViolation. A
    valid input never runs a full loop. The budget still counts the n^3
    steps of axiom 6 and the full loops, so an order whose cube is over it
    is refused before anything is read.

    The cell laws read before axiom 5 pass valid tables with one test per
    row or column, in C, and run their row-major scans only when that test
    fails, to name the witness; a scan that then finds nothing raises
    InvariantViolation. Each test holds exactly when its scan finds
    nothing:

    - the table reads: each row's length, and its entries points of 0..n-1;
    - axiom 1: check_loop's test on the rows and columns of add;
    - axiom 2: once add is a loop, row a holds zero only at -a, so the law
      reads -(-a) == a;
    - axiom 3, its scans up to Light's test: restricted to the nonzero
      elements, each row and column of mul holds every nonzero element
      (so no product is zero and each translation is bijective), and row
      and column one are the identity map;
    - axiom 4: row zero of mul holds zero n times."""
    n = len(add)
    if n < 2:
        raise StructureError("neardomain order must be at least 2, zero and one are distinct")
    check_budget(n**3, f"neardomain axioms of order {n}")
    add_t = _as_table(add, n, "add")
    mul_t = _as_table(mul, n, "mul")
    if not _is_point(zero, n) or not _is_point(one, n) or zero == one:
        raise StructureError(f"constants zero={zero}, one={one} invalid for order {n}")

    # axiom 1: (F, +) is a loop with identity zero
    try:
        check_loop(add_t, zero)
    except (LatinSquareViolation, IdentityViolation) as exc:
        raise AxiomViolation(1, str(exc)) from exc

    # axiom 2: zero sums are symmetric. Row a holds zero once, at -a; the
    # law is -(-a) == a for every a
    negative = [row.index(zero) for row in add_t]
    if list(map(negative.__getitem__, negative)) != list(range(n)):
        for a in range(n):
            for b in range(n):
                if add_t[a][b] == zero and add_t[b][a] != zero:
                    raise AxiomViolation(2, (a, b))
        raise InvariantViolation("check_neardomain's axiom 2 test", tuple(negative))

    # axiom 3: nonzero elements are a group under mul. On the nonzero
    # elements each row and each column of mul holds every nonzero element,
    # and row and column one are the identity map
    nonzero = [x for x in range(n) if x != zero]
    on_nonzero = _right_multiplier(nonzero)  # row -> its entries at nonzero
    rows = [on_nonzero(mul_t[a]) for a in nonzero]
    columns = list(zip(*rows))
    units, at_one = set(nonzero), nonzero.index(one)
    if not (
        all(set(row) == units for row in rows)
        and all(set(column) == units for column in columns)
        and rows[at_one] == columns[at_one] == tuple(nonzero)
    ):
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
        raise InvariantViolation("check_neardomain's axiom 3 row and column test", one)
    gens = greedy_walk(nonzero, _right_multiplication(mul_t), [one])
    witness = _associativity_witness(mul_t, nonzero, gens)
    if witness is not None:
        raise AxiomViolation(3, ("not associative", *witness))

    # axiom 4: zero absorbs from the left
    if mul_t[zero].count(zero) != n:
        for a in range(n):
            if mul_t[zero][a] != zero:
                raise AxiomViolation(4, (a,))
        raise InvariantViolation("check_neardomain's axiom 4 test", zero)

    # axiom 5: left distributivity, on the generators once zero absorbs on
    # the right
    not_absorbed = next((a for a in range(n) if mul_t[a][zero] != zero), None)
    if not_absorbed is not None or not _distributes(add_t, mul_t, gens):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if mul_t[a][add_t[b][c]] != add_t[mul_t[a][b]][mul_t[a][c]]:
                        raise AxiomViolation(5, (a, b, c))
        if not_absorbed is not None:
            raise InvariantViolation("a * zero == zero", (not_absorbed,))
        raise InvariantViolation("left distributivity on generators", tuple(gens))

    # axiom 6: the reassociation coefficient exists, is nonzero, works for all x
    nd = Neardomain(n, add_t, mul_t, zero, one)
    coefficients(nd)
    return nd


def _distributes(add: Table, mul: Table, gens: Sequence[int]) -> bool:
    """a(b + c) == ab + ac for every generator a and all b, c: mul[a]
    intertwines the rows of add (perms._intertwined)."""
    return all(_intertwined(mul[a], mul[a], add, add) for a in gens)


def d_coeff(nd: Neardomain, a: int, b: int) -> int:
    """The unique nonzero d with a + (b + x) == (a + b) + d * x for all x.

    Solved at the witness x = one (where d * one == d reduces the equation to
    a loop division), then verified against every x, both sides gathered as
    one row; a failure names the first x.
    """
    add = nd.add
    row_a, row_b = add[a], add[b]
    row_ab = add[row_a[b]]
    d = row_ab.index(row_a[row_b[nd.one]])
    if d == nd.zero:
        raise AxiomViolation(6, (a, b, "coefficient is zero"))
    lhs, rhs = itemgetter(*row_b)(row_a), itemgetter(*nd.mul[d])(row_ab)
    if lhs != rhs:
        raise AxiomViolation(6, (a, b, next(x for x in range(nd.order) if lhs[x] != rhs[x])))
    return d


@per_object
def coefficients(nd: Neardomain) -> tuple[tuple[int, ...], ...]:
    """table[a][b] is d_coeff(nd, a, b). check_neardomain builds it as its
    axiom-6 check and the neardomain keeps it, so affine_group and
    is_nearfield read it without solving a coefficient again; on a
    Neardomain built directly it is solved on the first request.

    Each row a is solved and verified at once by _row_solver, with a few
    gathers per b and no call per pair. A row it rejects runs d_coeff over
    its pairs, which names the first failing pair; the rows before passed,
    so that pair is the first in row-major order, and the AxiomViolation(6)
    is the one a pair-by-pair solve raises. A scan that finds no failure
    contradicts the row test and raises InvariantViolation."""
    solve = _row_solver(nd)
    table = []
    for a in range(nd.order):
        row = solve(a)
        if row is None:
            row = tuple(d_coeff(nd, a, b) for b in range(nd.order))
            raise InvariantViolation("axiom 6's row test", (a, row))
        table.append(row)
    return tuple(table)


def _row_solver(nd: Neardomain):
    """a -> row a of the coefficient table, or None when some pair (a, b)
    fails axiom 6. Over b, the sums a + b are add[a] itself, so one gather
    of add through add[a] lists the rows of a + b, and one gather of add[a]
    through column one of add lists a + (b + one); tuple.index solves
    every d at once, as d_coeff does for one pair. The row passes when no d
    is zero and, for every b, a + (b + x) and (a + b) + d * x agree at
    every x, each side one prebuilt gather of a whole row: add[a] through
    add[b], and the row of a + b through mul[d]. On a Neardomain built
    directly, a gather or solve that fails (a target missing from its row,
    an entry out of range) rejects the row too, and d_coeff then meets the
    failure at its pair."""
    add, zero = nd.add, nd.zero
    through_add = [_right_multiplier(row) for row in add]
    through_mul = [_right_multiplier(row) for row in nd.mul]
    plus_one = _right_multiplier([row[nd.one] for row in add])

    def solve(a: int) -> tuple[int, ...] | None:
        row_a = add[a]
        try:
            sums = _right_multiplier(row_a)(add)
            d = tuple(map(tuple.index, sums, plus_one(row_a)))
            if zero in d or any(left(row_a) != through_mul[c](row_ab) for left, c, row_ab in zip(through_add, d, sums)):
                return None
        except (LookupError, TypeError, ValueError):
            return None
        return d

    return solve


def is_nearfield(nd: Neardomain) -> bool:
    """True iff every reassociation coefficient is one, read off the kept
    table (coefficients). Addition is then a group: with d == one, axiom 6
    reads a + (b + x) == (a + b) + x. That associativity is re-checked by
    Light's test on add (see loops._associativity_witness), from the
    generating set of all elements that loops._generators grows: from zero
    once zero is checked to be a two-sided identity of add, so zero is
    never taken as a generator, and from nothing on a Neardomain built
    directly whose zero is no identity of add, so the test stays exact. A
    failure raises InvariantViolation naming the first triple. The budget
    counts n^3 steps, the full loop a failure runs."""
    check_budget(nd.order**3, f"nearfield check of order {nd.order}")
    if any(d != nd.one for row in coefficients(nd) for d in row):
        return False
    witness = _associativity_witness(nd.add, range(nd.order), _generators(nd.add, nd.zero))
    if witness is not None:
        raise InvariantViolation("nearfield addition is associative", witness)
    return True


def characteristic_two(nd: Neardomain) -> bool:
    return nd.add[nd.one][nd.one] == nd.zero


def is_nd_morphism(phi: Sequence[int], src: Neardomain, dst: Neardomain) -> bool:
    """True iff phi preserves add, mul (intertwines the rows of each, see
    perms._intertwined), and the multiplicative identity.

    A true result is checked injective and zero-preserving: both follow, and
    a failure marks an implementation bug rather than a bad candidate.
    """
    phi = tuple(phi)
    if not _total_map(phi, src.order, dst.order):
        raise ValueError("phi is not a total map into the target carrier")
    if phi[src.one] != dst.one:
        return False
    if not (_intertwined(phi, phi, src.add, dst.add) and _intertwined(phi, phi, src.mul, dst.mul)):
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
# order needs no reduction and lists none, so the same construction gives
# addition and multiplication modulo p.
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
    add = tuple(
        tuple(_undigits([(da + db) % p for da, db in zip(_digits(a, p, k), _digits(b, p, k))], p) for b in range(q))
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
