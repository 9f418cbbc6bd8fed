"""Reference definitions that only the tests read: each states a notion
plainly, for tests to compare the package's own computations against."""

import itertools

from algcat.errors import (
    AxiomViolation,
    IdentityViolation,
    InvariantViolation,
    LatinSquareViolation,
    StructureError,
)
from algcat.loops import Loop, table_homomorphisms
from algcat.neardomain import Neardomain
from algcat.perms import PermSet
from algcat.rps import Rps, check_rps
from algcat.s2t import S2tGroup, translations


def loops_isomorphic(a: Loop, b: Loop) -> tuple[int, ...] | None:
    """First bijective morphism a -> b in lexicographic order, or None."""
    if a.order != b.order:
        return None
    homs = table_homomorphisms((a.table,), (b.table,), {a.identity: b.identity})
    return next((f for f in homs if len(set(f)) == a.order), None)


Images = tuple[int, ...]


def compose(p: Images, q: Images) -> Images:
    """p * q, the left action: compose(p, q)[x] == p[q[x]], q applied first."""
    return tuple(p[x] for x in q)


def relabeled_table(table, pi: Images, pi_inv: Images, n: int) -> tuple[Images, ...]:
    """The table transported along pi, cell by cell: the new table holds
    pi(a * b) at (pi(a), pi(b))."""
    return tuple(tuple(pi[table[pi_inv[r]][pi_inv[c]]] for c in range(n)) for r in range(n))


def preserves(f, src_table, dst_table) -> bool:
    """f(a op b) == f(a) op' f(b) at every pair (a, b), cell by cell."""
    n = len(src_table)
    return all(f[src_table[a][b]] == dst_table[f[a]][f[b]] for a in range(n) for b in range(n))


def inverse(p: Images) -> Images:
    """The image tuple of the inverse: inverse(p)[p[x]] == x."""
    return tuple(p.index(y) for y in range(len(p)))


def relabelings_fixing_zero(n: int) -> list[tuple[Images, Images]]:
    """Every (pi, inverse(pi)) over the permutations pi of 0..n-1 with
    pi[0] == 0, in lexicographic order of pi."""
    return [(pi, inverse(pi)) for pi in itertools.permutations(range(n)) if pi[0] == 0]


def fixed_points(p: Images) -> frozenset[int]:
    return frozenset(x for x, y in enumerate(p) if x == y)


def is_identity(p: Images) -> bool:
    return all(i == j for i, j in enumerate(p))


def is_involution(p: Images) -> bool:
    """Order exactly two: squares to the identity without being it."""
    return not is_identity(p) and is_identity(compose(p, p))


def with_basepoint(r: Rps, basepoint: int) -> Rps:
    """Same member set, relocated base point."""
    return check_rps(r.members, r.degree, basepoint)


def to_point(r: Rps, m: Images) -> int:
    """Evaluate a member of r at the base point."""
    if m not in r.members:
        raise ValueError("permutation is not a member of this set")
    return m[r.basepoint]


def member_product(r: Rps, m: Images, k: Images) -> Images:
    """The unique member whose base-point image equals (m * k)(base).

    This is the loop product transported onto the members; it agrees with
    m * k at the base point but is generally a different permutation.
    """
    if m not in r.members or k not in r.members:
        raise ValueError("both factors must be members of the set")
    return r.from_point(compose(m, k)[r.basepoint])


def _stabilizer_action(g: S2tGroup) -> dict[int, Images]:
    """omega1-image -> element over the stabilizer of omega0, scanned from
    the whole group and checked regular on the other points on every call."""
    stab = [p for p in g.group if p[g.omega0] == g.omega0]
    table = {p[g.omega1]: p for p in stab}
    if len(stab) != g.degree - 1 or set(table) != set(range(g.degree)) - {g.omega0}:
        raise InvariantViolation("stabilizer of omega0 is regular on the other points", sorted(table))
    return table


def point_add(g: S2tGroup, alpha: int, beta: int) -> int:
    """alpha + beta via the translation sending omega0 to alpha: the
    definition of one cell of the derived addition."""
    return translations(g).from_point(alpha)[beta]


def point_mul(g: S2tGroup, alpha: int, beta: int) -> int:
    """alpha * beta via the omega0-stabilizer element sending omega1 to alpha;
    any product with omega0 is omega0. The definition of one cell of the
    derived multiplication; derives the stabilizer table per call."""
    if alpha == g.omega0 or beta == g.omega0:
        return g.omega0
    return _stabilizer_action(g)[alpha][beta]


def composition_table(members: PermSet) -> list[list[int]]:
    """table[i][j] is the index of members[i] * members[j], by compose and
    PermSet.index; KeyError when a product is not a member."""
    return [[members.index(compose(p, q)) for q in members] for p in members]


def is_homomorphism(f, t_src, t_dst) -> bool:
    """f(p * q) == f(p) * f(q) at every pair, on full composition tables."""
    return all(f[k] == t_dst[f[i]][f[j]] for i, row in enumerate(t_src) for j, k in enumerate(row))


def involution_fixed_points(g) -> set[int]:
    """The fixed-point counts of the involutions of a group, {0} in
    characteristic two and {1} otherwise."""
    return {len(fixed_points(p)) for p in g.group if is_involution(p)}


def is_s2t_morphism(f, phi, src, dst, t_src, t_dst) -> bool:
    """The morphism definition of sharply 2-transitive groups, stated
    plainly: phi injective and fixing the base points, phi(p(x)) ==
    f(p)(phi(x)) at every member p and point x, equal sets of involution
    fixed-point counts (the characteristic), and f a homomorphism on the
    full tables t_src and t_dst of the two groups."""
    dst_ms = dst.group.members
    return (
        len(set(phi)) == len(phi)
        and (phi[src.omega0], phi[src.omega1]) == (dst.omega0, dst.omega1)
        and all(phi[y] == dst_ms[f[i]][phi[x]] for i, p in enumerate(src.group) for x, y in enumerate(p))
        and involution_fixed_points(src) == involution_fixed_points(dst)
        and is_homomorphism(f, t_src, t_dst)
    )


def latin_witness(rows, identity: int) -> None:
    """The loop axioms cell by cell, raising what loops.check_loop documents
    at the first failure: the order and the identity, then each row's length
    and entries in row-major order, then the first repeat in each row, then
    in each column (a repeat is a value seen earlier in its line), then the
    left and right unit laws at each element in turn. Returns None on a
    loop. A point is an exact int in range: a bool or a float equal to a
    point is out of range."""
    n = len(rows)
    if n < 1:
        raise StructureError("loop order must be at least 1")
    if type(identity) is not int or not 0 <= identity < n:
        raise StructureError(f"identity {identity} out of range for order {n}")
    for r in range(n):
        if len(rows[r]) != n:
            raise StructureError(f"row {r} has length {len(rows[r])}, expected {n}")
        for v in rows[r]:
            if type(v) is not int or v not in range(n):
                raise StructureError(f"entry {v} in row {r} out of range for order {n}")
    lines = [("row", r, list(rows[r])) for r in range(n)]
    lines += [("column", c, [rows[r][c] for r in range(n)]) for c in range(n)]
    for axis, index, line in lines:
        for k in range(n):
            if line[k] in line[:k]:
                raise LatinSquareViolation(axis, index, line[k])
    for x in range(n):
        if rows[identity][x] != x:
            raise IdentityViolation("left", x)
        if rows[x][identity] != x:
            raise IdentityViolation("right", x)


def check_neardomain_by_triples(add, mul, zero: int, one: int) -> Neardomain:
    """The six neardomain axioms on well-formed tables, every law over all
    its cells in row-major order, axioms 3, 5 and 6 over triples: what
    neardomain.check_neardomain must accept, with the same
    AxiomViolation(k, witness) on what it must reject. Returns the
    neardomain unvalidated otherwise."""
    n = len(add)
    try:
        latin_witness(add, zero)
    except (LatinSquareViolation, IdentityViolation) as exc:
        raise AxiomViolation(1, str(exc)) from exc
    for a in range(n):
        for b in range(n):
            if add[a][b] == zero and add[b][a] != zero:
                raise AxiomViolation(2, (a, b))
    nonzero = [x for x in range(n) if x != zero]
    for a in nonzero:
        for b in nonzero:
            if mul[a][b] == zero:
                raise AxiomViolation(3, ("not closed", a, b))
    for a in nonzero:
        if mul[one][a] != a or mul[a][one] != a:
            raise AxiomViolation(3, ("unit law", a))
    for a in nonzero:
        if sorted(mul[a][b] for b in nonzero) != nonzero:
            raise AxiomViolation(3, ("left translation not bijective", a))
        if sorted(mul[b][a] for b in nonzero) != nonzero:
            raise AxiomViolation(3, ("right translation not bijective", a))
    witness = associativity_witness(mul, nonzero)
    if witness is not None:
        raise AxiomViolation(3, ("not associative", *witness))
    for a in range(n):
        if mul[zero][a] != zero:
            raise AxiomViolation(4, (a,))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise AxiomViolation(5, (a, b, c))
    witness = reassociation_witness(add, mul, zero, one)
    if witness is not None:
        raise AxiomViolation(6, witness)
    return Neardomain(n, tuple(map(tuple, add)), tuple(map(tuple, mul)), zero, one)


def reassociation_witness(add, mul, zero: int, one: int) -> tuple | None:
    """Axiom 6 cell by cell, in row-major order of (a, b) and then x: the
    first (a, b, "coefficient is zero") or (a, b, x) that fails, or None.
    The coefficient d of (a, b) is solved at x = one."""
    n = len(add)
    for a in range(n):
        for b in range(n):
            ab = add[a][b]
            d = add[ab].index(add[a][add[b][one]])
            if d == zero:
                return (a, b, "coefficient is zero")
            for x in range(n):
                if add[a][add[b][x]] != add[ab][mul[d][x]]:
                    return (a, b, x)
    return None


def associativity_witness(table, elements) -> tuple[int, int, int] | None:
    """The first (a, b, c) over elements in row-major order with
    (ab)c != a(bc), or None."""
    for a in elements:
        for b in elements:
            for c in elements:
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None
