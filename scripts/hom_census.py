#!/usr/bin/env python3
"""Hom-set count matrices over the bundled example structures.

Prints, for a chosen family, the matrix H[i][j] = number of morphisms from
object i to object j. The neardomain and group matrices are the interesting
pair: the unit-preserving morphism counts match the sharply-2-transitive
morphism counts row for row, which is the equivalence the test battery
certifies exhaustively. The group counts come from the definitional search
on the permutation groups themselves (enumerate_s2t_morphisms_direct), so
they never read a neardomain hom-set.

Usage:
    python3 scripts/hom_census.py --family neardomains
    python3 scripts/hom_census.py --family groups
    python3 scripts/hom_census.py --family loops --max-degree 5
"""

import argparse
import sys

from algcat.loops import enumerate_loop_morphisms
from algcat.neardomain import enumerate_nd_morphisms
from algcat.s2t import enumerate_s2t_morphisms_direct
from algcat.zoo import standard_zoo

FAMILIES = ("loops", "neardomains", "groups")


def _matrix(objects, counter):
    names = [name for name, _ in objects]
    rows = []
    for _, src in objects:
        rows.append([len(counter(src, dst)) for _, dst in objects])
    return names, rows


def _print_matrix(names, rows):
    width = max(len(name) for name in names)
    cells = [
        max(len(name), max(len(str(row[j])) for row in rows))
        for j, name in enumerate(names)
    ]
    header = " ".join(f"{name:>{c}}" for name, c in zip(names, cells))
    print(f"{'':>{width}}  {header}")
    for name, row in zip(names, rows):
        body = " ".join(f"{v:>{c}}" for v, c in zip(row, cells))
        print(f"{name:>{width}}  {body}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--family",
        choices=FAMILIES,
        default="neardomains",
        help="which family to census (default: neardomains)",
    )
    parser.add_argument(
        "--max-degree",
        type=int,
        default=None,
        metavar="N",
        help="skip objects larger than N elements/points",
    )
    args = parser.parse_args(argv)

    zoo = standard_zoo()
    if args.family == "loops":
        objects = zoo.loops
        size = lambda obj: obj.order
        counter = enumerate_loop_morphisms
    elif args.family == "neardomains":
        objects = zoo.neardomains
        size = lambda obj: obj.order
        counter = enumerate_nd_morphisms
    else:
        objects = zoo.groups
        size = lambda obj: obj.degree
        counter = enumerate_s2t_morphisms_direct

    if args.max_degree is not None:
        objects = [(n, o) for n, o in objects if size(o) <= args.max_degree]
    if not objects:
        parser.error("no objects left after --max-degree filter")

    print(f"hom-set counts, {args.family} ({len(objects)} objects)")
    names, rows = _matrix(objects, counter)
    _print_matrix(names, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
