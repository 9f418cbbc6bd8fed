"""The single table-homomorphism search against brute force, and the
invariant checks that must survive python -O."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algcat.errors import InvariantViolation
from algcat.loops import (
    enumerate_loop_morphisms,
    enumerate_loops,
    is_loop_morphism,
    loops_isomorphic,
    relabel,
)
from algcat.neardomain import enumerate_nd_morphisms, galois_field, is_nd_morphism
from algcat.perms import Morphism
from algcat.s2t import affine_group, derived_nd_morphism, enumerate_s2t_morphisms

SRC = Path(__file__).resolve().parents[1] / "src"

# every loop class of order <= 4, plus copies whose identity is not 0
SMALL_LOOPS = [loop for n in range(1, 5) for loop in enumerate_loops(n)]
SMALL_LOOPS += [relabel(loop, (1, 0, *range(2, loop.order))) for loop in SMALL_LOOPS if loop.order > 1]


def _brute_force(src_order: int, dst_order: int, is_morphism) -> list[tuple[int, ...]]:
    maps = itertools.product(range(dst_order), repeat=src_order)
    return sorted(f for f in maps if is_morphism(f))


def test_loop_search_matches_brute_force():
    for src in SMALL_LOOPS:
        for dst in SMALL_LOOPS:
            want = _brute_force(src.order, dst.order, lambda f: is_loop_morphism(f, src, dst))
            assert list(enumerate_loop_morphisms(src, dst)) == want, (src, dst)
            bijective = [f for f in want if src.order == dst.order and len(set(f)) == src.order]
            assert loops_isomorphic(src, dst) == (bijective[0] if bijective else None), (src, dst)


def test_nd_search_matches_brute_force():
    fields = [galois_field(q) for q in (2, 3, 4, 5)]
    for src in fields:
        for dst in fields:
            want = _brute_force(src.order, dst.order, lambda f: is_nd_morphism(f, src, dst))
            assert list(enumerate_nd_morphisms(src, dst)) == want, (src.order, dst.order)


def test_broken_invariant_names_its_witness():
    g9 = affine_group(galois_field(9))
    good = enumerate_s2t_morphisms(g9, g9)[1]
    with pytest.raises(InvariantViolation) as info:
        derived_nd_morphism(Morphism(good.f, (0,) * 9), g9, g9)
    assert info.value.witness == (0,) * 9


def _run_optimized(code: str) -> None:
    """Run code under python -O; it exits 0 when its check held."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_invariant_checks_survive_optimized_mode():
    code = """
import sys
if __debug__:
    sys.exit("not running under -O")
from algcat.errors import InvariantViolation
from algcat.neardomain import galois_field
from algcat.perms import Morphism
from algcat.s2t import affine_group, derived_nd_morphism, enumerate_s2t_morphisms
g9 = affine_group(galois_field(9))
good = enumerate_s2t_morphisms(g9, g9)[1]
try:
    derived_nd_morphism(Morphism(good.f, (0,) * 9), g9, g9)
except InvariantViolation:
    sys.exit(0)
sys.exit("constant-zero point map accepted")
"""
    _run_optimized(code)


def test_closure_certificate_survives_optimized_mode():
    # a zoo group minus one involution keeps its inverses, so the missing
    # product is what check_s2t must name, even with asserts stripped; so
    # must the one-pair transitivity witness and the size budget
    code = """
import sys
if __debug__:
    sys.exit("not running under -O")
from algcat.errors import NotAGroup, NotSharplyTransitive, ResourceLimitExceeded
from algcat.fileio import parse_structure
from algcat.perms import Perm, closure, perm_set
from algcat.s2t import check_s2t
from algcat.zoo import standard_zoo
g = dict(standard_zoo().groups)["aff(gf5)"]
dropped = next(p for p in g.group if p.is_involution())
members = [p for p in g.group if p != dropped]
present = set(members)
expected = next(
    f"product {list(p.images)} * {list(q.images)} missing"
    for p in members for q in members if p * q not in present
)
try:
    check_s2t(perm_set(members), g.omega0, g.omega1)
    sys.exit("group with a member removed accepted")
except NotAGroup as exc:
    if str(exc) != expected:
        sys.exit(f"witness {exc} != {expected}")
try:
    check_s2t(closure([Perm((1, 2, 0))]), 0, 1)
    sys.exit("rotation group accepted")
except NotSharplyTransitive as exc:
    if (exc.source_pair, exc.target_pair, exc.count) != ((0, 1), (0, 2), 0):
        sys.exit(f"rotation witness {exc}")
try:
    parse_structure("s2t 8 0 1\\ngenerators\\n1 2 3 4 5 6 7 0\\n1 0 2 3 4 5 6 7\\n")
except ResourceLimitExceeded:
    sys.exit(0)
sys.exit("S8 generator file accepted")
"""
    _run_optimized(code)
