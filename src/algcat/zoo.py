"""The frozen collection of desk-scale objects the verification battery runs on.

Loops of order up to 5 (one representative per isomorphism class), their
translation sets, the supported fields plus the order-9 proper nearfield,
every affine group over those, and a few deliberately non-native group
presentations (relabeled points, alternative base points) so the rebuild
machinery is exercised away from the trivial case.
"""

from __future__ import annotations

from functools import lru_cache

from .loops import Loop, enumerate_loops
from .neardomain import Neardomain, dickson_nearfield_9, galois_field
from .rps import Rps, loop_to_rps
from .s2t import S2tGroup, affine_group, check_s2t, relabel
from .values import Value


MAX_LOOP_ORDER = 5
FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9)


class Zoo(Value):
    """The named objects of each kind, in battery order."""

    __slots__ = _fields = ("loops", "rps_objects", "neardomains", "groups")

    def __init__(
        self,
        loops: tuple[tuple[str, Loop], ...],
        rps_objects: tuple[tuple[str, Rps], ...],
        neardomains: tuple[tuple[str, Neardomain], ...],
        groups: tuple[tuple[str, S2tGroup], ...],
    ):
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "rps_objects", rps_objects)
        object.__setattr__(self, "neardomains", neardomains)
        object.__setattr__(self, "groups", groups)


@lru_cache(maxsize=None)
def standard_zoo() -> Zoo:
    loops = tuple(
        (f"loop{n}_{i}", loop)
        for n in range(1, MAX_LOOP_ORDER + 1)
        for i, loop in enumerate(enumerate_loops(n))
    )
    rps_objects = tuple((f"rps({name})", loop_to_rps(loop)) for name, loop in loops)

    neardomains = [(f"gf{q}", galois_field(q)) for q in FIELD_ORDERS]
    neardomains.append(("dickson9", dickson_nearfield_9()))

    groups = [(f"aff({name})", affine_group(nd)) for name, nd in neardomains]
    g3 = affine_group(galois_field(3))
    g4 = affine_group(galois_field(4))
    d9 = affine_group(dickson_nearfield_9())
    rot9 = tuple((i + 1) % 9 for i in range(9))
    groups.append(("aff(gf3)/relabeled", relabel(g3, (2, 0, 1))))
    groups.append(("aff(gf4)/relabeled", relabel(g4, (3, 2, 1, 0))))
    groups.append(("aff(dickson9)/relabeled", relabel(d9, rot9)))
    # same carrier group, different base points: forces a derived
    # structure that is isomorphic but not equal to the native one
    groups.append(("sym3@(1,2)", check_s2t(g3.group, 1, 2)))

    return Zoo(loops, rps_objects, tuple(neardomains), tuple(groups))
