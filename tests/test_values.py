"""The value types keep the semantics of the frozen dataclasses they were:
equality only within one class, the hash of the tuple of compared fields,
the same repr text, no assignment or deletion, and construction by position
or by keyword. The repr literals are the text the dataclasses printed."""

import pytest

from algcat.catcheck import CategoryOps, FunctorOps, Verdict
from algcat.loops import Loop, check_loop
from algcat.neardomain import Neardomain, galois_field
from algcat.perms import Morphism, PermSet
from algcat.rps import Rps, loop_to_rps
from algcat.s2t import S2tGroup, affine_group
from algcat.zoo import Zoo

Z2 = check_loop(((0, 1), (1, 0)))
S2 = PermSet(2, ((0, 1), (1, 0)))
S2_REPR = "PermSet(degree=2, members=((0, 1), (1, 0)))"
C = CategoryOps(len, abs, max, callable)
C_REPR = (
    "CategoryOps(hom=<built-in function len>, identity=<built-in function abs>, compose=<built-in function max>, "
    "is_morphism=<built-in function callable>)"
)
R = loop_to_rps(Z2)
G = affine_group(galois_field(2))

# class, positional arguments, keyword arguments, compared fields, repr
CASES = [
    (PermSet, (2, S2.members), {"degree": 2, "members": S2.members}, (2, S2.members), S2_REPR),
    (Morphism, ((0,), (0,)), {"f": (0,), "phi": (0,)}, ((0,), (0,)), "Morphism(f=(0,), phi=(0,))"),
    (
        Loop,
        (2, Z2.table, 0),
        {"order": 2, "table": Z2.table, "identity": 0},
        (2, Z2.table, 0),
        "Loop(order=2, table=((0, 1), (1, 0)), identity=0)",
    ),
    (
        Neardomain,
        (2, Z2.table, ((0, 0), (0, 1)), 0, 1),
        {"order": 2, "add": Z2.table, "mul": ((0, 0), (0, 1)), "zero": 0, "one": 1},
        (2, Z2.table, ((0, 0), (0, 1)), 0, 1),
        "Neardomain(order=2, add=((0, 1), (1, 0)), mul=((0, 0), (0, 1)), zero=0, one=1)",
    ),
    (
        Rps,
        (S2, 2, 0, R.base_images, R.member_at, R.loop, R.member_loop),
        {
            "members": S2,
            "degree": 2,
            "basepoint": 0,
            "base_images": R.base_images,
            "member_at": R.member_at,
            "loop": R.loop,
            "member_loop": R.member_loop,
        },
        (S2, 2, 0),
        f"Rps(members={S2_REPR}, degree=2, basepoint=0)",
    ),
    (
        S2tGroup,
        (S2, 2, 0, 1),
        {"group": S2, "degree": 2, "omega0": 0, "omega1": 1},
        (S2, 2, 0, 1),
        f"S2tGroup(group={S2_REPR}, degree=2, omega0=0, omega1=1)",
    ),
    (
        Zoo,
        ((), (), (), ()),
        {"loops": (), "rps_objects": (), "neardomains": (), "groups": ()},
        ((), (), (), ()),
        "Zoo(loops=(), rps_objects=(), neardomains=(), groups=())",
    ),
    (
        Verdict,
        ("x", True),
        {"name": "x", "passed": True, "witness": None, "checked": 0, "elapsed_ms": 0.0},
        ("x", True, None, 0, 0.0),
        "Verdict(name='x', passed=True, witness=None, checked=0, elapsed_ms=0.0)",
    ),
    (
        CategoryOps,
        (len, abs, max, callable),
        {"hom": len, "identity": abs, "compose": max, "is_morphism": callable},
        (len, abs, max, callable),
        C_REPR,
    ),
    (
        FunctorOps,
        ("F", C, C, min, sum),
        {"name": "F", "source": C, "target": C, "obj": min, "mor": sum},
        ("F", C, C, min, sum),
        f"FunctorOps(name='F', source={C_REPR}, target={C_REPR}, obj=<built-in function min>, mor=<built-in function sum>)",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, kwargs, compared, text", CASES, ids=IDS)
def test_value_type_semantics(cls, args, kwargs, compared, text):
    x, y = cls(*args), cls(**kwargs)
    assert x == y and not x != y and x is not y
    assert hash(x) == hash(y) == hash(compared)
    assert repr(x) == repr(y) == text
    for other_cls, other_args, *_ in CASES:
        if other_cls is not cls:
            other = other_cls(*other_args)
            assert x != other and x.__eq__(other) is NotImplemented
    assert x.__eq__(compared) is NotImplemented and x != compared
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.unknown = None
    assert x == y and repr(x) == text


def test_only_compared_fields_decide_equality():
    # the derived fields of a structure are neither compared nor hashed
    moved = Rps(S2, 2, 0, (1, 0), (1, 0), Z2, Z2)
    assert moved == R and hash(moved) == hash(R)
    assert Rps(S2, 2, 1, R.base_images, R.member_at, R.loop, R.member_loop) != R
    derived = S2tGroup(S2, 2, 0, 1)
    derived._derived["x"] = 1
    assert derived == G == S2tGroup(S2, 2, 0, 1) and hash(derived) == hash(G)
    assert Verdict("x", True, elapsed_ms=1.0) != Verdict("x", True)


def test_structures_built_from_rows_hash_only_when_hashed():
    # a structure built directly, skipping validation, from rows that are not
    # tuples constructs and compares, and refuses only a hash
    rows = [[0, 1], [1, 0]]
    loop = Loop(2, rows, 0)
    assert loop == Loop(2, [[0, 1], [1, 0]], 0) and loop != Z2
    with pytest.raises(TypeError):
        hash(loop)
    nd = Neardomain(2, rows, rows, 0, 1)
    assert nd.add is rows
    with pytest.raises(TypeError):
        hash(nd)
