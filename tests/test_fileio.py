import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcat import perms
from algcat.cli import _derived_facts
from algcat.errors import (
    DegenerateOmega,
    LatinSquareViolation,
    NotSharplyTransitive,
    ParseError,
    ResourceLimitExceeded,
    StructureError,
)
from algcat.fileio import KINDS, emit_structure, kind_of, parse_structure
from algcat.loops import Loop, check_loop
from algcat.neardomain import galois_field
from algcat.zoo import standard_zoo


def test_roundtrip_bit_exact(zoo):
    for section in (zoo.loops, zoo.rps_objects, zoo.neardomains, zoo.groups):
        for name, obj in section:
            text = emit_structure(obj)
            again = parse_structure(text)
            assert again == obj, name
            assert emit_structure(again) == text, name


def test_kind_of(zoo):
    kinds = [kind_of(section[0][1]) for section in (zoo.loops, zoo.rps_objects, zoo.neardomains, zoo.groups)]
    assert kinds == ["loop", "rps", "ndom", "s2t"]
    with pytest.raises(TypeError):
        kind_of("loop 2")


def test_parse_loop():
    obj = parse_structure("loop 2\n0 1\n1 0\n")
    assert obj == check_loop(((0, 1), (1, 0)))
    shifted = parse_structure("loop 2 1\n1 0\n0 1\n")
    assert shifted.identity == 1


@pytest.mark.parametrize(
    "row, message",
    [
        ("1 1.5", "expected integers, got '1 1.5'"),
        ("1 0x1", "expected integers, got '1 0x1'"),
        ("1", "expected 2 integers, got 1"),
    ],
)
def test_parse_names_a_row_that_is_not_integers(row, message):
    with pytest.raises(ParseError) as info:
        parse_structure(f"loop 2\n0 1\n{row}\n")
    assert str(info.value) == f"line 3: {message}"


def test_parse_ndom():
    gf3 = galois_field(3)
    text = emit_structure(gf3)
    assert text.splitlines()[0] == "ndom 3 0 1"
    assert "mul" in text.splitlines()
    assert parse_structure(text) == gf3


def test_parse_s2t_generators_closure():
    obj = parse_structure("s2t 3 0 1\ngenerators\n1 2 0\n1 0 2\n")
    assert len(obj.group) == 6
    # emission is always the full listing, and it parses back to the same object
    text = emit_structure(obj)
    assert "generators" not in text
    assert parse_structure(text) == obj


def test_generator_closure_budget(monkeypatch):
    # S3 needs a 36-entry table: over a cap of 35 its closure is refused
    # before the base points are looked at, under the cap they are
    text = "s2t 3 0 0\ngenerators\n1 2 0\n1 0 2\n"
    with pytest.raises(DegenerateOmega):
        parse_structure(text)
    monkeypatch.setattr(perms, "TABLE_CAP", 35)
    with pytest.raises(ResourceLimitExceeded):
        parse_structure(text)


def test_comments_and_blanks_tolerated():
    text = "# header comment\n\nloop 2\n# interior\n0 1\n\n1 0\n  # trailing\n"
    assert parse_structure(text).order == 2


def test_parse_errors_carry_line_numbers():
    cases = [
        ("", "header"),
        ("blob 2\n0 1\n1 0\n", "unknown kind"),
        ("loop\n", "positive size"),
        ("loop 2 0 0\n0 1\n1 0\n", "at most"),
        ("loop 2\n0 1\n", "end of file"),
        ("loop 2\n0 1\n1 x\n", "integers"),
        ("loop 2\n0 1 1\n1 0\n", "expected 2 integers"),
        ("loop 2\n0 1\n1 0\n0 1\n", "trailing"),
        ("rps 3 0\n0 1 2\n1 2 0\n", "end of file"),
        ("rps 3\n0 1 2\n1 2 0\n2 0 1\n", "rps header"),
        ("ndom 2 0\n0 1\n1 0\nmul\n0 0\n0 1\n", "ndom header"),
        ("ndom 2 0 1\n0 1\n1 0\n0 0\n0 1\n", "'mul'"),
        ("s2t 2 0 1\n", "member listing"),
        ("s2t 2 0 1\ngenerators\n", "no generators"),
    ]
    for text, needle in cases:
        with pytest.raises(ParseError) as exc:
            parse_structure(text)
        assert needle in str(exc.value), text
        assert "line" in str(exc.value)


def test_semantic_errors_forwarded():
    with pytest.raises(LatinSquareViolation):
        parse_structure("loop 2\n0 0\n1 0\n")
    with pytest.raises(StructureError):
        parse_structure("rps 2 0\n0 0\n1 0\n")  # row is not a permutation
    with pytest.raises(NotSharplyTransitive):
        parse_structure("s2t 3 0 1\n0 1 2\n1 2 0\n2 0 1\n")


def test_many_points_few_members_fail_in_linear_memory():
    # one identity row on 1000 points fails at the first source pair; listing
    # all n(n-1) point pairs first would take about 100 MB
    text = "s2t 1000 0 1\n" + " ".join(map(str, range(1000))) + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(NotSharplyTransitive) as info:
            parse_structure(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.source_pair, info.value.target_pair, info.value.count) == ((0, 1), (0, 2), 0)
    assert peak < 5_000_000, peak


def test_emit_loop_header_minimal():
    plain = check_loop(((0, 1), (1, 0)))
    assert emit_structure(plain).splitlines()[0] == "loop 2"
    moved = Loop(2, ((1, 0), (0, 1)), 1)
    assert emit_structure(moved).splitlines()[0] == "loop 2 1"


# emitted zoo structures of degree <= 5, plus generators of S5 and cyclic
# loops of orders 16 and 24; S5 has 120 elements and 16^3 > 60^2, so a table
# cap of 60^2 lets hostile generator blocks and the cubic checks that `check`
# runs on large loops reach ResourceLimitExceeded too
_ZOO = standard_zoo()
_EMITTED = [
    emit_structure(obj)
    for section in (_ZOO.loops, _ZOO.rps_objects, _ZOO.neardomains, _ZOO.groups)
    for _, obj in section
]
HOSTILE_SOURCES = [text for text in _EMITTED if int(text.split()[1]) <= 5]
HOSTILE_SOURCES += [
    "s2t 5 0 1\ngenerators\n1 2 3 4 0\n1 0 2 3 4\n",
    "s2t 5 0 1\ngenerators\n1 2 3 4 0\n1 0 2 3 4\n0 2 1 3 4\n",
]
HOSTILE_SOURCES += [
    emit_structure(check_loop(tuple(tuple((a + b) % n for b in range(n)) for a in range(n))))
    for n in (16, 24)
]
HOSTILE_TABLE_CAP = 60 * 60


def _mutate(data, lines: list[str]) -> list[str]:
    op = data.draw(st.sampled_from(["digit", "drop", "duplicate", "header", "generators"]))
    if not lines:
        return lines
    i = data.draw(st.integers(0, len(lines) - 1))
    if op == "digit":
        spots = [k for k, ch in enumerate(lines[i]) if ch.isdigit()]
        if spots:
            k = data.draw(st.sampled_from(spots))
            digit = data.draw(st.sampled_from("0123456789"))
            lines[i] = lines[i][:k] + digit + lines[i][k + 1:]
    elif op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "header":
        kind = data.draw(st.sampled_from(KINDS + ("blob",)))
        params = data.draw(st.lists(st.integers(-1, 7), max_size=4))
        lines[0] = " ".join([kind, *map(str, params)])
    elif lines[0].startswith("s2t"):
        keep = data.draw(st.lists(st.sampled_from(lines[1:] or [""]), max_size=4))
        lines[1:] = ["generators", *keep]
    return lines


# most mutants fail to parse; 400 examples (about half a second) also reach
# every checker, the table-based closure check among them
@settings(max_examples=400)
@given(st.data())
def test_hostile_input_fails_only_with_documented_errors(data):
    lines = data.draw(st.sampled_from(HOSTILE_SOURCES)).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        lines = _mutate(data, lines)
    try:
        with mock.patch.object(perms, "TABLE_CAP", HOSTILE_TABLE_CAP):
            _derived_facts(parse_structure("\n".join(lines) + "\n"))
    except (ParseError, StructureError, ResourceLimitExceeded):
        pass
