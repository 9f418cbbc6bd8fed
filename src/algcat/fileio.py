"""Line-oriented structure files for the four object kinds.

Format, frozen for interoperability:

    loop <n> [<identity>]     n table rows of n integers (identity defaults 0)
    rps <n> <omega>           n permutation image lines
    ndom <n> <zero> <one>     n add rows, a literal line "mul", n mul rows
    s2t <n> <omega0> <omega1> full member listing, one permutation per line,
                              or a literal line "generators" followed by
                              generator permutations (closed on parse)

Lines starting with "#" and blank lines are ignored when parsing; emission is
canonical (no comments, full listings, minimal headers) and satisfies
parse(emit(x)) == x bit-exactly. Parsing validates: the returned object has
passed its kind's checker.
"""

from __future__ import annotations

from .errors import ParseError
from .loops import Loop, check_loop
from .neardomain import Neardomain, check_neardomain
from .perms import Perm, closure, perm_set
from .rps import Rps, check_rps
from .s2t import S2tGroup, check_s2t

KINDS = ("loop", "rps", "ndom", "s2t")

Structure = Loop | Rps | Neardomain | S2tGroup


def kind_of(obj: Structure) -> str:
    if isinstance(obj, Loop):
        return "loop"
    if isinstance(obj, Rps):
        return "rps"
    if isinstance(obj, Neardomain):
        return "ndom"
    if isinstance(obj, S2tGroup):
        return "s2t"
    raise TypeError(f"not a structure object: {type(obj).__name__}")


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((num, line))
    return out


def _ints(num: int, line: str, expect: int | None = None) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in line.split())
    except ValueError:
        raise ParseError(num, f"expected integers, got {line!r}") from None
    if expect is not None and len(values) != expect:
        raise ParseError(num, f"expected {expect} integers, got {len(values)}")
    return values


def _take_rows(lines, pos: int, count: int, width: int, what: str):
    rows = []
    for _ in range(count):
        if pos >= len(lines):
            raise ParseError(
                lines[-1][0] if lines else 1,
                f"unexpected end of file: {count} {what} rows expected, got {len(rows)}",
            )
        num, line = lines[pos]
        rows.append(_ints(num, line, width))
        pos += 1
    return rows, pos


def _no_trailing(lines, pos: int) -> None:
    if pos < len(lines):
        num, line = lines[pos]
        raise ParseError(num, f"unexpected trailing content: {line!r}")


def parse_structure(text: str) -> Structure:
    """Parse and validate one structure. Syntax problems raise ParseError
    with a 1-based line number; structural problems raise the kind checker's
    StructureError subclass; a generators block closing to a group over the
    perms.TABLE_CAP budget raises ResourceLimitExceeded."""
    lines = _significant_lines(text)
    if not lines:
        raise ParseError(1, "empty input: expected a header line")
    num, header = lines[0]
    tokens = header.split()
    kind = tokens[0]
    if kind not in KINDS:
        raise ParseError(num, f"unknown kind {kind!r}, expected one of {', '.join(KINDS)}")
    try:
        params = [int(tok) for tok in tokens[1:]]
    except ValueError:
        raise ParseError(num, f"non-integer header parameter in {header!r}") from None
    if not params or params[0] < 1:
        raise ParseError(num, f"header needs a positive size, got {header!r}")
    n = params[0]
    pos = 1

    if kind == "loop":
        if len(params) > 2:
            raise ParseError(num, "loop header takes at most an order and an identity")
        identity = params[1] if len(params) == 2 else 0
        rows, pos = _take_rows(lines, pos, n, n, "table")
        _no_trailing(lines, pos)
        return check_loop(rows, identity)

    if kind == "rps":
        if len(params) != 2:
            raise ParseError(num, "rps header is: rps <n> <omega>")
        rows, pos = _take_rows(lines, pos, n, n, "permutation")
        _no_trailing(lines, pos)
        return check_rps(perm_set(Perm(row) for row in rows), n, params[1])

    if kind == "ndom":
        if len(params) != 3:
            raise ParseError(num, "ndom header is: ndom <n> <zero> <one>")
        add, pos = _take_rows(lines, pos, n, n, "add")
        if pos >= len(lines) or lines[pos][1] != "mul":
            raise ParseError(
                lines[pos][0] if pos < len(lines) else lines[-1][0],
                "expected a literal 'mul' line between the add and mul tables",
            )
        mul, pos = _take_rows(lines, pos + 1, n, n, "mul")
        _no_trailing(lines, pos)
        return check_neardomain(add, mul, params[1], params[2])

    if len(params) != 3:
        raise ParseError(num, "s2t header is: s2t <n> <omega0> <omega1>")
    if pos < len(lines) and lines[pos][1] == "generators":
        pos += 1
        if pos >= len(lines):
            raise ParseError(lines[pos - 1][0], "generators line with no generators after it")
        gens = []
        while pos < len(lines):
            gen_num, line = lines[pos]
            gens.append(Perm(_ints(gen_num, line, n)))
            pos += 1
        members = closure(gens)
    else:
        if pos >= len(lines):
            raise ParseError(num, "s2t needs a member listing or a 'generators' block")
        rows = []
        while pos < len(lines):
            row_num, line = lines[pos]
            rows.append(Perm(_ints(row_num, line, n)))
            pos += 1
        members = perm_set(rows)
    return check_s2t(members, params[1], params[2])


def emit_structure(obj: Structure) -> str:
    """Canonical text form; parse_structure inverts it bit-exactly."""
    kind = kind_of(obj)
    lines: list[str]
    if kind == "loop":
        header = f"loop {obj.order}" if obj.identity == 0 else f"loop {obj.order} {obj.identity}"
        lines = [header] + [" ".join(map(str, row)) for row in obj.table]
    elif kind == "rps":
        lines = [f"rps {obj.degree} {obj.basepoint}"]
        lines += [" ".join(map(str, p.images)) for p in obj.members]
    elif kind == "ndom":
        lines = [f"ndom {obj.order} {obj.zero} {obj.one}"]
        lines += [" ".join(map(str, row)) for row in obj.add]
        lines.append("mul")
        lines += [" ".join(map(str, row)) for row in obj.mul]
    else:
        lines = [f"s2t {obj.degree} {obj.omega0} {obj.omega1}"]
        lines += [" ".join(map(str, p.images)) for p in obj.group]
    return "\n".join(lines) + "\n"
