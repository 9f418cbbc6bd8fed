"""Command-line entry point: structure file checking, functor conversions,
round trips, hom-set queries, zoo emission, and the full verification battery.

Exit codes: 0 pass/valid, 1 semantic failure, 2 usage, parse, or IO error,
or an input over the size budget (perms.TABLE_CAP).
Reports are line-oriented ``key: value`` text, or JSON with --json; identical
inputs produce byte-identical output apart from the timestamp field, which
--no-timestamp removes.
A structure file is read on every request; _parse keeps the last 64 it
validated, keyed on their bytes.
main reads a well-formed command line straight from the grammar table
(_COMMANDS); argparse is imported, and its parser built from the same table,
only for help and usage errors, whose text and exit codes are argparse's.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

from .catcheck import (
    check_full_faithful,
    group_roundtrip_witness,
    loop_roundtrip_witness,
    neardomain_roundtrip_witness,
    rps_to_loop,
    run_all,
    s2t_to_ndom,
)
from .errors import ParseError, ResourceLimitExceeded, StructureError
from .fileio import emit_structure, kind_of, parse_structure
from .loops import enumerate_loop_morphisms, enumerate_loops, is_associative
from .neardomain import (
    SUPPORTED_FIELD_ORDERS,
    characteristic_two,
    dickson_nearfield_9,
    enumerate_nd_morphisms,
    galois_field,
    is_nearfield,
)
from .perms import TABLE_CAP
from .rps import enumerate_rps_morphisms, induced_loop, loop_to_rps
from .s2t import (
    affine_group,
    characteristic,
    derived_neardomain,
    enumerate_s2t_morphisms,
    translations_form_subgroup,
)

_CONVERSIONS = {
    ("loop", "rps"): loop_to_rps,
    ("rps", "loop"): induced_loop,
    ("ndom", "s2t"): affine_group,
    ("s2t", "ndom"): derived_neardomain,
}


def _timestamp() -> str:
    from datetime import datetime, timezone  # here: --no-timestamp never pays for it
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _print_report(report: dict, args) -> None:
    if not args.no_timestamp:
        report["timestamp"] = _timestamp()
    if args.json:
        import json  # here: a text report never pays for it
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if key == "verdicts":
            for v in value:
                status = "pass" if v["passed"] else "FAIL"
                line = f"verdict: {v['name']} {status} (checked={v['checked']})"
                if v["witness"]:
                    line += f" witness: {v['witness']}"
                print(line)
        elif key == "homs":
            for h in value:
                print("hom: " + " ".join(f"{k}={','.join(map(str, w))}" for k, w in h.items()))
        else:
            print(f"{key}: {_fmt(value)}")


def _read(path: str):
    try:
        with open(path, "rb") as file:
            data = file.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror or exc}") from None
    return _parse(data)


@lru_cache(maxsize=64)
def _parse(data: bytes):
    """The structure data lists, validated by parse_structure. Kept for the
    last 64 distinct inputs, so the same bytes give back the same object;
    an error is not kept, and the same bad bytes raise it on every read."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the bad byte, numbered as parse_structure numbers lines
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line, f"not valid UTF-8: byte {data[exc.start]:#04x}") from None
    return parse_structure(text)


def _derived_facts(obj) -> dict:
    kind = kind_of(obj)
    if kind == "loop":
        return {
            "order": obj.order,
            "identity": obj.identity,
            "associative": is_associative(obj),
        }
    if kind == "rps":
        return {
            "degree": obj.degree,
            "basepoint": obj.basepoint,
            "induced_associative": is_associative(induced_loop(obj)),
        }
    if kind == "ndom":
        return {
            "order": obj.order,
            "zero": obj.zero,
            "one": obj.one,
            "nearfield": is_nearfield(obj),
            "char2": characteristic_two(obj),
        }
    nd = derived_neardomain(obj)
    return {
        "degree": obj.degree,
        "group_order": len(obj.group),
        "omega0": obj.omega0,
        "omega1": obj.omega1,
        "characteristic": characteristic(obj).value,
        "translations_subgroup": translations_form_subgroup(obj),
        "derived_nearfield": is_nearfield(nd),
    }


def cmd_check(args) -> int:
    report: dict = {"command": "check", "path": args.path}
    try:
        obj = _read(args.path)
        facts = _derived_facts(obj)
    except (ParseError, ResourceLimitExceeded, StructureError) as exc:
        report.update(valid=False, error_type=type(exc).__name__, error=str(exc))
        _print_report(report, args)
        return 1 if isinstance(exc, StructureError) else 2
    report["kind"] = kind_of(obj)
    report["valid"] = True
    report.update(facts)
    _print_report(report, args)
    return 0


def cmd_convert(args) -> int:
    obj = _read(args.path)
    kind = kind_of(obj)
    convert = _CONVERSIONS.get((kind, args.to))
    if convert is None:
        print(
            f"error: cannot convert {kind} to {args.to}; legal pairs: "
            + ", ".join(f"{a}->{b}" for a, b in _CONVERSIONS),
            file=sys.stderr,
        )
        return 2
    sys.stdout.write(emit_structure(convert(obj)))
    return 0


def cmd_roundtrip(args) -> int:
    obj = _read(args.path)
    kind = kind_of(obj)
    witnesses = {
        "loop": loop_roundtrip_witness,
        "ndom": neardomain_roundtrip_witness,
        "s2t": group_roundtrip_witness,
    }
    if kind not in witnesses:
        print("error: roundtrip applies to loop, ndom, and s2t files", file=sys.stderr)
        return 2
    witness = witnesses[kind](obj)
    report = {
        "command": "roundtrip",
        "path": args.path,
        "kind": kind,
        "roundtrip": "pass" if witness is None else "fail",
    }
    if witness is not None:
        report["witness"] = witness
    _print_report(report, args)
    return 0 if witness is None else 1


_HOM_ENUMERATORS = {
    "loop": enumerate_loop_morphisms,
    "rps": enumerate_rps_morphisms,
    "ndom": enumerate_nd_morphisms,
    "s2t": enumerate_s2t_morphisms,
}


def _hom_entry(m) -> dict:
    if isinstance(m, tuple):
        return {"map": list(m)}
    return {"phi": list(m.phi), "f": list(m.f)}


def cmd_homset(args) -> int:
    src = _read(args.path1)
    dst = _read(args.path2)
    kind_s, kind_d = kind_of(src), kind_of(dst)
    report: dict = {
        "command": "homset",
        "source": args.path1,
        "target": args.path2,
        "source_kind": kind_s,
        "target_kind": kind_d,
    }
    if kind_s == kind_d:
        homs = _HOM_ENUMERATORS[kind_s](src, dst)
        report["count"] = len(homs)
        report["homs"] = [_hom_entry(m) for m in homs]
        _print_report(report, args)
        return 0
    if (kind_s, kind_d) not in _CONVERSIONS:
        print(
            f"error: kind mismatch {kind_s} vs {kind_d}; pair files of one kind "
            "or of functor-related kinds (loop/rps, ndom/s2t)",
            file=sys.stderr,
        )
        return 2
    # Mixed functor-related pair: lift the algebraic side so both objects
    # live in the permutation category, then verify the induced bijection
    # onto the algebraic hom-set.
    if kind_s in ("loop", "ndom"):
        src = _CONVERSIONS[kind_s, kind_d](src)
        report["lifted"] = "source"
    else:
        dst = _CONVERSIONS[kind_d, kind_s](dst)
        report["lifted"] = "target"
    functor = rps_to_loop() if "loop" in (kind_s, kind_d) else s2t_to_ndom()
    homs, algebraic_homs, witness = check_full_faithful(functor, src, dst)
    report["count"] = len(homs)
    report["algebraic_count"] = len(algebraic_homs)
    report["bijection"] = witness is None
    if witness is not None:
        report["witness"] = witness
    report["homs"] = [_hom_entry(m) for m in homs]
    _print_report(report, args)
    return 0 if witness is None else 1


def cmd_zoo(args) -> int:
    if args.gf is not None and args.gf not in SUPPORTED_FIELD_ORDERS:
        print(
            f"error: --gf takes a supported prime power: {sorted(SUPPORTED_FIELD_ORDERS)}",
            file=sys.stderr,
        )
        return 2
    if args.enumerate_loops is not None and args.enumerate_loops < 1:
        print("error: --enumerate-loops takes a positive order", file=sys.stderr)
        return 2
    if args.enumerate_loops is not None:
        objects = [
            (f"loop{args.enumerate_loops}_{i}", loop)
            for i, loop in enumerate(enumerate_loops(args.enumerate_loops))
        ]
    elif args.gf is not None:
        objects = [(f"gf{args.gf}", galois_field(args.gf))]
    else:
        objects = [("dickson9", dickson_nearfield_9())]
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, obj in objects:
            target = out_dir / f"{name}.txt"
            target.write_text(emit_structure(obj))
            print(f"wrote: {target}")
        return 0
    chunks = [f"# {name}\n{emit_structure(obj)}" for name, obj in objects]
    sys.stdout.write("\n".join(chunks))
    return 0


def cmd_verify_all(args) -> int:
    verdicts = run_all()
    # elapsed_ms is dropped: reports must be byte-identical across runs.
    rows = [
        {"name": v.name, "passed": v.passed, "checked": v.checked, "witness": v.witness}
        for v in verdicts
    ]
    failed = sum(1 for v in verdicts if not v.passed)
    report = {
        "command": "verify-all",
        "checks": len(verdicts),
        "passed": len(verdicts) - failed,
        "failed": failed,
        "verdicts": rows,
    }
    _print_report(report, args)
    return 0 if failed == 0 else 1


# The command-line grammar, read by main for a well-formed line and turned
# into argparse's parser by build_parser for any other. Each option maps its
# spelling to the keywords build_parser passes to add_argument.
_COMMON = {
    "--json": {"action": "store_true", "help": "emit a JSON report"},
    "--no-timestamp": {"action": "store_true", "help": "omit the timestamp field"},
}

# command -> (handler, help, positionals, options, required one-of group)
_COMMANDS = {
    "check": (cmd_check, "validate a structure file", ("path",), {}, {}),
    "convert": (
        cmd_convert,
        "convert along a functor (loop/rps, ndom/s2t)",
        ("path",),
        {"--to": {"required": True, "choices": ("loop", "rps", "ndom", "s2t")}},
        {},
    ),
    "roundtrip": (cmd_roundtrip, "run the applicable round-trip check", ("path",), {}, {}),
    "homset": (cmd_homset, "enumerate the hom-set of a pair of files", ("path1", "path2"), {}, {}),
    "zoo": (
        cmd_zoo,
        "emit canonical structure files",
        (),
        {"--out": {"metavar": "DIR", "help": "write one file per object into DIR"}},
        {
            "--enumerate-loops": {"type": int, "metavar": "N"},
            "--gf": {"type": int, "metavar": "Q"},
            "--dickson9": {"action": "store_true"},
        },
    ),
    "verify-all": (cmd_verify_all, "run the full certification battery", (), {}, {}),
}


def _read_argv(argv: list[str]):
    """The namespace argparse gives a well-formed argv, read from the
    grammar; None for any other line.

    A line is read only when its first token names a command and each later
    token is an exact option spelling of that command, the value after a
    valued option (not starting with "-", and passing the option's int or
    choices test), or a positional not starting with "-", with exactly the
    command's positionals, every required option, and one option of the
    one-of group. Help, abbreviations, "--opt=value" and every malformed
    line are left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, names, options, one_of = _COMMANDS[argv[0]]
    spellings = {**_COMMON, **options, **one_of}
    values = {"subcommand": argv[0], "func": func}
    for flag, kw in spellings.items():
        values[flag[2:].replace("-", "_")] = False if kw.get("action") == "store_true" else None
    positionals, given = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        kw = spellings.get(token)
        if kw is None:
            return None
        given.add(token)
        dest = token[2:].replace("-", "_")
        if kw.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        values[dest] = value
    if len(positionals) != len(names):
        return None
    if any(kw.get("required") and flag not in given for flag, kw in options.items()):
        return None
    if one_of and len(given & one_of.keys()) != 1:
        return None
    values.update(zip(names, positionals))
    return SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser for the grammar: its help, usage errors and exit
    codes are the CLI's."""
    import argparse  # here: a well-formed command line never pays for it

    common = argparse.ArgumentParser(add_help=False)
    for flag, kw in _COMMON.items():
        common.add_argument(flag, **kw)
    parser = argparse.ArgumentParser(
        prog="algcat",
        description="Finite loops, regular permutation sets, neardomains, and "
        "sharply 2-transitive groups: validation, conversion, and certification.",
        epilog=f"A group whose composition table would exceed {TABLE_CAP} entries "
        "(listed, or closed from generators), a loop, rps or ndom file whose "
        f"order cubed exceeds {TABLE_CAP}, and a homset whose source order "
        f"squared times target order exceeds {TABLE_CAP}, are refused with exit "
        "code 2. Group closure is certified from a generating set, and no "
        "composition table is built: a row-major scan of the products names "
        "the first one missing from a set that is not closed.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, summary, names, options, one_of) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=summary)
        for dest in names:
            p.add_argument(dest)
        if one_of:
            group = p.add_mutually_exclusive_group(required=True)
            for flag, kw in one_of.items():
                group.add_argument(flag, **kw)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


# built on the first line the grammar does not read, and reused: parse_args
# keeps no state between calls
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        if _parser is None:
            _parser = build_parser()
        try:
            args = _parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, OSError, ResourceLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
