"""Command-line entry point: structure file checking, functor conversions,
round trips, hom-set queries, zoo emission, and the full verification battery.

Exit codes: 0 pass/valid, 1 semantic failure, 2 usage, parse, or IO error,
or an input over the size budget (perms.TABLE_CAP).
Reports are line-oriented ``key: value`` text, or JSON with --json; identical
inputs produce byte-identical output apart from the timestamp field, which
--no-timestamp removes.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .catcheck import (
    RPS_TO_LOOP_FAST,
    S2T_TO_NDOM,
    check_full_faithful,
    group_roundtrip_witness,
    loop_roundtrip_witness,
    neardomain_roundtrip_witness,
    run_all,
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
_FUNCTOR_PAIRS = {
    frozenset(("loop", "rps")),
    frozenset(("ndom", "s2t")),
}


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _print_report(report: dict, args) -> None:
    if not args.no_timestamp:
        report["timestamp"] = _timestamp()
    if args.json:
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
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror or exc}") from None
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
    except (ParseError, ResourceLimitExceeded) as exc:
        report.update(valid=False, error_type=type(exc).__name__, error=str(exc))
        _print_report(report, args)
        return 2
    except StructureError as exc:
        report.update(valid=False, error_type=type(exc).__name__, error=str(exc))
        _print_report(report, args)
        return 1
    report["kind"] = kind_of(obj)
    report["valid"] = True
    report.update(_derived_facts(obj))
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
    if frozenset((kind_s, kind_d)) not in _FUNCTOR_PAIRS:
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
        src = loop_to_rps(src) if kind_s == "loop" else affine_group(src)
        report["lifted"] = "source"
    else:
        dst = loop_to_rps(dst) if kind_d == "loop" else affine_group(dst)
        report["lifted"] = "target"
    functor = RPS_TO_LOOP_FAST if "loop" in (kind_s, kind_d) else S2T_TO_NDOM
    ff = check_full_faithful(functor, args.path1, src, args.path2, dst)
    homs = ff.source_homs
    report["count"] = len(homs)
    report["algebraic_count"] = ff.target_count
    report["bijection"] = ff.bijection
    if ff.witness:
        report["witness"] = ff.witness
    report["homs"] = [_hom_entry(m) for m in homs]
    _print_report(report, args)
    return 0 if ff.bijection else 1


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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp field"
    )
    parser = argparse.ArgumentParser(
        prog="algcat",
        description="Finite loops, regular permutation sets, neardomains, and "
        "sharply 2-transitive groups: validation, conversion, and certification.",
        epilog=f"A group whose composition table would exceed {TABLE_CAP} entries "
        "(listed, or closed from generators) is refused with exit code 2.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", parents=[common], help="validate a structure file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "convert", parents=[common], help="convert along a functor (loop/rps, ndom/s2t)"
    )
    p.add_argument("path")
    p.add_argument("--to", required=True, choices=("loop", "rps", "ndom", "s2t"))
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser(
        "roundtrip", parents=[common], help="run the applicable round-trip check"
    )
    p.add_argument("path")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser(
        "homset", parents=[common], help="enumerate the hom-set of a pair of files"
    )
    p.add_argument("path1")
    p.add_argument("path2")
    p.set_defaults(func=cmd_homset)

    p = sub.add_parser("zoo", parents=[common], help="emit canonical structure files")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--enumerate-loops", type=int, metavar="N")
    group.add_argument("--gf", type=int, metavar="Q")
    group.add_argument("--dickson9", action="store_true")
    p.add_argument("--out", metavar="DIR", help="write one file per object into DIR")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser(
        "verify-all", parents=[common], help="run the full certification battery"
    )
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ResourceLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
