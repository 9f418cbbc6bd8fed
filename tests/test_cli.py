import contextlib
import gc
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algcat import cli, perms, s2t
from algcat.catcheck import FunctorOps
from algcat.cli import main
from algcat.errors import ParseError, ResourceLimitExceeded
from algcat.fileio import emit_structure, parse_structure
from algcat.loops import Loop, check_loop, is_associative, table_homomorphisms
from algcat.neardomain import Neardomain, check_neardomain, dickson_nearfield_9, galois_field, is_nearfield
from algcat.perms import TABLE_CAP, check_group, forced_morphisms, perm_set
from algcat.rps import loop_to_rps
from algcat.s2t import affine_group, relabel


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in [
        ("gf2", galois_field(2)),
        ("gf3", galois_field(3)),
        ("gf9", galois_field(9)),
        ("dickson9", dickson_nearfield_9()),
        ("z2", check_loop(((0, 1), (1, 0)))),
    ]:
        p = tmp_path / f"{name}.txt"
        p.write_text(emit_structure(obj))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid(files, capsys):
    code, out, _ = run(capsys, "check", files["gf3"], "--no-timestamp")
    assert code == 0
    assert "kind: ndom" in out
    assert "nearfield: true" in out
    assert "char2: false" in out
    assert "timestamp" not in out


def test_check_timestamp_present(files, capsys):
    code, out, _ = run(capsys, "check", files["gf3"])
    assert code == 0
    assert "timestamp: " in out


def test_check_json(files, capsys):
    code, out, _ = run(capsys, "check", files["dickson9"], "--json", "--no-timestamp")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["nearfield"] is True
    assert data["order"] == 9


def test_check_invalid_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("loop 2\n0 0\n1 0\n")
    code, out, _ = run(capsys, "check", str(bad), "--no-timestamp")
    assert code == 1
    assert "valid: false" in out
    assert "LatinSquareViolation" in out


def test_check_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("loop 2\n0 x\n1 0\n")
    code, out, _ = run(capsys, "check", str(bad), "--no-timestamp")
    assert code == 2
    assert "ParseError" in out


def test_undecodable_file_exits_2_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"s2t 3 0 1\n\xff\xfe 1 2\n")
    code, out, _ = run(capsys, "check", str(bad), "--no-timestamp")
    assert code == 2
    assert "error_type: ParseError" in out
    assert "error: line 2: not valid UTF-8: byte 0xff" in out
    for argv in (["homset", str(bad), str(bad)], ["convert", str(bad), "--to", "ndom"], ["roundtrip", str(bad)]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error: line 2: not valid UTF-8: byte 0xff" in err, argv


def test_check_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, "check", "no-such-file.txt", "--no-timestamp")
    assert code == 2


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_check_names_a_path_it_cannot_read(tmp_path, capsys, target):
    # a missing path and a directory: exit 2, a ParseError at line 0 naming
    # the path and the operating system's reason
    path = tmp_path / "no-such-file.txt" if target == "missing" else tmp_path
    reason = "No such file or directory" if target == "missing" else "Is a directory"
    code, out, _ = run(capsys, "check", str(path), "--no-timestamp")
    assert code == 2
    assert out.splitlines() == [
        "command: check",
        f"path: {path}",
        "valid: false",
        "error_type: ParseError",
        f"error: line 0: cannot read {path}: {reason}",
    ]


def test_check_refuses_oversized_composition_table(tmp_path, capsys):
    # S7 listed member by member: 5040 members, so its 25.4M-entry
    # composition table must be refused before any row is built (building it
    # takes about 200 MB)
    path = tmp_path / "s7.txt"
    members = (" ".join(map(str, p)) for p in itertools.permutations(range(7)))
    path.write_text("s2t 7 0 1\n" + "\n".join(members) + "\n")
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "check", str(path), "--no-timestamp")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "error_type: ResourceLimitExceeded" in out
    assert "composition table of 5040 members" in out
    assert peak < 5_000_000, peak
    # the largest bundled group, the affine group of GF(16), is within the budget
    group = affine_group(galois_field(16)).group
    assert len(group) ** 2 == 57_600 <= TABLE_CAP
    check_group(group)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_symmetric_generators_refused_within_budget(tmp_path, capsys, reference_cpu, n):
    # an n-cycle and a transposition generate S_n; the closure stops at the
    # first member past the budget, long before the n! members
    path = tmp_path / f"s{n}.txt"
    cycle = " ".join(map(str, [*range(1, n), 0]))
    swap = " ".join(map(str, [1, 0, *range(2, n)]))
    path.write_text(f"s2t {n} 0 1\ngenerators\n{cycle}\n{swap}\n")
    (code, out, _), elapsed = reference_cpu(lambda: run(capsys, "check", str(path), "--no-timestamp"))
    assert code == 2
    assert "error_type: ResourceLimitExceeded" in out
    assert "closure reached 1001 members" in out
    assert elapsed < 1.0, elapsed
    tracemalloc.start()
    try:
        assert main(["check", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 5_000_000, peak


def test_cubic_checks_refused_within_budget(tmp_path, capsys, reference_cpu):
    # check runs cubic loops on loop, rps and ndom files (associativity, the
    # neardomain axioms); at order 101 the cube is over the budget, so each
    # valid file is refused before its first triple
    p = 101
    cyclic = check_loop(tuple(tuple((a + b) % p for b in range(p)) for a in range(p)))
    field = Neardomain(p, cyclic.table, tuple(tuple(a * b % p for b in range(p)) for a in range(p)), 0, 1)
    for name, obj in (("loop", cyclic), ("rps", loop_to_rps(cyclic)), ("ndom", field)):
        path = tmp_path / f"{name}{p}.txt"
        path.write_text(emit_structure(obj))
        (code, out, _), elapsed = reference_cpu(lambda: run(capsys, "check", str(path), "--no-timestamp"))
        assert code == 2, name
        assert "error_type: ResourceLimitExceeded" in out, name
        assert f"of order {p} needs {p**3}, over the cap of {TABLE_CAP} entries" in out, name
        assert elapsed < 0.1, (name, elapsed)
        tracemalloc.start()
        try:
            assert main(["check", str(path)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 5_000_000, (name, peak)


class _CountingRows:
    """n rows of an order-n table that count how often a row is read."""

    def __init__(self, n: int):
        self.n, self.reads = n, 0

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, a: int):
        self.reads += 1
        return range(self.n)


class _CountingMembers:
    """Stands in for n members on n points and counts how often the members
    are read."""

    def __init__(self, n: int):
        self.degree, self.reads = n, 0

    def __len__(self) -> int:
        return self.degree

    @property
    def members(self):
        self.reads += 1
        return ()


def test_homset_refused_within_budget(tmp_path, capsys, reference_cpu):
    # the hom search from order n into order m checks n * n * m products, the
    # search of the permutation categories n members at n points into m
    # points; two cyclic loops of order 101 (or their rps files, or one of
    # each) are over the budget, so homset refuses the pair before any search
    p = 101
    cyclic = check_loop(tuple(tuple((a + b) % p for b in range(p)) for a in range(p)))
    paths = {}
    for name, obj in (("loop", cyclic), ("rps", loop_to_rps(cyclic))):
        paths[name] = tmp_path / f"{name}{p}.txt"
        paths[name].write_text(emit_structure(obj))
    same = f"hom search of order {p} into order {p} needs {p**3}, over the cap of {TABLE_CAP} entries"
    mixed = f"morphism search of {p} members on {p} points into {p} points needs {p**3}, over the cap of {TABLE_CAP} entries"
    for pair, message in (
        (("loop", "loop"), same),
        (("rps", "rps"), same),
        (("loop", "rps"), mixed),
        (("rps", "loop"), mixed),
    ):
        argv = ["homset", str(paths[pair[0]]), str(paths[pair[1]])]
        (code, _, err), elapsed = reference_cpu(lambda: run(capsys, *argv))
        assert code == 2, pair
        assert message in err, (pair, err)
        assert elapsed < 0.1, (pair, elapsed)
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 5_000_000, (pair, peak)
    # both searches refuse before they read a row or a member
    rows = _CountingRows(p)
    with pytest.raises(ResourceLimitExceeded):
        table_homomorphisms([rows], [rows], {0: 0})
    assert rows.reads == 0
    members = _CountingMembers(p)
    with pytest.raises(ResourceLimitExceeded):
        forced_morphisms(members, members, (0,), (0,))
    assert members.reads == 0


def test_budget_refusals_read_no_member_or_row(monkeypatch):
    # check_group's product scan and the cubic checks refuse an over-budget
    # input before they read a member or a row; the set holds the identity
    # and every inverse, so check_group reaches its budget call
    listed = set()
    for p in itertools.takewhile(lambda p: len(listed) <= 1000, itertools.permutations(range(7))):
        listed |= {p, tuple(sorted(range(7), key=p.__getitem__))}
    members = perm_set(listed)
    rows = _CountingRows(len(members))
    object.__setattr__(members, "members", rows)
    with pytest.raises(ResourceLimitExceeded, match=f"composition table of {len(listed)} members"):
        check_group(members)
    assert rows.reads == 0
    p = 101
    rows = _CountingRows(p)
    for check in (
        lambda: is_associative(Loop(p, rows, 0)),
        lambda: check_neardomain(rows, rows, 0, 1),
        lambda: is_nearfield(Neardomain(p, rows, rows, 0, 1)),
    ):
        with pytest.raises(ResourceLimitExceeded, match=f"of order {p} needs {p**3}"):
            check()
    assert rows.reads == 0
    # the closure refuses at exactly the 1,001st member it reaches, and
    # calls the budget check only then
    works = []
    budget = perms.check_budget

    def recording(work, what):
        works.append(work)
        budget(work, what)

    monkeypatch.setattr(perms, "check_budget", recording)
    with pytest.raises(ResourceLimitExceeded, match="closure reached 1001 members"):
        perms.closure([(*range(1, 7), 0), (1, 0, *range(2, 7))])
    assert works == [1001 * 1001]


def test_parser_built_once_leaks_no_flag(files, capsys, monkeypatch):
    # main reads a well-formed line from the grammar and never builds
    # argparse's parser for it; each answer of a request sequence must equal
    # the answer through a freshly built parser
    requests = [
        ["check", files["dickson9"], "--json", "--no-timestamp"],
        ["check", files["dickson9"], "--no-timestamp"],
        ["homset", files["gf9"], files["gf9"], "--no-timestamp"],
        ["convert", files["z2"], "--to", "rps"],
        ["zoo", "--gf", "3"],
    ]
    monkeypatch.setattr(cli, "_parser", None)
    read = [run(capsys, *argv) for argv in requests]
    assert cli._parser is None
    for argv, answer in zip(requests, read):
        args = cli.build_parser().parse_args(argv)
        assert (args.func(args), *capsys.readouterr()) == answer, argv
    assert read[0][1].startswith("{") and not read[1][1].startswith("{")
    # a line the grammar leaves to argparse builds the parser on the first
    # such line and reuses it, leaking no flag from one line to the next
    declined = [
        ["check", files["dickson9"], "--js", "--no-timestamp"],
        ["check", files["dickson9"], "--no-time"],
        ["--help"],
    ]
    answers = [run(capsys, *argv) for argv in declined]
    parser = cli._parser
    assert parser is not None
    assert [run(capsys, *argv) for argv in declined] == answers and cli._parser is parser
    for argv, answer in zip(declined, answers):
        monkeypatch.setattr(cli, "_parser", None)
        assert run(capsys, *argv) == answer, argv
        assert cli._parser is not parser
    assert answers[0][1].startswith("{") and not answers[1][1].startswith("{")


def test_live_memory_stays_bounded_over_distinct_groups(tmp_path, capsys):
    # one process checking the 120 relabelings of one group: once the CLI's
    # input cache holds its 64 files, each request leaves nothing behind, so
    # live memory is read from request 70 on (a cache keyed on whole
    # structures grows by about 8 KiB per request here, 400 KB over the 50
    # requests read)
    g = affine_group(galois_field(5))
    paths = []
    for k, images in enumerate(itertools.permutations(range(5))):
        path = tmp_path / f"g{k}.txt"
        path.write_text(emit_structure(relabel(g, images)))
        paths.append(str(path))
    assert len(paths) == 120
    live = {}
    tracemalloc.start()
    try:
        for k, path in enumerate(paths, 1):
            assert main(["check", path, "--no-timestamp"]) == 0
            capsys.readouterr()
            if k in (70, 120):
                gc.collect()
                live[k] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live[120] - live[70] < 150_000, live


def test_same_bytes_read_again_give_the_validated_object(tmp_path, monkeypatch):
    # the CLI reads the file on every request and parses each distinct
    # content once: a second read returns the first object, certified once;
    # the same path rewritten with another relabeling is parsed again
    g = affine_group(galois_field(5))
    texts = [emit_structure(g), emit_structure(relabel(g, (1, 2, 3, 4, 0)))]
    runs = []
    monkeypatch.setattr(s2t, "check_group", lambda members: runs.append(members) or perms.check_group(members))
    path = tmp_path / "g.txt"
    path.write_text(texts[0])
    first = cli._read(str(path))
    assert first == g and cli._read(str(path)) is first and len(runs) == 1
    path.write_text(texts[1])
    other = cli._read(str(path))
    assert other != first and len(runs) == 2
    path.write_text(texts[0])
    assert cli._read(str(path)) is first and len(runs) == 2


def test_a_bad_file_fails_on_every_read(tmp_path, capsys):
    # an error is not kept: the same malformed bytes raise the same
    # ParseError, and exit 2, on every read
    bad = tmp_path / "bad.txt"
    bad.write_text("loop 2\n0 x\n1 0\n")
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            cli._read(str(bad))
        errors.append((info.value.line, str(info.value)))
    assert errors[0] == errors[1] and errors[0][0] == 2
    assert cli._parse.cache_info().currsize == 0
    answers = [run(capsys, "check", str(bad), "--no-timestamp") for _ in range(2)]
    assert answers[0] == answers[1] and answers[0][0] == 2


def test_convert_loop_rps_roundtrip(files, capsys, tmp_path):
    code, out, _ = run(capsys, "convert", files["z2"], "--to", "rps")
    assert code == 0
    assert out.splitlines()[0] == "rps 2 0"
    rps_path = tmp_path / "z2rps.txt"
    rps_path.write_text(out)
    code, out2, _ = run(capsys, "convert", str(rps_path), "--to", "loop")
    assert code == 0
    with open(files["z2"]) as fh:
        assert parse_structure(out2) == parse_structure(fh.read())


def test_convert_ndom_s2t(files, capsys):
    code, out, _ = run(capsys, "convert", files["gf3"], "--to", "s2t")
    assert code == 0
    g = parse_structure(out)
    assert len(g.group) == 6
    assert emit_structure(g) == out


def test_convert_illegal_pair(files, capsys):
    code, _, err = run(capsys, "convert", files["gf3"], "--to", "loop")
    assert code == 2
    assert "cannot convert" in err
    code, _, err = run(capsys, "convert", files["z2"], "--to", "loop")
    assert code == 2


def test_roundtrip_commands(files, capsys):
    for name in ("z2", "gf3", "gf9", "dickson9"):
        code, out, _ = run(capsys, "roundtrip", files[name], "--no-timestamp")
        assert code == 0
        assert "roundtrip: pass" in out


def test_roundtrip_rejects_rps(files, capsys, tmp_path):
    _, out, _ = run(capsys, "convert", files["z2"], "--to", "rps")
    p = tmp_path / "r.txt"
    p.write_text(out)
    code, _, err = run(capsys, "roundtrip", str(p))
    assert code == 2
    assert "roundtrip applies" in err


def test_homset_counts(files, capsys):
    code, out, _ = run(capsys, "homset", files["gf2"], files["gf3"], "--no-timestamp")
    assert code == 0
    assert "count: 0" in out
    code, out, _ = run(capsys, "homset", files["gf9"], files["gf9"], "--no-timestamp")
    assert code == 0
    assert "count: 2" in out
    assert "hom: map=0,1,2,3,4,5,6,7,8" in out
    code, out, _ = run(capsys, "homset", files["z2"], files["z2"], "--no-timestamp")
    assert code == 0
    assert "count: 2" in out


def test_homset_mixed_pair(files, capsys, tmp_path):
    _, text, _ = run(capsys, "convert", files["gf3"], "--to", "s2t")
    p = tmp_path / "t2gf3.txt"
    p.write_text(text)
    code, out, _ = run(capsys, "homset", files["gf3"], str(p), "--no-timestamp")
    assert code == 0
    assert "lifted: source" in out
    assert "bijection: true" in out
    code, out, _ = run(capsys, "homset", str(p), files["gf3"], "--no-timestamp")
    assert code == 0
    assert "lifted: target" in out


def test_homset_mixed_pair_enumerates_source_homs_once(files, capsys, tmp_path, monkeypatch):
    calls = []

    def counted(build):
        # the functor build makes, its source hom-sets listed by the default
        # enumerator and counted
        functor = build()

        def hom(src, dst):
            calls.append(functor.name)
            return functor.source.hom(src, dst)

        return lambda: build(hom)

    monkeypatch.setattr(cli, "s2t_to_ndom", counted(cli.s2t_to_ndom))
    monkeypatch.setattr(cli, "rps_to_loop", counted(cli.rps_to_loop))
    for name, kind, count in (("gf9", "s2t", 2), ("z2", "rps", 2)):
        _, text, _ = run(capsys, "convert", files[name], "--to", kind)
        p = tmp_path / f"{kind}-{name}.txt"
        p.write_text(text)
        for pair in ((files[name], str(p)), (str(p), files[name])):
            calls.clear()
            code, out, _ = run(capsys, "homset", *pair, "--no-timestamp")
            assert code == 0
            assert f"count: {count}\n" in out and "bijection: true" in out
            assert len(calls) == 1, (name, pair, calls)


def test_homset_mixed_pair_names_a_map_that_is_not_injective(files, capsys, tmp_path, monkeypatch):
    # a morphism map sending every morphism to the identity folds the two
    # automorphisms of aff(gf9) onto one, in both directions
    build = cli.s2t_to_ndom

    def collapsed():
        functor = build()
        identity = lambda m, src, dst: tuple(range(dst.degree))
        return FunctorOps(functor.name, functor.source, functor.target, functor.obj, identity)

    monkeypatch.setattr(cli, "s2t_to_ndom", collapsed)
    _, text, _ = run(capsys, "convert", files["gf9"], "--to", "s2t")
    p = tmp_path / "s2t-gf9.txt"
    p.write_text(text)
    cases = ((files["gf9"], p, "ndom", "s2t", "source"), (p, files["gf9"], "s2t", "ndom", "target"))
    for src, dst, kind_s, kind_d, lifted in cases:
        code, out, _ = run(capsys, "homset", str(src), str(dst), "--no-timestamp")
        assert code == 1
        assert out.startswith(
            f"command: homset\nsource: {src}\ntarget: {dst}\nsource_kind: {kind_s}\ntarget_kind: {kind_d}\n"
            f"lifted: {lifted}\ncount: 2\nalgebraic_count: 2\n"
            "bijection: false\nwitness: induced map is not injective (faithfulness fails)\nhom: "
        )
        assert out.count("\nhom: ") == 2


def test_homset_kind_mismatch(files, capsys):
    code, _, err = run(capsys, "homset", files["z2"], files["gf3"])
    assert code == 2
    assert "kind mismatch" in err


def test_zoo_emission(capsys, tmp_path):
    code, out, _ = run(capsys, "zoo", "--gf", "3")
    assert code == 0
    assert out.startswith("# gf3\nndom 3 0 1\n")
    code, out, _ = run(capsys, "zoo", "--enumerate-loops", "4", "--out", str(tmp_path / "loops"))
    assert code == 0
    assert (tmp_path / "loops" / "loop4_0.txt").exists()
    assert (tmp_path / "loops" / "loop4_1.txt").exists()
    code, out, _ = run(capsys, "zoo", "--dickson9")
    assert code == 0
    assert parse_structure(out.replace("# dickson9\n", "")) == dickson_nearfield_9()


def test_zoo_bounds(capsys):
    code, _, err = run(capsys, "zoo", "--gf", "6")
    assert code == 2
    code, _, err = run(capsys, "zoo", "--enumerate-loops", "7")
    assert code == 2
    code, _, err = run(capsys, "zoo", "--enumerate-loops", "0")
    assert code == 2


def test_over_budget_generators_exit_2(tmp_path, capsys, monkeypatch):
    p = tmp_path / "gen.txt"
    p.write_text("s2t 3 0 1\ngenerators\n1 2 0\n1 0 2\n")
    code, _, _ = run(capsys, "check", str(p), "--no-timestamp")
    assert code == 0
    monkeypatch.setattr(perms, "TABLE_CAP", 35)  # S3 needs 36 entries
    # the budget is a process constant: the S3 read under the old one is kept
    cli._parse.cache_clear()
    code, out, _ = run(capsys, "check", str(p), "--no-timestamp")
    assert code == 2  # over budget: a resource refusal, not invalidity
    assert "error_type: ResourceLimitExceeded" in out
    code, _, err = run(capsys, "roundtrip", str(p))
    assert code == 2
    assert "over the cap of 35 entries" in err
    # the budget has no flag
    assert main(["check", str(p), "--max-closure", "3"]) == 2
    assert "unrecognized arguments: --max-closure" in capsys.readouterr().err


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify-all", "--json", "--no-timestamp")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert data["passed"] == data["checks"] == len(data["verdicts"])
    assert all("elapsed_ms" not in v for v in data["verdicts"])


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_verify_all_report_matches_golden_file(flags):
    """A cold `algcat verify-all --no-timestamp` prints the checked-in report
    byte for byte, per-family checked= counts included; also under python
    -O, which strips every assert, so no certificate rests on one."""
    root = Path(__file__).resolve().parents[1]
    golden = (root / "perfbench" / "golden" / "verify-all.txt").read_bytes()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, *flags, "-m", "algcat.cli", "verify-all", "--no-timestamp"],
        env=env, capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == golden


def test_cold_process_imports_no_dataclasses_inspect_or_datetime(tmp_path):
    """The value types generate no code, so a fresh process that imports the
    CLI and runs the whole battery never loads dataclasses, nor inspect,
    which dataclasses pulls in; nor datetime, which only a timestamped
    report reads; nor json, which only a --json report reads; nor argparse,
    gettext and locale, which only help and usage errors read. Neither does
    a fresh process checking a zoo file. Each costs every process its
    import time."""
    root = Path(__file__).resolve().parents[1]
    code = """
import sys
import algcat.cli as cli
rc = cli.main(sys.argv[1:])
late = ("argparse", "dataclasses", "datetime", "gettext", "inspect", "json", "locale")
print(rc, sorted(m for m in late if m in sys.modules), file=sys.stderr)
"""
    gf9 = tmp_path / "gf9.txt"
    gf9.write_text(emit_structure(galois_field(9)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    for argv in (["verify-all", "--no-timestamp"], ["check", str(gf9), "--no-timestamp"]):
        done = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines()[-1] == "0 []", argv


def test_json_reports_are_deterministic(files, capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "check", files["gf9"], "--json", "--no-timestamp")
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "homset", files["gf9"], files["gf9"], "--json", "--no-timestamp")
        outs.add(out)
    assert len(outs) == 1


def test_usage_errors_exit_2(capsys):
    assert main(["nope"]) == 2
    assert main([]) == 2
    assert main(["convert", "x.txt"]) == 2  # --to required
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "verify-all" in out


# what the CLI prints for lines the grammar leaves to argparse, byte for byte
# (Python 3.11's argparse at 80 columns); F is a GF(3) ndom file
_USAGE = "usage: algcat [-h] {check,convert,roundtrip,homset,zoo,verify-all} ...\n"
_ZOO_USAGE = (
    "usage: algcat zoo [-h] [--json] [--no-timestamp]\n"
    "                  (--enumerate-loops N | --gf Q | --dickson9) [--out DIR]\n"
)
FALLBACK = [
    (["--help"], 0, (
        _USAGE
        + "\n"
        "Finite loops, regular permutation sets, neardomains, and sharply 2-transitive\n"
        "groups: validation, conversion, and certification.\n"
        "\n"
        "positional arguments:\n"
        "  {check,convert,roundtrip,homset,zoo,verify-all}\n"
        "    check               validate a structure file\n"
        "    convert             convert along a functor (loop/rps, ndom/s2t)\n"
        "    roundtrip           run the applicable round-trip check\n"
        "    homset              enumerate the hom-set of a pair of files\n"
        "    zoo                 emit canonical structure files\n"
        "    verify-all          run the full certification battery\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "\n"
        "A group whose composition table would exceed 1000000 entries (listed, or\n"
        "closed from generators), a loop, rps or ndom file whose order cubed exceeds\n"
        "1000000, and a homset whose source order squared times target order exceeds\n"
        "1000000, are refused with exit code 2. Group closure is certified from a\n"
        "generating set, and no composition table is built: a row-major scan of the\n"
        "products names the first one missing from a set that is not closed.\n"
    ), ""),
    (["check", "--help"], 0, (
        "usage: algcat check [-h] [--json] [--no-timestamp] path\n"
        "\n"
        "positional arguments:\n"
        "  path\n"
        "\n"
        "options:\n"
        "  -h, --help      show this help message and exit\n"
        "  --json          emit a JSON report\n"
        "  --no-timestamp  omit the timestamp field\n"
    ), ""),
    (["zoo", "--help"], 0, (
        _ZOO_USAGE
        + "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --json               emit a JSON report\n"
        "  --no-timestamp       omit the timestamp field\n"
        "  --enumerate-loops N\n"
        "  --gf Q\n"
        "  --dickson9\n"
        "  --out DIR            write one file per object into DIR\n"
    ), ""),
    (["nope"], 2, "", (
        _USAGE
        + "algcat: error: argument subcommand: invalid choice: 'nope' (choose from "
        "'check', 'convert', 'roundtrip', 'homset', 'zoo', 'verify-all')\n"
    )),
    ([], 2, "", _USAGE + "algcat: error: the following arguments are required: subcommand\n"),
    (["convert", "x.txt"], 2, "", (
        "usage: algcat convert [-h] [--json] [--no-timestamp] --to {loop,rps,ndom,s2t}\n"
        "                      path\n"
        "algcat convert: error: the following arguments are required: --to\n"
    )),
    (["check", "x", "--max-closure", "3"], 2, "", _USAGE + "algcat: error: unrecognized arguments: --max-closure 3\n"),
    (["zoo", "--gf", "4", "--dickson9"], 2, "", (
        _ZOO_USAGE + "algcat zoo: error: argument --dickson9: not allowed with argument --gf\n"
    )),
    (["convert", "F", "--to=ndom"], 2, "", (
        "error: cannot convert ndom to ndom; legal pairs: loop->rps, rps->loop, ndom->s2t, s2t->ndom\n"
    )),
    (["check", "F", "--no-time"], 0, (
        "command: check\npath: F\nkind: ndom\nvalid: true\norder: 3\nzero: 0\none: 1\n"
        "nearfield: true\nchar2: false\n"
    ), ""),
]


@pytest.mark.parametrize("argv, code, out, err", FALLBACK, ids=[" ".join(c[0]) or "(none)" for c in FALLBACK])
def test_lines_left_to_argparse_print_its_text(tmp_path, capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    path = tmp_path / "gf3.txt"
    path.write_text(emit_structure(galois_field(3)))
    argv = [str(path) if a == "F" else a for a in argv]
    assert cli._read_argv(argv) is None
    assert run(capsys, *argv) == (code, out.replace("path: F", f"path: {path}"), err)


# the CLI's vocabulary: command names, every spelling of every option, its
# abbreviations and --opt=value forms, help, values that pass and fail each
# option's test, tokens starting with "-" and "--", and the empty string
_SPELLINGS = [
    "--json", "--no-timestamp", "--to", "--out", "--enumerate-loops", "--gf", "--dickson9",
    "--js", "--no", "--no-time", "--t", "--o", "--enumerate", "--e", "--g", "--d", "--dick",
    "--to=ndom", "--to=x", "--gf=5", "--out=d", "--json=1", "--dickson9=", "-h", "--help", "--h",
    "-j", "-", "--", "---json", "-5", "-x y", "--JSON",
]
_VALUES = [
    "loop", "rps", "ndom", "s2t", "LOOP", "rps ", "0", "1", "5", "16", "-3", "+7", " 9 ", "5_0", "1.5",
    "0x5", "٣", "x", "a.txt", "a=b", "", "check", "zoo", "nope", " -x",
]
_TOKENS = st.sampled_from([*cli._COMMANDS, *_SPELLINGS, *_VALUES])
_PARSER = cli.build_parser()


def _argparse_namespace(argv):
    """argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _PARSER.parse_args(argv)
        except SystemExit:
            return None


@st.composite
def _well_formed(draw):
    """A line of one command: its positionals, its required options, one of
    its one-of group, any others, each option with a value that passes,
    store-true flags once or twice, in any order."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, names, options, one_of = cli._COMMANDS[command]
    groups = [[draw(st.sampled_from(["a", "b.txt", "", "check", "a=b", " -x"]))] for _ in names]
    chosen = {**cli._COMMON, **options}
    if one_of:
        flag = draw(st.sampled_from(list(one_of)))
        chosen[flag] = one_of[flag]
    for flag, kw in chosen.items():
        if not (kw.get("required") or flag in one_of or draw(st.booleans())):
            continue
        if kw.get("action") == "store_true":
            groups.append([flag] * draw(st.integers(1, 2)))
        elif "choices" in kw:
            groups.append([flag, draw(st.sampled_from(kw["choices"]))])
        elif kw.get("type") is int:
            groups.append([flag, str(draw(st.integers(0, 20)))])
        else:
            groups.append([flag, draw(st.sampled_from(["d", "out dir", ""]))])
    return [command, *itertools.chain.from_iterable(draw(st.permutations(groups)))]


@st.composite
def _edited(draw):
    """A well-formed line with up to three tokens inserted, deleted or
    replaced from the vocabulary."""
    argv = draw(_well_formed())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            argv.insert(i, draw(_TOKENS))
        elif i < len(argv) and edit == "delete":
            del argv[i]
        elif i < len(argv):
            argv[i] = draw(_TOKENS)
    return argv


@settings(max_examples=600)
@given(st.one_of(st.lists(_TOKENS, max_size=7), _edited()))
# a token starting with "-" where a positional goes: argparse reads "-",
# "-5" and "-x y" as positionals, and "-h" and "-j" as options
@example(["check", "-h"])
@example(["homset", "-j", "a"])
@example(["roundtrip", "-"])
# a value that fails its option's test, and an option where a value goes
@example(["convert", "a", "--to", "LOOP"])
@example(["zoo", "--gf", "1.5"])
@example(["zoo", "--out", "--json", "--dickson9"])
def test_grammar_reader_declines_or_agrees_with_argparse(argv):
    # the reader never reads a line argparse rejects, and a line it reads
    # gets argparse's fields, values and handler
    mine = cli._read_argv(argv)
    if mine is not None:
        theirs = _argparse_namespace(argv)
        assert theirs is not None, argv
        assert vars(mine) == vars(theirs), argv


@settings(max_examples=200)
@given(_well_formed())
def test_grammar_reader_reads_well_formed_lines_as_argparse_does(argv):
    mine = cli._read_argv(argv)
    assert mine is not None, argv
    assert vars(mine) == vars(_argparse_namespace(argv)), argv


def test_grammar_reader_rests_on_no_assert():
    # python -O strips asserts: every test the reader makes is an if
    assert "assert" not in inspect.getsource(cli._read_argv)
