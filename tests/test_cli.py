import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from algcat import cli, perms
from algcat.cli import main
from algcat.fileio import emit_structure, parse_structure
from algcat.loops import check_loop
from algcat.neardomain import dickson_nearfield_9, galois_field
from algcat.perms import TABLE_CAP
from algcat.s2t import affine_group


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


def test_check_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, "check", "no-such-file.txt", "--no-timestamp")
    assert code == 2


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
    # the largest bundled group, the affine group of GF(16), keeps its table
    table = affine_group(galois_field(16)).group.composition_table()
    assert len(table) * len(table[0]) == 57_600 <= TABLE_CAP


@pytest.mark.parametrize("n", [7, 8, 9])
def test_symmetric_generators_refused_within_budget(tmp_path, capsys, n):
    # an n-cycle and a transposition generate S_n; the closure stops at the
    # first member past the budget, long before the n! members
    path = tmp_path / f"s{n}.txt"
    cycle = " ".join(map(str, [*range(1, n), 0]))
    swap = " ".join(map(str, [1, 0, *range(2, n)]))
    path.write_text(f"s2t {n} 0 1\ngenerators\n{cycle}\n{swap}\n")
    start = time.process_time()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "check", str(path), "--no-timestamp")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.process_time() - start
    assert code == 2
    assert "error_type: ResourceLimitExceeded" in out
    assert "closure reached 1001 members" in out
    assert peak < 5_000_000, peak
    assert elapsed < 1.0, elapsed


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

    def counted(functor):
        def hom(src, dst):
            calls.append(functor.name)
            return functor.source.hom(src, dst)

        return dataclasses.replace(functor, source=dataclasses.replace(functor.source, hom=hom))

    monkeypatch.setattr(cli, "S2T_TO_NDOM", counted(cli.S2T_TO_NDOM))
    monkeypatch.setattr(cli, "RPS_TO_LOOP_FAST", counted(cli.RPS_TO_LOOP_FAST))
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


def test_verify_all_report_matches_golden_file():
    """A cold `algcat verify-all --no-timestamp` prints the checked-in report
    byte for byte, per-family checked= counts included."""
    root = Path(__file__).resolve().parents[1]
    golden = (root / "perfbench" / "golden" / "verify-all.txt").read_bytes()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "algcat.cli", "verify-all", "--no-timestamp"],
        env=env, capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == golden


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
