"""Smoke tests of the census scripts: they run, exit 0 and print the known
counts."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(out: str) -> list[list[int]]:
    """The count cells of a printed hom-set matrix, one list per row; object
    names contain no spaces."""
    return [[int(v) for v in line.split()[1:]] for line in out.splitlines()[2:]]


@pytest.mark.parametrize(
    "family, counts",
    [
        ("loops", [[1, 1, 1, 1, 1], [1, 2, 1, 4, 2], [1, 1, 3, 1, 1], [1, 4, 1, 16, 4], [1, 2, 1, 4, 4]]),
        ("neardomains", [[1, 0, 1], [0, 1, 0], [0, 0, 2]]),
        (
            "groups",
            [
                [1, 0, 1, 0, 1, 0],
                [0, 1, 0, 1, 0, 1],
                [0, 0, 2, 0, 2, 0],
                [0, 1, 0, 1, 0, 1],
                [0, 0, 2, 0, 2, 0],
                [0, 1, 0, 1, 0, 1],
            ],
        ),
    ],
)
def test_hom_census(capsys, family, counts):
    assert _load("hom_census").main(["--family", family, "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"hom-set counts, {family} ({len(counts)} objects)\n")
    assert _rows(out) == counts


def test_loop_census(capsys):
    assert _load("loop_census").main(["--max-order", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[:3] for line in lines] == [
        ["1", "1", "1"],
        ["2", "1", "1"],
        ["3", "1", "1"],
        ["4", "2", "2"],
    ]


@pytest.mark.parametrize("order", [0, 7])
def test_loop_census_rejects_order_out_of_range(capsys, order):
    with pytest.raises(SystemExit) as exit_info:
        _load("loop_census").main(["--max-order", str(order)])
    assert exit_info.value.code == 2
    assert "--max-order must be" in capsys.readouterr().err
