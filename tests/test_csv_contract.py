"""Every CSV the CLI writes is well-formed CSV whose float cells round-trip.

``serialize.emit_csv`` writes all five schemas.  Each table must parse with
``csv.reader`` into rows as wide as its header; every float cell must read
back through ``float()`` to the text it was written as, and every integer
cell likewise through ``int()``.
"""

from __future__ import annotations

import csv
import io

import pytest

from flmlab.cli import main

# header -> (integer columns, float columns); the other columns hold words
SCHEMAS = {
    ("replicate", "runtime", "hit_optimum"): (("replicate", "runtime"), ()),
    ("level", "visit_freq", "leave_rate", "mean_sojourn"): (("level",), ("visit_freq", "leave_rate", "mean_sojourn")),
    ("theorem", "kind", "value"): ((), ("value",)),
    ("level", "p", "v"): (("level",), ("p", "v")),
    ("quantity", "empirical", "theoretical", "verdict"): ((), ("empirical", "theoretical")),
}


def check_table(text: str) -> tuple[str, ...]:
    rows = list(csv.reader(io.StringIO(text)))
    header = tuple(rows[0])
    int_cols, float_cols = SCHEMAS[header]
    assert len(rows) > 1, header
    for row in rows[1:]:
        assert len(row) == len(header), row
        cells = dict(zip(header, row))
        if header == ("level", "p", "v") and cells["level"] == "expected_T":
            assert row is rows[-1] and cells["v"] == ""  # oracle's closing row: E[T] in the p column
            assert repr(float(cells["p"])) == cells["p"]
            continue
        for col in int_cols:
            assert str(int(cells[col])) == cells[col], (col, row)
        for col in float_cols:
            assert repr(float(cells[col])) == cells[col], (col, row)
        if "hit_optimum" in cells:
            assert cells["hit_optimum"] in ("true", "false")
        if "verdict" in cells:
            assert cells["verdict"] in ("PASS", "FAIL")
    return header


def run(capsys, argv: str) -> tuple[int, str]:
    code = main(argv.split())
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,header",
    [
        ("bounds --benchmark onemax --n 60", ("theorem", "kind", "value")),
        ("bounds --benchmark leadingones --n 30 --p 0.05", ("theorem", "kind", "value")),
        ("bounds --benchmark longpath --n 12 --k 3 --p 2/n", ("theorem", "kind", "value")),
        ("oracle --benchmark onemax --n 10 --p 2/n", ("level", "p", "v")),
        ("oracle --benchmark jump --n 10 --k 3 --init level:4", ("level", "p", "v")),
        ("oracle --benchmark onemax --n 8 --full-state --init level:2", ("level", "p", "v")),
        ("oracle --benchmark leadingones --n 6", ("level", "p", "v")),
        ("compare --benchmark onemax --n 10 --replicates 50 --seed 3", ("quantity", "empirical", "theoretical", "verdict")),
        ("compare --benchmark jump --n 6 --k 2 --replicates 50 --seed 2", ("quantity", "empirical", "theoretical", "verdict")),
    ],
)
def test_single_table_csv_outputs(capsys, argv, header):
    code, out = run(capsys, argv + " --format csv")
    assert code in (0, 3)
    assert check_table(out) == header


def test_simulate_csv_on_stdout_holds_two_tables(capsys):
    code, out = run(capsys, "simulate --benchmark jump --n 8 --k 2 --replicates 30 --seed 4 --format csv")
    assert code == 0
    replicates, levels = out.split("\n\n")
    assert check_table(replicates + "\n") == ("replicate", "runtime", "hit_optimum")
    assert check_table(levels) == ("level", "visit_freq", "leave_rate", "mean_sojourn")


def test_simulate_csv_files(tmp_path, capsys):
    out_file = tmp_path / "runs.csv"
    code, out = run(capsys, f"simulate --benchmark onemax --n 8 --replicates 30 --seed 5 --format csv --out {out_file}")
    assert code == 0 and out == ""
    assert check_table(out_file.read_text()) == ("replicate", "runtime", "hit_optimum")
    levels = (tmp_path / "runs.levels.csv").read_text()
    assert check_table(levels) == ("level", "visit_freq", "leave_rate", "mean_sojourn")
