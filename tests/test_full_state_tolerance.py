"""Full-state oracle values of the six golden CLI cases it serves.

The values were recorded with a dense solve of the whole 2^n-state chain
(hitting times, and one first-passage solve per level).  The full-state
oracle solves one fitness class at a time and sums the expected visits of
each state, so ``expected_T`` is pinned to within 1e-13 relative and each
visit probability to within 1e-12 relative; an exact zero stays an exact
zero.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from flmlab.cli import main

T_REL_TOL = 1e-13
V_REL_TOL = 1e-12

# (argv, expected_T, v)
RECORDED = [
    (
        'oracle --benchmark onemax --n 8 --full-state',
        34.18491689341367,
        [0.00390625, 0.03358697320251734, 0.1324836275333876, 0.3220683627240588, 0.5535769918790544, 0.7450570309967899, 0.8639312825315594, 0.9372694419057049, 1.0000000000000016],
    ),
    (
        'oracle --benchmark onemax --n 8 --full-state --init level:2 --format csv',
        38.61619550880098,
        [0.0, 0.0, 0.9999999999999999, 0.7081832982964746, 0.7824728214288919, 0.8321428295514699, 0.8837631180208895, 0.939305219210097, 1.0000000000000018],
    ),
    (
        'oracle --full-state --benchmark leadingones --n 6',
        29.789760000000005,
        [0.5, 0.4999999999999999, 0.5, 0.5000000000000001, 0.5000000000000001, 0.5, 1.0000000000000004],
    ),
    (
        'oracle --full-state --benchmark leadingones --n 6 --p 1/3 --init level:2 --format csv --out {out}',
        30.796875000000032,
        [0.0, 0.0, 1.0, 0.5000000000000002, 0.5000000000000003, 0.5000000000000001, 1.0000000000000007],
    ),
    (
        'oracle --benchmark jump --n 8 --k 3 --full-state',
        993.8092956059763,
        [0, 0.03125, 0.1281385711784386, 0.9916392695533748, 0.9999999999999828],
    ),
    (
        'oracle --benchmark longpath --n 6 --k 2 --full-state',
        57.42155726731162,
        [0.78125, 0.10556508796359997, 0.1347751967629578, 0.16560149227022758, 0.19340312360080616, 0.22576562025300953, 0.25867892262991843, 0.31175678252188094, 0.3562436675077683, 0.3939980606145619, 0.4278667233976802, 0.5046050995375236, 0.5815310261597536, 0.7278648139780532, 1.0000000000000013],
    ),
]


def oracle_output(argv: str, tmp_path) -> tuple[float, list[float]]:
    """expected_T and v of one ``oracle`` call, from its JSON or CSV output."""
    out = tmp_path / "result.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([arg.replace("{out}", str(out)) for arg in argv.split()]) == 0
    text = out.read_text(encoding="utf-8") if "{out}" in argv else stdout.getvalue()
    if "--format csv" not in argv:
        doc = json.loads(text)
        return doc["expected_T"], doc["v"]
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    return float(rows[-1][1]), [float(row[2]) for row in rows[:-1]]


@pytest.mark.parametrize("argv,expected_t,visits", RECORDED, ids=[case[0] for case in RECORDED])
def test_full_state_values_within_stated_tolerance(argv, expected_t, visits, tmp_path):
    got_t, got_v = oracle_output(argv, tmp_path)
    assert got_t == pytest.approx(expected_t, rel=T_REL_TOL, abs=0)
    assert len(got_v) == len(visits)
    for got, want in zip(got_v, visits):
        if want == 0:
            assert got == 0
        else:
            assert got == pytest.approx(want, rel=V_REL_TOL, abs=0)
