"""Known defects of the exact routes, each pinned as a strict xfail.

Every test here fails today and names the ROADMAP item that mends it; the
suite runs with ``xfail_strict``, so a fix turns its pin into a failure until
the marker is removed.  README's "Known defects" section lists these tests,
one entry each.  The references are exact: the jump level chain in
``fractions.Fraction`` at the exact value of the double rate.  Jump's
ones-count classes have distinct fitness values, so the elitist chain over
them only stays or moves up, and its expected times follow backwards from the
optimum with each leave mass summed from the moves up, not taken as
``1 - stay``.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from math import comb

import pytest

from flmlab.cli import main


def run(argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    return code, out.getvalue()


def pin(item: int, defect: str):
    """A strict xfail (``xfail_strict``) that only a failed assertion satisfies."""
    return pytest.mark.xfail(raises=AssertionError, reason=f"ROADMAP item {item}: {defect}")


def jump_expected_time(n: int, k: int, p: float) -> Fraction:
    """E[T] of the (1+1) EA on Jump_k from a uniform start, exactly."""
    p = Fraction(p)
    powers = [(p**e, (1 - p) ** (n - e)) for e in range(n + 1)]

    def fitness(i: int) -> int:
        return n + k if i == n else k + i if i <= n - k else n - i

    def move(i: int, j: int) -> Fraction:  # d down-flips and d + j - i up-flips
        total = Fraction(0)
        for d in range(max(0, i - j), min(i, n - j) + 1):
            flips = 2 * d + j - i
            total += comb(i, d) * comb(n - i, d + j - i) * powers[flips][0] * powers[flips][1]
        return total

    time = {n: Fraction(0)}
    for i in sorted(range(n), key=fitness, reverse=True):
        up = [(j, move(i, j)) for j in time]
        time[i] = (1 + sum(m * time[j] for j, m in up)) / sum(m for _, m in up)
    return sum(comb(n, i) * t for i, t in time.items()) / 2**n


@pin(4, "the level chain's leave mass 1 - diag loses digits at small rates")
def test_level_chain_jump_10_5_at_rate_one_in_a_thousand():
    code, out = run("oracle --benchmark jump --n 10 --k 5 --p 0.001")
    assert code == 0
    want = jump_expected_time(10, 5, 0.001)
    assert json.loads(out)["expected_T"] == pytest.approx(float(want), rel=1e-14, abs=0)


@pin(4, "a leave mass below 1e-16 rounds to 0, so the level reads absorbing")
def test_level_chain_jump_9_7_at_rate_one_in_a_thousand():
    code, out = run("oracle --benchmark jump --n 9 --k 7 --p 0.001")
    assert code == 0
    want = jump_expected_time(9, 7, 0.001)
    assert json.loads(out)["expected_T"] == pytest.approx(float(want), rel=1e-14, abs=0)


@pin(4, "visit probabilities above 1 from the 1 - diag leave mass")
def test_level_chain_jump_200_5_visit_probabilities_at_most_one():
    code, out = run("oracle --benchmark jump --n 200 --k 5")
    assert code == 0
    assert max(json.loads(out)["v"]) <= 1 + 1e-14


@pin(17, "the Cholesky of I - T_cc subtracts, losing digits in a class left rarely")
def test_full_state_jump_10_9_at_rate_one_in_a_thousand():
    code, out = run("oracle --full-state --benchmark jump --n 10 --k 9 --p 0.001")
    assert code == 0
    want = jump_expected_time(10, 9, 0.001)
    assert json.loads(out)["expected_T"] == pytest.approx(float(want), rel=1e-13, abs=0)


@pin(1, "the long k-path chain starts --init random at path position 0")
def test_compare_longpath_random_start_is_uniform():
    # one capped iteration per replicate: the exact value is computed before
    # any replicate, and the verdicts do not matter here
    _, out = run("compare --benchmark longpath --n 8 --k 4 --replicates 2 --max-iterations 1")
    code, uniform = run("oracle --full-state --benchmark longpath --n 8 --k 4")
    assert code == 0
    assert json.loads(out)["exact"] == pytest.approx(json.loads(uniform)["expected_T"], rel=1e-12, abs=0)


def test_exact_reference_matches_stated_values():
    # 50-digit level-chain values, rounded to doubles
    assert float(jump_expected_time(10, 5, 0.001)) == pytest.approx(1003049023047909.6, rel=1e-15)
    assert float(jump_expected_time(9, 7, 0.001)) == pytest.approx(9.9808271393990613e20, rel=1e-15)
    assert float(jump_expected_time(10, 9, 0.001)) == pytest.approx(9.9904284123834818e26, rel=1e-15)
