"""Cross-route agreement: the exact answers of the CLI's routes coincide.

For every family, ``--init random`` and every ``level:<L>`` (one past the top
level included), and the rates 1/n and 2/n:

- ``oracle`` (the level chain; LeadingOnes' level process in closed form)
  and ``oracle --full-state`` give the same ``expected_T``;
- ``compare``'s ``exact`` value is ``oracle``'s ``expected_T``;
- an input one route rejects with exit 1, every route rejects with exit 1;
- ``compare``'s bounds are the ones ``bounds`` prints for the same flags, or
  none where ``bounds`` exits 1 (except OneMax, whose ``compare`` rows come
  from its exact chain).

``level:<L>`` is the benchmark level of ``Benchmark.level`` in every route, so
these equalities hold to rounding (1e-12 relative).  Long k-path ``level:<L>``
is the path point ``sample_level(L)`` returns in every route, so ``level:0``
is the path start although benchmark level 0 also holds every off-path string.
Long k-path ``random`` is left out: the long k-path chain starts at path
position 0, while a uniform start lies mostly off the path, so the two routes
answer different questions there (ROADMAP item 1, the ``LONGPATH_INIT``
benchmark probe).
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest

import flmlab.cli as cli
from flmlab.benchmarks import long_k_path_length

REL = 1e-12

# (family flags, the levels tried, whether "random" is tried); the last level
# tried lies one past the top level, so every route must reject it
FAMILIES = [
    ("onemax --n 6", range(0, 8), True),
    ("leadingones --n 6", range(0, 8), True),
    ("leadingones --n 10", range(0, 12), True),
    ("jump --n 6 --k 1", range(0, 4), True),
    ("jump --n 6 --k 2", range(0, 5), True),
    ("jump --n 7 --k 3", range(0, 6), True),
    ("longpath --n 6 --k 2", range(0, long_k_path_length(6, 2) + 1), False),
    ("longpath --n 8 --k 4", range(0, long_k_path_length(8, 4) + 1), False),
]

CASES = [
    (f"--benchmark {family} --p {rate} --init {init}")
    for family, levels, with_random in FAMILIES
    for rate in ("1/n", "2/n")
    for init in (["random"] if with_random else []) + [f"level:{level}" for level in levels]
]


def run(argv: str) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv.split())
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_oracle_full_state_and_compare_agree(case):
    chain_code, chain_out, _ = run(f"oracle {case}")
    full_code, full_out, _ = run(f"oracle --full-state {case}")
    cmp_code, cmp_out, _ = run(f"compare {case} --replicates 2 --seed 1")
    if chain_code == 1:
        assert (full_code, cmp_code) == (1, 1)
        return
    assert chain_code == full_code == 0
    assert cmp_code in (0, 3)  # two replicates may FAIL a row; the exact value is what counts
    expected = json.loads(chain_out)["expected_T"]
    assert math.isclose(json.loads(full_out)["expected_T"], expected, rel_tol=REL)
    assert math.isclose(json.loads(cmp_out)["exact"], expected, rel_tol=REL)


@pytest.mark.parametrize("case", CASES)
def test_bounds_reject_every_level_the_oracle_rejects(case):
    if run(f"oracle {case}")[0] == 1:
        assert run(f"bounds {case}")[0] == 1


BOUND_CASES = [
    (f"--benchmark {family} --p {rate} --init {init}")
    for family, levels, with_random in FAMILIES
    if not family.startswith("onemax")
    for rate in ("1/n", "2/n", "0.5", "0.6")
    for init in (["random"] if with_random else []) + [f"level:{level}" for level in levels]
]


@pytest.mark.parametrize("case", BOUND_CASES)
def test_compare_reports_the_bounds_that_bounds_prints(case):
    cmp_code, cmp_out, _ = run(f"compare {case} --replicates 2 --seed 1")
    if cmp_code == 1:
        return
    assert cmp_code in (0, 3)
    bounds_code, bounds_out, _ = run(f"bounds {case}")
    assert bounds_code in (0, 1)
    printed = json.loads(bounds_out)["bounds"] if bounds_code == 0 else []
    assert json.loads(cmp_out)["bounds"] == printed


@pytest.mark.parametrize(
    "argv",
    [
        "compare --benchmark onemax --n 8 --init point:00000000",
        "compare --benchmark jump --n 6 --k 2 --init level:0",
        "compare --benchmark leadingones --n 6 --init level:7",
        "compare --benchmark longpath --n 6 --k 2 --init level:15",
    ],
)
def test_compare_rejects_before_simulating(monkeypatch, argv):
    def fail(config):
        raise AssertionError("compare simulated an input the exact route rejects")

    monkeypatch.setattr(cli, "run_experiment", fail)
    code, out, err = run(argv)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("level", [1, 3])
def test_jump_level_start_survives_underflowing_binomial_weights(level):
    # at n = 1100, C(n, n - 1) 2^-n underflows to 0.0: the start law of a
    # level must not be built from those absolute weights
    code, out, _ = run(f"oracle --benchmark jump --n 1100 --k 3 --init level:{level}")
    assert code == 0
    doc = json.loads(out)
    assert math.isfinite(doc["expected_T"]) and doc["expected_T"] > 0
    assert all(math.isfinite(v) for v in doc["v"])


def test_compare_jump_without_stated_bounds_has_only_the_exact_row():
    # the skip bounds need n >= 4 (formulas.jump_bounds_stated), so n = 3 has none
    code, out, _ = run("compare --benchmark jump --n 3 --k 2 --replicates 20 --seed 1")
    assert code in (0, 3)
    doc = json.loads(out)
    assert doc["bounds"] == []
    assert [row["quantity"] for row in doc["report"]["rows"]] == ["mean_runtime_vs_exact"]
