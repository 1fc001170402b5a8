"""Start-law agreement: the engine, the level chain and the full-state oracle
read a parsed ``--init`` as one law.

Cases: OneMax and LeadingOnes at n = 6, Jump (6, 2) and (7, 3) and the long
k-paths (6, 2) and (8, 4), each from ``random`` and from every level that
holds a state (55 cases).  The reference is the start law enumerated over all
2^n strings, grouped by fitness value, which refines the level partition (a
jump level k start must also spread over its ones-counts as a uniform string
of the level does): uniform over all strings for ``random``, uniform over the
strings of level L for ``level:<L>``, and the path point L for a long k-path
``level:<L>`` (the one documented exception).  Against it:

- the engine's start strings (``experiments._block_starts``), 4 blocks of
  1024 lanes from a fixed seed, lie within a Dvoretzky-Kiefer-Wolfowitz band
  of the reference CDF: alpha = 1e-3 split by Bonferroni over the cases, so
  epsilon = sqrt(ln(2 * 55 / 1e-3) / (2 * 4096)) ~ 0.038;
- the level chain's start law (the chain the family's ``exact`` entry of the
  CLI builds; LeadingOnes' is a closed form, with no chain), pushed through
  the chain's labels to fitness values, matches it within 1e-12;
- the full-state oracle's start law (``cli._full_state_start``, read as
  ``chains.full_state_expected_time`` documents its ``start``), summed by
  fitness value, matches it within 1e-12.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

import flmlab.cli as cli
from flmlab.benchmarks import long_k_path_length, make_benchmark, pack_words
from flmlab.experiments import _block_starts, parse_start, replicate_rng

SEED = 1
BLOCKS, LANES = 4, 1024
ALPHA = 1e-3
EXACT = 1e-12

# (family, n, k, the levels that hold a state)
FAMILIES = [
    ("onemax", 6, None, range(0, 7)),
    ("leadingones", 6, None, range(0, 7)),
    ("jump", 6, 2, range(1, 4)),  # jump level 0 is unused
    ("jump", 7, 3, range(1, 5)),
    ("longpath", 6, 2, range(0, long_k_path_length(6, 2))),
    ("longpath", 8, 4, range(0, long_k_path_length(8, 4))),
]

CASES = [
    (family, n, k, init)
    for family, n, k, levels in FAMILIES
    for init in ["random"] + [f"level:{level}" for level in levels]
]
# the Dvoretzky-Kiefer-Wolfowitz half-width, alpha split over the cases
EPSILON = math.sqrt(math.log(2 * len(CASES) / ALPHA) / (2 * BLOCKS * LANES))

# Long k-path "random" starts the chain at path position 0, while a uniform
# string lies mostly off the path: ROADMAP item 1, the LONGPATH_INIT benchmark
# probe.  It joins the chain side when that item lands.
CHAIN_CASES = [
    case for case in CASES
    if case[0] != "leadingones" and (case[0], case[3]) != ("longpath", "random")
]


def ids(case) -> str:
    family, n, k, init = case
    return f"{family}-{n}" + ("" if k is None else f"-{k}") + f"-{init}"


@lru_cache(maxsize=None)
def setting(family: str, n: int, k):
    """The benchmark and the fitness of every string (state s holds bit i of s
    at position i)."""
    bench = make_benchmark(family, n, k)
    return bench, bench.fitness(np.arange(2**n, dtype=np.uint64)[:, None])


def by_fitness(all_fitness: np.ndarray, fitness: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A law over strings of the given ``fitness``, summed by fitness value:
    entry f + 1 holds fitness f (a long k-path's off-path -1 at entry 0), up
    to the largest of ``all_fitness``."""
    return np.bincount(fitness + 1, weights=weights, minlength=int(all_fitness.max()) + 2)


def reference_law(family: str, n: int, k, init: str) -> np.ndarray:
    bench, fitness = setting(family, n, k)
    if init == "random":
        weights = np.full(2**n, 2.0**-n)
    elif bench.path is not None:  # a long k-path level is its path point
        weights = (fitness == int(init.split(":")[1])).astype(float)
    else:
        members = bench.level(fitness) == int(init.split(":")[1])
        assert members.any()  # the level holds a state
        weights = members / members.sum()
    return by_fitness(fitness, fitness, weights)


def test_case_count():
    assert len(CASES) == 55
    assert round(EPSILON, 3) == 0.038


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_engine_starts_lie_in_the_dkw_band(case):
    family, n, k, init = case
    bench, fitness = setting(family, n, k)
    start = parse_start(init, n)
    words = np.concatenate([
        _block_starts(bench, start, LANES, replicate_rng(SEED, block)) for block in range(BLOCKS)
    ])
    reference = reference_law(*case)
    empirical = by_fitness(fitness, bench.fitness(words), np.full(len(words), 1.0 / len(words)))
    assert np.max(np.abs(np.cumsum(empirical) - np.cumsum(reference))) <= EPSILON


@pytest.mark.parametrize("case", CHAIN_CASES, ids=ids)
def test_level_chain_start_law_matches(case, monkeypatch):
    family, n, k, init = case
    bench, fitness = setting(family, n, k)
    args = SimpleNamespace(benchmark=family, n=n, k=k, start=parse_start(init, n))
    monkeypatch.setattr(cli.chains, "summarize", lambda chain: chain)  # the exact route's chain, unsummarized
    chain = cli._FAMILIES[family].exact(args, 1.0 / n)
    if bench.path is not None:  # labels are path positions
        strings = bench.path.points[list(chain.labels)]
    else:  # labels are ones-counts
        strings = (np.arange(n) < np.array(chain.labels)[:, None]).astype(np.uint8)
    law = by_fitness(fitness, bench.fitness(pack_words(strings)), chain.start)
    np.testing.assert_allclose(law, reference_law(*case), rtol=0, atol=EXACT)


@pytest.mark.parametrize("case", CASES, ids=ids)
def test_full_state_start_law_matches(case):
    family, n, k, init = case
    bench, fitness = setting(family, n, k)
    start = cli._full_state_start(bench, parse_start(init, n))
    if isinstance(start, str):  # "random": uniform over the states
        weights = np.full(2**n, 2.0**-n)
    elif isinstance(start, int):  # a level: uniform over its states
        members = bench.level(fitness) == start
        weights = members / members.sum()
    else:  # a bit string: its one state
        weights = np.zeros(2**n)
        weights[int(pack_words(start)[0, 0])] = 1.0
    law = by_fitness(fitness, fitness, weights)
    np.testing.assert_allclose(law, reference_law(*case), rtol=0, atol=EXACT)
