"""The engine's runtime law against the level chain's exact survival function.

A family's level chain gives the exact law of the runtime T, not only its
mean: with Q the transitions among the non-top levels and ``start`` the start
law restricted to them, ``S(t) = P(T > t) = start · Q^t · 1``.  The
Dvoretzky–Kiefer–Wolfowitz inequality with Massart's constant bounds the
empirical survival function of R independent runtimes, whatever their law:
``P(sup_t |S_R(t) - S(t)| > eps) <= 2 exp(-2 R eps^2)``.  So the band
``eps = sqrt(ln(2 / alpha_case) / (2 R))`` is left with probability at most
``alpha_case`` by a correct engine, and no standard error is estimated.

Bonferroni split: the whole test may fail on correct code with probability
at most ALPHA = 1e-3, so each of the CASES gets ``alpha_case = ALPHA /
len(CASES)``.  The seeds below were fixed before the test first ran.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from flmlab.benchmarks import build_long_k_path
from flmlab.chains import jump_level_matrix, longpath_level_matrix, onemax_level_matrix
from flmlab.experiments import ExperimentConfig, run_experiment

ALPHA = 1e-3

# (family, n, k, --init, rate, replicates, seed, the level chain of that start)
CASES = [
    ("onemax", 16, None, "random", 1 / 16, 4000, 1601, lambda p: onemax_level_matrix(16, p, "random")),
    ("onemax", 16, None, "level:0", 1 / 16, 4000, 1602, lambda p: onemax_level_matrix(16, p, 0)),
    ("jump", 8, 3, "random", 1 / 8, 2000, 1603, lambda p: jump_level_matrix(8, 3, p, "random")),
    ("jump", 8, 3, "random", 3 / 8, 2000, 1605, lambda p: jump_level_matrix(8, 3, p, "random")),
    ("longpath", 12, 4, "level:0", 1 / 12, 2000, 1604, lambda p: longpath_level_matrix(build_long_k_path(12, 4), p, 0)),
    ("onemax", 70, None, "random", 1 / 70, 1000, 1606, lambda p: onemax_level_matrix(70, p, "random")),  # two words
]


def survival(chain, horizon: int) -> np.ndarray:
    """S(t) = P(T > t) for t = 0..horizon, one vector-matrix product a step."""
    q = chain.transition[:-1, :-1]
    mass = chain.start[:-1].copy()
    out = np.empty(horizon + 1)
    for t in range(horizon + 1):
        out[t] = mass.sum()
        mass = mass @ q
    return out


@pytest.mark.parametrize(
    "family,n,k,init,p,replicates,seed,chain", CASES, ids=[f"{c[0]}-{c[3]}-p{c[4]:.3f}" for c in CASES]
)
def test_runtime_ecdf_within_dkw_band_of_exact_law(family, n, k, init, p, replicates, seed, chain):
    stats = run_experiment(ExperimentConfig(
        benchmark=family, n=n, k=k, mutation_rate=p, replicates=replicates, master_seed=seed, init=init))
    assert stats.timeouts == 0
    horizon = int(stats.runtimes.max())
    exact = survival(chain(p), horizon)
    # the empirical survival function at t = 0..horizon; beyond the horizon
    # it is 0 and S(t) <= S(horizon), so the supremum is reached within it
    counts = np.bincount(stats.runtimes, minlength=horizon + 1)
    empirical = 1.0 - np.cumsum(counts) / replicates
    distance = float(np.max(np.abs(empirical - exact)))
    band = math.sqrt(math.log(2 / (ALPHA / len(CASES))) / (2 * replicates))
    assert distance <= band, f"sup distance {distance:.4f} outside the DKW band {band:.4f}"
