"""Shared test oracles: bit strings packed into Python ints, exact binomial
pmf, brute-force mutation distributions by flip-mask enumeration, chi-square
goodness of fit with tail pooling, and seeded random chain generators."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from scipy import stats

from flmlab.chains import LevelChain


def pack(x: np.ndarray) -> int:
    """The bit string as a Python int whose bit i is position i of ``x``."""
    return int.from_bytes(np.packbits(np.asarray(x, dtype=np.uint8), bitorder="little").tobytes(), "little")


def exact_binom_pmf(n: int, p: float) -> np.ndarray:
    return np.array([math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)])


def chi2_pvalue(counts: np.ndarray, probs: np.ndarray) -> float:
    """Goodness-of-fit p-value, pooling bins with expected count < 5."""
    total = counts.sum()
    expected = probs * total
    order = np.argsort(expected)
    pooled_counts, pooled_expected = [], []
    acc_c = acc_e = 0.0
    for idx in order:
        acc_c += counts[idx]
        acc_e += expected[idx]
        if acc_e >= 5.0:
            pooled_counts.append(acc_c)
            pooled_expected.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0 and pooled_expected:
        pooled_counts[-1] += acc_c
        pooled_expected[-1] += acc_e
    pooled_counts = np.array(pooled_counts)
    pooled_expected = np.array(pooled_expected)
    pooled_expected *= pooled_counts.sum() / pooled_expected.sum()
    if len(pooled_counts) < 2:
        return 1.0
    return float(stats.chisquare(pooled_counts, pooled_expected).pvalue)


def brute_mutation_distribution(x: np.ndarray, p: float) -> np.ndarray:
    """Exact offspring ones-count distribution by enumerating all flip masks."""
    n = len(x)
    dist = np.zeros(n + 1)
    for mask in product((0, 1), repeat=n):
        prob = 1.0
        for m in mask:
            prob *= p if m else 1.0 - p
        ones = int(sum(b ^ m for b, m in zip(x, mask)))
        dist[ones] += prob
    return dist


def random_level_chain(rng: np.random.Generator, m: int, start: str = "any") -> LevelChain:
    """A random valid non-decreasing level chain on m levels.

    Every non-top row gets a self-loop in (0.05, 0.95) and strictly positive
    mass on the next level, so the top is reachable from everywhere.
    """
    t = np.zeros((m, m))
    for i in range(m - 1):
        stay = rng.uniform(0.05, 0.95)
        weights = rng.uniform(0.05, 1.0, size=m - 1 - i)
        weights /= weights.sum()
        t[i, i] = stay
        t[i, i + 1 :] = (1.0 - stay) * weights
    t[m - 1, m - 1] = 1.0
    if start == "lowest":
        start_vec = np.zeros(m)
        start_vec[0] = 1.0
    else:
        start_vec = rng.uniform(0.0, 1.0, size=m)
        start_vec /= start_vec.sum()
    return LevelChain(t, start_vec)


def viscous_level_chain(rng: np.random.Generator, m: int) -> LevelChain:
    """A random chain under which the full bound-ordering sandwich provably
    holds: non-increasing leaving probabilities, non-increasing conditional
    jump rows, start mass entirely on the lowest level."""
    leave = np.sort(rng.uniform(0.05, 0.95, size=m - 1))[::-1]
    t = np.zeros((m, m))
    for i in range(m - 1):
        weights = np.sort(rng.uniform(0.05, 1.0, size=m - 1 - i))[::-1]
        weights /= weights.sum()
        t[i, i] = 1.0 - leave[i]
        t[i, i + 1 :] = leave[i] * weights
    t[m - 1, m - 1] = 1.0
    start_vec = np.zeros(m)
    start_vec[0] = 1.0
    return LevelChain(t, start_vec)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xF17)
