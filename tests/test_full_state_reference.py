"""The class-by-class full-state oracle against a dense two-solve reference.

``dense_reference`` is the former full-state oracle, kept here as a test-only
reference: it builds the whole 2^n x 2^n accepted-move matrix and makes two
dense solves with ``I - Q``, one for the hitting times (``E[T]``) and one
for the expected visits ``g`` of each state (the visit probabilities).  The
class-by-class oracle must agree with it to rounding on every family, both
rates and every start form, and its own rows must satisfy the paper's
identity ``sum v_L / p_L = E[T]``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from flmlab.benchmarks import make_benchmark
from flmlab.chains import full_state_expected_time

from conftest import pack

T_REL = 1e-13
V_REL = 1e-12
IDENTITY_REL = 1e-12

# (family, n, k); long k-path (6, 2), (8, 4) and (9, 3) as the largest cases
FAMILIES = [
    ("onemax", 8, None),
    ("leadingones", 9, None),
    ("jump", 8, 3),
    ("jump", 10, 2),
    ("longpath", 6, 2),
    ("longpath", 8, 4),
    ("longpath", 9, 3),
]


def dense_reference(benchmark, p: float, starts: list) -> list[tuple[float, np.ndarray]]:
    """(E[T], v) for each start, from the dense 2^n-state matrix."""
    n = benchmark.n
    size = 2**n
    states = np.arange(size, dtype=np.uint64)[:, None]  # state s is the string packed into s
    values = benchmark.fitness(states)
    fitness = values.astype(float)
    optimal = benchmark.is_optimum(values)
    levels = benchmark.level(values)
    codes = np.arange(size, dtype=np.uint32)
    dist = np.bitwise_count(codes[:, None] ^ codes[None, :])
    flips = np.arange(n + 1)
    trans = np.exp(flips * math.log(p) + (n - flips) * math.log1p(-p))[dist]
    trans[fitness[None, :] < fitness[:, None]] = 0.0  # rejected offspring
    np.fill_diagonal(trans, 0.0)
    np.fill_diagonal(trans, np.maximum(1.0 - trans.sum(axis=1), 0.0))

    top = int(levels.max())
    to_level = trans @ (levels[:, None] == np.arange(top + 1))  # T(s, L)
    interior = ~optimal
    a = np.eye(int(interior.sum())) - trans[np.ix_(interior, interior)]
    times = np.zeros(size)
    times[interior] = np.linalg.solve(a, np.ones(a.shape[0]))

    results = []
    for start in starts:
        if isinstance(start, str):
            start_dist = np.full(size, 1.0 / size)
        elif isinstance(start, int):
            start_dist = (levels == start) / np.sum(levels == start)
        else:
            start_dist = np.zeros(size)
            start_dist[pack(start)] = 1.0
        visits = np.zeros(size)
        visits[interior] = np.linalg.solve(a.T, start_dist[interior])
        visit = np.zeros(top + 1)
        for lvl in range(top + 1):
            at, below = levels == lvl, levels < lvl
            if not np.any(at):
                continue
            visit[lvl] = float(start_dist[at].sum())
            if np.any(below) and start_dist[below].sum() > 0.0:
                visit[lvl] += float(visits[below] @ to_level[below, lvl])
        results.append((float(start_dist @ times), visit))
    return results


def starts_of(benchmark) -> list:
    """"random", every level that holds a state, and one explicit bit string."""
    fitness = benchmark.fitness(np.arange(2**benchmark.n, dtype=np.uint64)[:, None])
    levels = np.unique(benchmark.level(fitness)).tolist()
    point = np.array([i % 3 == 0 for i in range(benchmark.n)], dtype=np.uint8)
    return ["random", *levels, point]


CASES = [(family, n, k, rate) for family, n, k in FAMILIES for rate in (1, 2)]


@pytest.mark.parametrize("family,n,k,rate", CASES, ids=[f"{f}-n{n}-k{k}-{r}/n" for f, n, k, r in CASES])
def test_class_by_class_solve_matches_dense_reference(family, n, k, rate):
    benchmark = make_benchmark(family, n, k)
    p = rate / n
    starts = starts_of(benchmark)
    for start, (want_t, want_v) in zip(starts, dense_reference(benchmark, p, starts)):
        got = full_state_expected_time(benchmark, p, start=start)
        assert got.expected_time == pytest.approx(want_t, rel=T_REL, abs=0), start
        assert got.visit_probs.shape == want_v.shape
        zero = want_v == 0.0
        assert np.array_equal(got.visit_probs == 0.0, zero), start  # exact zeros stay exact
        np.testing.assert_allclose(got.visit_probs[~zero], want_v[~zero], rtol=V_REL, atol=0)

        # the paper's identity on the oracle's own rows
        v, leave = got.visit_probs[:-1], got.leave_probs
        assert leave.shape == v.shape
        entered = v > 0.0
        assert np.all(leave[~entered] == 0.0)
        identity = float(np.sum(v[entered] / leave[entered]))
        assert identity == pytest.approx(got.expected_time, rel=IDENTITY_REL, abs=1e-300), start
