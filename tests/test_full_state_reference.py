"""The class-by-class full-state oracle against a dense elimination reference.

``dense_reference`` builds the whole 2^n x 2^n accepted-move matrix and
solves with ``I - Q`` by eliminating the non-optimal states one at a time
with the subtraction-free rule of Grassmann, Taksar & Heyman (GTH, Oper. Res.
1985): each pivot is the accepted mass of leaving its state in the chain
watched only on the states not yet eliminated, summed from its non-negative
moves rather than computed as ``1 - stay``.  Where leaving is rare (p = 0.9,
E[T] near 1e8) a dense LU solve of the same matrix is up to 2.5e-11 relative
off, and up to 5e-9 with its diagonal taken as ``1 - stay``; every step here
adds non-negative terms, so the reference stays accurate to rounding at
every rate.  One elimination gives the hitting times (``E[T]``) and the
expected visits ``g`` of each state (the visit probabilities).  The
class-by-class oracle must agree with it to rounding on every family, every
rate and every start form, and its own rows must satisfy the paper's
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


def gth_eliminate(moves: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``I - Q = D - moves`` (``moves`` the accepted masses between
    non-optimal states, zero diagonal; ``out`` each one's mass to the optimum)
    as L U in place: on return ``moves`` holds the negated off-diagonal
    entries of U above the diagonal and those of L times the pivots below it,
    and the pivots are returned too.  Eliminating state k adds its detours
    ``i -> k -> j`` to every later row; the pivot of k is its mass out of the
    states after it, so no entry is a difference."""
    pivots = np.empty(len(out))
    for k in range(len(out)):
        pivots[k] = out[k] + moves[k, k + 1 :].sum()
        through = moves[k + 1 :, k] / pivots[k]
        moves[k + 1 :, k + 1 :] += through[:, None] * moves[k, k + 1 :]
        out[k + 1 :] += through * out[k]
    return moves, pivots


def gth_solve(factor: tuple[np.ndarray, np.ndarray], b: np.ndarray, transposed: bool) -> np.ndarray:
    """x with ``(I - Q) x = b``, or ``(I - Q)^T x = b``, from gth_eliminate."""
    moves, pivots = factor
    m = len(pivots)
    upper, lower = np.triu(moves, 1), np.tril(moves, -1) / pivots
    x = np.array(b, dtype=float)
    if not transposed:
        for k in range(m):  # L y = b
            x[k] += lower[k, :k] @ x[:k]
        for k in reversed(range(m)):  # U x = y
            x[k] = (x[k] + upper[k, k + 1 :] @ x[k + 1 :]) / pivots[k]
    else:
        for k in range(m):  # U^T z = b
            x[k] = (x[k] + upper[:k, k] @ x[:k]) / pivots[k]
        for k in reversed(range(m)):  # L^T x = z
            x[k] += lower[k + 1 :, k] @ x[k + 1 :]
    return x


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
    np.fill_diagonal(trans, 0.0)  # moves between states; T(s, L) below needs no other

    top = int(levels.max())
    to_level = trans @ (levels[:, None] == np.arange(top + 1))  # T(s, L)
    interior = ~optimal
    factor = gth_eliminate(trans[np.ix_(interior, interior)], trans[np.ix_(interior, optimal)].sum(axis=1))
    times = np.zeros(size)
    times[interior] = gth_solve(factor, np.ones(int(interior.sum())), transposed=False)

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
        visits[interior] = gth_solve(factor, start_dist[interior], transposed=True)
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


# 1/n and 2/n, and two large rates, where the rounding of 1 - p matters most
CASES = [(family, n, k, rate) for family, n, k in FAMILIES for rate in ("1/n", "2/n", "0.3", "0.9")]
# a known defect of the oracle, kept in view: at p = 0.9 the class of jump(8, 3)
# just below the gap (5 ones) leaves at 7.3e-6 against 5.5e-2 of moves inside
# it, so I - T_cc has condition 1.2e4 and the Cholesky's subtractions leave
# E[T] 6.2e-13 relative off (this reference and a 50-digit level chain agree
# to 5e-16)
ILL_CONDITIONED = {("jump", 8, 3, "0.9")}
PARAMS = [pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason="ill-conditioned class solve"))
          if case in ILL_CONDITIONED else case for case in CASES]


@pytest.mark.parametrize("family,n,k,rate", PARAMS, ids=[f"{f}-n{n}-k{k}-{r}" for f, n, k, r in CASES])
def test_class_by_class_solve_matches_dense_reference(family, n, k, rate):
    benchmark = make_benchmark(family, n, k)
    p = int(rate[0]) / n if rate.endswith("/n") else float(rate)
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
