"""Exact Markov-chain analysis over fitness levels.

Ground-truth oracles for level leaving probabilities, visit probabilities,
skip probabilities and expected hitting times.  Transition masses are
assembled in log space throughout (individual terms underflow doubles long
before the assembled probabilities do) and exponentiated at the end.

The brute-force companion :func:`full_state_expected_time` solves the full
2^n-state chain of the elitist accept-if-not-worse process and is the
universal cross-check for every level chain built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import gammaln

from .benchmarks import jump_fitness_of_ones, pack

__all__ = [
    "LevelChain",
    "ChainSummary",
    "FullStateResult",
    "mutation_class_row",
    "onemax_level_matrix",
    "jump_level_matrix",
    "longpath_level_matrix",
    "visit_probabilities",
    "visit_probability_matrix",
    "expected_hitting_time",
    "skip_probability",
    "truncate_chain",
    "summarize",
    "full_state_expected_time",
]

ROW_SUM_TOL = 1e-12
FULL_STATE_MAX_N = 14
# dense float64 square matrices alive at once at peak (measured as peak RSS growth)
FULL_STATE_DENSE_ARRAYS = 2
LONGPATH_DENSE_ARRAYS = 4

StartSpec = Union[str, int]


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    import os

    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_dense_bytes(nbytes: int, what: str) -> None:
    """Refuse, before allocating, a dense build larger than physical memory."""
    available = _physical_memory()
    if nbytes > available:
        raise ValueError(
            f"{what} needs about {nbytes / 2**30:.1f} GiB of dense arrays, "
            f"more than the {available / 2**30:.1f} GiB of physical memory"
        )


@dataclass
class LevelChain:
    """Row-stochastic transition matrix over fitness levels plus a start law.

    The level process is non-decreasing: entries below the diagonal must be
    zero.  ``labels`` optionally records what each level index stands for
    (e.g. the ones-count class of a jump chain level).  Immutable after
    construction; concurrent reads are safe.
    """

    transition: np.ndarray
    start: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self) -> None:
        t = np.array(self.transition, dtype=float)
        s = np.array(self.start, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("transition matrix must be square")
        if s.shape != (t.shape[0],):
            raise ValueError("start vector length must match the level count")
        if np.any(t < -ROW_SUM_TOL) or np.any(s < -ROW_SUM_TOL):
            raise ValueError("probabilities must be non-negative")
        if not np.max(np.abs(t.sum(axis=1) - 1.0)) <= ROW_SUM_TOL:  # NaN fails too
            raise ValueError("every transition row must sum to 1")
        if not abs(s.sum() - 1.0) <= ROW_SUM_TOL:
            raise ValueError("start distribution must sum to 1")
        if np.any(np.abs(np.tril(t, k=-1)) > 0):
            raise ValueError("level process must be non-decreasing (lower triangle not zero)")
        t.flags.writeable = False  # private copies, so the chain is immutable
        s.flags.writeable = False
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "start", s)

    @property
    def m_levels(self) -> int:
        return self.transition.shape[0]

    @property
    def leave_probs(self) -> np.ndarray:
        """Per-level leaving probabilities 1 - T[i][i] (top entry is 0)."""
        return 1.0 - np.diag(self.transition)


@dataclass
class ChainSummary:
    """Exact per-level quantities of a chain: p_i, v_i and the expected runtime."""

    leave_probs: np.ndarray
    visit_probs: np.ndarray
    expected_time: float


# ---------------------------------------------------------------------------
# transition masses for standard bit mutation between ones-count classes
# ---------------------------------------------------------------------------


def _log_binom(m: int, j: np.ndarray) -> np.ndarray:
    return gammaln(m + 1) - gammaln(j + 1) - gammaln(m - j + 1)


# exp(x) is exactly 0.0 for x < -745.14.  A term below TERM_FLOOR is dropped:
# either its destination's peak is below -745.14 too (so that entry is 0), or
# the term lies more than 745.14 below the peak and its scaled weight is 0.
TERM_FLOOR = -2 * 745.2
WEIGHT_FLOOR = -746.0


def mutation_class_row(n: int, p: float, k: int) -> np.ndarray:
    """Distribution of the offspring ones-count under standard bit mutation
    of a parent with ``k`` ones, as a length-(n+1) vector.

    Moving from k to l ones requires flipping j zero-bits up and
    j - (l - k) one-bits down for every feasible j; the terms are summed in
    log space (grouped by destination) so that tiny masses survive.

    Only terms whose weight does not underflow to exactly 0 are evaluated:
    the log-term is separable, so the (up, down) counts that can reach
    ``TERM_FLOOR`` form a rectangle, and inside it only weights within
    ``WEIGHT_FLOOR`` of their destination's peak are exponentiated.  The
    kept weights are summed in the same order as the full sum, so the row
    is bit-identical to summing every term.
    """
    if not 0 <= k <= n:
        raise ValueError(f"ones-count must be in [0, {n}], got {k}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {p}")
    up = np.arange(n - k + 1)
    down = np.arange(k + 1)
    log_odds = math.log(p) - math.log1p(-p)
    log_up = _log_binom(n - k, up) + up * log_odds
    log_down = _log_binom(k, down) + down * log_odds
    base = n * math.log1p(-p)
    u = np.flatnonzero(log_up + log_down.max() + base >= TERM_FLOOR)
    d = np.flatnonzero(log_down + log_up.max() + base >= TERM_FLOOR)
    rows, cols = slice(u[0], u[-1] + 1), slice(d[0], d[-1] + 1)
    terms = (log_up[rows, None] + log_down[None, cols] + base).ravel()
    dest = (k + up[rows, None] - down[None, cols]).ravel()

    peak = np.full(n + 1, -np.inf)
    np.maximum.at(peak, dest, terms)
    shifted = terms - peak[dest]
    keep = shifted >= WEIGHT_FLOOR
    scaled = np.bincount(dest[keep], weights=np.exp(shifted[keep]), minlength=n + 1)
    return np.exp(peak) * scaled


def _binomial_start(n: int) -> np.ndarray:
    start = np.exp(_log_binom(n, np.arange(n + 1)) - n * math.log(2.0))
    return start / start.sum()


def _resolve_start(start: Union[StartSpec, np.ndarray], n: int) -> np.ndarray:
    if isinstance(start, np.ndarray):
        return start  # a law over the ones-count classes 0..n
    if isinstance(start, str):
        if start != "random":
            raise ValueError(f"unknown start mode {start!r}")
        return _binomial_start(n)
    if not 0 <= int(start) <= n:
        raise ValueError(f"start class must be in [0, {n}], got {start}")
    point = np.zeros(n + 1)
    point[int(start)] = 1.0
    return point


def jump_fitness_order(n: int, k: int) -> list[int]:
    """Ones-counts ordered by increasing jump fitness: the gap classes from
    worst (n-1 ones) to best (n-k+1 ones), then 0..n-k, then the optimum."""
    return sorted(range(n + 1), key=lambda a: jump_fitness_of_ones(a, n, k))


def jump_level_matrix(n: int, k: int, p: float, start: Union[StartSpec, np.ndarray] = "random") -> LevelChain:
    """Exact chain over ones-count classes of a jump function, ordered by
    fitness.  The coarse gap/non-gap partition is not Markov inside the
    non-gap region, so each ones-count keeps its own (sub-)level; transition
    mass is mutation mass filtered by accept-if-not-worse, with rejected
    mass added to the self-loop.

    ``labels[i]`` is the ones-count of level i.  ``start`` is "random" for
    the binomial initialization, an integer for a point mass at that
    ones-count class, or an array holding a law over the ones-counts 0..n.
    With k = 1 there is no gap and this is the OneMax chain: level i is the
    ones-count i.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"jump size must be in [1, {n}], got {k}")
    order = jump_fitness_order(n, k)  # ones-count of each level
    ones = np.array(order)
    t = np.zeros((n + 1, n + 1))
    for i, a in enumerate(order[:-1]):
        # fitness values are distinct, so exactly the higher levels are accepted
        t[i, i + 1 :] = mutation_class_row(n, p, a)[ones[i + 1 :]]
        t[i, i] = max(0.0, 1.0 - t[i, i + 1 :].sum())
    t[n, n] = 1.0  # the optimum (n ones) is the top level
    return LevelChain(t, _resolve_start(start, n)[ones], labels=tuple(order))


def onemax_level_matrix(n: int, p: float, start: StartSpec = "random") -> LevelChain:
    """Exact level chain of the elitist process on OneMax (level = ones-count):
    Jump_1 is OneMax shifted by one, so this is the jump chain with k = 1."""
    return jump_level_matrix(n, 1, p, start)


def longpath_level_matrix(path, p: float, start: StartSpec = 0) -> LevelChain:
    """Exact chain over long k-path positions.

    With an on-path start the parent never leaves the path, so the path
    index is a full Markov state; the transition mass to a point d bits away
    is p^d (1-p)^(n-d).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {p}")
    if isinstance(start, str):
        raise ValueError("longpath chains start on a fixed path position")
    m = len(path.points)
    if not 0 <= int(start) <= m - 1:
        raise ValueError(f"start position must be in [0, {m - 1}], got {start}")
    _check_dense_bytes(LONGPATH_DENSE_ARRAYS * 8 * m * m, f"long k-path chain over {m} positions")
    pts = np.array(path.points, dtype=float)
    ones = pts.sum(axis=1)
    # Hamming distances of 0/1 points; every value is an integer, so exact
    dist = ones[:, None] + ones[None, :] - 2.0 * (pts @ pts.T)
    mass = np.exp(dist * math.log(p) + (path.n - dist) * math.log1p(-p))
    del dist
    t = np.triu(mass, k=1)
    del mass
    diag = 1.0 - t.sum(axis=1)
    np.fill_diagonal(t, np.maximum(diag, 0.0))
    start_vec = np.zeros(m)
    start_vec[int(start)] = 1.0
    return LevelChain(t, start_vec, labels=tuple(range(m)))


# ---------------------------------------------------------------------------
# chain analysis
# ---------------------------------------------------------------------------


def _check_no_absorbing_interior(chain: LevelChain, reach: np.ndarray) -> None:
    p = chain.leave_probs
    top = chain.m_levels - 1
    stuck = (p[:top] <= 0.0) & (reach[:top] > 1e-15)
    if np.any(stuck):
        levels = np.flatnonzero(stuck)
        raise ValueError(f"absorbing non-top level(s) reachable: {levels.tolist()}")


def _forward_visits(chain: LevelChain, v: np.ndarray) -> np.ndarray:
    """Run the forward visit recursion in place on the start law(s) ``v``:
    v[..., i] += sum_{j<i} v[..., j] T[j][i] / (1 - T[j][j])."""
    p = chain.leave_probs
    m = chain.m_levels
    ratio = np.zeros((m, m))
    positive = p > 0.0
    ratio[positive] = chain.transition[positive] / p[positive, None]
    for i in range(m):
        v[..., i] += v[..., :i] @ ratio[:i, i]
    _check_no_absorbing_interior(chain, np.atleast_2d(v).max(axis=0))
    return v


def visit_probabilities(chain: LevelChain) -> np.ndarray:
    """Exact probability of ever occupying each level.

    Forward recursion over the embedded jump chain,
    v_i = start_i + sum_{j<i} v_j T[j][i] / (1 - T[j][j]); exact because a
    non-decreasing level process visits each level at most once.
    """
    return _forward_visits(chain, chain.start.copy())


def visit_probability_matrix(chain: LevelChain) -> np.ndarray:
    """V[k, i] = probability of ever visiting level i when started at level k
    (point mass), for all start levels at once."""
    return _forward_visits(chain, np.eye(chain.m_levels))


def expected_hitting_time(chain: LevelChain) -> tuple[float, np.ndarray]:
    """Expected iterations to reach the top level.

    Returns (overall expectation under the start law, per-level vector E_i)
    via the backward recursion E_i = 1/p_i + sum_{l>i} (T[i][l]/p_i) E_l.
    Unreachable interior levels with p_i = 0 get E_i = inf.
    """
    visit_probabilities(chain)  # raises on reachable absorbing interior levels
    t = chain.transition
    p = chain.leave_probs
    m = chain.m_levels
    times = np.zeros(m)
    for i in range(m - 2, -1, -1):
        if p[i] <= 0.0:
            times[i] = math.inf
            continue
        times[i] = (1.0 + t[i, i + 1 :] @ times[i + 1 :]) / p[i]
    mass = chain.start > 0.0
    return float(chain.start[mass] @ times[mass]), times


def skip_probability(chain: LevelChain, lo: int, hi: int) -> float:
    """Probability that no level in the contiguous range [lo, hi] is visited.

    Sums, over levels below the range, the visit probability times the
    conditional chance of jumping clear over the range, plus the start mass
    strictly above the range.
    """
    m = chain.m_levels
    if not 0 <= lo <= hi < m:
        raise ValueError(f"level range [{lo}, {hi}] out of bounds for {m} levels")
    v = visit_probabilities(chain)
    t = chain.transition
    p = chain.leave_probs
    total = float(chain.start[hi + 1 :].sum())
    for j in range(lo):
        if v[j] <= 0.0:
            continue
        total += v[j] * (t[j, hi + 1 :].sum() / p[j])
    return min(1.0, max(0.0, total))


def truncate_chain(chain: LevelChain, top: int) -> LevelChain:
    """Collapse all levels >= ``top`` into a single absorbing top level,
    giving the chain whose hitting time is the time to reach level >= top."""
    m = chain.m_levels
    if not 0 < top < m:
        raise ValueError(f"truncation level must be in [1, {m - 1}], got {top}")
    t = np.zeros((top + 1, top + 1))
    t[:top, :top] = chain.transition[:top, :top]
    t[:top, top] = chain.transition[:top, top:].sum(axis=1)
    t[top, top] = 1.0
    start = np.concatenate([chain.start[:top], [chain.start[top:].sum()]])
    labels = None if chain.labels is None else tuple(chain.labels[:top]) + (chain.labels[top:],)
    return LevelChain(t, start, labels=labels)


def summarize(chain: LevelChain) -> ChainSummary:
    """Exact p_i, v_i and expected runtime of a chain in one bundle."""
    v = visit_probabilities(chain)
    expected, _ = expected_hitting_time(chain)
    return ChainSummary(leave_probs=chain.leave_probs[:-1], visit_probs=v, expected_time=expected)


# ---------------------------------------------------------------------------
# brute-force full-state oracle
# ---------------------------------------------------------------------------


@dataclass
class FullStateResult:
    """Exact quantities from the full 2^n-state chain of the elitist process."""

    expected_time: float
    visit_probs: np.ndarray


def full_state_expected_time(
    benchmark,
    p: float,
    start: Union[str, int, np.ndarray] = "random",
) -> FullStateResult:
    """Solve the full 2^n-state accepted-move chain of the (1+1) EA.

    Builds the dense transition matrix (mutation mass filtered by
    accept-if-not-worse) and makes two dense solves with ``I - Q``, where
    ``Q`` is its restriction to non-optimal states: ``(I - Q) t = 1`` gives
    the hitting times, and ``(I - Q)^T g = start`` gives the expected number
    of visits ``g_s`` to each state (the fundamental matrix, Kemeny & Snell).
    A level that has been left is never re-entered, so level L is visited
    with probability ``start(L) + sum_{s: level(s) < L} g_s T(s, L)``; this
    agrees with one first-passage solve per level to rounding (within 1e-12
    relative).  ``start`` is "random" (uniform over all states), an integer
    level (uniform over that level's states) or an explicit bit string.
    """
    n = benchmark.n
    if n > FULL_STATE_MAX_N:
        raise ValueError(f"full-state oracle capped at n <= {FULL_STATE_MAX_N}, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {p}")
    size = 2**n
    _check_dense_bytes(FULL_STATE_DENSE_ARRAYS * 8 * size * size, f"full-state oracle at n={n}")

    # state s is the bit string packed into s (bit i is position i)
    fitness = np.array([benchmark.fitness(s) for s in range(size)], dtype=float)
    optimal = np.array([bool(benchmark.is_optimum(s)) for s in range(size)])
    levels = np.array([benchmark.level(s) for s in range(size)], dtype=int)

    popcount = np.array([int(c).bit_count() for c in range(size)], dtype=np.uint8)
    codes = np.arange(size, dtype=np.uint32)
    dist = popcount[(codes[:, None] ^ codes[None, :])]
    flips = np.arange(n + 1, dtype=np.uint8)  # mass of one flip pattern per distance
    trans = np.exp(flips * math.log(p) + (n - flips) * math.log1p(-p))[dist]
    del dist
    trans[fitness[None, :] < fitness[:, None]] = 0.0  # rejected offspring
    np.fill_diagonal(trans, 0.0)
    np.fill_diagonal(trans, np.maximum(1.0 - trans.sum(axis=1), 0.0))

    if isinstance(start, str):
        if start != "random":
            raise ValueError(f"unknown start mode {start!r}")
        start_dist = np.full(size, 1.0 / size)
    elif isinstance(start, (int, np.integer)):
        at_level = levels == int(start)
        if not np.any(at_level):
            raise ValueError(f"no state has level {start}")
        start_dist = at_level / at_level.sum()
    else:
        start_dist = np.zeros(size)
        start_dist[pack(start)] = 1.0

    top = int(levels.max())
    to_level = trans @ (levels[:, None] == np.arange(top + 1))  # T(s, L)
    times = np.zeros(size)
    visits = np.zeros(size)  # expected number of iterations spent in each state
    interior = ~optimal
    if np.any(interior):
        a = trans[np.ix_(interior, interior)]
        del trans
        np.subtract(0.0, a, out=a)  # a = I - Q, built in place
        a[np.diag_indices_from(a)] += 1.0
        times[interior] = np.linalg.solve(a, np.ones(a.shape[0]))
        visits[interior] = np.linalg.solve(a.T, start_dist[interior])

    visit = np.zeros(top + 1)
    for lvl in range(top + 1):
        at = levels == lvl
        if not np.any(at):
            continue
        below = levels < lvl
        v = float(start_dist[at].sum())
        if np.any(below) and start_dist[below].sum() > 0.0:
            v += float(visits[below] @ to_level[below, lvl])
        visit[lvl] = v

    expected = float(start_dist @ times)
    return FullStateResult(expected_time=expected, visit_probs=visit)
