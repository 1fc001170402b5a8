"""Exact Markov-chain analysis over fitness levels.

Ground-truth oracles for level leaving probabilities, visit probabilities,
skip probabilities and expected hitting times.  Transition masses between
ones-count classes are sums of products of two binomial pmfs, computed in
linear space from Loader's method (:func:`flmlab.benchmarks.binomial_pmfs`).

The brute-force companion :func:`full_state_expected_time` solves the full
2^n-state chain of the elitist accept-if-not-worse process and is the
universal cross-check for every level chain built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .benchmarks import binomial_law, binomial_pmfs, jump_fitness_of_ones, pack_words

__all__ = [
    "LevelChain",
    "ChainSummary",
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
# entries of the float64 or uint32 temporaries built at once by the full-state
# oracle and the long k-path chain
BLOCK_ENTRIES = 2**16
# float64 (largest class)^2 arrays alive at once at peak: I - T_cc, factored
# in place, and room for one block and the class's uint8 distances to its
# higher states, which take under 8 bytes per member pair while the class
# holds 2^n / 8 states or more, as the largest class of OneMax, LeadingOnes
# and jump does at n <= 14; RSS growth over n = 12-14 measured 1.14
# (LeadingOnes n = 14) to 1.72 (jump n = 12, k = 3) of them, one BLAS thread
FULL_STATE_CLASS_ARRAYS = 2
CHOLESKY_BLOCK = 64  # columns of I - T_cc factored at once
# float64 m x m arrays of a long k-path chain alive at once at peak, measured
# with tracemalloc over `oracle` at 1.03 (m = 3070) to 1.43 (m = 766): the
# matrix, which LevelChain takes over, and the temporaries of one row block
LONGPATH_DENSE_ARRAYS = 2
# float64 (n+1) x (n+1) arrays alive at once at peak, measured with tracemalloc
# over `oracle` for OneMax and jump: the matrix, which LevelChain takes over
LEVEL_DENSE_ARRAYS = 1
TRIANGLE_BLOCK_ROWS = 128  # the lower-triangle check's temporary: 128^2 entries at most


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


def _below_diagonal_nonzero(t: np.ndarray) -> bool:
    """Whether a square matrix has a nonzero (or NaN) entry below its diagonal,
    checked by blocks of rows: all columns left of a block, then the block's
    own square, so no temporary grows with the matrix."""
    for a in range(0, t.shape[0], TRIANGLE_BLOCK_ROWS):
        b = a + TRIANGLE_BLOCK_ROWS
        if np.any(t[a:b, :a]) or np.any(np.tril(t[a:b, a:b], -1)):
            return True
    return False


def _frozen(a) -> np.ndarray:
    """``a`` itself if it is a read-only float64 array that owns its data (a
    builder hands its matrix over), else a read-only float64 copy, so that a
    caller's writeable array is never frozen."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=float)
        a.flags.writeable = False
    return a


@dataclass
class LevelChain:
    """Row-stochastic transition matrix over fitness levels plus a start law.

    The level process is non-decreasing: entries below the diagonal must be
    zero.  ``labels`` optionally records what each level index stands for
    (e.g. the ones-count class of a jump chain level).  Immutable after
    construction; concurrent reads are safe.  A read-only float64 array that
    owns its data is kept as it is; anything else is copied.
    """

    transition: np.ndarray
    start: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self) -> None:
        t, s = _frozen(self.transition), _frozen(self.start)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("transition matrix must be square")
        if s.shape != (t.shape[0],):
            raise ValueError("start vector length must match the level count")
        if t.min(initial=0.0) < -ROW_SUM_TOL or np.any(s < -ROW_SUM_TOL):
            raise ValueError("probabilities must be non-negative")
        if not np.max(np.abs(t.sum(axis=1) - 1.0)) <= ROW_SUM_TOL:  # NaN fails too
            raise ValueError("every transition row must sum to 1")
        if not abs(s.sum() - 1.0) <= ROW_SUM_TOL:
            raise ValueError("start distribution must sum to 1")
        if _below_diagonal_nonzero(t):
            raise ValueError("level process must be non-decreasing (lower triangle not zero)")
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


# bytes of rows per kernel call in the chain builders: a small chain takes few
# calls, each of which pays a fixed ~60 numpy calls for its pmfs (OneMax
# n = 1000 builds 15% faster than in blocks of 32 parents), and a large one
# keeps its temporaries bounded
ROW_BYTES = 2**20
# the pmfs are correlated scaled by 2^511 each, so that every product above
# 2^-2044 is a normal double: products that round to a subnormal cost about
# 15 times as much, and products of two pmf tails are mostly that small
PMF_SCALE = 2.0**511
# np.correlate sums the full overlaps of a window this short or shorter in a
# loop of its own, every other column by BLAS's dot, which may fuse its
# multiply-adds; so a shorter window is padded with zeros past this length
SMALL_CORRELATE = 11


def row_block(n: int) -> int:
    """Parents per kernel call when building the rows of an n-bit chain."""
    return max(1, ROW_BYTES // (8 * (n + 1)))


def mutation_class_row(n: int, p: float, k: int, lowest: Union[int, np.ndarray] = 0, *,
                       count: Optional[int] = None) -> np.ndarray:
    """Distribution of the offspring ones-count under standard bit mutation
    of a parent with ``k`` ones, as a length-(n+1) vector; with ``count=c``,
    the ``(c, n+1)`` rows of the parents k .. k+c-1, one kernel call for the
    block.  Only the entries for ones-counts ``>= lowest`` (a scalar, or one
    value per row) are computed; those below are left at 0, so ``lowest=0``
    gives the whole row.

    The offspring has k + u - d ones, where the up-flips u ~ Bin(n-k, p) and
    the down-flips d ~ Bin(k, p) are independent, so
    ``P(k -> k+e) = sum_d b(d; k, p) b(d+e; n-k, p)``: one ``np.correlate``
    of the two pmfs (``binomial_pmfs``) over the windows where they are
    nonzero doubles, scaled by PMF_SCALE.  Every term is positive, so each
    entry is the exact sum within the pmfs' error and the sum's rounding.  A
    row needing only ``e >= e_min = lowest - k`` first drops the down-flips
    above ``u_hi - e_min`` and the up-flips below ``d_lo + e_min``, which
    reach no such column.  Every column is then one BLAS dot over the same
    terms in the same order (windows shorter than SMALL_CORRELATE + 1 are
    padded with zeros), so its entries equal the whole row's bit for bit,
    and a row is the same double in any block.
    """
    c = 1 if count is None else count
    if not 0 <= k <= n or not 1 <= c <= n + 1 - k:
        raise ValueError(f"ones-count must be in [0, {n}], got {k if c == 1 else f'{k}..{k + c - 1}'}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {p}")
    ks = np.arange(k, k + c)
    offset, table = binomial_pmfs(np.concatenate([n - ks, ks]), p)  # up-flip laws, then down-flip laws
    nonzero = table > 0.0
    table *= PMF_SCALE
    first = offset + np.argmax(nonzero, axis=1)
    last = offset + table.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    e_min = np.broadcast_to(np.asarray(lowest) - ks, (c,))
    u_lo = np.maximum(first[:c], first[c:] + e_min)
    d_hi = np.minimum(last[c:], last[:c] - e_min)
    rows = np.zeros((c, n + 1))
    for r, (kr, e, u0, u1, d0, d1, ou, od) in enumerate(zip(
            *(x.astype(np.intp).tolist() for x in (ks, e_min, u_lo, last[:c], first[c:], d_hi, offset[:c], offset[c:])))):
        if u0 > u1 or d0 > d1:
            continue  # no column >= lowest has mass
        up, down = table[r, u0 - ou : u1 - ou + 1], table[c + r, d0 - od : d1 - od + 1]
        if up.size > SMALL_CORRELATE and down.size > SMALL_CORRELATE:
            gains = np.correlate(up, down, "full")
        else:  # zeros after the last up-flip and the last down-flip, and their columns dropped
            pad_up, pad_down = max(0, SMALL_CORRELATE + 1 - up.size), max(0, SMALL_CORRELATE + 1 - down.size)
            gains = np.correlate(np.concatenate((up, np.zeros(pad_up))), np.concatenate((down, np.zeros(pad_down))), "full")
            gains = gains[pad_down : gains.size - pad_up]
        skip = max(0, e - (u0 - d1))  # gains[i] is the mass of e = u0 - d1 + i
        rows[r, kr + u0 - d1 + skip : kr + u1 - d0 + 1] = gains[skip:]
    rows *= 1.0 / PMF_SCALE**2
    return rows if count is not None else rows[0]


def _resolve_start(start: Union[str, int, np.ndarray], n: int) -> np.ndarray:
    if isinstance(start, np.ndarray):
        return start  # a law over the ones-count classes 0..n
    if isinstance(start, str):
        if start != "random":
            raise ValueError(f"unknown start mode {start!r}")
        return binomial_law(n, 0.5)  # a uniform string's ones-count
    if not 0 <= int(start) <= n:
        raise ValueError(f"start class must be in [0, {n}], got {start}")
    point = np.zeros(n + 1)
    point[int(start)] = 1.0
    return point


def jump_fitness_order(n: int, k: int) -> list[int]:
    """Ones-counts ordered by increasing jump fitness: the gap classes from
    worst (n-1 ones) to best (n-k+1 ones), then 0..n-k, then the optimum."""
    return np.argsort(jump_fitness_of_ones(np.arange(n + 1), n, k)).tolist()  # distinct values


def jump_level_matrix(n: int, k: int, p: float, start: Union[str, int, np.ndarray] = "random") -> LevelChain:
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
    _check_dense_bytes(LEVEL_DENSE_ARRAYS * 8 * (n + 1) ** 2, f"level chain over {n + 1} ones-count classes")
    order = jump_fitness_order(n, k)  # ones-count of each level
    ones = np.array(order)
    lowest = np.minimum.accumulate(ones[::-1])[::-1]  # lowest ones-count at or above each level
    level = np.argsort(ones)  # level of each ones-count
    t = np.zeros((n + 1, n + 1))
    for first, stop in ((n - k + 1, n), (0, n - k + 1)):  # the gap's parents, then the rest
        for a in range(first, stop, row_block(n)):  # blocks of ascending ones-counts
            levels = level[a : min(a + row_block(n), stop)]
            block = mutation_class_row(n, p, a, lowest[levels + 1], count=len(levels))
            for i, row in zip(levels.tolist(), block):
                # fitness values are distinct, so exactly the higher levels are accepted
                t[i, i + 1 :] = row[ones[i + 1 :]]
                t[i, i] = max(0.0, 1.0 - t[i, i + 1 :].sum())
    t[n, n] = 1.0  # the optimum (n ones) is the top level
    t.flags.writeable = False  # handed over to the chain, not copied
    return LevelChain(t, _resolve_start(start, n)[ones], labels=tuple(order))


def onemax_level_matrix(n: int, p: float, start: Union[str, int, np.ndarray] = "random") -> LevelChain:
    """Exact level chain of the elitist process on OneMax (level = ones-count):
    Jump_1 is OneMax shifted by one, so this is the jump chain with k = 1."""
    return jump_level_matrix(n, 1, p, start)


def longpath_level_matrix(path, p: float, start: int = 0) -> LevelChain:
    """Exact chain over long k-path positions.

    With an on-path start the parent never leaves the path, so the path
    index is a full Markov state; the transition mass to a point d bits away
    is p^d (1-p)^(n-d).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {p}")
    m = len(path.points)
    if not 0 <= int(start) <= m - 1:
        raise ValueError(f"start position must be in [0, {m - 1}], got {start}")
    _check_dense_bytes(LONGPATH_DENSE_ARRAYS * 8 * m * m, f"long k-path chain over {m} positions")
    pts = np.array(path.points, dtype=float)
    ones = pts.sum(axis=1)
    t = np.empty((m, m))
    step = max(1, BLOCK_ENTRIES // m)
    for r in range(0, m, step):
        # Hamming distances of 0/1 points; every value is an integer, so exact
        dist = ones[r : r + step, None] + ones[None, :] - 2.0 * (pts[r : r + step] @ pts.T)
        t[r : r + step] = np.triu(np.exp(dist * math.log(p) + (path.n - dist) * math.log1p(-p)), 1 + r)
    diag = 1.0 - t.sum(axis=1)
    np.fill_diagonal(t, np.maximum(diag, 0.0))
    t.flags.writeable = False  # handed over to the chain, not copied
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
    v[..., i] += sum_{j<i} v[..., j] T[j][i] / (1 - T[j][j]), each level
    passing its share on once its own v is complete."""
    p = chain.leave_probs
    for j in np.flatnonzero(p > 0.0):  # a level that is never left passes nothing on
        v[..., j + 1 :] += v[..., j, None] * (chain.transition[j, j + 1 :] / p[j])
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
    E_i = inf exactly where p_i = 0 (an unreachable absorbing interior level)
    or level i moves with positive probability to a level with E_l = inf.
    """
    t = chain.transition
    p = chain.leave_probs
    m = chain.m_levels
    times = np.zeros(m)
    finite = True  # every E_l above the current level is finite
    for i in range(m - 2, -1, -1):
        row, later = t[i, i + 1 :], times[i + 1 :]
        if not finite:  # 0 * inf is nan: drop the infinite levels level i cannot move to
            keep = (row > 0.0) | np.isfinite(later)
            row, later = row[keep], later[keep]
        times[i] = math.inf if p[i] <= 0.0 else (1.0 + row @ later) / p[i]
        finite = finite and times[i] < math.inf
    mass = chain.start > 0.0
    expected = float(chain.start[mass] @ times[mass])
    if expected == math.inf:  # only then can a run reach an absorbing interior level
        visit_probabilities(chain)  # raises if one is reachable
    return expected, times


def skip_probability(chain: LevelChain, lo: int, hi: int) -> float:
    """Probability that no level in the contiguous range [lo, hi] is visited.

    Sums, over levels below the range, the visit probability times the
    conditional chance of jumping clear over the range, plus the start mass
    strictly above the range.
    """
    m = chain.m_levels
    if not 0 <= lo <= hi < m:
        raise ValueError(f"level range [{lo}, {hi}] out of bounds for {m} levels")
    v = visit_probabilities(chain)[:lo]
    seen = v > 0.0
    clear = chain.transition[:lo, hi + 1 :][seen].sum(axis=1) / chain.leave_probs[:lo][seen]
    total = float(chain.start[hi + 1 :].sum() + v[seen] @ clear)
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
    t.flags.writeable = False  # handed over to the chain, not copied
    start = np.concatenate([chain.start[:top], [chain.start[top:].sum()]])
    labels = None if chain.labels is None else tuple(chain.labels[:top]) + (chain.labels[top:],)
    return LevelChain(t, start, labels=labels)


def summarize(chain: LevelChain) -> ChainSummary:
    """Exact p_i, v_i and expected runtime of a chain in one bundle."""
    v = visit_probabilities(chain)  # raises on reachable absorbing interior levels
    expected, _ = expected_hitting_time(chain)
    return ChainSummary(leave_probs=chain.leave_probs[:-1], visit_probs=v, expected_time=expected)


# ---------------------------------------------------------------------------
# brute-force full-state oracle
# ---------------------------------------------------------------------------


def _solve_spd_in_place(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for symmetric positive definite ``a`` by a blocked,
    left-looking Cholesky ``a = L L^T`` that overwrites the lower triangle of
    ``a`` with L, CHOLESKY_BLOCK columns at a time: each block of columns takes
    the updates of the blocks left of it, its diagonal block is factored, and
    that factor's inverse is applied to the panel below it and in the forward
    and back substitutions.  Raises LinAlgError where a block is not positive
    definite."""
    cuts = [*range(0, len(a), CHOLESKY_BLOCK), len(a)]
    blocks = list(zip(cuts, cuts[1:]))
    inverses = []
    for s, e in blocks:
        a[s:, s:e] -= a[s:, :s] @ a[s:e, :s].T
        a[s:e, s:e] = np.linalg.cholesky(a[s:e, s:e])
        inverses.append(np.linalg.inv(a[s:e, s:e]))
        a[e:, s:e] = a[e:, s:e] @ inverses[-1].T
    x = np.array(b, dtype=float)
    for (s, e), inverse in zip(blocks, inverses):  # L y = b
        x[s:e] = inverse @ (x[s:e] - a[s:e, :s] @ x[:s])
    for (s, e), inverse in zip(blocks[::-1], inverses[::-1]):  # L^T x = y
        x[s:e] = inverse.T @ (x[s:e] - a[e:, s:e].T @ x[e:])
    return x


def full_state_expected_time(
    benchmark,
    p: float,
    start: Union[str, int, np.ndarray] = "random",
) -> ChainSummary:
    """Solve the full 2^n-state chain of the (1+1) EA one fitness class at a time.

    Elitist selection never accepts a worse offspring, so ``I - Q`` is block
    triangular by fitness, and one forward pass over the classes of equal
    fitness gives ``g_s``, the expected iterations spent in each non-optimal
    state s (Kemeny & Snell): class c solves ``(I - T_cc)^T g_c = inflow_c``,
    its start mass plus the expected moves into it from lower classes.  Only
    the rows of one class are built; a class nothing enters keeps g = 0.
    ``I - T_cc`` is symmetric, since a move within a class is always accepted
    and its mass depends only on the Hamming distance, and positive definite,
    since every row is strictly diagonally dominant: each non-optimal state
    sends ``p^d (1-p)^(n-d) > 0`` to the optimum.  So each class is solved by a
    Cholesky factorization in place, with no copy of the matrix; a class the
    run cannot leave at this rate in doubles raises ValueError.
    Every output is a sum of g: ``E[T] = sum_s g_s``; ``v_L`` is the start
    mass of level L plus the moves into L from lower levels; ``p_L = v_L /
    sum_{s in L} g_s`` below the top is the leave rate a run shows at L (0 for
    a level no run enters).  ``start`` is "random" (uniform), an integer
    level (uniform over its states) or an explicit bit string.
    """
    n = benchmark.n
    if n > FULL_STATE_MAX_N:
        raise ValueError(f"full-state oracle capped at n <= {FULL_STATE_MAX_N}, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {p}")
    size = 2**n
    # state s is the bit string packed into s (bit i is position i)
    states = np.arange(size, dtype=np.uint64)[:, None]
    fitness = benchmark.fitness(states)
    optimal = benchmark.is_optimum(fitness)
    levels = benchmark.level(fitness)
    classes, counts = np.unique(fitness[~optimal], return_counts=True)
    need = FULL_STATE_CLASS_ARRAYS * 8 * int(counts.max(initial=0)) ** 2  # the largest class's arrays
    _check_dense_bytes(need, f"full-state oracle at n={n}")

    if isinstance(start, str):
        if start != "random":
            raise ValueError(f"unknown start mode {start!r}")
        inflow = np.full(size, 1.0 / size)
    elif isinstance(start, (int, np.integer)):
        at_level = levels == int(start)
        if not np.any(at_level):
            raise ValueError(f"no state has level {start}")
        inflow = at_level / at_level.sum()
    else:
        inflow = np.zeros(size)
        inflow[int(pack_words(start)[0, 0])] = 1.0  # the string's one word is its state

    top = int(levels.max())
    visit = np.bincount(levels, weights=inflow, minlength=top + 1)
    g = np.zeros(size)  # expected number of iterations spent in each state
    codes = np.arange(size, dtype=np.uint32)
    flips = np.arange(n + 1)
    mass = np.exp(flips * math.log(p) + (n - flips) * math.log1p(-p))  # one flip pattern per Hamming distance
    for value in classes:
        in_class = (fitness == value) & ~optimal
        members = np.flatnonzero(in_class)
        if not np.any(inflow[members]):
            continue
        higher = np.flatnonzero((fitness >= value) & ~in_class)  # accepted moves out of the class
        # the class's Hamming distances to its higher states, kept as bytes, and
        # its own rows of T, filled a block of rows at a time; no transition
        # mass to the higher states is held beyond one block
        c, h = len(members), len(higher)
        dist = np.empty((c, h), dtype=np.uint8)
        a = np.empty((c, c))
        leave = np.empty(c)  # accepted mass of leaving each state
        step = max(1, BLOCK_ENTRIES // max(c, h))
        # every distance indexes `mass`, so mode="clip" only skips the bounds
        # check; take runs about twice as fast as fancy indexing here
        for r in range(0, c, step):
            rows = codes[members[r : r + step], None]
            np.bitwise_count(rows ^ codes[higher], out=dist[r : r + step])
            leave[r : r + step] = mass.take(dist[r : r + step], mode="clip").sum(axis=1)
            mass.take(np.bitwise_count(rows ^ codes[members]), out=a[r : r + step], mode="clip")
        diag = np.diag_indices_from(a)
        a[diag] = 0.0
        leave += a.sum(axis=1)
        np.negative(a, out=a)
        a[diag] = leave  # a = I - T_cc
        try:  # masses so small that a class cannot be left in doubles give inf, NaN or no factor
            with np.errstate(all="ignore"):
                g[members] = _solve_spd_in_place(a, inflow[members])
        except np.linalg.LinAlgError:
            g[members] = np.nan
        del a
        if not np.all(np.isfinite(g[members])):
            raise ValueError(f"absorbing non-top fitness class reachable: {value}, "
                             f"which a run cannot leave at p = {p}")
        # g_c times the class's rows of T, by blocks of columns: a multiple of 8
        # wide, the last one taking the rest, so that OpenBLAS's gemv sums each
        # entry as it does in one product over all columns (it sums a tail of
        # fewer than 4 columns in another order)
        flow = np.empty(h)
        step = max(8, BLOCK_ENTRIES // c // 8 * 8)
        cuts = [0, *range(step, h - step, step), h]
        for s, e in zip(cuts, cuts[1:]):
            flow[s:e] = g[members] @ mass.take(dist[:, s:e], mode="clip")
        del dist
        inflow[higher] += flow
        up = levels[higher] > levels[members[0]]  # a class lies within one level
        visit += np.bincount(levels[higher[up]], weights=flow[up], minlength=top + 1)

    dwell = np.bincount(levels, weights=g, minlength=top + 1)[:top]
    leave_probs = np.divide(visit[:top], dwell, out=np.zeros(top), where=dwell > 0.0)
    return ChainSummary(leave_probs=leave_probs, visit_probs=visit, expected_time=float(g.sum()))
