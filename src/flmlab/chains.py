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
from numpy.lib.stride_tricks import sliding_window_view

from .benchmarks import jump_fitness_of_ones, log_binom, log_factorials, pack_words

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
# float64 arrays of (largest class) x 2^n entries alive at once at peak; peak RSS
# growth measured 1.1 (OneMax) to 2.1 (long k-path) of them at n = 11..14
FULL_STATE_BLOCK_ROWS = 3
# float64 m x m arrays of a long k-path chain alive at once at peak, measured
# with tracemalloc at 3.0-3.1 (the distance and mass temporaries), plus one
LONGPATH_DENSE_ARRAYS = 4
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


# A dropped term lies more than BAND_NATS below its destination's peak, a
# weight below e^-40 (4.2e-18) of it, or below TERM_FLOOR, where that peak is
# under -745.14 (so the entry is exactly 0) if the term is not that far below it.
BAND_NATS = 40.0
TERM_FLOOR = -(745.2 + BAND_NATS)


def mutation_class_row(n: int, p: float, k: int, lowest: int = 0, *,
                       log_fact: Optional[np.ndarray] = None) -> np.ndarray:
    """Distribution of the offspring ones-count under standard bit mutation
    of a parent with ``k`` ones, as a length-(n+1) vector.  Only the entries
    for ones-counts ``>= lowest`` are computed; those below are left at 0,
    so ``lowest=0`` gives the whole row.  ``log_fact`` is a
    ``log_factorials(n)`` table, which the rows of one chain share.

    Moving from k to l = k + e ones flips d one-bits down and d + e zero-bits
    up; the log-terms, grouped by destination, are concave in d.  The ridge
    (term ratio 1) solves (r^2-1) d^2 - (r^2 (k+m) + e + 2) d + (r^2 k m - e - 1)
    = 0, r = p/(1-p), m = n-k-e, and the curvature there sets a half-width h.
    The row sums the band of down-counts from h below its lowest ridge to h
    above its highest, inside the rectangle of terms above ``TERM_FLOOR``.  The
    band is checked at its edges: while an edge term lies within ``BAND_NATS``
    of its column's ridge term, that edge moves out by h, so by concavity every
    dropped term lies more than ``BAND_NATS`` below its peak.  Each column is
    shifted by its peak, exponentiated and summed in increasing down-count
    order, as the full sum, and matches it within 1e-14 relative.
    """
    if not 0 <= k <= n:
        raise ValueError(f"ones-count must be in [0, {n}], got {k}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {p}")
    lf = log_factorials(n) if log_fact is None else log_fact
    log_odds = math.log(p) - math.log1p(-p)
    log_up = (lf[n - k] - lf[: n - k + 1] - lf[n - k :: -1]) + np.arange(n - k + 1) * log_odds
    log_down = (lf[k] - lf[: k + 1] - lf[k::-1]) + np.arange(k + 1) * log_odds
    base = n * math.log1p(-p)
    u = np.flatnonzero(log_up >= TERM_FLOOR - (log_down.max() + base))
    d = np.flatnonzero(log_down >= TERM_FLOOR - (log_up.max() + base))
    u0, u1, d0, d1 = u[0], u[-1], d[0], d[-1]
    e0, e1 = max(lowest - k, u0 - d1), u1 - d0  # net gains l - k of the computed columns
    row = np.zeros(n + 1)
    if e0 > e1:
        return row
    d1 = min(d1, u1 - e0)  # a higher down-count reaches no computed column
    cols = np.arange(e1 - e0 + 1)
    e = cols + float(e0)
    # the ridge equation as a d^2 - b d + c = 0, rewritten for m = n - k - e; b + root > 0
    r2 = math.exp(2.0 * log_odds)
    a, b, c = r2 - 1.0, (1.0 - r2) * e + (r2 * n + 2.0), (r2 * k * (n - k) - 1.0) - (r2 * k + 1.0) * e
    ridge = 2.0 * c / (b + np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)))
    ridge = np.minimum(np.maximum(ridge, np.maximum(d0, u0 - e)), np.minimum(d1, u1 - e))
    # minus the log-term's second derivative in d there, with trigamma(x + 1) ~ 1/(x + 1/2)
    x, y = ridge + 0.5, ridge + e + 0.5
    curvature = (k + 1) / ((k + 1 - x) * x) + (n - k + 1) / ((n - k + 1 - y) * y)
    h = int(math.sqrt(2.0 * BAND_NATS / curvature.min())) + 1
    # t[i, j] = (log_down[d] + log_up[d + e]) + base, the full sum's order, at
    # d = d0 + lo + i and e = e0 + j, with log_up -inf off the rectangle
    j0 = d0 + e0
    lu = np.full(d1 + e1 + 1 - j0, -np.inf)
    first = max(u0, j0)  # the window ends at d1 + e1 >= u1
    lu[first - j0 : u1 - j0 + 1] = log_up[first : u1 + 1]
    ld, last = log_down[d0 : d1 + 1], d1 - d0
    center = np.ceil(ridge).astype(np.intp) - d0
    top = ld[center] + lu[center + cols] - BAND_NATS
    lo, hi = max(center.min() - h, 0), min(center.max() + h, last)
    while lo > 0 and not np.all(ld[lo] + lu[lo + cols] < top):
        lo = max(lo - h, 0)
    while hi < last and not np.all(ld[hi] + lu[hi + cols] < top):
        hi = min(hi + h, last)
    t = ld[lo : hi + 1, None] + sliding_window_view(lu[lo:], len(cols))[: hi + 1 - lo] + base
    peak = t.max(axis=0)
    t -= peak
    np.exp(t, out=t)
    # numpy adds the rows of a wider array one after another: each column is
    # summed in increasing down-count, so increasing up-count, as the full sum
    row[k + e0 : k + e1 + 1] = np.exp(peak) * t.sum(axis=0)
    return row


def _binomial_start(n: int) -> np.ndarray:
    start = np.exp(log_binom(n, np.arange(n + 1)) - n * math.log(2.0))
    return start / start.sum()


def _resolve_start(start: Union[str, int, np.ndarray], n: int) -> np.ndarray:
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
    lf = log_factorials(n)
    t = np.zeros((n + 1, n + 1))
    for i, a in enumerate(order[:-1]):
        # fitness values are distinct, so exactly the higher levels are accepted
        t[i, i + 1 :] = mutation_class_row(n, p, a, lowest[i + 1], log_fact=lf)[ones[i + 1 :]]
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
    # Hamming distances of 0/1 points; every value is an integer, so exact
    dist = ones[:, None] + ones[None, :] - 2.0 * (pts @ pts.T)
    mass = np.exp(dist * math.log(p) + (path.n - dist) * math.log1p(-p))
    del dist
    t = np.triu(mass, k=1)
    del mass
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
    need = FULL_STATE_BLOCK_ROWS * 8 * int(counts.max(initial=0)) * size  # the largest class's block
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
        out = mass[np.bitwise_count(codes[members, None] ^ codes[higher])]
        a = mass[np.bitwise_count(codes[members, None] ^ codes[members])]
        diag = np.diag_indices_from(a)
        a[diag] = 0.0
        leave = a.sum(axis=1) + out.sum(axis=1)  # accepted mass of leaving each state
        np.negative(a, out=a)
        a[diag] = leave  # a = I - T_cc
        g[members] = np.linalg.solve(a.T, inflow[members])
        del a
        flow = g[members] @ out
        inflow[higher] += flow
        up = levels[higher] > levels[members[0]]  # a class lies within one level
        visit += np.bincount(levels[higher[up]], weights=flow[up], minlength=top + 1)

    dwell = np.bincount(levels, weights=g, minlength=top + 1)[:top]
    leave_probs = np.divide(visit[:top], dwell, out=np.zeros(top), where=dwell > 0.0)
    return ChainSummary(leave_probs=leave_probs, visit_probs=visit, expected_time=float(g.sum()))
