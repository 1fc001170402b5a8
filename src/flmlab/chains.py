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
# entries of the float64 or uint32 temporaries built at once by the full-state
# oracle and the long k-path chain
BLOCK_ENTRIES = 2**16
# float64 (largest class)^2 arrays alive at once at peak: I - T_cc, the copy
# LAPACK's solve takes of it (RSS sees it, tracemalloc does not), and room for
# one block and the class's uint8 distances to its higher states, which take
# under 8 bytes per member pair while the class holds 2^n / 8 states or more,
# as the largest class of OneMax, LeadingOnes and jump does at n <= 14; RSS
# growth measured 2.2 (n = 14) to 2.8 (n = 13) of them
FULL_STATE_CLASS_ARRAYS = 3
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


# A dropped term lies more than BAND_NATS below its destination's peak, a
# weight below e^-40 (4.2e-18) of it, or below TERM_FLOOR, where that peak is
# under -745.14 (so the entry is exactly 0) if the term is not that far below it.
BAND_NATS = 40.0
TERM_FLOOR = -(745.2 + BAND_NATS)
# parents per kernel call in the chain builders: the OneMax n = 1000 build
# peaks at 9.3 MiB with blocks of 32 (14.0 MiB with 128; the matrix is 7.6 MiB)
ROW_BLOCK = 32
SUM_TERMS = 2**16  # log-terms exponentiated at once


def _log_binomial_window(lf: np.ndarray, m: np.ndarray, mode: np.ndarray, log_odds: float,
                         width: int) -> tuple[np.ndarray, np.ndarray]:
    """Start a of a window of ``width`` indices j around each row's mode, and
    log C(m, j) + j log_odds over it, -inf past m."""
    a = np.clip(mode - width // 2, 0, np.maximum(m + 1 - width, 0))
    j = a[:, None] + np.arange(width)
    jj = np.minimum(j, m[:, None])
    terms = (lf[m][:, None] - lf[jj] - lf[m[:, None] - jj]) + jj * log_odds
    terms[j > m[:, None]] = -np.inf
    return a, terms


def _terms_at(window: tuple[np.ndarray, np.ndarray], first: np.ndarray, last: np.ndarray,
              j: np.ndarray) -> np.ndarray:
    """Each row's window read at the indices j[i], -inf outside [first_i, last_i]."""
    a, terms = window
    got = np.take_along_axis(terms, np.clip(j - a[:, None], 0, terms.shape[1] - 1), axis=1)
    return np.where((first[:, None] <= j) & (j <= last[:, None]), got, -np.inf)


def mutation_class_row(n: int, p: float, k: int, lowest: Union[int, np.ndarray] = 0, *,
                       log_fact: Optional[np.ndarray] = None, count: Optional[int] = None) -> np.ndarray:
    """Distribution of the offspring ones-count under standard bit mutation
    of a parent with ``k`` ones, as a length-(n+1) vector; with ``count=c``,
    the ``(c, n+1)`` rows of the parents k .. k+c-1, one kernel call for the
    block.  Only the entries for ones-counts ``>= lowest`` (a scalar, or one
    value per row) are computed; those below are left at 0, so ``lowest=0``
    gives the whole row.  ``log_fact`` is a ``log_factorials(n)`` table, which
    the rows of one chain share.

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
    order, as the full sum, and matches it within 1e-14 relative.  The up-
    and down-flip log-terms are computed in a window around their mode, 64
    wide and doubled until its edges lie below the floor, so a row costs its
    rectangle, not O(n); each entry is the same double in any block.
    """
    c = 1 if count is None else count
    if not 0 <= k <= n or not 1 <= c <= n + 1 - k:
        raise ValueError(f"ones-count must be in [0, {n}], got {k if c == 1 else f'{k}..{k + c - 1}'}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {p}")
    lf = log_factorials(n) if log_fact is None else log_fact
    log_odds = math.log(p) - math.log1p(-p)
    base = n * math.log1p(-p)
    ks = np.arange(k, k + c)
    m = np.concatenate([n - ks, ks])  # zero-bits that can flip up, then one-bits that can flip down
    width = 64
    while True:
        a, w = _log_binomial_window(lf, m, ((m + 1) * p).astype(np.intp), log_odds, width)
        floor = TERM_FLOOR - (np.roll(w.max(axis=1), c) + base)  # set by the other side's peak
        if np.all(((a == 0) | (w[:, 0] < floor)) & ((a + width > m) | (w[:, -1] < floor))):
            break
        width = min(2 * width, n + 1)  # n + 1 covers every row
    # the first and last index of each window at or above its floor
    above = w >= floor[:, None]
    first, last = a + np.argmax(above, axis=1), a + width - 1 - np.argmax(above[:, ::-1], axis=1)
    u0, d0, u1, d1 = first[:c], first[c:], last[:c], last[c:]
    e0, e1 = np.maximum(np.asarray(lowest) - ks, u0 - d1), u1 - d0  # net gains l - k of the computed columns
    rows = np.zeros((c, n + 1))
    live = np.flatnonzero(e0 <= e1)
    if live.size:
        ks, u0, u1, d0, d1, e0, e1 = (x[live] for x in (ks, u0, u1, d0, d1, e0, e1))
        up, down = (a[:c][live], w[:c][live]), (a[c:][live], w[c:][live])
        d1 = np.minimum(d1, u1 - e0)  # a higher down-count reaches no computed column
        ncols = e1 - e0 + 1
        gain = e0[:, None] + np.minimum(np.arange(ncols.max()), ncols[:, None] - 1)  # a short row repeats its last
        e, kk = gain.astype(float), ks[:, None]
        # the ridge equation as a d^2 - b d + c = 0, rewritten for m = n - k - e; b + root > 0
        r2 = math.exp(2.0 * log_odds)
        qa, qb, qc = r2 - 1.0, (1.0 - r2) * e + (r2 * n + 2.0), (r2 * kk * (n - kk) - 1.0) - (r2 * kk + 1.0) * e
        ridge = 2.0 * qc / (qb + np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)))
        ridge = np.minimum(np.maximum(ridge, np.maximum(d0[:, None], u0[:, None] - e)), np.minimum(d1[:, None], u1[:, None] - e))
        # minus the log-term's second derivative in d there, with trigamma(x + 1) ~ 1/(x + 1/2)
        x, y = ridge + 0.5, ridge + e + 0.5
        curvature = (kk + 1) / ((kk + 1 - x) * x) + (n - kk + 1) / ((n - kk + 1 - y) * y)
        h = np.sqrt(2.0 * BAND_NATS / curvature.min(axis=1)).astype(np.intp) + 1

        def term(d):  # log_down[d] + log_up[d + e], the full sum's order
            return _terms_at(down, d0, d1, d) + _terms_at(up, u0, u1, d + gain)

        center = np.ceil(ridge).astype(np.intp)
        top = term(center) - BAND_NATS
        lo, hi = np.maximum(center.min(axis=1) - h, d0), np.minimum(center.max(axis=1) + h, d1)
        while np.any(move := (lo > d0) & ~np.all(term(lo[:, None]) < top, axis=1)):
            lo = np.where(move, np.maximum(lo - h, d0), lo)
        while np.any(move := (hi < d1) & ~np.all(term(hi[:, None]) < top, axis=1)):
            hi = np.where(move, np.minimum(hi + h, d1), hi)
        # t[i, j, col] = (log_down[d] + log_up[d + e]) + base at d = lo + j and
        # e = e0 + col, with -inf off the band and the rectangle
        span, wide = int((hi - lo).max()) + 1, int(ncols.max())
        ld = _terms_at(down, d0, hi, lo[:, None] + np.arange(span))
        lu = _terms_at(up, u0, u1, lo[:, None] + e0[:, None] + np.arange(span + wide - 1))
        sums = np.empty((live.size, wide))
        step = max(1, SUM_TERMS // (span * wide))
        buf = np.empty(step * span * wide)  # one buffer for every chunk of the block
        for s in range(0, live.size, step):
            r = min(step, live.size - s)
            sp, wd = int((hi - lo)[s : s + r].max()) + 1, int(ncols[s : s + r].max())  # this chunk's own
            t = buf[: r * sp * wd].reshape(r, sp, wd)
            np.add(ld[s : s + r, :sp, None], sliding_window_view(lu[s : s + r, : sp + wd - 1], wd, axis=1), out=t)
            t += base
            peak = t.max(axis=1)
            peak[peak == -np.inf] = 0.0  # the padding of a short row
            t -= peak[:, None, :]
            np.exp(t, out=t)
            # numpy adds the rows of each block one after another: each column
            # is summed in increasing down-count, so increasing up-count, as the full sum
            sums[s : s + r, :wd] = np.exp(peak) * t.sum(axis=1)
        i, col = np.nonzero(np.arange(wide) < ncols[:, None])
        rows[live[i], ks[i] + e0[i] + col] = sums[i, col]
    return rows if count is not None else rows[0]


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
    level = np.argsort(ones)  # level of each ones-count
    lf = log_factorials(n)
    t = np.zeros((n + 1, n + 1))
    for first, stop in ((n - k + 1, n), (0, n - k + 1)):  # the gap's parents, then the rest
        for a in range(first, stop, ROW_BLOCK):  # blocks of ascending ones-counts
            levels = level[a : min(a + ROW_BLOCK, stop)]
            block = mutation_class_row(n, p, a, lowest[levels + 1], log_fact=lf, count=len(levels))
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
        g[members] = np.linalg.solve(a.T, inflow[members])
        del a
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
