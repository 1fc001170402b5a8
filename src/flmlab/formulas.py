"""Explicit per-benchmark runtime formulas.

Exact LeadingOnes expected runtime, the OneMax fitness-level sandwich at
mutation rate 1/n (harmonic-sum bounds around the exact sum of reciprocal
leaving probabilities), jump-function lower bounds built from explicit
skip-probability estimates, and the long k-path lower bound together with
the unproven reference variant.

Lower bounds whose correction term exceeds the main sum are clamped to 0
(a vacuous but sound value) and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .benchmarks import log_factorials, long_k_path_length
from .chains import ROW_BLOCK, mutation_class_row

__all__ = [
    "OneMaxBounds",
    "JumpBounds",
    "e_n_factor",
    "leadingones_exact",
    "leadingones_leave_probs",
    "onemax_skip_bound",
    "onemax_leave_probs",
    "onemax_bounds",
    "jump_bounds",
    "jump_bounds_stated",
    "longpath_leave_prob",
    "longpath_leave_prob_bound",
    "longpath_visit_lower",
    "longpath_level_visit_lower",
    "longpath_lower_bound",
    "sudholt_reference_bound",
]


def _finite(value: float, quantity: str) -> float:
    """``value``, or one error naming the quantity that overflows a double."""
    if not math.isfinite(value):
        raise ValueError(f"{quantity} overflows a double")
    return value


def e_n_factor(n: int) -> float:
    """The reciprocal one-bit-survival factor (1 - 1/n)^-(n-1).

    Equals 1 at n = 1 (0^0 convention) and lies in [e(1-1/n), e] for n >= 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1.0
    return math.exp(-(n - 1) * math.log1p(-1.0 / n))


def leadingones_exact(n: int, p: float) -> float:
    """Exact expected runtime on LeadingOnes with mutation rate p:
    half the sum of 1 / ((1-p)^i p) over i < n, evaluated via the
    geometric series in expm1 form for precision."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {p}")
    # 0.5 * (1/p) * (r^n - 1)/(r - 1) with r = 1/(1-p)
    try:
        value = 0.5 * math.expm1(-n * math.log1p(-p)) * (1.0 - p) / (p * p)
    except OverflowError:
        value = math.inf
    return _finite(value, f"LeadingOnes expected runtime at n={n}, p={p!r}")


def leadingones_leave_probs(n: int, p: float) -> np.ndarray:
    """Exact per-level leaving probabilities p (1-p)^i on LeadingOnes; they
    do not depend on where in the level the parent sits."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {p}")
    return p * (1.0 - p) ** np.arange(n, dtype=float)


def onemax_skip_bound(n: int, i: int) -> float:
    """Upper bound (n-i) / (n (1-1/n)^(i-1)) on the probability that a run
    started below fitness i never has a parent of fitness exactly i."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 1 <= i <= n:
        raise ValueError(f"level must be in [1, {n}], got {i}")
    bound = (n - i) / n * math.exp(-(i - 1) * math.log1p(-1.0 / n))
    return min(1.0, max(0.0, bound))


def onemax_leave_probs(n: int, p: float) -> np.ndarray:
    """Exact OneMax level leaving probabilities p_i = p_{i, >= i+1} for
    i in [0, n-1], from the ones-count mutation masses."""
    lf = log_factorials(n)
    probs = np.empty(n)
    for a in range(0, n, ROW_BLOCK):
        count = min(ROW_BLOCK, n - a)
        block = mutation_class_row(n, p, a, np.arange(a + 1, a + count + 1), log_fact=lf, count=count)
        for i, row in enumerate(block, a):
            probs[i] = row[i + 1 :].sum()
        del block, row  # freed before the next block is built
    return probs


@dataclass
class OneMaxBounds:
    """The OneMax fitness-level sandwich for the passage from fitness k to
    fitness at least l at mutation rate 1/n."""

    n: int
    k: int
    l: int
    tilde_t: float  # exact sum of 1/p_i over levels k..l-1
    tilde_t_plus: float  # harmonic-sum upper estimate of tilde_t
    tilde_t_minus: float  # tilde_t_plus minus the quadratic-term slack
    thm_lower: float  # visit-probability lower bound on the true passage time
    e_n: float
    clamped: bool = False  # thm_lower correction exceeded tilde_t


def onemax_bounds(n: int, k: int, l: int) -> OneMaxBounds:
    """Compute the four fitness-level estimates for OneMax at rate 1/n.

    tilde_t sums exact reciprocal leaving probabilities; tilde_t_plus is
    e_n * n * sum of 1/i over i in [n-l+1, n-k]; tilde_t_minus subtracts
    e_n^2 (l-k)/2; thm_lower subtracts the explicit skip-probability
    correction (l-k-1) e (e-1) exp(k/(n-1)) from tilde_t.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= k < l <= n:
        raise ValueError(f"need 0 <= k < l <= n, got k={k}, l={l}, n={n}")
    leave = onemax_leave_probs(n, 1.0 / n)
    tilde_t = bounds.flm_upper_classic(leave[k:l]).value
    e_n = e_n_factor(n)
    harmonic = float(np.sum(1.0 / np.arange(n - l + 1, n - k + 1, dtype=float)))
    tilde_t_plus = e_n * n * harmonic
    tilde_t_minus = tilde_t_plus - 0.5 * e_n * e_n * (l - k)
    correction = (l - k - 1) * math.e * (math.e - 1.0) * math.exp(k / (n - 1))
    thm_lower = tilde_t - correction
    clamped = thm_lower < 0.0
    return OneMaxBounds(
        n=n,
        k=k,
        l=l,
        tilde_t=tilde_t,
        tilde_t_plus=tilde_t_plus,
        tilde_t_minus=tilde_t_minus,
        thm_lower=max(0.0, thm_lower),
        e_n=e_n,
        clamped=clamped,
    )


@dataclass
class JumpBounds:
    """Jump-function quantities: the valley-crossing probability p_k, the
    explicit bounds on the probability of never reaching the non-gap region,
    and the resulting runtime lower bound for the requested initialization."""

    n: int
    k: int
    init: str
    p_k: float
    skip_bound_arbitrary: float
    skip_bound_random: float
    lower_bound: float


def jump_bounds_stated(n: int, k: int) -> bool:
    """Whether :func:`jump_bounds` states a bound for (n, k) at rate 1/n."""
    return n >= 4 and 2 <= k <= n


def jump_bounds(n: int, k: int, init: str = "random") -> JumpBounds:
    """Runtime lower bound (1 - skip) / p_k for jump functions at rate 1/n.

    p_k = (1-1/n)^(n-k) n^-k is the probability of jumping the valley from
    the local optimum.  The arbitrary-initialization skip bound sums the
    explicit per-gap-level terms e / (n^(j-1) (n-j)); the random-
    initialization bound is the explicit chain 6e 2^-n + 2e n^(-ceil(n/4)+1)
    + 2^-n (constants not optimized).
    """
    if not jump_bounds_stated(n, k):
        raise ValueError("n must be >= 4" if n < 4 else f"jump size must be in [2, {n}], got {k}")
    if init not in ("arbitrary", "random"):
        raise ValueError(f"init must be 'arbitrary' or 'random', got {init!r}")

    log_n = math.log(n)
    p_k = math.exp((n - k) * math.log1p(-1.0 / n) - k * log_n)
    skip_arbitrary = min(
        1.0,
        math.fsum(math.exp(1.0 - (j - 1) * log_n - math.log(n - j)) for j in range(1, k)),
    )
    skip_random = min(
        1.0,
        6.0 * math.e * math.exp(-n * math.log(2.0))
        + 2.0 * math.e * math.exp((-math.ceil(n / 4) + 1) * log_n)
        + math.exp(-n * math.log(2.0)),
    )
    skip = skip_arbitrary if init == "arbitrary" else skip_random
    return JumpBounds(
        n=n,
        k=k,
        init=init,
        p_k=p_k,
        skip_bound_arbitrary=skip_arbitrary,
        skip_bound_random=skip_random,
        lower_bound=max(0.0, (1.0 - skip) / p_k),
    )


def _check_longpath_params(n: int, k: int, p: float) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n % k != 0:
        raise ValueError(f"k must divide n, got n={n}, k={k}")
    if not 0.0 < p <= 0.5:
        raise ValueError(f"mutation rate must be in (0, 1/2], got {p}")


def longpath_leave_prob(n: int, k: int, p: float) -> float:
    """Probability of leaving a path level by an exact j-bit jump for some
    j < k: sum of p^j (1-p)^(n-j)."""
    _check_longpath_params(n, k, p)
    return math.fsum(p**j * (1.0 - p) ** (n - j) for j in range(1, k))


def longpath_leave_prob_bound(n: int, p: float) -> float:
    """Geometric-series upper bound p (1-p)^n / (1-2p) on the level leaving
    probability (infinite at p = 1/2)."""
    if not 0.0 < p <= 0.5:
        raise ValueError(f"mutation rate must be in (0, 1/2], got {p}")
    if p == 0.5:
        return math.inf
    return p * (1.0 - p) ** n / (1.0 - 2.0 * p)


def longpath_visit_lower(p: float) -> float:
    """Lower bound (1-2p) / (1-p) on the probability of visiting any given
    path level when jumps of k or more bits are discarded."""
    if not 0.0 < p <= 0.5:
        raise ValueError(f"mutation rate must be in (0, 1/2], got {p}")
    return (1.0 - 2.0 * p) / (1.0 - p)


def longpath_level_visit_lower(n: int, k: int, p: float) -> float:
    """Lower bound on the probability of visiting any given interior path
    level from the all-zero start with all jumps allowed: the (1-2p)/(1-p)
    of :func:`longpath_visit_lower` times the no-shortcut factor
    (1 - m (p/(1-p))^(k-1))^m of :func:`longpath_lower_bound`, clamped at 0."""
    _check_longpath_params(n, k, p)
    m = _positive_points(n, k)
    return longpath_visit_lower(p) * max(0.0, 1.0 - m * (p / (1.0 - p)) ** (k - 1)) ** m


def _positive_points(n: int, k: int) -> float:
    """m = k 2^(n/k) - k, the path points of positive fitness, as a float."""
    try:
        return float(long_k_path_length(n, k) - 1)
    except OverflowError:
        raise ValueError(f"long k-path length k*2^(n/k) at n={n}, k={k} overflows a double") from None


def _longpath_bound(n: int, k: int, p: float, survival_base: float) -> float:
    m = _positive_points(n, k)
    base = max(0.0, survival_base)
    if base == 0.0 or p == 0.5:
        return 0.0
    try:
        waiting = m * (1.0 - 2.0 * p) / (p * (1.0 - p) ** n)
    except ZeroDivisionError:  # (1 - p)^n underflows
        waiting = math.inf
    visit = (1.0 - 2.0 * p) / (1.0 - p)
    return _finite(waiting * visit * base**m, f"long k-path bound at n={n}, k={k}, p={p!r}")


def longpath_lower_bound(n: int, k: int, p: float) -> float:
    """Runtime lower bound for a long k-path started at the all-zero string:
    m (1-2p)/(p(1-p)^n) (1-2p)/(1-p) (1 - m (p/(1-p))^(k-1))^m, clamped at 0
    when the no-shortcut factor goes negative."""
    _check_longpath_params(n, k, p)
    m = _positive_points(n, k)
    return _longpath_bound(n, k, p, 1.0 - m * (p / (1.0 - p)) ** (k - 1))


def sudholt_reference_bound(n: int, k: int, p: float) -> float:
    """Reference bound with (p/(1-p))^k and no leading m inside the last
    factor.  No proof of this variant is currently known; emitted for
    comparison only, never as a proven bound."""
    _check_longpath_params(n, k, p)
    return _longpath_bound(n, k, p, 1.0 - (p / (1.0 - p)) ** k)
