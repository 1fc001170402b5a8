"""Fitness-level bound calculators.

Six theorem-shaped bounds on the expected hitting time of a non-decreasing
level process: the classic sum-of-reciprocals upper bound and its weak
start-level lower counterpart, the viscosity pair driven by per-pair jump
weights gamma and a global uniformity constant chi, and the visit-probability
pair sum(v_i / p_i) that is exact when fed exact inputs.

All calculators are pure functions of their vectors; the two extractors
``visit_lower_from_chain`` and ``viscosity_params_from_chain`` read their
inputs off a level chain instead.  Structural problems (wrong lengths,
non-positive rates, malformed distributions) raise ``ValueError``;
violations of a theorem's preconditions are reported by index in
``BoundResult.violated_preconditions`` and make the result unusable as a
proven bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "BoundResult",
    "flm_upper_classic",
    "flm_lower_classic",
    "flm_lower_viscosity",
    "flm_upper_viscosity",
    "flm_lower_visit",
    "flm_upper_visit",
    "visit_lower_from_chain",
    "viscosity_params_from_chain",
]

EQUALITY_TOL = 1e-9
DIST_TOL = 1e-12


@dataclass
class BoundResult:
    """A computed runtime bound with the theorem that produced it."""

    value: float
    kind: str  # "upper" or "lower"
    theorem: str
    violated_preconditions: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violated_preconditions


def _check_rates(p: np.ndarray, m: Optional[int] = None) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) < 1:
        raise ValueError("leaving probabilities must be a non-empty vector")
    if m is not None and len(p) != m - 1:
        raise ValueError(f"expected {m - 1} leaving probabilities, got {len(p)}")
    if not np.all((p > 0.0) & (p <= 1.0)):  # NaN fails too
        raise ValueError("leaving probabilities must lie in (0, 1]")
    return p


def _check_start(start: np.ndarray, m: int) -> np.ndarray:
    start = np.asarray(start, dtype=float)
    if start.shape != (m,):
        raise ValueError(f"start distribution must have length {m}")
    if not (np.all(start >= -DIST_TOL) and abs(start.sum() - 1.0) <= DIST_TOL):  # NaN fails too
        raise ValueError("start must be a probability distribution over the levels")
    return start


def _finite(total: float, p: np.ndarray) -> float:
    """A bound's sum of v_i / p_i terms, or one error: with finite, validated
    inputs only an overflow leaves it infinite (or 0 * inf, NaN)."""
    if not math.isfinite(total):
        raise ValueError(f"sum v_i/p_i overflows a double (smallest leave probability {float(p.min())!r})")
    return total


def _level_sum(p: np.ndarray, v: np.ndarray, kind: str, theorem: str) -> BoundResult:
    """sum_i v_i / p_i over the non-top levels: E[T] itself for exact p and v."""
    p = _check_rates(p)
    v = np.asarray(v, dtype=float)
    if v.shape != p.shape:
        raise ValueError(f"visit probabilities must have length {len(p)}")
    if not np.all((v >= -DIST_TOL) & (v <= 1.0 + DIST_TOL)):  # the tolerance of a start law; NaN fails
        raise ValueError("visit probabilities must lie in [0, 1]")
    with np.errstate(over="ignore"):  # reported by _finite as one error, with no warning
        total = float(np.sum(v / p))
    return BoundResult(_finite(total, p), kind, theorem)


def flm_upper_classic(p: np.ndarray) -> BoundResult:
    """Classic upper bound: every level below the top is left at most once,
    so E[T] <= sum of 1/p_i, the level sum with every v_i = 1."""
    return _level_sum(p, np.ones(np.shape(p)), "upper", "flm-upper-classic")


def flm_lower_classic(p: np.ndarray, start: np.ndarray) -> BoundResult:
    """Weak classic lower bound: at least the start level must be left, so
    E[T] >= sum_i Pr[start at i] / p_i, the level sum with v = the start law."""
    start = _check_start(start, len(np.asarray(p)) + 1)
    return _level_sum(p, start[:-1], "lower", "flm-lower-classic")


def _tails(rows: np.ndarray) -> np.ndarray:
    """tails[..., j] = sum_{l >= j} rows[..., l]: a reverse cumulative sum
    along the last axis."""
    return np.cumsum(rows[..., ::-1], axis=-1)[..., ::-1]


def _check_viscosity(
    p: np.ndarray, gamma: np.ndarray, chi: float, start: np.ndarray, direction: str
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Validate the viscosity inputs; return p, start and the preconditions
    of the ``direction`` theorem that they violate."""
    start = _check_start(start, len(np.asarray(p)) + 1)
    p = _check_rates(p)
    m = len(p) + 1
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (m, m):
        raise ValueError(f"gamma must be a {m}x{m} matrix")
    if np.any(np.abs(np.tril(gamma)) > 0.0):
        raise ValueError("gamma is defined for j > i only; lower triangle and diagonal must be 0")
    if np.any(gamma < 0.0) or np.any(gamma > 1.0 + DIST_TOL):
        raise ValueError("gamma entries must lie in [0, 1]")
    if not 0.0 <= chi <= 1.0:
        raise ValueError("chi must lie in [0, 1]")
    return p, start, _viscosity_violations(p, gamma, chi, direction)


def _viscosity_violations(
    p: np.ndarray, gamma: np.ndarray, chi: float, direction: str
) -> list[str]:
    scaled = chi * _tails(gamma)
    if direction == "lower":
        bad = np.triu(gamma < scaled - EQUALITY_TOL, 1)
    else:
        bad = np.triu(gamma > scaled + EQUALITY_TOL, 1)
    row_sums = [gamma[i, i + 1 :].sum() for i in range(len(p))]
    bad[np.diag_indices(len(p))] = np.abs(np.subtract(row_sums, 1.0)) > EQUALITY_TOL
    # row-major order lists each row's sum (its diagonal flag) before its gamma_chi entries
    violations = [
        f"gamma_row_sum[{i}]={float(row_sums[i])!r}" if i == j else f"gamma_chi[{i},{j}]"
        for i, j in np.argwhere(bad).tolist()
    ]
    if direction == "upper":
        slowdown = (1.0 - chi) * p[:-1] > p[1:] + EQUALITY_TOL
        violations += [f"rate_monotone[{j}]" for j in np.flatnonzero(slowdown)]
    return violations


def flm_lower_viscosity(
    p: np.ndarray, gamma: np.ndarray, chi: float, start: np.ndarray
) -> BoundResult:
    """Viscosity lower bound: with jump weights gamma_{i,j} upper-bounding
    the transition split, row sums 1 and gamma_{i,j} >= chi * tail, the
    expected time is at least sum_i start_i * chi * sum_{j>=i} 1/p_j."""
    p, start, violations = _check_viscosity(p, gamma, chi, start, "lower")
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
        value = float(chi * np.sum(start[:-1] * _tails(1.0 / p)))
    return BoundResult(_finite(value, p), "lower", "flm-lower-viscosity", violations)


def flm_upper_viscosity(
    p: np.ndarray, gamma: np.ndarray, chi: float, start: np.ndarray
) -> BoundResult:
    """Viscosity upper bound: with gamma lower-bounding the transition split,
    gamma_{i,j} <= chi * tail and (1-chi) p_j <= p_{j+1}, the expected time
    is at most sum_i start_i (1/p_i + chi * sum_{j>i} 1/p_j)."""
    p, start, violations = _check_viscosity(p, gamma, chi, start, "upper")
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
        inv = 1.0 / p
        tail_beyond = np.append(_tails(inv)[1:], 0.0)  # sum_{j>i} 1/p_j
        value = float(np.sum(start[:-1] * (inv + chi * tail_beyond)))
    return BoundResult(_finite(value, p), "upper", "flm-upper-viscosity", violations)


def flm_lower_visit(p_upper: np.ndarray, v_lower: np.ndarray) -> BoundResult:
    """Visit-probability lower bound: exactly the visited levels must be
    left, so E[T] >= sum_i v_i / p_i with p_i upper and v_i lower bounds."""
    return _level_sum(p_upper, v_lower, "lower", "flm-lower-visit")


def flm_upper_visit(p_lower: np.ndarray, v_upper: np.ndarray) -> BoundResult:
    """Visit-probability upper bound: E[T] <= sum_i v_i / p_i with p_i lower
    and v_i upper bounds; v_i = 1 recovers the classic upper bound."""
    return _level_sum(p_lower, v_upper, "upper", "flm-upper-visit")


def visit_lower_from_chain(chain, i: int) -> float:
    """Worst-case conditional lower bound on the probability of visiting
    level i: the minimum of T[j][i] / T[j][>=i] over levels j < i that can
    reach i or beyond, and of the start mass analogue when there is start
    mass at or above i."""
    m = chain.m_levels
    if not 0 <= i < m:
        raise ValueError(f"level must be in [0, {m - 1}], got {i}")
    rows = np.vstack([chain.transition[:i, i:], chain.start[i:]])
    tails = rows.sum(axis=1)
    reach = tails > 0.0
    ratios = rows[reach, 0] / tails[reach]
    return float(ratios.min()) if ratios.size else 0.0


def viscosity_params_from_chain(chain, direction: str = "lower") -> tuple[np.ndarray, np.ndarray, float]:
    """Extract exact (p, gamma, chi) from a level chain.

    gamma rows are the exact conditional jump distributions, so both
    transition-split preconditions hold with equality; chi is the extreme
    ratio gamma_{i,j} / tail that keeps the requested direction valid.  For
    the upper direction any row with mass directly on the top level forces
    chi = 1.
    """
    if direction not in ("lower", "upper"):
        raise ValueError("direction must be 'lower' or 'upper'")
    m = chain.m_levels
    p = chain.leave_probs[: m - 1]
    if np.any(p <= 0.0):
        raise ValueError("chain has an absorbing non-top level; no viscosity extraction")
    gamma = np.zeros((m, m))
    gamma[: m - 1, :] = chain.transition[: m - 1, :] / p[:, None]
    gamma[np.tril_indices(m)] = 0.0
    tails = _tails(gamma)
    defined = np.triu(tails > 1e-300, 1)
    ratios = gamma[defined] / tails[defined]
    if not ratios.size:
        chi = 1.0
    elif direction == "lower":
        chi = ratios.min()
    else:
        chi = np.max(1.0 - p[1:] / p[:-1], initial=ratios.max())
    return p, gamma, float(min(1.0, max(0.0, chi)))
