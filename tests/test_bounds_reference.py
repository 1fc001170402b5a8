"""The chain-reading bound code against its former loop versions.

The ``loop_*`` functions below are the per-pair Python loops that
``bounds._viscosity_violations``, ``bounds.viscosity_params_from_chain``,
``bounds.visit_lower_from_chain`` and ``chains.skip_probability`` replaced
with array expressions, kept here as test-only references.  The array
versions must reproduce chi, gamma, the violation lists, the viscosity
bound values and the visit-lemma values bit for bit, and the skip
probability within 1e-15 relative (its masked dot product sums in another
order).
"""

from __future__ import annotations

import numpy as np

from flmlab.bounds import (
    EQUALITY_TOL,
    flm_lower_viscosity,
    flm_upper_viscosity,
    visit_lower_from_chain,
    viscosity_params_from_chain,
)
from flmlab.chains import jump_level_matrix, onemax_level_matrix, skip_probability, visit_probabilities

from conftest import random_level_chain, viscous_level_chain

SKIP_REL = 1e-15


def loop_viscosity_violations(p, gamma, chi, direction):
    m = len(p) + 1
    violations = []
    for i in range(m - 1):
        row_sum = gamma[i, i + 1 :].sum()
        if abs(row_sum - 1.0) > EQUALITY_TOL:
            violations.append(f"gamma_row_sum[{i}]={float(row_sum)!r}")
        tails = np.cumsum(gamma[i, ::-1])[::-1]
        for j in range(i + 1, m):
            if direction == "lower":
                if gamma[i, j] < chi * tails[j] - EQUALITY_TOL:
                    violations.append(f"gamma_chi[{i},{j}]")
            else:
                if gamma[i, j] > chi * tails[j] + EQUALITY_TOL:
                    violations.append(f"gamma_chi[{i},{j}]")
    if direction == "upper":
        for j in range(m - 2):
            if (1.0 - chi) * p[j] > p[j + 1] + EQUALITY_TOL:
                violations.append(f"rate_monotone[{j}]")
    return violations


def loop_viscosity_values(p, chi, start):
    inv = 1.0 / p
    inv_tail = np.cumsum(inv[::-1])[::-1]
    lower = float(chi * np.sum(start[:-1] * inv_tail))
    tail_beyond = np.concatenate([inv_tail[1:], [0.0]])
    upper = float(np.sum(start[:-1] * (inv + chi * tail_beyond)))
    return lower, upper


def loop_viscosity_params(chain, direction):
    m = chain.m_levels
    p = chain.leave_probs[: m - 1]
    gamma = np.zeros((m, m))
    gamma[: m - 1, :] = chain.transition[: m - 1, :] / p[:, None]
    gamma[np.tril_indices(m)] = 0.0
    ratios = []
    for i in range(m - 1):
        tails = np.cumsum(gamma[i, ::-1])[::-1]
        for j in range(i + 1, m):
            if tails[j] > 1e-300:
                ratios.append(gamma[i, j] / tails[j])
    if direction == "lower":
        chi = min(ratios, default=1.0)
    else:
        chi = max(ratios, default=1.0)
        for j in range(m - 2):
            chi = max(chi, 1.0 - p[j + 1] / p[j])
    return p, gamma, float(min(1.0, max(0.0, chi)))


def loop_visit_lower(chain, i):
    t = chain.transition
    candidates = []
    for j in range(i):
        tail = t[j, i:].sum()
        if tail > 0.0:
            candidates.append(t[j, i] / tail)
    start_tail = chain.start[i:].sum()
    if start_tail > 0.0:
        candidates.append(chain.start[i] / start_tail)
    if not candidates:
        return 0.0
    return float(min(candidates))


def loop_skip_probability(chain, lo, hi):
    v = visit_probabilities(chain)
    t = chain.transition
    p = chain.leave_probs
    total = float(chain.start[hi + 1 :].sum())
    for j in range(lo):
        if v[j] <= 0.0:
            continue
        total += v[j] * (t[j, hi + 1 :].sum() / p[j])
    return min(1.0, max(0.0, total))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_against_loops(chain, rng) -> int:
    """Compare every array expression with its loop reference on one chain;
    return how many of the compared calls reported violations."""
    m = chain.m_levels
    chis = []
    for direction in ("lower", "upper"):
        p, gamma, chi = viscosity_params_from_chain(chain, direction)
        p_ref, gamma_ref, chi_ref = loop_viscosity_params(chain, direction)
        assert same_bits(p, p_ref) and same_bits(gamma, gamma_ref)
        assert same_bits(chi, chi_ref) and type(chi) is type(chi_ref)
        chis.append(chi)
    gammas = [gamma]
    room = np.flatnonzero(gamma[:-1].max(axis=1) * 1.001 <= 1.0)  # rows that stay in [0, 1]
    if room.size:
        row = int(rng.choice(room))
        gammas.append(gamma.copy())
        gammas[1][row, row + 1 :] *= 1.001
    reported = 0
    for g in gammas:
        chi = chis[int(rng.integers(0, 2))]  # matches one theorem's direction, crosses the other's
        lower = flm_lower_viscosity(p, g, chi, chain.start)
        upper = flm_upper_viscosity(p, g, chi, chain.start)
        assert lower.violated_preconditions == loop_viscosity_violations(p, g, chi, "lower")
        assert upper.violated_preconditions == loop_viscosity_violations(p, g, chi, "upper")
        assert same_bits((lower.value, upper.value), loop_viscosity_values(p, chi, chain.start))
        reported += (not lower.ok) + (not upper.ok)
    for i in range(m):
        assert same_bits(visit_lower_from_chain(chain, i), loop_visit_lower(chain, i))
    lo, hi = sorted(int(x) for x in rng.integers(0, m, size=2))
    exact, ref = skip_probability(chain, lo, hi), loop_skip_probability(chain, lo, hi)
    assert abs(exact - ref) <= SKIP_REL * abs(ref), (lo, hi, exact, ref)
    return reported


def test_array_expressions_match_loops_on_random_chains():
    rng = np.random.default_rng(12012)
    reported = 0
    for trial in range(2000):
        m = int(rng.integers(2, 13))
        if trial % 2:
            chain = viscous_level_chain(rng, m)
        else:
            chain = random_level_chain(rng, m, start="lowest" if trial % 4 == 0 else "any")
        reported += check_against_loops(chain, rng)
    assert reported > 1000  # the violation paths ran, not only empty lists


def test_array_expressions_match_loops_on_benchmark_chains():
    rng = np.random.default_rng(12013)
    for chain in (
        onemax_level_matrix(20, 1 / 20),
        onemax_level_matrix(60, 1 / 60),
        onemax_level_matrix(60, 1 / 60, start=0),
        jump_level_matrix(20, 3, 1 / 20),
    ):
        assert check_against_loops(chain, rng) > 0
