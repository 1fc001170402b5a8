import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flmlab.bounds import (
    flm_lower_classic,
    flm_lower_visit,
    flm_lower_viscosity,
    flm_upper_classic,
    flm_upper_visit,
    flm_upper_viscosity,
    visit_lower_from_chain,
    viscosity_params_from_chain,
)
from flmlab.chains import (
    LevelChain,
    expected_hitting_time,
    onemax_level_matrix,
    visit_probabilities,
)

from conftest import random_level_chain, viscous_level_chain


def test_upper_classic_values():
    assert flm_upper_classic([0.5, 0.25]).value == pytest.approx(6.0)
    assert flm_upper_classic(np.ones(5)).value == pytest.approx(5.0)


def test_upper_classic_rejects_nonpositive_rates():
    with pytest.raises(ValueError):
        flm_upper_classic([0.5, 0.0])


@pytest.mark.parametrize(
    "p,smallest", [([1e-320, 0.5], "1e-320"), (np.full(3, 1e-308), "1e-308")]
)
def test_level_sum_overflow_is_one_error_naming_the_smallest_rate(p, smallest):
    # a subnormal rate's reciprocal, or a sum of finite reciprocals, overflows
    # a double: one ValueError, no RuntimeWarning (the suite makes those errors)
    with pytest.raises(ValueError, match=r"sum v_i/p_i overflows a double") as info:
        flm_upper_classic(p)
    assert f"smallest leave probability {smallest}" in str(info.value)
    assert "\n" not in str(info.value)


def test_level_sum_rejects_nan_inputs():
    with pytest.raises(ValueError, match="leaving probabilities"):
        flm_upper_classic([np.nan, 0.5])
    with pytest.raises(ValueError, match="visit probabilities"):
        flm_lower_visit([0.5, 0.5], [np.nan, 1.0])


VISCOSITY_GAMMA = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


def test_viscosity_overflow_is_one_error_naming_the_smallest_rate():
    # a subnormal rate: the level sum's one-line error, no RuntimeWarning
    for bound in (flm_lower_viscosity, flm_upper_viscosity):
        with pytest.raises(ValueError, match=r"sum v_i/p_i overflows a double") as info:
            bound([1e-320, 0.5], VISCOSITY_GAMMA, 0.5, [1.0, 0.0, 0.0])
        assert "smallest leave probability 1e-320" in str(info.value)
        assert "\n" not in str(info.value)


@pytest.mark.parametrize("start", [[np.nan, 1.0, 0.0], [0.5, np.nan, 0.5], [np.nan] * 3])
def test_viscosity_and_classic_bounds_reject_nan_start(start):
    for bound in (flm_lower_viscosity, flm_upper_viscosity):
        with pytest.raises(ValueError, match="start must be a probability distribution"):
            bound([0.5, 0.5], VISCOSITY_GAMMA, 0.5, start)
    with pytest.raises(ValueError, match="start must be a probability distribution"):
        flm_lower_classic([0.5, 0.5], start)


def test_upper_classic_dominates_exact_onemax():
    chain = onemax_level_matrix(8, 1 / 8, start=0)
    overall, _ = expected_hitting_time(chain)
    assert flm_upper_classic(chain.leave_probs[:-1]).value >= overall


def test_lower_classic_values():
    assert flm_lower_classic([0.25], [1.0, 0.0]).value == pytest.approx(4.0)
    assert flm_lower_classic([0.25], [0.0, 1.0]).value == pytest.approx(0.0)


def test_lower_classic_rejects_bad_distribution():
    with pytest.raises(ValueError):
        flm_lower_classic([0.25], [0.4, 0.4])


def test_lower_classic_below_exact_on_random_chains(rng):
    for _ in range(200):
        chain = random_level_chain(rng, int(rng.integers(2, 8)))
        overall, _ = expected_hitting_time(chain)
        bound = flm_lower_classic(chain.leave_probs[:-1], chain.start)
        assert bound.value <= overall + 1e-9


def test_lower_viscosity_two_level_value():
    gamma = np.array([[0.0, 1.0], [0.0, 0.0]])
    result = flm_lower_viscosity([0.25], gamma, 1.0, [1.0, 0.0])
    assert result.ok
    assert result.value == pytest.approx(4.0)


def test_lower_viscosity_chi_zero_gives_zero(rng):
    chain = random_level_chain(rng, 5)
    p, gamma, _ = viscosity_params_from_chain(chain, "lower")
    result = flm_lower_viscosity(p, gamma, 0.0, chain.start)
    assert result.ok
    assert result.value == 0.0


def test_upper_viscosity_two_level_value():
    gamma = np.array([[0.0, 1.0], [0.0, 0.0]])
    result = flm_upper_viscosity([0.25], gamma, 1.0, [1.0, 0.0])
    assert result.ok
    assert result.value == pytest.approx(4.0)  # empty inner sum


def test_upper_viscosity_chi_one_reduces_to_start_weighted_classic():
    p = np.array([0.5, 0.2, 0.1])
    m = 4
    gamma = np.zeros((m, m))
    for i in range(m - 1):
        gamma[i, i + 1 :] = 1.0 / (m - 1 - i)
    start = np.array([1.0, 0.0, 0.0, 0.0])
    result = flm_upper_viscosity(p, gamma, 1.0, start)
    assert result.ok
    assert result.value == pytest.approx(flm_upper_classic(p).value)


def test_viscosity_validators_report_perturbed_rows_by_index():
    m = 4
    gamma = np.zeros((m, m))
    for i in range(m - 1):
        gamma[i, i + 1 :] = 1.0 / (m - 1 - i)
    gamma[1, 2] *= 1.001  # row sum now 1 + 1e-3 / 2
    result = flm_lower_viscosity([0.5, 0.4, 0.3], gamma, 0.1, [1.0, 0.0, 0.0, 0.0])
    assert not result.ok
    assert any(v.startswith("gamma_row_sum[1]") for v in result.violated_preconditions)


def test_viscosity_violation_messages_print_plain_floats():
    # a numpy scalar's repr would read "np.float64(1.0005)"
    m = 4
    gamma = np.zeros((m, m))
    for i in range(m - 1):
        gamma[i, i + 1 :] = 1.0 / (m - 1 - i)
    gamma[1, 2] *= 1.001
    p, start = [0.5, 0.4, 0.3], [1.0, 0.0, 0.0, 0.0]
    messages = [
        *flm_lower_viscosity(p, gamma, 0.9, start).violated_preconditions,
        *flm_upper_viscosity(p, gamma, 0.1, start).violated_preconditions,
    ]
    assert "gamma_row_sum[1]=1.0005" in messages
    assert messages and not any("np." in msg for msg in messages)


def test_viscosity_validator_rejects_chi_incoherence():
    gamma = np.zeros((3, 3))
    gamma[0, 1], gamma[0, 2] = 0.1, 0.9
    gamma[1, 2] = 1.0
    result = flm_lower_viscosity([0.5, 0.5], gamma, 0.5, [1.0, 0.0, 0.0])
    assert "gamma_chi[0,1]" in result.violated_preconditions


def test_viscosity_theorems_on_random_chains(rng):
    # only the theorem-guaranteed inequalities: lower <= exact <= upper
    for _ in range(300):
        chain = random_level_chain(rng, 4)
        overall, _ = expected_hitting_time(chain)
        p, gamma, chi_low = viscosity_params_from_chain(chain, "lower")
        lower = flm_lower_viscosity(p, gamma, chi_low, chain.start)
        assert lower.ok, lower.violated_preconditions
        assert lower.value <= overall + 1e-9
        p, gamma, chi_up = viscosity_params_from_chain(chain, "upper")
        upper = flm_upper_viscosity(p, gamma, chi_up, chain.start)
        assert upper.ok, upper.violated_preconditions
        assert upper.value >= overall - 1e-9


def test_full_soundness_sandwich_on_viscous_chains(rng):
    # chains with non-increasing leave rates, front-loaded jump rows and a
    # lowest-level start: here the classic lower bound provably stays below
    # the viscosity bound (chi >= 1/(m-1) and the tail sum has m-1 terms)
    for _ in range(1000):
        m = int(rng.integers(3, 9))
        chain = viscous_level_chain(rng, m)
        overall, _ = expected_hitting_time(chain)
        exact_v = visit_probabilities(chain)
        p = chain.leave_probs[:-1]
        lower_classic = flm_lower_classic(p, chain.start).value
        pv, gamma, chi_low = viscosity_params_from_chain(chain, "lower")
        lower_visc = flm_lower_viscosity(pv, gamma, chi_low, chain.start)
        pv, gamma, chi_up = viscosity_params_from_chain(chain, "upper")
        upper_visc = flm_upper_viscosity(pv, gamma, chi_up, chain.start)
        upper_classic = flm_upper_classic(p).value
        assert lower_visc.ok and upper_visc.ok
        assert lower_classic <= lower_visc.value + 1e-9
        assert lower_visc.value <= overall + 1e-9
        assert overall <= upper_visc.value + 1e-9
        assert upper_visc.value <= upper_classic + 1e-9
        exact_identity = flm_lower_visit(p, exact_v[:-1])
        assert exact_identity.value == pytest.approx(overall, abs=1e-9)
        lemma_v = np.array([visit_lower_from_chain(chain, i) for i in range(m - 1)])
        assert flm_lower_visit(p, lemma_v).value <= overall + 1e-9


def test_visit_bounds_values():
    assert flm_lower_visit([0.5, 0.25], [0.5, 1.0]).value == pytest.approx(5.0)
    assert flm_lower_visit([0.5, 0.25], [0.0, 0.0]).value == 0.0
    assert flm_upper_visit([0.5, 0.25], [1.0, 1.0]).value == pytest.approx(6.0)


def test_visit_bounds_reject_length_mismatch():
    with pytest.raises(ValueError):
        flm_lower_visit([0.5, 0.25], [1.0])


def test_upper_visit_with_unit_visits_equals_classic(rng):
    for _ in range(50):
        p = rng.uniform(0.01, 1.0, size=int(rng.integers(1, 9)))
        assert flm_upper_visit(p, np.ones(len(p))).value == pytest.approx(
            flm_upper_classic(p).value, rel=1e-15
        )


def test_exact_inputs_reproduce_exact_time(rng):
    for _ in range(100):
        chain = random_level_chain(rng, int(rng.integers(2, 9)))
        v = visit_probabilities(chain)
        overall, _ = expected_hitting_time(chain)
        p = chain.leave_probs[:-1]
        assert flm_lower_visit(p, v[:-1]).value == pytest.approx(overall, abs=1e-9)
        assert flm_upper_visit(p, v[:-1]).value == pytest.approx(overall, abs=1e-9)


@given(
    p=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_lower_visit_monotonicity(p, data):
    m = len(p)
    v = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    base = flm_lower_visit(p, v).value
    idx = data.draw(st.integers(0, m - 1))
    bumped_v = list(v)
    bumped_v[idx] = min(1.0, bumped_v[idx] + 0.1)
    assert flm_lower_visit(p, bumped_v).value >= base - 1e-12  # non-decreasing in v
    bumped_p = list(p)
    bumped_p[idx] = min(1.0, bumped_p[idx] + 0.1)
    assert flm_lower_visit(bumped_p, v).value <= base + 1e-12  # non-increasing in p


def halving_chain(m: int) -> LevelChain:
    # every conditional "enter exactly i given reaching >= i" equals 1/2
    t = np.zeros((m, m))
    for j in range(m - 1):
        leave = 0.4
        weights = np.array([2.0 ** -(d + 1) for d in range(m - 1 - j)])
        weights[-1] *= 2.0  # top absorbs the remaining tail mass
        t[j, j + 1 :] = leave * weights
        t[j, j] = 1.0 - leave
    t[m - 1, m - 1] = 1.0
    start = np.zeros(m)
    start[0] = 1.0
    return LevelChain(t, start)


def test_visit_lower_from_chain_halving_conditionals():
    chain = halving_chain(5)
    for i in range(1, 4):
        assert visit_lower_from_chain(chain, i) == pytest.approx(0.5, abs=1e-12)


def test_visit_lower_from_chain_deterministic_ladder():
    m = 5
    t = np.zeros((m, m))
    for j in range(m - 1):
        t[j, j] = 0.3
        t[j, j + 1] = 0.7
    t[m - 1, m - 1] = 1.0
    chain = LevelChain(t, np.eye(m)[0])
    for i in range(m):
        assert visit_lower_from_chain(chain, i) == pytest.approx(1.0)


def test_visit_lower_from_chain_dominated_by_exact():
    chain = onemax_level_matrix(20, 1 / 20)
    exact = visit_probabilities(chain)
    for i in range(20):
        assert visit_lower_from_chain(chain, i) <= exact[i] + 1e-12
