"""Runtime-analysis laboratory for the (1+1) evolutionary algorithm.

Fitness-level runtime bounds (classic, viscosity and visit-probability
variants), exact level-chain and full-state oracles for OneMax, jump
functions and long k-paths, closed-form per-benchmark formulas, and a
seeded Monte Carlo harness that validates every bound empirically.
"""

from .benchmarks import (
    Benchmark,
    LongKPath,
    build_long_k_path,
    make_benchmark,
    pack_words,
    verify_long_k_path,
)
from .bounds import (
    BoundResult,
    flm_lower_classic,
    flm_lower_visit,
    flm_lower_viscosity,
    flm_upper_classic,
    flm_upper_visit,
    flm_upper_viscosity,
    visit_lower_from_chain,
    viscosity_params_from_chain,
)
from .chains import (
    ChainSummary,
    LevelChain,
    expected_hitting_time,
    full_state_expected_time,
    jump_level_matrix,
    longpath_level_matrix,
    onemax_level_matrix,
    skip_probability,
    summarize,
    truncate_chain,
    visit_probabilities,
    visit_probability_matrix,
)
from .ea import BlockResult, RunResult, run_block, run_ea, uniform_random_words
from .experiments import (
    ExperimentConfig,
    Report,
    RunStatistics,
    compare_report,
    replicate_rng,
    resolve_mutation_rate,
    run_experiment,
)
from .formulas import (
    JumpBounds,
    OneMaxBounds,
    e_n_factor,
    jump_bounds,
    leadingones_exact,
    longpath_leave_prob,
    longpath_lower_bound,
    longpath_visit_lower,
    onemax_bounds,
    onemax_skip_bound,
    sudholt_reference_bound,
)

__version__ = "0.1.0"
