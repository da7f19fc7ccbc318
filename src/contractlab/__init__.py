"""contractlab: a numerical laboratory for contractive adapted processes.

The package simulates filtered stochastic processes whose predictable
one-step means are known exactly, verifies nonexpansive/contractive drift
conditions pathwise, runs Robbins-Monro root solvers and controlled
least-squares estimators, and renders almost-sure convergence claims as
seeded Monte Carlo acceptance checks.
"""
from .verdict import ConditionVerdict
from .process import (
    CrossingReport,
    ProcessPath,
    check_segment_peak_bound,
    crossing_report,
    doob_decompose,
    kronecker_path,
    max_growth_factor,
)
from .conditions import (
    ContractiveProfile,
    NonexpansiveProfile,
    check_contractive,
    check_nonexpansive,
    check_zero_state_decay,
)
from .approximation import (
    EnvelopeReport,
    NoiseModel,
    RootProblem,
    Schedule,
    TruncatedPath,
    check_linear_envelope,
    check_norm_envelope,
    check_ratio_sandwich,
    check_regularity,
    check_truncated_zero_mean_bound,
    contraction_factor,
    derive_truncated,
    rm_fold,
    rm_solve,
    rm_solve_block,
    truncated_nonexpansive_verdict,
)
from .least_squares import (
    Design,
    DesignConditionReport,
    GWeight,
    IntegralBoundResult,
    LsRun,
    LsState,
    PartitionReport,
    PieceFold,
    RegressionModel,
    check_design_conditions,
    integral_bound,
    ls_fold,
    partition_analysis,
    simulate_ls_runs,
    z_process,
)
from .harness import (
    ConvergenceClass,
    ConvergenceVerdict,
    EnsembleConfig,
    EnsembleStats,
    TailFold,
    convergence_verdict,
    limit_dispersion,
    run_ensemble,
)

__version__ = "0.1.0"
