"""Disordered discrete-time quantum walks on the integer line.

A disordered walk redraws its 2x2 unitary coin independently at every
time step.  When the coin ensemble is balanced (E|a|^2 = E|b|^2 = 1/2)
with vanishing cross moment E(a conj c) = 0, and the initial chirality
state is balanced as well, the ensemble-averaged position distribution
is exactly the classical symmetric random walk's binomial law.  This
package verifies that collapse three independent ways: exact enumeration
over finite-support ensembles, a path-sum coefficient algebra, and
seeded Monte Carlo averaging.
"""

from .core import (
    EPS_STEP,
    EPS_UNIT,
    HADAMARD,
    Coin,
    CoinValidation,
    Distribution,
    NumericalDriftError,
    QubitState,
    WalkState,
    distribution_of,
    split_coin,
    summary_stats,
    validate_coin,
)
from .engine import WalkRun, evolve, run_realization, step
from .ensembles import (
    CASE_I_DEFAULT,
    CoinEnsemble,
    DeclaredMoments,
    InitialStateRule,
    MomentReport,
    UniformDraw,
    audit_moments,
    make_fixed,
    make_initial_state,
    make_mackay,
    make_ribeiro_two_point,
    make_ribeiro_uniform,
    make_shapira,
    mu_shapira,
    rotation_coin,
    shapira_coin,
)
from .pathsum import (
    BASIS_LABELS,
    EnumerationInfeasibleError,
    PathCoefficients,
    binomial_distribution,
    binomial_law,
    coefficients,
    exact_average,
    product_table,
    reconstruct_state,
    term_count,
)
from .stats import (
    AveragedResult,
    AveragedWalker,
    ClassicalWalker,
    DeterministicWalker,
    VarianceScan,
    monte_carlo_average,
    tv_distance,
    variance_scan,
)
from .streams import COIN_STREAM, INIT_STREAM, substream

__version__ = "0.1.0"

__all__ = [
    "EPS_STEP",
    "EPS_UNIT",
    "HADAMARD",
    "CASE_I_DEFAULT",
    "COIN_STREAM",
    "INIT_STREAM",
    "BASIS_LABELS",
    "Coin",
    "CoinValidation",
    "CoinEnsemble",
    "DeclaredMoments",
    "Distribution",
    "InitialStateRule",
    "MomentReport",
    "NumericalDriftError",
    "EnumerationInfeasibleError",
    "PathCoefficients",
    "QubitState",
    "UniformDraw",
    "WalkRun",
    "WalkState",
    "AveragedResult",
    "AveragedWalker",
    "ClassicalWalker",
    "DeterministicWalker",
    "VarianceScan",
    "audit_moments",
    "binomial_distribution",
    "binomial_law",
    "coefficients",
    "distribution_of",
    "evolve",
    "exact_average",
    "make_fixed",
    "make_initial_state",
    "make_mackay",
    "make_ribeiro_two_point",
    "make_ribeiro_uniform",
    "make_shapira",
    "monte_carlo_average",
    "mu_shapira",
    "product_table",
    "reconstruct_state",
    "rotation_coin",
    "run_realization",
    "shapira_coin",
    "split_coin",
    "step",
    "substream",
    "summary_stats",
    "term_count",
    "tv_distance",
    "validate_coin",
    "variance_scan",
]
