"""Disordered discrete-time quantum walks on the integer line.

A disordered walk redraws its 2x2 unitary coin independently at every
time step.  When the coin ensemble's row moment E(a conj b) vanishes,
the averaged chirality populations form a classical persistent walk that
keeps its direction with probability E|a|^2; for balanced coins
(E|a|^2 = E|b|^2 = 1/2) the ensemble-averaged position distribution is
then exactly the symmetric random walk's binomial law, for every initial
chirality state.  The moment audit flags the column moment E(a conj c),
which vanishes together with the row moment in every catalog ensemble.  This
package computes the average two independent ways: exact averages over
finite-support ensembles, which step the averaged density matrix by the
coin-averaged channel from the first step, and seeded Monte Carlo
averaging.  A path-sum coefficient algebra checks each realization's
amplitudes against the evolution engine; it does not average.
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
    summary_stats,
    validate_coin,
)
from .engine import WalkRun, evolve
from .ensembles import (
    CASE_I_DEFAULT,
    CoinEnsemble,
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
)
from .pathsum import (
    EnumerationInfeasibleError,
    PathCoefficients,
    binomial_distribution,
    binomial_law,
    coefficients,
    exact_average,
    reconstruct_state,
)
from .stats import (
    AveragedResult,
    AveragedWalker,
    ClassicalWalker,
    DeterministicWalker,
    VarianceScan,
    monte_carlo_average,
    run_realization,
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
    "Coin",
    "CoinValidation",
    "CoinEnsemble",
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
    "reconstruct_state",
    "rotation_coin",
    "run_realization",
    "substream",
    "summary_stats",
    "tv_distance",
    "validate_coin",
    "variance_scan",
]
