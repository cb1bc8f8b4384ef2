"""Multi-round fair worker selection under a submodular utility.

Select k of n workers every round so that each worker u is selected in at
least an r_u fraction of rounds, while the time-average utility stays close
to the best any fairness-respecting stationary policy could achieve. The
package provides two continuous-greedy schedulers with dependent rounding, a
debt-driven discrete scheduler, greedy and round-robin baselines, the exact
stationary LP bound, and the metrics to certify all of it.
"""
from .core import (
    ContractError,
    FeasibilityError,
    FractionalPoint,
    SizeLimitError,
    derive_draws,
    derive_rng,
)
from .discrete import DebtLedger, dg_round, fairdg_round, round_robin_policy
from .greedy import ContinuousGreedyResult, faircg1_fractional, faircg2_fractional
from .lp import LpSolution, SimplexTableau, solve_uopt
from .metrics import (
    SelectionTrace,
    alpha_fairness_check,
    bound_certificates,
    fairness_report,
    hoeffding_tail_check,
)
from .multilinear import ExtensionEstimator, ExtensionEvaluator
from .oracles import (
    AccuracyOracle,
    CoverageOracle,
    ModularOracle,
    UtilityOracle,
    WorkerPool,
    check_submodular_monotone,
    marginal_gain,
)
from .polytope import maximize_linear
from .rounding import dep_round, dep_round_many

__version__ = "0.1.0"

__all__ = [
    "AccuracyOracle",
    "ContinuousGreedyResult",
    "ContractError",
    "CoverageOracle",
    "DebtLedger",
    "ExtensionEstimator",
    "ExtensionEvaluator",
    "FeasibilityError",
    "FractionalPoint",
    "LpSolution",
    "ModularOracle",
    "SelectionTrace",
    "SimplexTableau",
    "SizeLimitError",
    "UtilityOracle",
    "WorkerPool",
    "alpha_fairness_check",
    "bound_certificates",
    "check_submodular_monotone",
    "dep_round",
    "dep_round_many",
    "derive_draws",
    "derive_rng",
    "dg_round",
    "faircg1_fractional",
    "faircg2_fractional",
    "fairdg_round",
    "fairness_report",
    "hoeffding_tail_check",
    "marginal_gain",
    "maximize_linear",
    "round_robin_policy",
    "solve_uopt",
    "__version__",
]
