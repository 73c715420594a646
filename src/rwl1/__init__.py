"""Sparse recovery for underdetermined linear systems Ax = b.

Finds sparsest solutions by iterative reweighted l1 minimization over a
built-in two-phase simplex solver, and benchmarks recovery probability
across random matrix distributions and sparsity levels.
"""

from .bench import SweepSpec, SweepResult, is_success, run_trial, sweep
from .instances import DistributionSpec, ProblemInstance, Sampler, load_instance, make_instance, save_instance
from .linalg import count_nonzeros
from .merit import WeightClamp, WeightScheme, gradient_check, merit_value, weights
from .rng import SplitMix64
from .simplex import (LPProblem, LPSolution, LPStatus, SimplexStalledError, SolverError,
                      solve_standard_form, weighted_l1_lp)
from .solver import (EpsilonSchedule, ReweightedResult, SolverConfig, epsilon_update,
                     reweighted_l1)

__version__ = "0.1.0"

__all__ = [
    "DistributionSpec", "EpsilonSchedule", "LPProblem", "LPSolution", "LPStatus",
    "ProblemInstance", "ReweightedResult", "Sampler", "SimplexStalledError",
    "SolverConfig", "SolverError", "SplitMix64", "SweepResult", "SweepSpec",
    "WeightClamp", "WeightScheme", "count_nonzeros", "epsilon_update",
    "gradient_check", "is_success", "load_instance", "make_instance",
    "merit_value", "reweighted_l1", "run_trial", "save_instance",
    "solve_standard_form", "sweep", "weighted_l1_lp", "weights",
]
