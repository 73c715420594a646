"""Sparse recovery for underdetermined linear systems Ax = b.

Finds sparsest solutions by iterative reweighted l1 minimization over a
built-in two-phase simplex solver, and benchmarks recovery probability
across random matrix distributions and sparsity levels.

The package exports the four types that spell out a sweep; everything else
is imported from its submodule: ``rwl1.bench.sweep``,
``rwl1.solver.reweighted_l1``, ``rwl1.instances.make_instance`` and so on.
"""

from .bench import SweepSpec
from .instances import DistributionSpec
from .merit import WeightScheme
from .solver import SolverConfig

__version__ = "0.1.0"

__all__ = ["DistributionSpec", "SolverConfig", "SweepSpec", "WeightScheme"]
