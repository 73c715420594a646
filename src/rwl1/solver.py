"""Iterative reweighted l1 recovery loop.

Starting from the plain l1 minimizer, each pass evaluates the scheme's
weights at the current iterate, solves the weighted-l1 LP, and updates eps
per the configured schedule (fixed / halving / the largest-entry rule).
Iterations are counted as LP solves: history[0] is the l1-min starting
point and the constant SolverConfig.max_iter caps the number of LP solves,
so a run never costs more than max_iter subproblems.

The LPs of one run share A and b and differ only in their weights, so each
LP after the first is warm-started from the previous LP's optimal basis,
which is still primal-feasible; the simplex goes straight to phase II from
it instead of from a fresh crash basis.  The previous LP hands on its whole
end state, its simplex.LPSolution: the basis, its B^-1 and that inverse's
update count, and the [A, -A] it formed.  The next LP adopts a copy of the
inverse instead of inverting the basis, and takes it only if its basic point
is primal-feasible within feas_tol, else it runs phase I.  The first LP has
unit weights for every scheme, so the runs on one system can share it
through one list.  Every iterate is certified by its own primal residual on
all rows; a miss raises ReweightedSolveError caused by a CertificationError,
which a sweep records as a failed trial with the LPs of the error's
history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .linalg import as_matrix, as_vector, count_nonzeros
from .merit import WeightClamp, WeightScheme, merit_value, weights
from .simplex import FEAS_TOL, CertificationError, SolverError, weighted_l1_lp

__all__ = [
    "EpsilonSchedule",
    "SolverConfig",
    "IterationRecord",
    "ReweightedResult",
    "ReweightedSolveError",
    "epsilon_update",
    "reweighted_l1",
]

EPS_RULES = ("fixed", "halving", "cwb")
DEFAULT_EPS0 = {"fixed": 0.01, "halving": 1.0, "cwb": 1.0}  # each rule's eps0 when none is given
CWB_FLOOR = 0.001  # lower bound of the cwb rule's eps


class ReweightedSolveError(SolverError):
    """LP failure inside the recovery loop; ``history`` holds the records of
    the LPs the run finished before it."""

    def __init__(self, history: list[IterationRecord], cause: Exception | str):
        super().__init__(f"LP solve failed at iteration {len(history) + 1}: {cause}")
        self.history, self.cause = history, cause

    def __reduce__(self):  # rebuilt from its own arguments, so that it pickles
        return type(self), (self.history, self.cause)


@dataclass(frozen=True)
class EpsilonSchedule:
    """eps-update rule: fixed | halving | cwb (largest-entry rule, natural log)."""

    rule: str = "halving"
    eps0: float | None = None

    def __post_init__(self):
        if self.rule not in EPS_RULES:
            raise ValueError(f"unknown eps rule {self.rule!r}, expected one of {EPS_RULES}")
        if self.eps0 is None:
            object.__setattr__(self, "eps0", DEFAULT_EPS0[self.rule])
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise ValueError(f"eps0 must be > 0 and finite, got {self.eps0}")


@dataclass(frozen=True)
class SolverConfig:
    schedule: EpsilonSchedule = EpsilonSchedule()
    clamp: WeightClamp = WeightClamp()

    max_iter: ClassVar[int] = 10  # LP solves per run
    x_change_tol: ClassVar[float] = 1e-8  # inf-norm iterate change that stops a run
    feas_tol: ClassVar[float] = FEAS_TOL  # certified primal residual of every iterate


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics for one LP solve: the eps its weights used, the iterate's
    support size (count_nonzeros), its merit value (None if undefined), the
    LP objective, the pivot count, and the primal residual."""

    eps: float
    support_size: int
    merit: float | None
    lp_objective: float
    lp_pivots: int
    residual_inf: float


@dataclass(eq=False)
class ReweightedResult:
    x_hat: np.ndarray
    history: list[IterationRecord] = field(default_factory=list)

    @property
    def iterations_used(self) -> int:
        """LP solves of the run, one per history record."""
        return len(self.history)


def epsilon_update(schedule: EpsilonSchedule, eps_current: float, x_current,
                   m: int, n: int) -> float:
    """Next eps value.

    fixed   -> eps0
    halving -> eps_current / 2
    cwb     -> max(|x|_(i0), CWB_FLOOR) with i0 = round(m / (4 ln(n/m)))
               clamped into [1, n]; |x|_(i0) is the i0-th largest magnitude.
    """
    if eps_current <= 0:
        raise ValueError(f"eps_current must be > 0, got {eps_current}")
    if schedule.rule == "fixed":
        return schedule.eps0
    if schedule.rule == "halving":
        return 0.5 * eps_current
    if m >= n:
        raise ValueError(f"cwb eps rule requires m < n, got m={m}, n={n}")
    xv = as_vector(x_current)
    if xv.shape[0] == 0:
        raise ValueError("cwb eps rule requires a nonempty iterate")
    i0 = int(math.floor(m / (4.0 * math.log(n / m)) + 0.5))
    i0 = min(max(i0, 1), n)
    mags = np.sort(np.abs(xv))[::-1]
    i0 = min(i0, mags.shape[0])
    return float(max(mags[i0 - 1], CWB_FLOOR))


def _record(scheme: WeightScheme, x: np.ndarray, eps: float, objective: float,
            pivots: int, a: np.ndarray, b: np.ndarray) -> IterationRecord:
    residual = float(np.max(np.abs(a @ x - b)))
    return IterationRecord(
        eps=eps,
        support_size=count_nonzeros(x),
        merit=merit_value(scheme, x, eps),
        lp_objective=objective,
        lp_pivots=pivots,
        residual_inf=residual,
    )


def reweighted_l1(a, b, scheme: WeightScheme, config: SolverConfig = SolverConfig(),
                  unit_lp: list | None = None) -> ReweightedResult:
    """Recover a sparse solution of A x = b by iterative reweighted l1.

    The l1 scheme performs exactly one LP solve.  Other schemes reweight
    until the iterate stops moving (inf-norm change below x_change_tol) or
    the LP budget of max_iter solves is spent.  Raises ValueError for a
    system that is not 1 <= m <= n, or square under the cwb eps rule.

    ``unit_lp`` is a list shared by runs on this very A and b: empty, or
    holding the unit-weight LP's (x, objective, pivots, LPSolution), which the
    run then records as its own first LP, pivots counted, without solving it.
    A run that solves that LP leaves it there once certified, even if it raises.
    """
    am = as_matrix(a)
    bv = as_vector(b, length=am.shape[0])
    m, n = am.shape
    if not 1 <= m <= n:
        raise ValueError(f"expected a system with 1 <= m <= n, got {m}x{n}")
    if config.schedule.rule == "cwb" and m >= n:  # rejected before any LP, not when first used
        raise ValueError(f"cwb eps rule requires m < n, got m={m}, n={n}")

    history: list[IterationRecord] = []

    def solve(w, eps, basis, lp=None):
        """Certified LP solve from ``basis``, or the solved ``lp``; appends
        its record and returns the LP's (x, objective, pivots, LPSolution)."""
        try:
            if lp is None:
                lp = weighted_l1_lp(w, am, bv, initial_basis=basis)
            x, objective, pivots, _ = lp
            record = _record(scheme, x, eps, objective, pivots, am, bv)
            if record.residual_inf > config.feas_tol:
                raise CertificationError(f"iterate residual {record.residual_inf:.3g} "
                                         f"exceeds feas_tol {config.feas_tol:g}")
        except SolverError as exc:
            raise ReweightedSolveError(history, exc) from exc
        history.append(record)
        return lp

    eps = config.schedule.eps0
    unit_lp = [] if unit_lp is None else unit_lp
    unit_lp[:] = [solve(np.ones(n), eps, None, unit_lp[0] if unit_lp else None)]
    x, _, _, basis = unit_lp[0]

    if scheme.kind == "l1":
        return ReweightedResult(x_hat=x, history=history)

    while len(history) < config.max_iter:
        w = weights(scheme, x, eps, config.clamp)
        nonfinite, nonpositive = np.count_nonzero(~np.isfinite(w)), np.count_nonzero(w <= 0)
        if nonfinite or nonpositive:
            # the raw weights left their domain: negative under the "none" clamp, and
            # inf or nan (log 1 = 0) where |x_i| + eps = 0.5 for w1 at p = 1 or w2 at q = 1
            raise ReweightedSolveError(history, f"weights left the positive domain ({nonfinite} "
                                                f"non-finite, {nonpositive} nonpositive, eps {eps:g})")
        x_new, _, _, basis = solve(w, eps, basis)
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change < config.x_change_tol:
            break
        eps = epsilon_update(config.schedule, eps, x_new, m, n)

    return ReweightedResult(x_hat=x, history=history)
