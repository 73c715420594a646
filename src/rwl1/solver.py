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
unit weights for every scheme, so a run can begin from another run's on the
same system; each run pivots on its own copy of that start.  When phase I
of the first LP drops redundant rows of A, the later LPs solve on the kept
rows, which the returned basis spans, and adopt its inverse there.  Every
iterate is certified by its own primal residual on all rows; a miss raises
ReweightedSolveError caused by a CertificationError, which a sweep records
as a failed trial with the LPs of the error's history.
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
    the LPs the run finished before it, ``start`` the first of them as
    ReweightedResult.start holds it (None if there are none)."""

    def __init__(self, history: list[IterationRecord], cause: Exception | str,
                 start: tuple | None):
        super().__init__(f"LP solve failed at iteration {len(history) + 1}: {cause}")
        self.history, self.cause, self.start = history, cause, start

    def __reduce__(self):  # rebuilt from its own arguments, so that it pickles
        return type(self), (self.history, self.cause, self.start)


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
    start: tuple | None = None  # the unit-weight LP, as reweighted_l1(start=) takes it

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
                  start: tuple | None = None) -> ReweightedResult:
    """Recover a sparse solution of A x = b by iterative reweighted l1.

    The l1 scheme performs exactly one LP solve.  Other schemes reweight
    until the iterate stops moving (inf-norm change below x_change_tol) or
    the LP budget of max_iter solves is spent.  Raises ValueError for a
    system that is not 1 <= m <= n, or square under the cwb eps rule.

    ``start``, another run's ``ReweightedResult.start`` on this same A and b,
    stands in for the unit-weight LP: the run records it as its own first LP,
    with its own eps and merit, and counts its pivots, without solving it.
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
        """Certified LP solve on ``lp_a``, ``lp_b`` from ``basis``, or the
        solved ``lp``; appends its record and returns the LP's (x, objective,
        pivots, LPSolution)."""
        try:
            if lp is None:
                lp = weighted_l1_lp(w, lp_a, lp_b, initial_basis=basis)
            x, objective, pivots, _ = lp
            record = _record(scheme, x, eps, objective, pivots, am, bv)
            if record.residual_inf > config.feas_tol:
                raise CertificationError(f"iterate residual {record.residual_inf:.3g} "
                                         f"exceeds feas_tol {config.feas_tol:g}")
        except SolverError as exc:
            raise ReweightedSolveError(history, exc, start if history else None) from exc
        history.append(record)
        return lp

    eps = config.schedule.eps0
    lp_a, lp_b = am, bv
    start = solve(np.ones(n), eps, None, start)
    x, _, _, basis = start
    if basis.rows is not None:
        # phase I dropped redundant rows; the later LPs leave them out too, so
        # that they can warm-start from the previous basis
        lp_a, lp_b = am[basis.rows], bv[basis.rows]

    if scheme.kind == "l1":
        return ReweightedResult(x_hat=x, history=history, start=start)

    while len(history) < config.max_iter:
        w = weights(scheme, x, eps, config.clamp)
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            # reachable only with the "none" clamp: the raw weight formula
            # left its valid domain, making the LP subproblem unbounded
            raise ReweightedSolveError(history, f"weights left the positive domain "
                                                f"(min {np.min(w):.3g}, eps {eps:g})", start)
        x_new, _, _, basis = solve(w, eps, basis)
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change < config.x_change_tol:
            break
        eps = epsilon_update(config.schedule, eps, x_new, m, n)

    return ReweightedResult(x_hat=x, history=history, start=start)
