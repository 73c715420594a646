"""Two-phase revised simplex for standard-form LPs, plus the weighted-l1 front end.

Solves  min c'z  s.t.  E z = b,  z >= 0  with an explicit basis inverse that
is rebuilt from scratch every REFACTOR_EVERY pivots for numerical stability.
Pivot selection is fully deterministic: the entering variable takes the most
negative reduced cost (smallest index on ties) and the leaving row comes from
Harris's two-pass ratio test (Harris, Math. Programming 5, 1973), which lets
a step leave the heavily degenerate vertices of weighted-l1 programs at once
instead of stepping between their bases.  Harris's test can cycle, so a
stall guard switches to Bland's rule (Bland, Math. Oper. Res. 2, 1977) after
a run of degenerate pivots far longer than the workloads make; the pivot
budget stays the last backstop.  A step may leave basics up to HARRIS_TOL
below zero, and dual simplex pivots lift them back before certification, so
the certified point is the basic solution, not one clipped at zero.

The weighted-l1 subproblem  min sum_i w_i |x_i|  s.t.  A x = b  is reduced
to standard form by the split x = u - v with cost (w, w) and equality block
[A, -A].  The split structure admits a direct feasible starting basis (take
u_i or v_i per the sign of the basic solve), so those solves normally skip
phase I altogether.  Its m columns are the largest entries of a few
iteratively reweighted least-squares steps from the min-norm solution
(Chartrand and Yin, ICASSP 2008), which sit near the l1 optimum's support:
on normal 50x200 instances the cold LP takes about half the pivots it took
from the leading m columns.  [A, -A] is formed once per A and pivoted like
any constraint matrix: a warm start on the same A and b hands it to the next
LP.  Phase I appends diag(sign b), so row i's artificial
is sign(b_i) e_i with basic value |b_i| and no row is flipped.  The split
LP's primal residual is measured at x = u - v, the point weighted_l1_lp
returns, as A x - b.

One _Basis object holds the whole state of a solve, from phase I into phase
II: the basis and its inverse, the right-hand side, the pivot budget and the
counters that LPSolution reports.  An optimal LPSolution carries its basis
with its B^-1, so it is itself a warm start.  Between the LPs of a
reweighting run only the cost vector (w, w) changes, so the previous optimal
basis is still primal-feasible and the next LP can start phase II from it
directly (warm start; Chvatal, Linear Programming, 1983).  That LP adopts a
copy of the B^-1 instead of inverting the basis again, and REFACTOR_EVERY
counts the updates since the inverse was last formed across the LPs it
passes through.
Every B^-1 the solve forms, refactors included, missing B B^-1 = I by more
than BASIS_INVERSE_TOL raises CertificationError.  An adopted B^-1 goes
unchecked only on the very matrix it was updated on, as it would within one
solve; on any other it must meet the same bound.  A supplied basis, warm or
crash, formed or adopted, goes to phase I when it misses that check or when
its basic point is not primal-feasible by the rule that certifies the
answer: no basic value below -feas_tol and a residual within feas_tol.
When phase I drops redundant rows, the optimal basis spans the kept rows
only and the solution names them, so that a caller can warm-start later LPs
on those rows.  Either way the result passes the same explicit
certification checks, on its primal residual and on the reduced costs
recomputed from the final basis inverse, which raise CertificationError
and, unlike asserts, also run under ``python -O``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, as_vector

__all__ = [
    "LPStatus",
    "LPProblem",
    "LPSolution",
    "SolverError",
    "CertificationError",
    "SimplexStalledError",
    "LPInfeasibleError",
    "default_pivot_budget",
    "solve_standard_form",
    "weighted_l1_lp",
]

# Entries smaller than this are treated as zero in ratio tests and when
# deciding whether a column can pivot an artificial out of the basis.
PIVOT_TOL = 1e-10
# How far below zero the Harris ratio test lets a basic value go; a pivot
# whose leaving value is at most this counts as degenerate.
HARRIS_TOL = 1e-9
# A run of STALL_GUARD * (m + n) consecutive degenerate pivots in a phase
# switches it to Bland's rule until a step moves: 900 at 50x400, where the
# benchmark workloads' longest run is 129.
STALL_GUARD = 2
# Basic values below -LIFT_TOL at the optimum are lifted back by dual
# simplex pivots before certification.  Smaller drift is rounding noise:
# chasing it costs pivots, and at 0 the dual pivots can cycle.
LIFT_TOL = 1e-12
# Full basis-inverse rebuild cadence; a pivot element below REFACTOR_PIVOT_TOL
# in magnitude triggers a rebuild as well.
REFACTOR_EVERY = 50
REFACTOR_PIVOT_TOL = 1e-6
# Default feas_tol: bound of the certification checks and of basis feasibility.
FEAS_TOL = 1e-9
# Largest entry of |B B^-1 - I| for which a computed B^-1 counts as an
# inverse.  Inversion raises only on exact singularity; a basis with a
# repeated column inverts to entries of ~1e16 and misses I by O(1), while the
# bases of 50x200 instances miss it by under 1e-11.
BASIS_INVERSE_TOL = 1e-6
# Reweighted least-squares steps that rank the crash basis columns, and the
# smoothing eps of their weights as a fraction of the largest magnitude in
# the min-norm solution.
CRASH_IRLS_STEPS = 5
CRASH_IRLS_EPS = 1e-3


class SolverError(Exception):
    """Base class for LP/recovery failures that a benchmark should record."""


class CertificationError(SolverError):
    """A solve ended in a state its explicit checks could not certify."""


class SimplexStalledError(SolverError):
    """Pivot budget exhausted before reaching a certified terminal state."""

    def __init__(self, pivots: int):
        super().__init__(f"simplex stalled: pivot budget exhausted after {pivots} pivots")
        self.pivots = pivots

    def __reduce__(self):  # rebuilt from its own argument, so that it pickles
        return type(self), (self.pivots,)


class LPInfeasibleError(SolverError):
    """Raised by callers that require a feasible system (e.g. weighted_l1_lp)."""


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LPProblem:
    """Standard-form LP: min c'z s.t. a_eq z = b_eq, z >= 0."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a_eq)
        object.__setattr__(self, "a_eq", a)
        object.__setattr__(self, "c", as_vector(self.c, length=a.shape[1]))
        object.__setattr__(self, "b_eq", as_vector(self.b_eq, length=a.shape[0]))
        if a.shape[0] > a.shape[1]:
            raise ValueError(
                f"standard form requires rows <= cols, got {a.shape[0]}x{a.shape[1]}"
            )

    @property
    def m(self) -> int:
        return self.a_eq.shape[0]

    @property
    def n(self) -> int:
        return self.a_eq.shape[1]

    def residual(self, z: np.ndarray) -> np.ndarray:
        """a_eq z - b_eq."""
        return self.a_eq @ z - self.b_eq


class _SplitLP:
    """The split LP  min c'(u, v)  s.t.  A u - A v = b,  u, v >= 0,  i.e. the
    standard form with a_eq = [A, -A], formed here.  Its residual is
    A (u - v) - b at the x that weighted_l1_lp returns, not [A, -A] z - b,
    which differs when u_j and v_j cancel.  weighted_l1_lp builds it from
    inputs it has already validated, and hands in the a_eq that an earlier
    split LP formed from the same A."""

    def __init__(self, c: np.ndarray, a: np.ndarray, b_eq: np.ndarray,
                 a_eq: np.ndarray | None = None):
        self.c, self.a, self.b_eq = c, a, b_eq
        self.a_eq = np.hstack([a, -a]) if a_eq is None else a_eq
        self.m, self.n = self.a_eq.shape

    def x(self, z: np.ndarray) -> np.ndarray:
        """u - v of z = (u, v)."""
        return z[:self.a.shape[1]] - z[self.a.shape[1]:]

    def residual(self, z: np.ndarray) -> np.ndarray:
        """A x - b_eq at x = u - v."""
        return self.a @ self.x(z) - self.b_eq


@dataclass(frozen=True, eq=False)
class LPSolution:
    """``basis`` holds the optimal basis's column indices (None unless OPTIMAL);
    when phase I dropped redundant rows it has fewer than m entries and
    ``rows`` holds the indices of the kept rows, which the basis spans (None
    when every row was kept).  ``phase1_pivots`` counts the pivots of phase I
    and of driving out its artificials, 0 when the supplied basis was
    accepted; ``degenerate_pivots`` those whose leaving basic value was at
    most HARRIS_TOL, so that the step did not move; ``guard_pivots`` those
    made by the stall guard's Bland rule.  ``refactors`` counts the rebuilds
    of B^-1 from scratch after a basis was first inverted or adopted.

    An OPTIMAL solution is the ``initial_basis`` of another LP on the same
    rows: ``binv`` is its basis's B^-1, ``updates`` the pivots that have
    updated that inverse since it was last formed from scratch, and
    ``problem`` the problem whose rows the basis spans (None when phase I
    dropped rows).  A solve adopts copies of the basis and the inverse, so
    one solution can start any number of solves."""

    status: LPStatus
    z: np.ndarray | None
    objective: float
    pivots: int
    basis: np.ndarray | None = None
    phase1_pivots: int = 0
    refactors: int = 0
    degenerate_pivots: int = 0
    guard_pivots: int = 0
    rows: np.ndarray | None = None
    binv: np.ndarray | None = field(default=None, repr=False)
    updates: int = 0
    problem: LPProblem | _SplitLP | None = field(default=None, repr=False)


def default_pivot_budget(m: int, n: int) -> int:
    return 50 * (m + n)


class _Basis:
    """Whole state of one solve: the column indices and B^-1 of a basis of the
    constraint matrix s, the right-hand side b, the pivot budget and the
    counts of pivots and refactors across the solve's phases.  s is a_eq,
    or [a_eq, diag(sign b)] in phase I; ``rebase`` moves the state to
    another matrix and b, for phase II and when the drive-out drops a row.
    ``updates`` counts the pivots since B^-1 was last formed from scratch,
    in this solve or, for an adopted LPSolution, in the solves before it.
    """

    def __init__(self, s: np.ndarray, basis, b: np.ndarray, budget: float = np.inf):
        self.budget = budget
        self.pivots = self.phase1_pivots = self.degenerate = self.guarded = self.refactors = 0
        if isinstance(basis, LPSolution):
            self.adopt(s, basis, b)
        else:
            self.rebase(s, basis, b)

    def rebase(self, s: np.ndarray, basis, b: np.ndarray) -> None:
        """Invert ``basis`` of s; right-hand side b.  CertificationError if B
        does not invert or B B^-1 misses I by > BASIS_INVERSE_TOL."""
        self.s, self.b = s, b
        self.basis = np.array(basis, dtype=int)
        bmat = s[:, self.basis]
        try:
            self.binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:
            raise CertificationError(f"basis does not invert: {exc}") from exc
        self._check(bmat)
        self.updates = 0

    def adopt(self, s: np.ndarray, start: LPSolution, b: np.ndarray) -> None:
        """Take copies of ``start``'s basis and B^-1 as a basis of s, with its
        update count; right-hand side b.  On the matrix it was updated on the
        inverse goes on unchecked, as it would within one solve; on any other
        it raises CertificationError where a formed one would."""
        self.s, self.b = s, b
        self.basis = np.array(start.basis, dtype=int)
        self.binv = start.binv.copy()
        if start.problem is None or start.problem.a_eq is not s:
            if len(self.basis) != s.shape[0]:
                raise CertificationError(f"basis of {len(self.basis)} columns "
                                         f"for {s.shape[0]} rows")
            self._check(s[:, self.basis])
        self.updates = start.updates

    def _check(self, bmat: np.ndarray) -> None:
        miss = float(np.max(np.abs(bmat @ self.binv - np.eye(len(bmat))), initial=0.0))
        if miss > BASIS_INVERSE_TOL:
            raise CertificationError(f"basis inverse misses B B^-1 = I by {miss:.3g}")

    def solution(self, status: LPStatus, z, objective: float, **fields) -> LPSolution:
        return LPSolution(status, z, objective, self.pivots, phase1_pivots=self.phase1_pivots,
                          refactors=self.refactors, degenerate_pivots=self.degenerate,
                          guard_pivots=self.guarded, **fields)

    def values(self) -> np.ndarray:
        """The basic values B^-1 b."""
        return self.binv.dot(self.b)

    def point(self, n: int) -> np.ndarray:
        """The basic solution in n columns, its basic values clipped at zero."""
        z = np.zeros(n)
        z[self.basis] = np.maximum(self.values(), 0.0)
        return z

    def direction(self, j: int) -> np.ndarray:
        """B^-1 times column j."""
        return self.binv.dot(self.s[:, j])

    def reduced_costs(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """c - y s with y = c_B B^-1 into ``out``, basic entries set to +inf."""
        np.subtract(c, c[self.basis].dot(self.binv).dot(self.s), out=out)
        out[self.basis] = np.inf
        return out

    def tableau_row(self, r: int) -> np.ndarray:
        """Row r of B^-1 s, zero at the basic columns."""
        row = self.binv[r].dot(self.s)
        row[self.basis] = 0.0
        return row

    def refactor(self):
        self.rebase(self.s, self.basis, self.b)
        self.refactors += 1

    def pivot(self, row: int, col: int, direction: np.ndarray):
        """Replace basis[row] by col; update B^-1 by an elimination step.
        Raises SimplexStalledError when the solve's pivot budget is spent."""
        if self.pivots >= self.budget:
            raise SimplexStalledError(self.pivots)
        self.pivots += 1
        self.basis[row] = col
        piv = direction[row]
        binv = self.binv
        r = binv[row] / piv
        binv -= np.dot(direction[:, None], r[None, :])
        binv[row] = r
        self.updates += 1
        if self.updates >= REFACTOR_EVERY or abs(piv) < REFACTOR_PIVOT_TOL:
            self.refactor()


def _leaving_row(d: np.ndarray, xb: np.ndarray, bland_basis: np.ndarray | None = None
                 ) -> int | None:
    """Harris's two-pass ratio test (Harris, Math. Programming 5, 1973).

    Pass 1 bounds the step by theta = min (xb_i + HARRIS_TOL) / d_i over the
    blocking rows (d_i > PIVOT_TOL); pass 2 takes the largest d_i among the
    rows whose ratio xb_i / d_i is at most theta.  Under the stall guard
    (``bland_basis`` given) it is Bland's rule instead: the exact minimum
    ratio, ties to the smallest basic index.  None means no row blocks.
    """
    blocking = (d > PIVOT_TOL).nonzero()[0]
    if blocking.size == 0:
        return None
    xbb, db = xb[blocking], d[blocking]
    ratios = xbb / db
    if bland_basis is not None:
        rows = blocking[ratios <= ratios.min()]
        return int(rows[bland_basis[rows].argmin()])
    near = ratios <= ((xbb + HARRIS_TOL) / db).min()
    return int(blocking[near][db[near].argmax()])


def _run_phase(state: _Basis, c: np.ndarray, feas_tol: float) -> LPStatus:
    """Pivot until optimal or unbounded; raises SimplexStalledError when the
    solve's pivot budget runs out.

    The entering column is the nonbasic one with the most negative reduced
    cost below -feas_tol, smallest index on ties: basic entries are set to
    +inf, so one argmin finds it; the leaving row comes from _leaving_row's
    Harris test.  Harris's test can cycle among degenerate vertices, so after
    STALL_GUARD * (m + n) consecutive degenerate pivots the phase makes
    Bland's smallest-index choices (Bland, Math. Oper. Res. 2, 1977), which
    cannot cycle, until a step moves.
    """
    if c.shape[0] == 0:
        return LPStatus.OPTIMAL  # no column can enter
    reduced = np.empty(c.shape[0])
    stall_limit = STALL_GUARD * (len(state.basis) + c.shape[0])
    stalled = 0
    while True:
        state.reduced_costs(c, reduced)
        guard = stalled >= stall_limit
        entering = int((reduced < -feas_tol).argmax() if guard else reduced.argmin())
        if not reduced[entering] < -feas_tol:
            return LPStatus.OPTIMAL

        d = state.direction(entering)
        xb = state.values()
        row = _leaving_row(d, xb, state.basis if guard else None)
        if row is None:
            return LPStatus.UNBOUNDED
        if xb[row] <= HARRIS_TOL:
            stalled += 1
            state.degenerate += 1
        else:
            stalled = 0
        state.guarded += guard
        state.pivot(row, entering, d)


def _lift_negative_basics(state: _Basis, c: np.ndarray) -> None:
    """Dual simplex pivots from an optimal basis until no basic value is below
    -LIFT_TOL.  The most negative basic leaves; the dual ratio test picks the
    entering column among the leaving row's negative entries, the one with
    the least reduced cost per unit of entry, which keeps the reduced costs
    nonnegative."""
    while True:
        xb = state.values()
        if xb.min(initial=0.0) >= -LIFT_TOL:
            return
        r = int(xb.argmin())
        reduced = state.reduced_costs(c, np.empty(c.shape[0]))
        row = state.tableau_row(r)
        cand = (row < -PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            return  # row r proves infeasibility; certification reports the residual
        entering = int(cand[np.argmin(np.maximum(reduced[cand], 0.0) / -row[cand])])
        state.pivot(r, entering, state.direction(entering))


def solve_standard_form(problem: LPProblem, feas_tol: float = FEAS_TOL,
                        initial_basis: np.ndarray | LPSolution | None = None) -> LPSolution:
    """Two-phase revised simplex.

    OPTIMAL solutions are certified: reduced costs >= -feas_tol and
    ``||a_eq z - b_eq||_inf <= feas_tol``.  Spending the pivot budget,
    default_pivot_budget(m, n), raises SimplexStalledError rather than
    returning an uncertified point, and a failed certification raises
    CertificationError.  When ``initial_basis`` names a square, numerically
    invertible basis whose basic point, clipped at zero, passes the residual
    check above with no basic value below -feas_tol, phase I is skipped; any
    other basis of column indices in [0, n) falls back to phase I, and one
    with another entry raises ValueError.  ``initial_basis`` is column
    indices, whose B^-1 the solve forms, or another solve's OPTIMAL
    LPSolution, whose B^-1 it adopts; both are vetted alike.
    ``problem`` is an LPProblem or the split LP of weighted_l1_lp, whose
    residual is taken at x = u - v.
    """
    if feas_tol <= 0:
        raise ValueError(f"feas_tol must be > 0, got {feas_tol}")
    m, n = problem.m, problem.n
    a, b = problem.a_eq, problem.b_eq
    budget = default_pivot_budget(m, n)
    rows = state = None
    if initial_basis is not None:
        idx = np.asarray(initial_basis.basis if isinstance(initial_basis, LPSolution)
                         else initial_basis)
        if (idx.ndim != 1 or idx.size and idx.dtype.kind not in "iu"
                or not np.all((idx >= 0) & (idx < n))):
            raise ValueError(f"initial_basis must list integer column indices in [0, {n})")
        try:  # a start that does not invert, or is infeasible, falls back to phase I
            cand = _Basis(a, initial_basis, b, budget)
            if (cand.values().min(initial=0.0) >= -feas_tol
                    and _residual(problem, cand.point(n)) <= feas_tol):
                state = cand
        except CertificationError:
            pass

    if state is None:
        # Phase I: artificial basis, minimize the sum of artificials.  Row i's
        # artificial is sign(b_i) e_i, so its basic value is |b_i|.
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        state = _Basis(np.hstack([a, np.diag(np.where(b < 0, -1.0, 1.0))]),
                       np.arange(n, n + m), b, budget)
        if _run_phase(state, c1, feas_tol) is LPStatus.UNBOUNDED:  # bounded below by 0
            raise CertificationError("phase I ended unbounded")
        if float(c1[state.basis] @ np.maximum(state.values(), 0.0)) > feas_tol:
            state.phase1_pivots = state.pivots
            return state.solution(LPStatus.INFEASIBLE, None, 0.0)
        kept = _drive_out_artificials(state, n)
        if kept.size < m:
            a, rows = a[kept], kept
        state.rebase(a, state.basis, state.b)
    state.phase1_pivots = state.pivots

    # Phase II on the structural columns only.
    c = problem.c
    if _run_phase(state, c, feas_tol) is LPStatus.UNBOUNDED:
        return state.solution(LPStatus.UNBOUNDED, None, float("-inf"))
    _lift_negative_basics(state, c)
    z = _certified_point(problem, state, c, feas_tol)
    return state.solution(LPStatus.OPTIMAL, z, float(c @ z), basis=state.basis, rows=rows,
                          binv=state.binv, updates=state.updates,
                          problem=problem if rows is None else None)


def _certified_point(problem: LPProblem, state: _Basis, c: np.ndarray,
                     feas_tol: float) -> np.ndarray:
    """The basic solution z of ``state``, certified by an explicit check of
    its primal residual (at most feas_tol) and of the reduced costs of the
    basis (at least -feas_tol); one fresh factorization of B before a miss
    raises CertificationError."""
    reduced = np.empty(c.shape[0])
    for attempt in range(2):
        if attempt:
            state.refactor()
        z = state.point(problem.n)
        residual = _residual(problem, z)
        worst = float(state.reduced_costs(c, reduced).min(initial=np.inf))
        if residual <= feas_tol and worst >= -feas_tol:
            return z
    if residual > feas_tol:
        raise CertificationError(f"primal residual {residual:.3g} exceeds feas_tol {feas_tol:g}")
    raise CertificationError(f"reduced cost {worst:.3g} below -feas_tol {feas_tol:g}")


def _residual(problem: LPProblem, z: np.ndarray) -> float:
    return float(np.max(np.abs(problem.residual(z)), initial=0.0))


def _drive_out_artificials(state: _Basis, n: int) -> np.ndarray:
    """Pivot artificials out of the phase-I basis; drop rows proven redundant.

    Drive-out pivots are degenerate (the leaving artificial sits at zero), so
    a negative pivot element is acceptable.  When a basis position has no
    usable structural column, its tableau row certifies a linear dependence
    among the original constraints; the row with the largest basis-inverse
    weight is deleted, which keeps the remaining basis nonsingular.  Its
    artificial is left a zero column, which is nonbasic (only position r
    weighs that row) and never enters.  Returns the indices of the kept rows.
    """
    rows = np.arange(state.s.shape[0])
    while True:
        art_positions = np.flatnonzero(state.basis >= n)
        if art_positions.size == 0:
            return rows
        r = int(art_positions[0])
        usable = np.flatnonzero(np.abs(state.tableau_row(r)[:n]) > PIVOT_TOL)
        if usable.size > 0:
            entering = int(usable[0])
            state.pivot(r, entering, state.direction(entering))
        else:
            drop = int(np.argmax(np.abs(state.binv[r, :])))
            rows = np.delete(rows, drop)
            state.rebase(np.delete(state.s, drop, axis=0), np.delete(state.basis, r),
                         np.delete(state.b, drop))


def _crash_basis(am: np.ndarray, bv: np.ndarray) -> np.ndarray | None:
    """Feasible starting basis for the split LP, if the ranked columns allow.

    Takes the m columns of A with the largest magnitudes in _crash_ranking's
    iterate, in rank order with ties to the lower index; for each, the
    u-copy or the v-copy is picked so the basic values come out
    nonnegative.  A zero iterate ranks the columns in index order, which
    gives the leading m columns.  Returns None when the picked block is
    exactly singular or not square; solve_standard_form vets the rest like
    any basis.
    """
    m, n = am.shape
    picked = np.argsort(-np.abs(_crash_ranking(am, bv)), kind="stable")[:m]
    try:
        x = np.linalg.solve(am[:, picked], bv)
    except np.linalg.LinAlgError:
        return None
    return np.where(x >= 0, picked, picked + n)


def _crash_ranking(am: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """Iteratively reweighted least-squares estimate of a sparse solution.

    Starts from the min-norm solution A^T (A A^T)^-1 b and takes
    CRASH_IRLS_STEPS steps x <- D A^T (A D A^T)^-1 b with
    D = diag((|x| + eps)^2), eps = CRASH_IRLS_EPS * max|x| of the min-norm
    solution (Chartrand and Yin, ICASSP 2008).  A step that fails ends the
    loop with the last good iterate, which is all zeros if the min-norm
    step fails.
    """
    x = _min_weighted_norm(am, bv, np.ones(am.shape[1]))
    if x is None:
        return np.zeros(am.shape[1])
    eps = CRASH_IRLS_EPS * float(np.abs(x).max())
    for _ in range(CRASH_IRLS_STEPS):
        step = _min_weighted_norm(am, bv, np.abs(x) + eps)
        if step is None:
            break
        x = step
    return x


def _min_weighted_norm(am: np.ndarray, bv: np.ndarray, s: np.ndarray) -> np.ndarray | None:
    """D A^T (A D A^T)^-1 b with D = diag(s^2), the solution of A x = b with
    the least sum of (x_i / s_i)^2; None when the solve raises LinAlgError
    or gives a non-finite or all-zero x."""
    scaled = am * s  # A D A^T = (A S)(A S)^T
    try:
        y = np.linalg.solve(scaled @ scaled.T, bv)
    except np.linalg.LinAlgError:
        return None
    x = s * (scaled.T @ y)
    return x if np.isfinite(x).all() and x.any() else None


def weighted_l1_lp(w, a, b, feas_tol: float = FEAS_TOL,
                   initial_basis: np.ndarray | LPSolution | None = None
                   ) -> tuple[np.ndarray, float, int, LPSolution]:
    """Minimize sum_i w_i |x_i| subject to A x = b, via the split x = u - v.

    Requires strictly positive weights (which also guarantees a bounded LP).
    ``initial_basis`` is a starting basis of the split LP, typically the
    LPSolution returned by a previous solve on the same A and b; by default
    the crash basis.  Given the very A and b objects of that solve, the LP
    reuses the [A, -A] it formed and skips validating them again, so they
    must not have been changed in place since.  Returns
    (x, objective, pivots, solution) with the OPTIMAL LPSolution of the
    split LP, whose ``basis`` holds the optimal basis's column indices;
    ``solution.rows`` is None unless phase I dropped redundant rows, and then
    holds the kept rows: the solution is a warm start for the same LP on
    A[rows], b[rows].  Raises LPInfeasibleError if the system has no
    solution, ValueError for an ``initial_basis`` entry that is not a column
    index of the split LP, and propagates SimplexStalledError and
    CertificationError from the simplex.
    """
    prev = initial_basis.problem if isinstance(initial_basis, LPSolution) else None
    if isinstance(prev, _SplitLP) and prev.a is a and prev.b_eq is b:
        am, bv, a_eq = a, b, prev.a_eq
    else:
        am = as_matrix(a)
        bv = as_vector(b, length=am.shape[0])
        a_eq = None
    wv = as_vector(w, length=am.shape[1])
    if np.any(wv <= 0):
        raise ValueError("weighted_l1_lp requires all weights > 0")

    if am.shape[0] > 2 * am.shape[1]:
        raise ValueError(f"standard form requires rows <= cols, "
                         f"got {am.shape[0]}x{2 * am.shape[1]}")
    split = _SplitLP(np.concatenate([wv, wv]), am, bv, a_eq)
    if initial_basis is None:
        initial_basis = _crash_basis(am, bv)
    sol = solve_standard_form(split, feas_tol=feas_tol, initial_basis=initial_basis)
    if sol.status is LPStatus.INFEASIBLE:
        raise LPInfeasibleError("system A x = b is infeasible")
    if sol.status is not LPStatus.OPTIMAL:  # positive weights rule out unboundedness
        raise CertificationError(f"weighted-l1 LP ended {sol.status.value}")
    return split.x(sol.z), sol.objective, sol.pivots, sol
