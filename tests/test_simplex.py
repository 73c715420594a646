import dataclasses
import pickle

import numpy as np
import pytest

import rwl1.simplex
from rwl1.bench import trial_seed
from rwl1.instances import DistributionSpec, make_instance
from rwl1.simplex import (BASIS_INVERSE_TOL, REFACTOR_EVERY, CertificationError,
                          LPInfeasibleError, LPProblem, LPSolution, LPUnboundedError,
                          SimplexStalledError, _Basis,
                          _certified_point, _crash_basis, default_pivot_budget,
                          solve_standard_form, weighted_l1_lp)
from rwl1.solver import ReweightedSolveError

from oracles import enumerate_standard_form_optimum, enumerate_weighted_l1_optimum
from test_golden_solver import case_system, special_instance


def solve(c, a, b, **kw):
    return solve_standard_form(LPProblem(c=c, a_eq=a, b_eq=b), **kw)


def split_solve(w, a, b, **kw):
    """weighted_l1_lp's result and the LPSolution of the split LP it solved."""
    seen = []
    real = rwl1.simplex.solve_standard_form

    def capture(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    rwl1.simplex.solve_standard_form = capture
    try:
        out = weighted_l1_lp(w, a, b, **kw)
    finally:
        rwl1.simplex.solve_standard_form = real
    assert len(seen) == 1
    return out, seen[0]


class TestSolveStandardForm:
    def test_all_points_same_objective(self):
        sol = solve([1.0, 1.0], [[1.0, 1.0]], [1.0])
        assert sol.objective == pytest.approx(1.0, abs=1e-12)

    def test_unbounded_ray(self, monkeypatch):
        with pytest.raises(LPUnboundedError):
            solve([-1.0, 0.0], [[1.0, -1.0]], [0.0])
        # the budget is checked when a pivot is made, so a ray found with the
        # budget spent is still reported
        monkeypatch.setattr(rwl1.simplex, "default_pivot_budget", lambda m, n: 0)
        with pytest.raises(LPUnboundedError):
            solve([-1.0, 0.0], [[1.0, -1.0]], [0.0], initial_basis=[1])

    def test_sign_contradiction_infeasible(self):
        with pytest.raises(LPInfeasibleError, match="system A x = b is infeasible"):
            solve([1.0], [[1.0]], [-1.0])

    def test_redundant_row_is_harmless(self):
        # second row duplicates the first; consistent system
        sol = solve([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LPProblem(c=[np.nan, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])

    def test_empty_lp_is_optimal(self):
        sol = solve([], np.zeros((0, 0)), [])
        assert sol.pivots == 0 and sol.z.shape == (0,)

    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(ValueError, match="rows <= cols"):
            LPProblem(c=[1.0], a_eq=[[1.0], [2.0]], b_eq=[1.0, 2.0])
        with pytest.raises(ValueError, match="rows <= cols, got 3x2"):  # the split LP's 2 columns
            weighted_l1_lp([1.0], [[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("feas_tol", [0.0, -1e-9])
    def test_nonpositive_feas_tol_rejected(self, feas_tol):
        with pytest.raises(ValueError, match="feas_tol must be > 0"):
            solve([1.0], [[1.0]], [1.0], feas_tol=feas_tol)

    def test_stalled_error_on_tiny_budget(self, monkeypatch):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 9))
        z0 = np.abs(rng.normal(size=9)) + 0.5
        b = a @ z0
        monkeypatch.setattr(rwl1.simplex, "default_pivot_budget", lambda m, n: 1)
        with pytest.raises(SimplexStalledError):
            solve(np.abs(rng.normal(size=9)) + 0.1, a, b)

    def test_stalled_error_pickles(self):
        copied = pickle.loads(pickle.dumps(SimplexStalledError(5)))
        assert type(copied) is SimplexStalledError and copied.pivots == 5
        assert str(copied) == "simplex stalled: pivot budget exhausted after 5 pivots"

    @pytest.mark.parametrize("error, lp", [
        (LPInfeasibleError, ([1.0], [[1.0]], [-1.0])),
        (LPUnboundedError, ([-1.0, 0.0], [[1.0, -1.0]], [0.0])),
    ], ids=["infeasible", "unbounded"])
    def test_end_error_pickles(self, error, lp):
        # as the cause of a ReweightedSolveError it can cross a process pool
        with pytest.raises(error) as caught:
            solve(*lp)
        copied = pickle.loads(pickle.dumps(ReweightedSolveError([], caught.value))).cause
        assert type(copied) is error and str(copied) == str(caught.value)

    def test_phase1_drives_out_a_degenerate_artificial(self, monkeypatch):
        # b = 0: phase I is optimal at once with its artificial basic at zero,
        # and one degenerate pivot brings a structural column in for it
        sol = solve([1.0, 2.0], [[-1.0, -1.0]], [0.0])
        np.testing.assert_array_equal(sol.z, [0.0, 0.0])
        assert sol.objective == 0.0
        assert sol.pivots == sol.phase1_pivots == 1
        monkeypatch.setattr(rwl1.simplex, "default_pivot_budget", lambda m, n: 0)
        with pytest.raises(SimplexStalledError) as exc:  # the drive-out pivot needs budget too
            solve([1.0, 2.0], [[-1.0, -1.0]], [0.0])
        assert exc.value.pivots == 0

    def test_matches_bfs_enumeration_on_seeded_lps(self):
        # feasible bounded LPs: b from an interior point, strictly positive costs
        rng = np.random.default_rng(11)
        for trial in range(100):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(m + 1, 9))
            a = rng.normal(size=(m, n))
            z0 = np.abs(rng.normal(size=n)) + 0.5
            b = a @ z0
            c = np.abs(rng.normal(size=n)) + 0.1
            sol = solve(c, a, b)
            oracle = enumerate_standard_form_optimum(c, a, b)
            assert oracle is not None
            assert sol.objective == pytest.approx(oracle, abs=1e-8), f"trial {trial}"
            # certified feasibility and nonnegativity
            assert np.min(sol.z) >= -1e-9
            assert np.max(np.abs(a @ sol.z - b)) <= 1e-9


class TestCycling:
    """Textbook LPs on which a degenerate pivoting rule can cycle, each from
    its slack basis.  Harris's ratio test alone cycles on Kuhn's example until
    the pivot budget runs out; the stall guard's Bland rule ends the cycle."""

    # (A, b, c, starting basis, optimum)
    KUHN = ([[-2, -9, 1, 9, 1, 0, 0],
             [1 / 3, 1, -1 / 3, -2, 0, 1, 0],
             [2, 3, -1, -12, 0, 0, 1]],
            [0, 0, 2], [-2, -3, 1, 12, 0, 0, 0], [4, 5, 6], -2.0)
    BEALE = ([[1, 0, 0, 1 / 4, -8, -1, 9],
              [0, 1, 0, 1 / 2, -12, -1 / 2, 3],
              [0, 0, 1, 0, 0, 1, 0]],
             [0, 0, 1], [0, 0, 0, -3 / 4, 20, -1 / 2, 6], [0, 1, 2], -1.25)

    @pytest.mark.parametrize("example", ["KUHN", "BEALE"])
    def test_reaches_optimum(self, example):
        a, b, c, basis, optimum = getattr(self, example)
        sol = solve(c, a, b, initial_basis=basis)
        assert sol.phase1_pivots == 0
        assert sol.objective == pytest.approx(optimum, abs=1e-12)

    def test_stall_guard_fires_on_kuhns_example(self):
        a, b, c, basis, _ = self.KUHN
        sol = solve(c, a, b, initial_basis=basis)
        # the guard starts after 2 (m + n) = 20 degenerate pivots
        assert 0 < sol.guard_pivots < sol.pivots
        assert sol.degenerate_pivots >= 20


class TestCertification:
    """Every OPTIMAL LP passes explicit primal-residual and reduced-cost checks."""

    def test_reduced_cost_check_rejects_a_non_optimal_basis(self):
        problem = LPProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        state = _Basis(problem.a_eq, [0], problem.b_eq)
        z = _certified_point(problem, state, problem.c, 1e-9)
        np.testing.assert_array_equal(z, [1.0, 0.0])
        # z = (0, 1) is feasible, but column 0 prices out at 1 - 2 = -1
        state = _Basis(problem.a_eq, [1], problem.b_eq)
        with pytest.raises(CertificationError, match="reduced cost -1 below"):
            _certified_point(problem, state, problem.c, 1e-9)
        assert state.refactors == 1  # one fresh factorization before giving up

    def test_split_residual_is_measured_at_x(self):
        # a cancelling pair u_j = v_j = 1e8 leaves x_j = 0, but [A, -A] z
        # rounds it into the product; certification measures the x callers get
        inst = make_instance(DistributionSpec.default("normal"), 50, 200, 8, 3)
        a, b = inst.a, inst.b
        (_, _, _, solution), sol = split_solve(np.ones(200), a, b)
        z = sol.z.copy()
        j = int(np.setdiff1d(np.arange(200), solution.basis % 200)[0])
        z[j] = z[200 + j] = 1e8
        problem = rwl1.simplex._SplitLP(np.ones(400), a, b)
        at_x = float(np.max(np.abs(a @ (z[:200] - z[200:]) - b)))
        assert rwl1.simplex._residual(problem, z) == at_x
        assert float(np.max(np.abs(np.hstack([a, -a]) @ z - b))) != at_x

    def test_near_degenerate_right_hand_sides_certify(self):
        # the l1 LPs of the figure grid with b moved by B_crash delta,
        # delta_i = 1e-9 max|b|: still feasible from the crash basis, but
        # nearly degenerate, so pivots leave basics a little below zero, and
        # clipping those at zero misses the residual bound on about half of
        # these 130 LPs, by up to 5e-8
        for k in range(1, 26, 2):
            for t in range(10):
                inst = make_instance(DistributionSpec.default("normal"), 50, 200, k,
                                     trial_seed(42, k, 0, t))
                a = inst.a
                basis = _crash_basis(a, inst.b)
                signed = np.where(basis < 200, 1.0, -1.0) * a[:, basis % 200]
                b = inst.b + signed @ np.full(50, 1e-9 * np.abs(inst.b).max())
                (x, *_), sol = split_solve(np.ones(200), a, b)
                assert np.max(np.abs(a @ x - b)) <= 1e-9


class TestInitialBasis:
    """solve_standard_form from a supplied basis: warm start or phase-I fallback."""

    @staticmethod
    def lp():
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 14))
        b = a @ (np.abs(rng.normal(size=14)) + 0.5)
        return np.abs(rng.normal(size=14)) + 0.1, a, b

    @staticmethod
    def assert_certified_cold_optimum(sol, cold, a, b):
        assert np.min(sol.z) >= 0.0
        assert np.max(np.abs(a @ sol.z - b)) <= 1e-9
        assert sol.objective == pytest.approx(cold.objective, rel=1e-12)

    def test_optimal_basis_resolves_in_zero_pivots(self):
        c, a, b = self.lp()
        cold = solve(c, a, b)
        assert cold.pivots > 0 and cold.basis.shape == (6,)
        warm = solve(c, a, b, initial_basis=cold.basis)
        assert warm.pivots == 0
        np.testing.assert_array_equal(warm.basis, cold.basis)
        self.assert_certified_cold_optimum(warm, cold, a, b)

    @pytest.mark.parametrize("bad", [14, -1, 1.5])
    def test_entry_that_is_no_column_index_rejected(self, bad):
        # on this LP and on the split LP of its first 7 columns, both with
        # n = 14: unchecked, index n would escape as IndexError, -1 would wrap
        # to the last column (on the split LP to another column than the one
        # priced) and 1.5 would truncate to 1
        c, a, b = self.lp()
        for resolve in (lambda basis: solve(c, a, b, initial_basis=basis),
                        lambda basis: split_solve(c[:7], a[:, :7], b, initial_basis=basis)[1]):
            basis = resolve(None).basis
            assert resolve(basis).pivots == 0  # a valid warm basis still re-solves at once
            basis = list(basis)
            basis[2] = bad
            with pytest.raises(ValueError, match=r"integer column indices in \[0, 14\)"):
                resolve(basis)

    def test_singular_basis_falls_back_to_phase_one(self):
        c, a, b = self.lp()
        a[:, 13] = 0.0
        cold = solve(c, a, b)
        sol = solve(c, a, b, initial_basis=[13, 0, 1, 2, 3, 4])  # zero column
        self.assert_certified_cold_optimum(sol, cold, a, b)
        assert sol.pivots == cold.pivots  # the same phase-I path as no basis at all
        np.testing.assert_array_equal(sol.z, cold.z)

    @pytest.mark.parametrize("seed", [5, 16, 22])
    def test_repeated_column_basis_falls_back_to_phase_one(self, seed):
        # np.linalg.inv does not raise on these bases: it returns entries of
        # ~1e16 whose basic values pass the feasibility test, and phase II from
        # them ends in a failed certification or a wrong "optimal" vertex.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 14))
        b = a[:, :5] @ (np.abs(rng.normal(size=5)) + 0.5)
        c = np.abs(rng.normal(size=14)) + 0.1
        cold = solve(c, a, b)
        sol = solve(c, a, b, initial_basis=[0, 0, 1, 2, 3, 4])
        self.assert_certified_cold_optimum(sol, cold, a, b)
        assert sol.pivots == cold.pivots
        np.testing.assert_array_equal(sol.z, cold.z)

    def test_infeasible_basis_falls_back_to_phase_one(self):
        c, a, b = self.lp()
        cold = solve(c, a, b)
        for start in range(14 - 6 + 1):
            basis = np.arange(start, start + 6)
            if np.min(np.linalg.solve(a[:, basis], b)) < -1e-6:
                break
        else:
            pytest.fail("no primal-infeasible basis among the contiguous windows")
        sol = solve(c, a, b, initial_basis=basis)
        self.assert_certified_cold_optimum(sol, cold, a, b)
        assert sol.pivots == cold.pivots
        np.testing.assert_array_equal(sol.z, cold.z)

    def test_basis_of_row_dropping_solve_falls_back_to_phase_one(self):
        # phase I deletes the duplicated row, so the returned basis is short
        c, a, b = [1.0, 2.0, 3.0], [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], [1.0, 1.0]
        cold = solve(c, a, b)
        assert cold.basis.shape == (1,)
        sol = solve(c, a, b, initial_basis=cold.basis)
        self.assert_certified_cold_optimum(sol, cold, np.array(a), np.array(b))
        assert sol.pivots == cold.pivots

    def test_basis_whose_point_misses_the_residual_falls_back_to_phase_one(self, monkeypatch):
        # a crash basis inverse off by 1e-8 per entry still meets B B^-1 = I
        # to BASIS_INVERSE_TOL and gives nonnegative basic values, but its
        # point misses A x = b by far more than feas_tol
        inst = make_instance(DistributionSpec.default("normal"), 50, 200, 8, 3)
        (_, objective, *_), exact = split_solve(np.ones(200), inst.a, inst.b)
        assert exact.phase1_pivots == 0
        inv, calls = np.linalg.inv, []

        def first_off(matrix):
            calls.append(matrix.shape)
            return inv(matrix) + (1e-8 if len(calls) == 1 else 0.0)

        monkeypatch.setattr(np.linalg, "inv", first_off)
        (x, perturbed_objective, *_), sol = split_solve(np.ones(200), inst.a, inst.b)
        assert calls[0] == (50, 50) and sol.phase1_pivots > 0
        assert perturbed_objective == pytest.approx(objective, abs=1e-9)
        assert np.max(np.abs(inst.a @ x - inst.b)) <= 1e-9


class TestWarmStart:
    """An optimal LPSolution hands the next LP of a run the basis and B^-1 the
    last LP ended on: the solve adopts copies of them instead of inverting,
    vets the basic point like any supplied basis and falls back to phase I on
    a miss."""

    @staticmethod
    def run_start():
        """A normal 50x200 instance, its unit-weight LP's LPSolution and the
        weights of a second LP."""
        inst = make_instance(DistributionSpec.default("normal"), 50, 200, 16, 42)
        start = weighted_l1_lp(np.ones(200), inst.a, inst.b)[3]
        return inst.a, inst.b, start, np.random.default_rng(4).uniform(0.1, 10.0, size=200)

    @staticmethod
    def formed(monkeypatch):
        """One entry per B^-1 that _Basis.rebase forms from scratch."""
        calls, rebase = [], _Basis.rebase

        def spy(self, *args):
            calls.append(args[1])
            return rebase(self, *args)

        monkeypatch.setattr(_Basis, "rebase", spy)
        return calls

    def test_adopted_start_is_never_mutated(self, monkeypatch):
        # the second LP pivots on its copy of B^-1; the start keeps its bytes,
        # so solving from it again takes the same path to the bit
        a, b, start, w = self.run_start()
        binv, basis = start.binv.tobytes(), start.basis.tobytes()
        formed = self.formed(monkeypatch)
        runs = []
        for _ in range(2):
            formed.clear()
            (x, objective, pivots, after), sol = split_solve(w, a, b, initial_basis=start)
            assert pivots > 0 and sol.phase1_pivots == 0
            assert len(formed) == sol.refactors  # adopted, not inverted
            assert start.binv.tobytes() == binv and start.basis.tobytes() == basis
            runs.append((x.tobytes(), objective, pivots, sol.z.tobytes(),
                         after.binv.tobytes(), after.basis.tobytes(), after.updates))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("system, drift", [("same", "uniform"), ("copied", "uniform"),
                                               ("copied", "orthogonal")])
    def test_drifted_inverse_falls_back_to_phase_one(self, system, drift):
        # B^-1 off by 1e-8 in every entry ("uniform"), or by 1e-3 in rows
        # orthogonal to b ("orthogonal").  On the same A and b the LP reuses
        # their [A, -A] and the adopted inverse goes on unchecked, as within
        # one solve; on a copy it must first meet B B^-1 = I.  The uniform
        # drift meets it but moves the basic point far outside the residual
        # bound; the orthogonal one keeps the point and misses B B^-1 = I.
        # Either way the solve runs phase I and certifies a fresh start's optimum.
        a, b, start, w = self.run_start()
        fresh = weighted_l1_lp(w, a, b, initial_basis=start.basis)
        if drift == "uniform":
            error = np.full((50, 50), 1e-8)
        else:
            v = np.random.default_rng(5).normal(size=50)
            error = 1e-3 * np.outer(np.ones(50), v - (v @ b) / (b @ b) * b)
        drifted = dataclasses.replace(start, binv=start.binv + error)
        split = np.hstack([a, -a])
        miss = np.max(np.abs(split[:, start.basis] @ drifted.binv - np.eye(50)))
        point = np.zeros(400)
        point[start.basis] = np.maximum(drifted.binv @ b, 0.0)
        residual = np.max(np.abs(split @ point - b))
        if drift == "uniform":
            assert miss <= BASIS_INVERSE_TOL and residual > 1e-6
        else:
            assert miss > BASIS_INVERSE_TOL and residual <= 1e-9
        if system == "copied":
            a, b = a.copy(), b.copy()
        (x, objective, *_), sol = split_solve(w, a, b, initial_basis=drifted)
        assert sol.phase1_pivots > 0
        assert objective == pytest.approx(fresh[1], abs=1e-9)
        assert np.max(np.abs(a @ x - b)) <= 1e-9

    def test_short_start_warm_starts_its_own_lp(self):
        # a start on 49 kept rows handed back with the very a and b it solved
        a, b = special_instance("rowdrop")
        (_, objective, _, start), _ = split_solve(np.ones(200), a, b)
        assert start.rows.size == 49 and len(start.basis) == 49
        (_, again, *_), sol = split_solve(np.ones(200), a, b, initial_basis=start)
        assert sol.phase1_pivots == 0 and sol.pivots == 0
        assert again == pytest.approx(objective, abs=1e-9)
        np.testing.assert_array_equal(sol.rows, start.rows)

    def test_short_start_falls_back_to_phase_one(self):
        # the same start handed to the LP on all 50 rows of another matrix
        a, b = special_instance("rowdrop")
        (_, objective, _, start), _ = split_solve(np.ones(200), a, b)
        (_, again, *_), sol = split_solve(np.ones(200), a.copy(), b, initial_basis=start)
        assert sol.phase1_pivots > 0
        assert again == pytest.approx(objective, abs=1e-9)


class TestWeightedL1:
    def test_two_vertex_example(self):
        x, obj, *_ = weighted_l1_lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)
        assert obj == pytest.approx(1.0, abs=1e-12)

    def test_unique_feasible_point(self):
        x, *_ = weighted_l1_lp([3.0, 5.0], np.eye(2), [3.0, -4.0])
        np.testing.assert_allclose(x, [3.0, -4.0], atol=1e-12)

    def test_no_rows_gives_zero(self):
        # the crash basis of a 0-row system is empty and must still be accepted
        for ncols in (3, 0):
            x, obj, pivots, solution = weighted_l1_lp(np.ones(ncols), np.zeros((0, ncols)), [])
            np.testing.assert_array_equal(x, np.zeros(ncols))
            assert obj == 0.0 and pivots == 0 and solution.basis.size == 0

    def test_returns_the_optimal_solution(self):
        # (x, objective, pivots, solution): the solution's rows name the kept
        # rows only when phase I dropped one
        inst = make_instance(DistributionSpec.default("normal"), 50, 200, 8, 0)
        full = weighted_l1_lp(np.ones(200), inst.a, inst.b)
        dropped = weighted_l1_lp(np.ones(200), *special_instance("rowdrop"))
        for out in (full, dropped):
            assert len(out) == 4
            x, objective, pivots, solution = out
            assert isinstance(solution, LPSolution)
            assert (solution.objective, solution.pivots) == (objective, pivots)
            assert x.tobytes() == (solution.z[:200] - solution.z[200:]).tobytes()
        assert full[3].rows is None and full[3].basis.size == 50
        # row 1 repeats row 0; which of the two goes depends on the BLAS kernel
        assert set(range(50)) - set(dropped[3].rows.tolist()) in ({0}, {1})
        assert dropped[3].rows.size == dropped[3].basis.size == 49

    def test_tied_vertices_fix_objective_only(self):
        _, obj, *_ = weighted_l1_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
        assert obj == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError, match="weights > 0"):
            weighted_l1_lp([1.0, 0.0], [[1.0, 1.0]], [1.0])

    def test_infeasible_system_raises(self):
        with pytest.raises(LPInfeasibleError, match="^system A x = b is infeasible$"):
            weighted_l1_lp([1.0, 1.0, 1.0], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.0, 1.0])

    def test_matches_enumeration_on_seeded_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m + 1, 9))
            a = rng.normal(size=(m, n))
            x0 = rng.normal(size=n)
            b = a @ x0
            w = np.abs(rng.normal(size=n)) + 0.2
            x, obj, *_ = weighted_l1_lp(w, a, b)
            oracle = enumerate_weighted_l1_optimum(w, a, b)
            assert obj == pytest.approx(oracle, abs=1e-8), f"trial {trial}"
            assert obj == pytest.approx(float(w @ np.abs(x)), abs=1e-9)
            assert np.max(np.abs(a @ x - b)) <= 1e-9

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(4, 10))
        b = a @ rng.normal(size=10)
        w = np.abs(rng.normal(size=10)) + 0.3
        x1, obj1, *_ = weighted_l1_lp(w, a, b)
        x2, obj2, *_ = weighted_l1_lp(10.0 * w, a, b)
        assert obj2 == pytest.approx(10.0 * obj1, rel=1e-9)
        np.testing.assert_allclose(x1, x2, atol=1e-8)

    def test_pivot_budget_suffices_at_benchmark_scale(self):
        inst = make_instance(DistributionSpec.default("normal"), 50, 200, 12, 404)
        budget = default_pivot_budget(50, 400)
        _, _, pivots, *_ = weighted_l1_lp(np.ones(200), inst.a, inst.b)
        assert 0 < pivots < budget

    def test_zero_rhs(self):
        x, obj, *_ = weighted_l1_lp([1.0, 2.0, 3.0], [[1.0, 2.0, -1.0]], [0.0])
        np.testing.assert_array_equal(x, np.zeros(3))
        assert obj == 0.0

    def test_duplicated_columns(self):
        a = np.array([[1.0, 1.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0]])
        b = np.array([3.0, 1.0])
        x, obj, *_ = weighted_l1_lp(np.ones(4), a, b)
        assert obj == pytest.approx(2.0, abs=1e-9)
        assert np.max(np.abs(a @ x - b)) <= 1e-9

    def test_zero_rows_with_zero_rhs(self):
        # consistent redundant rows exercise the row-deletion path
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 12))
        a[1, :] = 0.0
        a[4, :] = 0.0
        xt = np.zeros(12)
        xt[3] = 2.0
        b = a @ xt
        x, *_ = weighted_l1_lp(np.ones(12), a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-9

    def test_badly_scaled_columns_stay_certified(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 20))
        a[:, :10] *= 1e6
        b = a @ np.where(np.arange(20) == 13, 5.0, 0.0)
        x, obj, *_ = weighted_l1_lp(np.ones(20), a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-9
        assert obj <= 5.0 + 1e-9  # never worse than the planted representation


class TestRowDrop:
    """Phase I drops a redundant row wherever it sits and whatever the signs
    of b: the solution names the kept rows, and its basis warm-starts the
    same LP on them in zero pivots.  With two redundant rows, the first is
    dropped while the artificial of the second is still basic."""

    REDUNDANT = pytest.mark.parametrize("redundant", [(0,), (2,), (3,), (0, 4)],
                                        ids=["first", "middle", "last", "first-and-last"])
    SIGNS = pytest.mark.parametrize("signs", ["mixed", "negative"])

    @staticmethod
    def system(redundant, signs, ncols):
        """Three independent rows and, at the positions ``redundant``, rows
        that combine two of them; b = A z0 with z0 > 0, each row scaled so
        that b has the ``signs``.  Returns A, b and the independent rows."""
        rng = np.random.default_rng(31)
        base = rng.normal(size=(3, ncols))
        m, independent = 3 + len(redundant), iter(base)
        a = np.array([0.25 * (base[min(i, 1)] + base[2]) if i in redundant else next(independent)
                      for i in range(m)])
        b = a @ (np.abs(rng.normal(size=ncols)) + 0.5)
        want = np.where(np.arange(m) % 2, -1.0, 1.0) if signs == "mixed" else -np.ones(m)
        scale = np.where(b > 0, 1.0, -1.0) * want
        return a * scale[:, None], b * scale, np.delete(np.arange(m), redundant)

    @REDUNDANT
    @SIGNS
    def test_generic_lp(self, redundant, signs):
        a, b, independent = self.system(redundant, signs, 8)
        c = 1.0 + np.arange(8) % 3
        sol = solve(c, a, b)
        assert sol.phase1_pivots > 0
        oracle = enumerate_standard_form_optimum(c, a[independent], b[independent])
        assert sol.objective == pytest.approx(oracle, abs=1e-8)
        assert np.max(np.abs(a @ sol.z - b)) <= 1e-9
        np.testing.assert_array_equal(sol.rows, independent)
        warm = solve(c, a[sol.rows], b[sol.rows], initial_basis=sol.basis)
        assert warm.pivots == 0
        assert warm.objective == pytest.approx(sol.objective, abs=1e-9)

    @REDUNDANT
    @SIGNS
    def test_split_lp(self, redundant, signs):
        a, b, independent = self.system(redundant, signs, 6)
        w = 1.0 + np.arange(6) % 4
        (x, obj, _, basis), sol = split_solve(w, a, b)
        rows = basis.rows
        assert sol.phase1_pivots > 0
        assert len(_crash_basis(a, b)) == len(a)  # a singular start, vetted like any other
        oracle = enumerate_weighted_l1_optimum(w, a[independent], b[independent])
        assert obj == pytest.approx(oracle, abs=1e-8)
        assert np.max(np.abs(a @ x - b)) <= 1e-9
        np.testing.assert_array_equal(rows, independent)
        np.testing.assert_array_equal(sol.rows, independent)
        for rows_a, rows_b in ((a[rows], b[rows]), (a, b)):  # on the kept rows or all of them
            _, warm_obj, pivots, *_ = weighted_l1_lp(w, rows_a, rows_b, initial_basis=basis)
            assert pivots == 0
            assert warm_obj == pytest.approx(obj, abs=1e-9)


class TestSplitPricing:
    """weighted_l1_lp pivots on the [A, -A] it forms; the same LP written out
    as LPProblem(c=[w, w], a_eq=[A, -A]) must take the same path to the bit,
    from the crash basis and through phase I from a rejected start, with or
    without a dropped row.  The warm LP hands both the cold split LP's
    LPSolution; the generic LP, on another matrix object, adopts its B^-1
    only after checking B B^-1 = I."""

    @pytest.mark.parametrize("system, start", [
        pytest.param(3, "crash", id="3"),
        pytest.param(11, "crash", id="11"),
        pytest.param(2013, "crash", id="2013"),
        pytest.param(3, "rejected", id="3-rejected"),
        pytest.param(11, "rejected", id="11-rejected"),
        pytest.param(2013, "rejected", id="2013-rejected"),
        # singular crash basis: phase I deletes the repeated row
        pytest.param("rowdrop", "crash", id="rowdrop"),
    ])
    def test_split_and_generic_paths_agree(self, system, start):
        if system == "rowdrop":
            a, b = special_instance("rowdrop")
            rng = np.random.default_rng(0)
        else:
            inst = make_instance(DistributionSpec.default("normal"), 50, 200, 12, system)
            a, b = inst.a, inst.b
            rng = np.random.default_rng(system)
        assert (b < 0).any() and (b > 0).any()  # some rows are flipped, some not
        basis = _crash_basis(a, b) if start == "crash" else [0] * 50  # [0] * 50 is singular
        phase1 = []
        for w in (np.ones(200), rng.uniform(0.1, 10.0, size=200)):  # cold, then warm
            full = LPProblem(c=np.concatenate([w, w]), a_eq=np.hstack([a, -a]), b_eq=b)
            generic = solve_standard_form(full, initial_basis=basis)
            (x, objective, pivots, split_basis), split = split_solve(
                w, a, b, initial_basis=basis)
            rows = split_basis.rows
            assert generic.pivots > 0
            assert split.z.tobytes() == generic.z.tobytes()
            assert split.objective == generic.objective == objective
            assert split.pivots == generic.pivots == pivots
            assert split.phase1_pivots == generic.phase1_pivots
            np.testing.assert_array_equal(split.basis, generic.basis)
            np.testing.assert_array_equal(split_basis.basis, generic.basis)
            assert (rows is None) == (generic.rows is None)
            if rows is not None:
                np.testing.assert_array_equal(rows, generic.rows)
                a, b = a[rows], b[rows]  # the warm LP solves on the kept rows
            assert x.tobytes() == (generic.z[:200] - generic.z[200:]).tobytes()
            basis = split_basis
            phase1.append(split.phase1_pivots)
        # the cold LP ran phase I exactly when its start was rejected; the warm one never did
        assert (phase1[0] > 0) == (start == "rejected" or system == "rowdrop")
        assert phase1[1] == 0


class TestCounters:
    """LPSolution.phase1_pivots and .refactors come from the simplex itself."""

    @staticmethod
    def instance():
        inst = make_instance(DistributionSpec.default("normal"), 50, 200, 16, 42)
        return inst.a, inst.b

    def test_accepted_basis_has_no_phase_one(self):
        a, b = self.instance()
        (_, _, pivots, basis), cold = split_solve(np.ones(200), a, b)
        assert cold.phase1_pivots == 0 and pivots == cold.pivots > 0
        _, warm = split_solve(np.ones(200), a, b, initial_basis=basis)
        assert (warm.pivots, warm.phase1_pivots, warm.refactors) == (0, 0, 0)

    def test_rejected_basis_runs_phase_one(self):
        a, b = self.instance()
        _, cold = split_solve(np.ones(200), a, b, initial_basis=[0] * 50)  # singular
        assert 0 < cold.phase1_pivots <= cold.pivots
        c, a6, b6 = TestInitialBasis.lp()
        sol = solve(c, a6, b6)
        assert 0 < sol.phase1_pivots <= sol.pivots

    def test_degenerate_pivots_counted(self):
        # a golden case below the recovery threshold: its optimum has k = 4
        # nonzeros among m = 50 basics, so pivots at it change the basis without moving
        a, b = case_system("normal", 4, 0)
        _, cold = split_solve(np.ones(200), a, b)
        assert 0 < cold.degenerate_pivots <= cold.pivots
        assert cold.guard_pivots == 0

    def test_long_solve_refactors(self):
        a, b = self.instance()
        # from a rejected basis: phase I and phase II together take over 200 pivots
        _, cold = split_solve(np.ones(200), a, b, initial_basis=[0] * 50)
        assert cold.pivots > REFACTOR_EVERY
        assert cold.refactors >= cold.pivots // REFACTOR_EVERY >= 1


class TestCrashBasis:
    """The cold l1 LP starts from the m columns that a reweighted
    least-squares estimate ranks largest; a failed estimate falls back to the
    leading m columns, and a rejected basis to phase I."""

    DISTS = ("normal", "poisson", "exponential", "f", "gamma", "uniform")

    def test_accepted_and_short_on_all_distributions(self):
        pivots = []
        for dist in self.DISTS:
            for seed, k in enumerate((6, 12, 18, 24)):
                inst = make_instance(DistributionSpec.default(dist), 50, 200, k, seed)
                _, sol = split_solve(np.ones(200), inst.a, inst.b)
                assert sol.phase1_pivots == 0, f"{dist} k {k} seed {seed}"
                pivots.append(sol.pivots)
        # 82.75 pivots per LP; the leading-columns crash basis took 198.7 here
        assert np.mean(pivots) < 100

    @staticmethod
    def assert_oracle_optimum(w, a, b, oracle_a, oracle_b):
        (x, obj, *_), sol = split_solve(w, a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-9
        assert obj == pytest.approx(float(w @ np.abs(x)), abs=1e-9)
        assert obj == pytest.approx(enumerate_weighted_l1_optimum(w, oracle_a, oracle_b),
                                    abs=1e-8)
        return sol

    def test_zero_rhs_takes_the_leading_columns(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 8))
        b = np.zeros(3)
        np.testing.assert_array_equal(_crash_basis(a, b), np.arange(3))
        sol = self.assert_oracle_optimum(np.abs(rng.normal(size=8)) + 0.2, a, b, a, b)
        assert sol.phase1_pivots == 0

    def test_rank_deficient_system(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 9))
        a[3] = a[0] + a[1]  # every 4-column basis is singular: phase I drops a row
        b = a @ np.where(np.arange(9) % 3 == 0, 1.5, 0.0)
        sol = self.assert_oracle_optimum(np.abs(rng.normal(size=9)) + 0.2, a, b, a[:3], b[:3])
        assert sol.phase1_pivots > 0

    def test_repeated_column(self):
        # the ranking puts both copies of the planted column in the crash basis
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 9))
        a[:, 5] = a[:, 2]
        x0 = np.zeros(9)
        x0[2], x0[6] = 2.0, -1.0
        b = a @ x0
        self.assert_oracle_optimum(np.abs(rng.normal(size=9)) + 0.2, a, b, a, b)

    @pytest.mark.parametrize("case", ["crash", "rowdrop"])
    def test_golden_special_cases_run_phase_one(self, case):
        a, b = special_instance(case)
        _, sol = split_solve(np.ones(200), a, b)
        assert sol.phase1_pivots > 0
