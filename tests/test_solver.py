import concurrent.futures
import copy
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import rwl1
import rwl1.simplex
import rwl1.solver
from rwl1.bench import trial_seed
from rwl1.instances import DistributionSpec, make_instance
from rwl1.merit import WeightClamp, WeightScheme
from rwl1.simplex import LPProblem, LPSolution, LPStatus, weighted_l1_lp
from rwl1.solver import (EpsilonSchedule, ReweightedResult, ReweightedSolveError, SolverConfig,
                         epsilon_update, reweighted_l1)

from test_golden_solver import special_instance


class TestEpsilonUpdate:
    def test_halving(self):
        sched = EpsilonSchedule("halving", eps0=1.0)
        assert epsilon_update(sched, 0.5, [1.0], 2, 4) == 0.25

    def test_fixed_returns_eps0(self):
        sched = EpsilonSchedule("fixed", eps0=0.01)
        assert epsilon_update(sched, 0.5, [1.0], 2, 4) == 0.01

    def test_cwb_rule_picks_ninth_largest(self):
        # i0 = round(50 / (4 ln 4)) = round(9.0168) = 9
        sched = EpsilonSchedule("cwb", eps0=1.0)
        x = np.zeros(200)
        x[:12] = np.linspace(1.2, 0.1, 12)  # 9th largest magnitude = 0.4
        assert epsilon_update(sched, 1.0, x, 50, 200) == pytest.approx(0.4)

    def test_cwb_rule_floor_binds(self):
        sched = EpsilonSchedule("cwb", eps0=1.0)
        x = np.full(200, 1e-5)
        assert epsilon_update(sched, 1.0, x, 50, 200) == 0.001

    def test_cwb_rule_requires_wide_system(self):
        sched = EpsilonSchedule("cwb", eps0=1.0)
        with pytest.raises(ValueError, match="m < n"):
            epsilon_update(sched, 1.0, [1.0], 4, 4)

    @pytest.mark.parametrize("rule,eps,x,fragment", [
        ("halving", 0.0, [1.0], "eps_current must be > 0"),
        ("cwb", -1.0, [1.0], "eps_current must be > 0"),
        ("cwb", 1.0, [], "nonempty iterate"),
    ])
    def test_bad_arguments_rejected(self, rule, eps, x, fragment):
        with pytest.raises(ValueError, match=fragment):
            epsilon_update(EpsilonSchedule(rule, eps0=1.0), eps, x, 2, 4)

    @pytest.mark.parametrize("rule,eps0", [("fixed", 0.01), ("halving", 1.0), ("cwb", 1.0)])
    def test_default_eps0_per_rule(self, rule, eps0):
        assert EpsilonSchedule(rule).eps0 == eps0
        assert EpsilonSchedule(rule) == EpsilonSchedule(rule, eps0=eps0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            EpsilonSchedule("doubling")
        with pytest.raises(ValueError):
            EpsilonSchedule("fixed", eps0=0.0)
        for eps0 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="eps0 must be > 0 and finite"):
                EpsilonSchedule("halving", eps0=eps0)


class TestReweightedL1:
    @pytest.mark.parametrize("m,n", [(3, 2), (0, 3), (0, 0)])
    def test_tall_or_rowless_system_rejected(self, m, n):
        with pytest.raises(ValueError, match=f"got {m}x{n}"):
            reweighted_l1(np.ones((m, n)), np.ones(m), WeightScheme("l1"))

    def test_square_invertible_system(self):
        for kind in ["l1", "cwb", "zl", "w1", "w2"]:
            res = reweighted_l1(np.eye(2), [1.0, 2.0], WeightScheme(kind))
            np.testing.assert_allclose(res.x_hat, [1.0, 2.0], atol=1e-12)
            # one reweighting pass confirms the fixed point for non-l1 schemes
            assert res.iterations_used == (1 if kind == "l1" else 2)

    def test_square_system_with_cwb_schedule(self, monkeypatch):
        # rejected before the first LP: on the identity the run would stop
        # before the eps rule is first used, on the repeated rows it would
        # reach the rule mid-run
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP ran before the eps rule was rejected")

        monkeypatch.setattr(rwl1.solver, "weighted_l1_lp", no_lp)
        cfg = SolverConfig(schedule=EpsilonSchedule("cwb", eps0=1.0))
        top = np.random.default_rng(4).normal(size=(5, 10))
        for a in (np.eye(2), np.vstack([top, top])):
            m = a.shape[0]
            for kind in ("l1", "w1"):
                with pytest.raises(ValueError, match=f"requires m < n, got m={m}, n={m}"):
                    reweighted_l1(a, a @ np.ones(m), WeightScheme(kind), cfg)

    def test_one_sparse_vertex(self):
        cfg = SolverConfig(schedule=EpsilonSchedule("halving", eps0=1.0))
        res = reweighted_l1([[1.0, 1.0]], [1.0], WeightScheme("w1", p=0.05), cfg)
        nnz = int(np.sum(np.abs(res.x_hat) > 1e-6))
        assert nnz == 1

    def test_uniform_l1_equals_single_lp(self):
        inst = make_instance(DistributionSpec.default("normal"), 10, 30, 3, 5)
        res = reweighted_l1(inst.a, inst.b, WeightScheme("l1"))
        x_direct, obj, *_ = weighted_l1_lp(np.ones(30), inst.a, inst.b)
        np.testing.assert_array_equal(res.x_hat, x_direct)
        assert res.iterations_used == 1
        assert res.history[0].lp_objective == obj

    def test_feasible_at_every_iterate(self):
        inst = make_instance(DistributionSpec.default("normal"), 20, 50, 6, 77)
        res = reweighted_l1(inst.a, inst.b, WeightScheme("cwb"))
        assert all(rec.residual_inf <= 1e-9 for rec in res.history)

    def test_iteration_budget(self, monkeypatch):
        inst = make_instance(DistributionSpec.default("normal"), 20, 50, 18, 3)
        for max_iter in [1, 3, 10]:
            monkeypatch.setattr(SolverConfig, "max_iter", max_iter)
            res = reweighted_l1(inst.a, inst.b, WeightScheme("w1"), SolverConfig())
            assert res.iterations_used <= max_iter
            assert len(res.history) == res.iterations_used

    def test_default_config_at_most_ten_lp_solves(self):
        inst = make_instance(DistributionSpec.default("normal"), 20, 50, 15, 9)
        for kind in ["cwb", "zl", "w1", "w2"]:
            res = reweighted_l1(inst.a, inst.b, WeightScheme(kind))
            assert len(res.history) <= 10

    def test_deterministic_repeat(self):
        inst = make_instance(DistributionSpec.default("gamma"), 15, 40, 4, 21)
        r1 = reweighted_l1(inst.a, inst.b, WeightScheme("w2"))
        r2 = reweighted_l1(inst.a, inst.b, WeightScheme("w2"))
        np.testing.assert_array_equal(r1.x_hat, r2.x_hat)
        assert r1.history == r2.history

    def test_merit_descent_under_fixed_eps(self):
        # linearization majorizes the concave merit, so each exact LP step
        # cannot increase it when eps (and hence the merit) stays fixed
        cfg = SolverConfig(schedule=EpsilonSchedule("fixed", eps0=0.1),
                           clamp=WeightClamp("none"))
        scheme = WeightScheme("zl", p=0.5)
        for trial in range(20):
            inst = make_instance(DistributionSpec.default("normal"), 20, 50, 8, 1000 + trial)
            res = reweighted_l1(inst.a, inst.b, scheme, cfg)
            merits = [rec.merit for rec in res.history]
            assert all(m is not None for m in merits)
            for prev, cur in zip(merits, merits[1:]):
                assert cur <= prev + 1e-9, f"trial {trial}: merit rose {prev} -> {cur}"

    def test_infeasible_system_reports_iteration(self):
        a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ReweightedSolveError, match="iteration 1") as caught:
            reweighted_l1(a, [0.0, 1.0], WeightScheme("cwb"))
        assert caught.value.history == []
        assert caught.value.start is None  # a first LP that raises hands nothing on

    def test_nonpositive_weights_reported_with_iteration(self):
        # none clamp + tiny fixed eps drives the w1 raw weights negative
        cfg = SolverConfig(schedule=EpsilonSchedule("fixed", eps0=0.001),
                           clamp=WeightClamp("none"))
        inst = make_instance(DistributionSpec.default("normal"), 10, 30, 8, 11)
        with pytest.raises(ReweightedSolveError, match="iteration") as caught:
            reweighted_l1(inst.a, inst.b, WeightScheme("w1", p=0.05), cfg)
        history = caught.value.history  # the LPs solved before the weights went bad
        assert history and f"iteration {len(history) + 1}:" in str(caught.value)

    @staticmethod
    def fails_at_third_lp():
        """A run whose w1 weights at p = 1 leave the positive domain at LP 3."""
        inst = make_instance(DistributionSpec.default("normal"), 50, 200, 16,
                             trial_seed(42, 16, 0, 2))
        return inst.a, inst.b, WeightScheme("w1", p=1.0)

    def test_failed_run_carries_its_unit_weight_lp(self):
        a, b, scheme = self.fails_at_third_lp()
        with pytest.raises(ReweightedSolveError, match="iteration 3: weights left") as caught:
            reweighted_l1(a, b, scheme)
        l1 = reweighted_l1(a, b, WeightScheme("l1"))
        start = caught.value.start
        assert len(caught.value.history) == 2
        assert start[0].tobytes() == l1.start[0].tobytes() and start[1:3] == l1.start[1:3]
        assert start[3].basis.tolist() == l1.start[3].basis.tolist()

    def test_error_pickles_with_its_run(self):
        empty = pickle.loads(pickle.dumps(ReweightedSolveError([], "x", None)))
        assert type(empty) is ReweightedSolveError
        assert str(empty) == "LP solve failed at iteration 1: x"
        assert (empty.history, empty.start) == ([], None)
        a, b, scheme = self.fails_at_third_lp()
        with pytest.raises(ReweightedSolveError) as caught:
            reweighted_l1(a, b, scheme)
        copied = pickle.loads(pickle.dumps(caught.value))
        assert str(copied) == str(caught.value)
        assert copied.history == caught.value.history
        assert copied.start[0].tobytes() == caught.value.start[0].tobytes()
        assert copied.start[3].binv.tobytes() == caught.value.start[3].binv.tobytes()

    def test_error_crosses_a_process_pool(self):
        # the worker's error reaches the caller, not a broken pool
        a, b, scheme = self.fails_at_third_lp()
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            future = pool.submit(reweighted_l1, a, b, scheme)
            with pytest.raises(ReweightedSolveError, match="iteration 3: weights left") as caught:
                future.result()
        assert len(caught.value.history) == 2

    def test_history_records_eps_sequence(self):
        inst = make_instance(DistributionSpec.default("normal"), 20, 50, 16, 13)
        res = reweighted_l1(inst.a, inst.b, WeightScheme("cwb"),
                            SolverConfig(schedule=EpsilonSchedule("halving", eps0=1.0)))
        eps = [rec.eps for rec in res.history]
        assert eps[0] == 1.0 and eps[1] == 1.0  # start and first reweighting share eps0
        for prev, cur in zip(eps[1:], eps[2:]):
            assert cur == prev / 2

    @pytest.mark.parametrize("kind", ["cwb", "w1", "w2"])
    def test_warm_started_lps_match_cold_solves(self, kind, monkeypatch):
        # every LP after the first starts from the previous optimal basis; its
        # objective must equal a cold solve with the same weights
        calls = []

        def recording_lp(w, a, b, **kw):
            calls.append((np.array(w), kw["initial_basis"]))
            return weighted_l1_lp(w, a, b, **kw)

        monkeypatch.setattr(rwl1.solver, "weighted_l1_lp", recording_lp)
        for seed in (101, 202, 303):
            inst = make_instance(DistributionSpec.default("normal"), 50, 200, 18, seed)
            calls.clear()
            res = reweighted_l1(inst.a, inst.b, WeightScheme(kind))
            assert len(calls) == len(res.history) >= 3
            assert calls[0][1] is None
            assert all(basis is not None for _, basis in calls[1:])
            cold = [weighted_l1_lp(w, inst.a, inst.b) for w, _ in calls]
            for i, (rec, (_, cold_obj, *_)) in enumerate(zip(res.history, cold)):
                assert rec.lp_objective == pytest.approx(cold_obj, rel=1e-9), \
                    f"seed {seed}, LP {i + 1}"
            warm_pivots = sum(rec.lp_pivots for rec in res.history[1:])
            assert warm_pivots < sum(pivots for _, _, pivots, *_ in cold[1:]) / 2

    def test_row_drop_keeps_warm_starts(self, monkeypatch):
        # phase I of the first LP deletes the repeated row; the later LPs
        # solve without it and start from the previous optimal basis, whose
        # B^-1 they adopt: they form an inverse only to refactor
        sols, formed = [], []  # formed: the inverses of each solve
        real, rebase = rwl1.simplex.solve_standard_form, rwl1.simplex._Basis.rebase

        def recording(*args, **kwargs):
            formed.append(0)
            sols.append(real(*args, **kwargs))
            return sols[-1]

        def counting(self, *args):
            formed[-1] += 1
            return rebase(self, *args)

        monkeypatch.setattr(rwl1.simplex, "solve_standard_form", recording)
        monkeypatch.setattr(rwl1.simplex._Basis, "rebase", counting)
        a, b = special_instance("rowdrop")
        res = reweighted_l1(a, b, WeightScheme("w1"))
        assert len(sols) == len(res.history) >= 2
        assert sols[0].phase1_pivots > 0 and sols[0].rows.size == 49
        assert 1 not in sols[0].rows  # row 1 repeats row 0
        for sol, inverses in zip(sols[1:], formed[1:]):
            assert sol.phase1_pivots == 0 and sol.rows is None
            assert sol.basis.size == 49
            assert inverses == sol.refactors
        assert np.max(np.abs(a @ res.x_hat - b)) <= 1e-9

    @pytest.mark.parametrize("kind", ["cwb", "w1", "w2"])
    def test_handed_on_first_lp_keeps_its_rows(self, kind):
        # row 7 repeats row 2, so phase I of the unit-weight LP keeps 49 rows;
        # a run handed that LP solves its later LPs on the rows it names, as a
        # run that solves its own first LP does
        inst = make_instance(DistributionSpec.default("normal"), 50, 200, 20, 1)
        a = inst.a.copy()
        a[7] = a[2]
        b = a @ inst.x_true
        l1 = reweighted_l1(a, b, WeightScheme("l1"))
        assert l1.start[3].rows.size == 49
        alone = reweighted_l1(a, b, WeightScheme(kind))
        handed = reweighted_l1(a, b, WeightScheme(kind), start=l1.start)
        assert len(alone.history) >= 3
        assert handed.history == alone.history
        assert handed.x_hat.tobytes() == alone.x_hat.tobytes()

    def test_certification_survives_optimize_flag(self):
        # explicit checks, unlike asserts, still run under python -O
        script = textwrap.dedent("""
            import numpy as np
            import rwl1.simplex, rwl1.solver
            from rwl1.merit import WeightScheme
            from rwl1.simplex import CertificationError
            assert False, "asserts must be stripped in this interpreter"
            a, b = np.eye(2), np.array([1.0, 2.0])
            lp = rwl1.solver.weighted_l1_lp

            def off_by_a_little(*args, **kw):
                x, *rest = lp(*args, **kw)
                return (x + 1e-6, *rest)

            rwl1.solver.weighted_l1_lp = off_by_a_little
            try:
                rwl1.solver.reweighted_l1(a, b, WeightScheme("cwb"))
            except rwl1.solver.ReweightedSolveError as exc:
                if isinstance(exc.__cause__, CertificationError):
                    print("solver check fired")
            rwl1.solver.weighted_l1_lp = lp
            problem = rwl1.simplex.LPProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
            try:  # a feasible basis that is not optimal
                state = rwl1.simplex._Basis(problem.a_eq, [1], problem.b_eq)
                rwl1.simplex._certified_point(problem, state, problem.c, 1e-9)
            except CertificationError:
                print("dual check fired")
            # a carried B^-1 that drifted: its basic point misses A x = b, so
            # the solve runs phase I instead of pivoting from it
            import dataclasses
            from rwl1.instances import DistributionSpec, make_instance
            inst = make_instance(DistributionSpec.default("normal"), 50, 200, 16, 42)
            start = lp(np.ones(200), inst.a, inst.b)[3]
            drifted = dataclasses.replace(start, binv=start.binv + 1e-8)
            solve, sols = rwl1.simplex.solve_standard_form, []
            rwl1.simplex.solve_standard_form = lambda *a, **kw: sols.append(solve(*a, **kw)) or sols[-1]
            x, *_ = lp(1.0 + np.arange(200) % 3, inst.a, inst.b, initial_basis=drifted)
            rwl1.simplex.solve_standard_form = solve
            if sols[0].phase1_pivots > 0 and np.max(np.abs(inst.a @ x - inst.b)) <= 1e-9:
                print("drifted start ran phase I")
            rwl1.simplex._residual = lambda problem, z: 1.0
            try:
                lp([1.0, 1.0], a, b)
            except CertificationError:
                print("simplex check fired")
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(rwl1.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["solver check fired", "dual check fired",
                                           "drifted start ran phase I", "simplex check fired"]


@pytest.mark.parametrize("record", [
    LPProblem(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]),
    LPSolution(LPStatus.OPTIMAL, np.array([1.0, 0.0]), 1.0, 1, basis=np.array([0])),
    ReweightedResult(np.array([1.0, 0.0])),
    make_instance(DistributionSpec.default("normal"), 2, 4, 1, 7),
], ids=lambda record: type(record).__name__)
def test_array_holding_records_compare_by_identity(record):
    # a generated __eq__ would compare the ndarray fields and raise
    assert record == record
    assert (record == copy.copy(record)) is False
