import concurrent.futures
import time

import numpy as np
import pytest

import rwl1.bench
import rwl1.simplex
import rwl1.solver
from rwl1.bench import CSV_HEADER, SweepSpec, is_success, run_trial, sweep, trial_seed
from rwl1.instances import DistributionSpec, make_instance
from rwl1.merit import WeightScheme
from rwl1.simplex import CertificationError, SolverError
from rwl1.solver import SolverConfig

NORMAL = DistributionSpec.default("normal")


def small_spec(k_values=(2,), kinds=("cwb",), trials=5, seed_base=42, m=10, n=30):
    schemes = tuple((WeightScheme(kind), SolverConfig()) for kind in kinds)
    return SweepSpec(dist=NORMAL, m=m, n=n, k_values=k_values, schemes=schemes,
                     trials=trials, seed_base=seed_base)


def break_refactor(monkeypatch, broken):
    """np.linalg.inv gives broken(inv, matrix) from its second call on, and the
    first certification misses once, so that its refactor makes that call.
    The residual check before it is the one that accepts the crash basis."""
    inv, residual = np.linalg.inv, rwl1.simplex._residual
    calls, checks = [], []

    def patched_inv(matrix):
        calls.append(matrix.shape)
        return inv(matrix) if len(calls) == 1 else broken(inv, matrix)

    def residual_once(problem, z):
        checks.append(z)
        return 1.0 if len(checks) == 2 else residual(problem, z)

    monkeypatch.setattr(np.linalg, "inv", patched_inv)
    monkeypatch.setattr(rwl1.simplex, "_residual", residual_once)


class TestIsSuccess:
    def test_identical(self):
        x = np.array([1.0, 0.0, -2.0])
        assert is_success(x, x)

    def test_boundary_violation(self):
        x = np.array([1.0, 0.0])
        y = x.copy()
        y[0] += 2e-4
        assert not is_success(y, x)

    def test_within_band_everywhere(self):
        x = np.array([1.0, -1.0, 0.5])
        assert is_success(x + 0.5e-4, x)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            is_success([1.0], [1.0, 2.0])


class TestRunTrial:
    def test_k1_l1_recovers_on_twenty_seeds(self):
        spec = small_spec(k_values=(1,), kinds=("l1",), m=50, n=200, trials=20)
        for t in range(20):
            rec = run_trial(spec, 0, 1, t)
            assert rec.success, f"trial {t}"

    def test_repeat_is_identical(self):
        spec = small_spec()
        assert run_trial(spec, 0, 2, 3) == run_trial(spec, 0, 2, 3)

    @pytest.mark.parametrize("layer", ["simplex", "solver", "refactor"])
    def test_certification_miss_is_recorded(self, layer, monkeypatch):
        if layer == "simplex":
            monkeypatch.setattr(rwl1.simplex, "_residual", lambda problem, z: 1.0)
        elif layer == "refactor":
            def singular(inv, matrix):
                raise np.linalg.LinAlgError("Singular matrix")

            break_refactor(monkeypatch, singular)
        else:
            lp = rwl1.solver.weighted_l1_lp

            def off_by_a_little(*args, **kw):
                x, *rest = lp(*args, **kw)
                return (x + 1e-6, *rest)

            monkeypatch.setattr(rwl1.solver, "weighted_l1_lp", off_by_a_little)
        rec = run_trial(small_spec(), 0, 2, 0)
        assert not rec.success and rec.iterations == 0
        assert ("basis" if layer == "refactor" else "residual") in rec.fail_reason

    def test_failed_trial_counts_the_lps_it_finished(self, monkeypatch):
        # the run's third LP raises: its record keeps the two LPs before it
        lp, pivots = rwl1.solver.weighted_l1_lp, []

        def third_fails(*args, **kw):
            if len(pivots) == 2:
                raise SolverError("injected")
            out = lp(*args, **kw)
            pivots.append(out[2])
            return out

        monkeypatch.setattr(rwl1.solver, "weighted_l1_lp", third_fails)
        rec = run_trial(small_spec(k_values=(4,)), 0, 4, 2)  # 4 LPs when nothing fails
        assert not rec.success
        assert rec.fail_reason == "LP solve failed at iteration 3: injected"
        assert (rec.iterations, rec.pivots) == (2, sum(pivots))

    def test_refactor_that_misses_identity_raises(self, monkeypatch):
        # the inverse is perturbed, not singular: only the B B^-1 = I check sees it
        break_refactor(monkeypatch, lambda inv, matrix: inv(matrix) + 1e-3)
        inst = make_instance(NORMAL, 10, 30, 2, trial_seed(42, 2, 0, 0))
        with pytest.raises(CertificationError, match=r"basis inverse misses B B\^-1 = I"):
            rwl1.simplex.weighted_l1_lp(np.ones(30), inst.a, inst.b)

    def test_generation_is_timed_apart_from_the_solve(self, monkeypatch):
        make = rwl1.bench.make_instance

        def slow_make(*args):
            time.sleep(0.2)
            return make(*args)

        monkeypatch.setattr(rwl1.bench, "make_instance", slow_make)
        rec = run_trial(small_spec(), 0, 2, 0)
        assert rec.gen_ms >= 200.0 and 0.0 < rec.wall_ms < 200.0
        monkeypatch.setattr(rwl1.simplex, "_residual", lambda problem, z: 1.0)
        failed = run_trial(small_spec(), 0, 2, 0)
        assert failed.fail_reason is not None and failed.gen_ms >= 200.0

    def test_seed_depends_only_on_own_indices(self):
        assert trial_seed(42, 3, 1, 7) == trial_seed(42, 3, 1, 7)
        assert trial_seed(42, 3, 1, 7) != trial_seed(42, 3, 1, 8)
        assert trial_seed(42, 3, 1, 7) != trial_seed(42, 3, 2, 7)
        assert trial_seed(42, 3, 1, 7) != trial_seed(42, 4, 1, 7)


def figure_spec(kinds=("l1", "cwb", "w1", "w2"), paired=True):
    # k = 20 runs reach max_iter; k = 6 ones stop early
    schemes = tuple((WeightScheme(kind), SolverConfig()) for kind in kinds)
    return SweepSpec(dist=NORMAL, m=50, n=200, k_values=(6, 20), schemes=schemes,
                     trials=3, seed_base=42, paired=paired)


def unit_weight_lps(monkeypatch, fail_first=False):
    """Spy on the cold (unit-weight) LPs the solver runs, by instance seed
    order; ``fail_first`` makes the first of them raise SolverError."""
    lp, calls = rwl1.solver.weighted_l1_lp, []

    def spy(w, a, b, **kw):
        if kw.get("initial_basis") is None:
            assert np.all(w == 1.0)
            calls.append(b.tobytes())
            if fail_first and len(calls) == 1:
                raise SolverError("injected")
        return lp(w, a, b, **kw)

    monkeypatch.setattr(rwl1.solver, "weighted_l1_lp", spy)
    return calls


class TestPairedSweep:
    """Sharing an instance and its unit-weight LP between the schemes of a
    (k, trial) changes no record: each equals run_trial alone."""

    @pytest.mark.parametrize("paired", [True, False], ids=["paired", "unpaired"])
    def test_records_equal_run_trial_alone(self, paired):
        spec = figure_spec(paired=paired)
        records = sweep(spec).records
        assert any(r.iterations == SolverConfig.max_iter for r in records)
        for r in records:
            assert r.seed == trial_seed(42, r.k, 0 if paired else r.scheme_index, r.trial_index)
            alone = run_trial(spec, r.scheme_index, r.k, r.trial_index)
            assert (r.seed, r.success, r.iterations, r.pivots, r.fail_reason) == (
                alone.seed, alone.success, alone.iterations, alone.pivots, alone.fail_reason)

    def test_scheme_order_does_not_matter(self):
        kinds = ("l1", "cwb", "w1", "w2")

        def by_scheme(kinds):
            return {(kinds[r.scheme_index], r.k, r.trial_index):
                    (r.seed, r.success, r.iterations, r.pivots, r.fail_reason)
                    for r in sweep(figure_spec(kinds)).records}

        assert by_scheme(kinds) == by_scheme(kinds[::-1])

    def test_instance_and_unit_weight_lp_once_per_pair(self, monkeypatch):
        make, made = rwl1.bench.make_instance, []

        def spy_make(*args):
            made.append(args)
            return make(*args)

        monkeypatch.setattr(rwl1.bench, "make_instance", spy_make)
        lps = unit_weight_lps(monkeypatch)
        sweep(figure_spec())
        assert len(made) == len(set(made)) == 2 * 3
        assert len(lps) == len(set(lps)) == 2 * 3
        made.clear()
        lps.clear()
        sweep(figure_spec(paired=False))
        assert len(made) == len(lps) == 4 * 2 * 3

    def test_warm_lps_form_no_inverse(self, monkeypatch):
        # perfbench's reweight-deep grid, pass 0 at seed 42.  A warm LP goes
        # on from the B^-1 the LP before it ended with, so the grid forms one
        # only for its 36 cold LPs and for refactors: 400 of them under the
        # SkylakeX and Prescott kernels and 402 under Haswell, against 904
        # (905) when every LP inverted its start.  The refactors follow the
        # pivot path, which moves with the kernel, so only the sum is pinned.
        formed, sols = [], []
        rebase, solve = rwl1.simplex._Basis.rebase, rwl1.simplex.solve_standard_form

        def counting(self, *args):
            formed.append(args)
            return rebase(self, *args)

        def recording(*args, **kwargs):
            sols.append(solve(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(rwl1.simplex._Basis, "rebase", counting)
        monkeypatch.setattr(rwl1.simplex, "solve_standard_form", recording)
        cold = unit_weight_lps(monkeypatch)
        schemes = tuple((WeightScheme(kind), SolverConfig()) for kind in ("cwb", "w1", "w2"))
        sweep(SweepSpec(dist=NORMAL, m=50, n=200, k_values=tuple(range(16, 25)),
                        schemes=schemes, trials=4, seed_base=42))
        assert (len(sols), len(cold)) == (785, 36)
        assert all(sol.phase1_pivots == 0 for sol in sols)
        assert len(formed) == len(cold) + sum(sol.refactors for sol in sols)

    def test_failed_unit_weight_lp_is_not_shared(self, monkeypatch):
        # the first scheme's first LP raises once: that trial records the
        # failure, and the next scheme solves the LP again
        spec = figure_spec()
        alone = {(r.scheme_index, r.k, r.trial_index): r for r in sweep(spec).records}
        lps = unit_weight_lps(monkeypatch, fail_first=True)
        records = sweep(spec).records
        assert lps[0] == lps[1] and len(set(lps)) == len(lps) - 1 == 2 * 3
        failed = [r for r in records if r.fail_reason is not None]
        assert [(r.scheme_index, r.k, r.trial_index) for r in failed] == [(0, 6, 0)]
        assert failed[0].fail_reason == "LP solve failed at iteration 1: injected"
        assert failed[0].iterations == failed[0].pivots == 0
        assert [r for r in records if r is not failed[0]] == [
            r for key, r in alone.items() if key != (0, 6, 0)]

    def test_failed_run_hands_on_its_unit_weight_lp(self, monkeypatch):
        # the q = 1 scheme fails at LP 3 in 19 of the 40 trials; the q = 0.5
        # scheme still reuses the unit-weight LP each of them solved
        schemes = tuple((WeightScheme("w2", p=0.05, q=q), SolverConfig()) for q in (1.0, 0.5))
        spec = SweepSpec(dist=NORMAL, m=50, n=200, k_values=(5, 10, 15, 20), schemes=schemes,
                         trials=10, seed_base=42)
        lps = unit_weight_lps(monkeypatch)
        records = sweep(spec).records
        assert len(lps) == len(set(lps)) == 4 * 10
        failed = [r for r in records if r.fail_reason is not None]
        assert len(failed) == 19 and {r.scheme_index for r in failed} == {0}
        assert all(r.iterations == 2 for r in failed)
        monkeypatch.undo()
        for r in records:
            alone = run_trial(spec, r.scheme_index, r.k, r.trial_index)
            assert (r.seed, r.success, r.iterations, r.pivots, r.fail_reason) == (
                alone.seed, alone.success, alone.iterations, alone.pivots, alone.fail_reason)


class TestSweep:
    def test_bookkeeping(self):
        res = sweep(small_spec(k_values=(2, 4), kinds=("cwb",), trials=5))
        assert len(res.cells) == 2
        assert all(c.trials == 5 for c in res.cells)
        assert [c.k for c in res.cells] == [2, 4]

    def test_worker_count_invariance(self):
        spec = small_spec(k_values=(2, 3), kinds=("l1", "w1"), trials=4)
        seq = sweep(spec, workers=1)
        par = sweep(spec, workers=4)
        assert seq.records == par.records
        assert seq.cells == par.cells
        assert seq.to_csv() == par.to_csv()

    def test_records_in_grid_order(self):
        # scheme index, then k_values order (here unsorted), then trial index
        res = sweep(small_spec(k_values=(4, 2), kinds=("l1", "cwb"), trials=3))
        grid = [(si, k, t) for si in range(2) for k in (4, 2) for t in range(3)]
        assert [(r.scheme_index, r.k, r.trial_index) for r in res.records] == grid
        assert len(res.records) == 2 * 2 * 3
        assert [(c.scheme_index, c.k) for c in res.cells] == [(0, 4), (0, 2), (1, 4), (1, 2)]
        assert [ln.split(",")[5] for ln in res.to_csv().splitlines()[1:]] == ["2", "4", "2", "4"]

    @pytest.mark.parametrize("workers,started", [(5000, 4), (3, 3)])
    def test_pool_has_at_most_one_worker_per_task(self, workers, started, monkeypatch):
        # a fork pool starts all max_workers processes on the first submit;
        # a sweep has one task per (k, trial), here 2 x 2
        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)  # read at call time
        spec = small_spec(k_values=(2, 3), kinds=("l1", "cwb"), trials=2)
        assert sweep(spec, workers=workers).cells == sweep(spec).cells
        assert seen == [started]

    def test_cell_independence(self):
        full = sweep(small_spec(k_values=(2, 4), kinds=("cwb",), trials=4))
        only4 = sweep(small_spec(k_values=(4,), kinds=("cwb",), trials=4))
        full_k4 = [c for c in full.cells if c.k == 4]
        assert full_k4 == only4.cells

    def test_monotone_difficulty(self):
        spec = small_spec(k_values=(2, 22), kinds=("w1",), trials=20, m=50, n=200)
        res = sweep(spec)
        rate = {c.k: c.success_rate for c in res.cells}
        assert rate[2] >= rate[22]

    def test_failed_solves_recorded_not_raised(self):
        # none-clamp with tiny fixed eps makes w1 weights leave the valid
        # domain mid-run; the sweep must absorb that as a failed trial
        from rwl1.merit import WeightClamp
        from rwl1.solver import EpsilonSchedule

        cfg = SolverConfig(schedule=EpsilonSchedule("fixed", eps0=0.001),
                           clamp=WeightClamp("none"))
        spec = SweepSpec(dist=NORMAL, m=10, n=30, k_values=(8,),
                         schemes=((WeightScheme("w1", p=0.05), cfg),),
                         trials=4, seed_base=5)
        res = sweep(spec)
        assert len(res.cells) == 1
        assert res.cells[0].successes < 4  # most (usually all) trials fail
        failed = [r for r in res.records if not r.success]
        assert failed and all("weights left the positive domain" in r.fail_reason for r in failed)

    def test_csv_shape_and_determinism(self):
        spec = small_spec(k_values=(2, 3), kinds=("w1", "cwb"), trials=3)
        res1 = sweep(spec)
        res2 = sweep(spec)
        csv1 = res1.to_csv()
        assert csv1 == res2.to_csv()
        lines = csv1.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4  # 2 schemes x 2 k values
        # sorted by (scheme, k); wall_ms column pinned to 0 by default
        firsts = [ln.split(",")[1] for ln in lines[1:]]
        assert firsts == sorted(firsts)
        assert all(ln.split(",")[-1] == "0" for ln in lines[1:])

    def test_csv_timing_flag(self):
        res = sweep(small_spec(trials=2))
        timed = res.to_csv(include_timing=True).strip().split("\n")[1]
        assert float(timed.split(",")[-1]) > 0.0

    def test_pinned_successes_deep_reweighting(self):
        # per-cell successes of a k 16..20 reweighting sweep, recorded from the
        # cold-start solver; solver changes must reproduce them, not regenerate them
        schemes = tuple((WeightScheme(kind), SolverConfig()) for kind in ("cwb", "w1", "w2"))
        spec = SweepSpec(dist=NORMAL, m=50, n=200, k_values=tuple(range(16, 21)),
                         schemes=schemes, trials=6, seed_base=2013, paired=False)
        got = {(c.scheme, c.k): c.successes for c in sweep(spec).cells}
        assert got == {
            ("cwb", 16): 5, ("cwb", 17): 5, ("cwb", 18): 2, ("cwb", 19): 1, ("cwb", 20): 2,
            ("w1", 16): 6, ("w1", 17): 5, ("w1", 18): 2, ("w1", 19): 1, ("w1", 20): 1,
            ("w2", 16): 5, ("w2", 17): 5, ("w2", 18): 3, ("w2", 19): 4, ("w2", 20): 0,
        }

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            small_spec(k_values=(11,), m=10)
        with pytest.raises(ValueError, match="k must be.*m=10"):
            small_spec(k_values=(0,), m=10)
        with pytest.raises(ValueError, match="k must be.*m=30, n=30"):
            small_spec(m=30, n=30)
        with pytest.raises(ValueError, match="trials"):
            small_spec(trials=0)
        # trial_seed packs the trial and scheme indices in 20 bits each
        with pytest.raises(ValueError, match=r"trials must be in \[1, 1048576\], got 1048577"):
            small_spec(trials=2**20 + 1)
        with pytest.raises(ValueError, match="at most 1048576 schemes, got 1048577"):
            SweepSpec(dist=NORMAL, m=10, n=30, k_values=(2,), trials=1, seed_base=0,
                      schemes=((WeightScheme("l1"), SolverConfig()),) * (2**20 + 1))
        # two equal members would write two CSV rows per k with equal keys
        with pytest.raises(ValueError, match=r"schemes must be distinct, got .*'w1'.* 2 times"):
            small_spec(kinds=("w1", "cwb", "w1"))
        with pytest.raises(ValueError, match=r"k values must be distinct, got \(2, 3, 2\)"):
            small_spec(k_values=(2, 3, 2))
        # a count, size, k or seed that is not a whole number; numpy integers pass
        for name, kw in [("trials", dict(trials=2.5)), ("m", dict(m=10.5)),
                         ("n", dict(n=30.5)), ("k", dict(k_values=(2.5,))),
                         ("seed_base", dict(seed_base=1.5))]:
            with pytest.raises(ValueError, match=f"^{name} must be a whole number, got "):
                small_spec(**kw)
        spec = small_spec(k_values=(np.int64(2),), trials=np.int32(5), seed_base=np.uint64(42),
                          m=np.int64(10), n=np.int16(30))
        assert spec.k_values == (2,) and type(spec.k_values[0]) is int
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sweep(small_spec(), workers=0)
        with pytest.raises(ValueError, match="nonempty"):
            SweepSpec(dist=NORMAL, m=10, n=30, k_values=(), schemes=(),
                      trials=1, seed_base=0)
