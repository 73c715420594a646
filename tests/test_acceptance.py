"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Statistical criteria use seed base 42 throughout and the stated
trial counts; nothing here is tuned per criterion.  Their sweeps are
unpaired, as when the criteria were set: each scheme draws its own instances.
"""

import time

import numpy as np
import pytest

from rwl1.bench import SweepSpec, sweep
from rwl1.instances import DISTRIBUTIONS, DistributionSpec, Sampler, make_instance
from rwl1.merit import WeightClamp, WeightScheme
from rwl1.rng import SplitMix64
from rwl1.simplex import LPProblem, solve_standard_form
from rwl1.solver import EpsilonSchedule, SolverConfig, reweighted_l1

from oracles import enumerate_standard_form_optimum, gradient_check

SEED_BASE = 42
NORMAL = DistributionSpec.default("normal")
ALL_KINDS = ("l1", "cwb", "w1", "w2")


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"\nCRITERION {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def default_schemes(p=0.05, q=0.05):
    cfg = SolverConfig()
    return tuple((WeightScheme(kind, p=p, q=q), cfg) for kind in ALL_KINDS)


@pytest.fixture(scope="module")
def criterion4_sweep():
    spec = SweepSpec(dist=NORMAL, m=50, n=200, k_values=(2, 4, 6),
                     schemes=default_schemes(), trials=20, seed_base=SEED_BASE, paired=False)
    return spec, sweep(spec, workers=1)


def test_criterion_1_lp_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED_BASE)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 9))
        a = rng.normal(size=(m, n))
        b = a @ (np.abs(rng.normal(size=n)) + 0.5)
        c = np.abs(rng.normal(size=n)) + 0.1
        sol = solve_standard_form(LPProblem(c=c, a_eq=a, b_eq=b))
        oracle = enumerate_standard_form_optimum(c, a, b)
        worst = max(worst, abs(sol.objective - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    assert report(1, "LP oracle equivalence", ok,
                  f"max |simplex - enumeration| = {worst:.2e} over 100 LPs in {elapsed:.1f}s")


def test_criterion_2_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED_BASE)
    schemes = [WeightScheme("cwb"), WeightScheme("zl", p=0.05),
               WeightScheme("w1", p=0.05), WeightScheme("w2", p=0.05, q=0.05)]
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(0.5, 5.0, size=int(rng.integers(1, 7)))
        for eps in (0.01, 0.1, 1.0):
            for scheme in schemes:
                worst = max(worst, gradient_check(scheme, x, eps, h=1e-5))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    assert report(2, "gradient checks", ok,
                  f"max relative error {worst:.2e} on 50 points x 3 eps in {elapsed:.1f}s")


def test_criterion_3_mm_descent():
    cfg = SolverConfig(schedule=EpsilonSchedule("fixed", eps0=0.1), clamp=WeightClamp("none"))
    scheme = WeightScheme("zl", p=0.05)
    violations = 0
    for trial in range(20):
        inst = make_instance(NORMAL, 20, 50, 6, SEED_BASE + trial)
        res = reweighted_l1(inst.a, inst.b, scheme, cfg)
        merits = [rec.merit for rec in res.history]
        assert all(m is not None for m in merits)
        violations += sum(1 for a, b in zip(merits, merits[1:]) if b > a + 1e-9)
    ok = violations == 0
    assert report(3, "MM descent", ok,
                  f"{violations} merit increases across 20 fixed-eps runs")


def test_criterion_4_easy_regime(criterion4_sweep):
    _, result = criterion4_sweep
    rates = {(c.scheme, c.k): c.success_rate for c in result.cells}
    low = min(rates.values())
    ok = low >= 0.9
    assert report(4, "easy-regime recovery", ok,
                  f"min success rate over schemes x k in {{2,4,6}} = {low:.2f}; rates={rates}")


def test_criterion_5_high_sparsity_ordering():
    spec = SweepSpec(dist=NORMAL, m=50, n=200, k_values=(20,),
                     schemes=default_schemes(), trials=20, seed_base=SEED_BASE, paired=False)
    result = sweep(spec)
    rate = {c.scheme: c.success_rate for c in result.cells}
    ok = (rate["w1"] >= rate["cwb"] - 0.10) and (rate["w2"] >= rate["l1"] - 0.10)
    assert report(5, "high-sparsity ordering", ok,
                  f"k=20 rates: l1={rate['l1']:.2f} cwb={rate['cwb']:.2f} "
                  f"w1={rate['w1']:.2f} w2={rate['w2']:.2f}")


def test_criterion_6_eps_study():
    eps_values = (1e-4, 1e-2, 1e-1)
    schemes = tuple(
        (WeightScheme("w1", p=0.05), SolverConfig(schedule=EpsilonSchedule("fixed", eps0=e)))
        for e in eps_values
    )
    spec = SweepSpec(dist=NORMAL, m=50, n=200, k_values=(15,),
                     schemes=schemes, trials=20, seed_base=SEED_BASE, paired=False)
    result = sweep(spec)
    rate = {eps_values[c.scheme_index]: c.success_rate for c in result.cells}
    ok = rate[1e-2] >= max(rate[1e-4], rate[1e-1])
    assert report(6, "eps study", ok,
                  f"k=15 w1 rates: 1e-4 -> {rate[1e-4]:.2f}, 1e-2 -> {rate[1e-2]:.2f}, "
                  f"1e-1 -> {rate[1e-1]:.2f}")


def test_criterion_7_large_p_degradation():
    # As specified: defaults (halving eps, AbsoluteValue clamp), k=10.
    # The default clamp repairs the raw-weight pathology that drives the
    # degradation this criterion expects, so both variants saturate near 1.0
    # and the comparison rides on single-trial noise; see the diagnostic
    # line for the clamp-free research mode alongside.
    params = (0.05, 0.4)
    schemes = tuple((WeightScheme("w2", p=v, q=v), SolverConfig()) for v in params)
    spec = SweepSpec(dist=NORMAL, m=50, n=200, k_values=(10,),
                     schemes=schemes, trials=20, seed_base=SEED_BASE, paired=False)
    result = sweep(spec)
    rate = {params[c.scheme_index]: c.success_rate for c in result.cells}

    raw_cfg = SolverConfig(clamp=WeightClamp("none"))
    raw_schemes = tuple((WeightScheme("w2", p=v, q=v), raw_cfg) for v in params)
    raw_spec = SweepSpec(dist=NORMAL, m=50, n=200, k_values=(10,),
                         schemes=raw_schemes, trials=20, seed_base=SEED_BASE, paired=False)
    raw_result = sweep(raw_spec)
    raw_rate = {params[c.scheme_index]: c.success_rate for c in raw_result.cells}

    ok = rate[0.05] >= rate[0.4]
    assert report(7, "large-p degradation", ok,
                  f"k=10 w2 rates (abs clamp): p=q=0.05 -> {rate[0.05]:.2f}, "
                  f"p=q=0.4 -> {rate[0.4]:.2f}; "
                  f"(none clamp): {raw_rate[0.05]:.2f} vs {raw_rate[0.4]:.2f}")


def test_criterion_8_trivial_recovery():
    failures = []
    for name in sorted(DISTRIBUTIONS):
        spec = SweepSpec(dist=DistributionSpec.default(name), m=50, n=200,
                         k_values=(1,), schemes=default_schemes(), trials=20,
                         seed_base=SEED_BASE, paired=False)
        for cell in sweep(spec).cells:
            if cell.success_rate != 1.0:
                failures.append((name, cell.scheme, cell.success_rate))
    ok = not failures
    assert report(8, "trivial recovery", ok,
                  "success rate 1.0 for every (distribution, scheme)" if ok
                  else f"shortfalls: {failures}")


def test_criterion_9_reproducibility(criterion4_sweep):
    spec, first = criterion4_sweep
    again = sweep(spec, workers=1)
    parallel = sweep(spec, workers=8)
    same_bytes = first.to_csv() == again.to_csv()
    same_parallel = first.to_csv() == parallel.to_csv() and first.cells == parallel.cells
    ok = same_bytes and same_parallel
    assert report(9, "reproducibility", ok,
                  f"re-run byte-identical: {same_bytes}; 8-worker identical: {same_parallel}")


def test_criterion_10_sampler_moments():
    n_draws = 100_000
    checks = {
        "normal": (lambda x: float(np.mean(x)), 0.0, 0.05),
        "poisson": (lambda x: float(np.mean(x)), 2.0, 0.05),
        "exponential": (lambda x: float(np.mean(x)), 5.0, 0.15),
        "uniform": (lambda x: float(np.mean(x)), 5.0, 0.1),
        "gamma": (lambda x: float(np.mean(x)), 50.0, 0.5),
        "f": (lambda x: float(np.mean(x)), 1.5, 0.15),
    }
    details = []
    ok = True
    for name, (stat, target, band) in checks.items():
        sampler = Sampler(SplitMix64(SEED_BASE))
        dist = DistributionSpec.default(name)
        x = sampler.draws(dist, n_draws)
        got = stat(x)
        good = abs(got - target) <= band
        if name == "normal":
            var = float(np.var(x))
            good = good and abs(var - 1.0) <= 0.05
            details.append(f"normal var={var:.3f}")
        if name == "uniform":
            good = good and bool(np.all((x > 0) & (x < 10.0)))
        if name == "poisson":
            good = good and bool(np.all(x == np.floor(x)))
        ok = ok and good
        details.append(f"{name} mean={got:.3f} (target {target} +/- {band})")
    assert report(10, "sampler moments", ok, "; ".join(details))
