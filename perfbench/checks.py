"""Output checks: CSV digests and an independent LP oracle on sampled trials.

scipy's HiGHS solver is the oracle; the benchmark is its only user.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from rwl1.bench import trial_seed
from rwl1.instances import make_instance
from rwl1.simplex import SolverError, weighted_l1_lp
from rwl1.solver import reweighted_l1

SAMPLES_PER_WORKLOAD = 6
# HiGHS certifies primal and dual feasibility to 1e-7, so the two optimal
# objectives may differ by that much relative to their size.
OBJECTIVE_RTOL = 1e-6


def digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode()).hexdigest()


def sample_trials(wl, seed: int):
    """(spec, scheme index, k, trial index) of trials spread over the grid."""
    rng = random.Random(seed)
    picks = []
    for i in range(SAMPLES_PER_WORKLOAD):
        spec = wl.specs[i % len(wl.specs)]
        picks.append((spec, rng.randrange(len(spec.schemes)), rng.choice(spec.k_values),
                      rng.randrange(spec.trials)))
    return picks


def oracle_failures(wl, seed: int) -> list[str]:
    """Regenerate sampled instances; compare the l1 LP optimum with HiGHS and
    check the reweighted iterate's residual against the configured feas_tol."""
    from scipy.optimize import linprog

    failures = []
    for spec, si, k, t in sample_trials(wl, seed):
        scheme, config = spec.schemes[si]
        inst = make_instance(spec.dist, spec.m, spec.n, k, trial_seed(spec.seed_base, k, si, t))
        where = f"{spec.dist.name} {scheme.label} k={k} trial={t}"
        ref = linprog(np.ones(2 * spec.n), A_eq=np.hstack([inst.a, -inst.a]), b_eq=inst.b,
                      bounds=(0, None), method="highs")
        try:
            ours = weighted_l1_lp(np.ones(spec.n), inst.a, inst.b, feas_tol=config.feas_tol)[1]
        except SolverError as exc:
            failures.append(f"{where}: l1 LP failed: {exc}")
            continue
        if ref.status != 0:
            failures.append(f"{where}: HiGHS status {ref.status} ({ref.message})")
        elif abs(ours - ref.fun) > OBJECTIVE_RTOL * max(1.0, abs(ref.fun)):
            failures.append(f"{where}: l1 objective {ours!r} vs HiGHS {ref.fun!r}")
        try:
            x_hat = reweighted_l1(inst.a, inst.b, scheme, config).x_hat
        except SolverError:
            continue  # a failed trial; the sweep counts it in trials_failed
        residual = float(np.max(np.abs(inst.a @ x_hat - inst.b)))
        if residual > config.feas_tol:
            failures.append(f"{where}: residual {residual:.3g} > feas_tol {config.feas_tol:g}")
    return failures
