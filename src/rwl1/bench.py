"""Recovery-probability benchmarking over grids of (scheme, sparsity, params).

Trials are pure functions of (spec, scheme index, k, trial index): each gets
its instance seed by hashing the indices into the base seed, so results are
independent of execution order and of the worker count, and any cell can be
recomputed in isolation.  A paired sweep (the default) hashes scheme index 0
for every scheme, so all schemes of one (k, trial) solve the same instance
and can be compared trial by trial; an unpaired sweep hashes each scheme's
own index.  Failed solves (stalled LPs, failed certification checks) count
as recovery failures and never abort a sweep; their records count the LPs
the run finished before it failed.

A sweep runs one task per (k, trial), which runs every scheme's trial in
turn.  A trial whose seed is the one before it reuses that trial's instance
and its unit-weight LP, the first LP of every scheme, instead of drawing and
solving them again; its record is the one run_trial alone gives.  Unpaired
seeds differ, so there nothing is reused.

A sweep returns its TrialRecords in grid order (scheme index, then the
spec's k order, then trial index).  Its cells, its CSV and the CLI tables are
views of them, and SweepResult.cells is the one place trials become cells.

Wall-clock time is measured per trial and reported in the in-memory results
and the CLI summary, but the CSV wall_ms column is written as 0 unless
timing is explicitly requested: emitted artifacts stay byte-reproducible.
A trial's wall_ms covers the solve; the instance generation before it is
timed separately as gen_ms, which stays in memory and out of the CSV.  Work
is timed in the trial that did it: a trial that reuses the instance has
gen_ms 0, and one that reuses the unit-weight LP leaves its time out of
wall_ms (the record still counts its pivots).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .instances import DistributionSpec, ProblemInstance, make_instance
from .linalg import as_vector
from .merit import WeightScheme
from .rng import mix64
from .simplex import SolverError
from .solver import ReweightedResult, SolverConfig, reweighted_l1

__all__ = [
    "SweepSpec",
    "TrialRecord",
    "CellResult",
    "SweepResult",
    "is_success",
    "trial_seed",
    "run_trial",
    "sweep",
    "CSV_HEADER",
]

SUCCESS_TOL = 1e-4  # a trial recovers x_true when every entry of x_hat is within this
MAX_INDEX = 1 << 20  # trials and schemes per sweep: trial_seed packs their indices in 20 bits

CSV_HEADER = "distribution,scheme,p,q,eps_rule,k,trials,successes,success_rate,mean_iters,mean_pivots,wall_ms"


@dataclass(frozen=True)
class SweepSpec:
    dist: DistributionSpec
    m: int
    n: int
    k_values: tuple[int, ...]
    schemes: tuple[tuple[WeightScheme, SolverConfig], ...]
    trials: int
    seed_base: int
    paired: bool = True  # every scheme of a (k, trial) solves the same instance

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if not 1 <= self.trials <= MAX_INDEX:
            raise ValueError(f"trials must be in [1, {MAX_INDEX}], got {self.trials}")
        if not self.k_values or not self.schemes:
            raise ValueError("k_values and schemes must be nonempty")
        if len(self.schemes) > MAX_INDEX:
            raise ValueError(f"at most {MAX_INDEX} schemes, got {len(self.schemes)}")
        (scheme, config), count = Counter(self.schemes).most_common(1)[0]
        if count > 1:  # their CSV rows would share every key
            raise ValueError(f"schemes must be distinct, got {scheme} with {config} {count} times")
        if not all(1 <= k <= self.m < self.n for k in self.k_values):
            raise ValueError(f"k must be in [1, m] with m < n, got k={self.k_values}, "
                             f"m={self.m}, n={self.n}")


@dataclass(frozen=True)
class TrialRecord:
    scheme_index: int
    k: int
    trial_index: int
    seed: int
    success: bool
    iterations: int
    pivots: int
    wall_ms: float = field(compare=False, default=0.0)
    fail_reason: str | None = None
    gen_ms: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class CellResult:
    distribution: str
    scheme: str
    p: float | None
    q: float | None
    eps_rule: str
    k: int
    trials: int
    successes: int
    success_rate: float
    mean_iters: float
    mean_pivots: float
    wall_ms: float = field(compare=False, default=0.0)
    scheme_index: int = 0  # position in SweepSpec.schemes; not part of the CSV


@dataclass
class SweepResult:
    """A sweep's trial records in grid order: scheme index, k_values order, trial index."""

    spec: SweepSpec
    records: list[TrialRecord]

    @property
    def cells(self) -> list[CellResult]:
        """One CellResult per (scheme, k) in grid order: the one place trials become cells."""
        spec, cells = self.spec, []
        for start in range(0, len(self.records), spec.trials):
            records = self.records[start:start + spec.trials]
            scheme, config = spec.schemes[records[0].scheme_index]
            successes = sum(1 for r in records if r.success)
            cells.append(CellResult(
                distribution=spec.dist.label,
                scheme=scheme.label,
                p=scheme.p,
                q=scheme.q,
                eps_rule=config.schedule.rule if scheme.kind != "l1" else "",
                k=records[0].k,
                trials=spec.trials,
                successes=successes,
                success_rate=successes / spec.trials,
                mean_iters=sum(r.iterations for r in records) / spec.trials,
                mean_pivots=sum(r.pivots for r in records) / spec.trials,
                wall_ms=sum(r.wall_ms for r in records),
                scheme_index=records[0].scheme_index,
            ))
        return cells

    def to_csv(self, include_timing: bool = False) -> str:
        """The cells sorted by (scheme, p, q, k), one CSV row each."""
        lines = [CSV_HEADER]
        for c in sorted(self.cells, key=lambda c: (c.scheme, c.p if c.p is not None else -1.0,
                                                   c.q if c.q is not None else -1.0, c.k)):
            lines.append(",".join([
                c.distribution,
                c.scheme,
                _fmt(c.p),
                _fmt(c.q),
                c.eps_rule,
                str(c.k),
                str(c.trials),
                str(c.successes),
                _fmt(c.success_rate),
                _fmt(c.mean_iters),
                _fmt(c.mean_pivots),
                _fmt(round(c.wall_ms, 3)) if include_timing else "0",
            ]))
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


def is_success(x_hat, x_true) -> bool:
    """Exact-recovery test: inf-norm deviation within SUCCESS_TOL."""
    xh = as_vector(x_hat)
    xt = as_vector(x_true, length=xh.shape[0])
    return bool(np.max(np.abs(xh - xt)) <= SUCCESS_TOL)


def trial_seed(seed_base: int, k: int, scheme_index: int, trial_index: int) -> int:
    """Instance seed for one trial: splitmix64 hash of the packed indices,
    which stay distinct for trial and scheme indices below MAX_INDEX."""
    packed = (int(k) << 40) ^ (int(scheme_index) << 20) ^ int(trial_index)
    return (int(seed_base) ^ mix64(packed)) & ((1 << 64) - 1)


@dataclass
class _Shared:
    """What the trials of one sweep task hand on: the last instance drawn, its
    seed and, once a trial has solved it, its unit-weight LP."""

    seed: int | None = None
    inst: ProblemInstance | None = None
    start: tuple | None = None


def run_trial(spec: SweepSpec, scheme_index: int, k: int, trial_index: int,
              shared: _Shared | None = None) -> TrialRecord:
    """One recovery attempt; solver failures are recorded, not raised.

    Within a sweep task ``shared`` carries the instance and its unit-weight LP
    from trial to trial; this trial reuses them if its seed is theirs, else
    draws its own and leaves them there.  The record is the same either way."""
    scheme, config = spec.schemes[scheme_index]
    seed = trial_seed(spec.seed_base, k, 0 if spec.paired else scheme_index, trial_index)
    shared = _Shared() if shared is None else shared
    gen = 0.0
    if shared.seed != seed:
        gen_start = time.perf_counter()
        inst = make_instance(spec.dist, spec.m, spec.n, k, seed)
        gen = (time.perf_counter() - gen_start) * 1e3
        shared.seed, shared.inst, shared.start = seed, inst, None
    inst = shared.inst
    start = time.perf_counter()
    try:
        result: ReweightedResult = reweighted_l1(inst.a, inst.b, scheme, config,
                                                 start=shared.start)
    except SolverError as exc:
        # the LPs the run finished before it failed and its unit-weight LP, if
        # that finished; a plain SolverError has neither and leaves shared.start
        result, history, reason = None, getattr(exc, "history", []), str(exc)
        shared.start = getattr(exc, "start", shared.start)
    else:
        shared.start, history, reason = result.start, result.history, None
    wall = (time.perf_counter() - start) * 1e3
    return TrialRecord(scheme_index, k, trial_index, seed,
                       success=result is not None and is_success(result.x_hat, inst.x_true),
                       iterations=len(history), pivots=sum(rec.lp_pivots for rec in history),
                       wall_ms=wall, fail_reason=reason, gen_ms=gen)


def _run_task(args) -> list[TrialRecord]:
    """Every scheme's trial at one (k, trial index), in scheme order."""
    spec, k, trial_index = args
    shared = _Shared()
    return [run_trial(spec, si, k, trial_index, shared) for si in range(len(spec.schemes))]


def sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Run the full grid; identical results for any worker count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(spec, k, t) for k in spec.k_values for t in range(spec.trials)]
    if workers == 1:
        per_task = [_run_task(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep loads the pool

        # a fork pool starts every worker on the first submit: no more than tasks
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            per_task = list(pool.map(_run_task, tasks))
    return SweepResult(spec, [records[si] for si in range(len(spec.schemes))
                              for records in per_task])
