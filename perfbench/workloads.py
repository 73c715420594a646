"""The benchmark's workloads: fixed grids of rwl1 sweeps at paper size.

Each workload is closed-loop (one benchmark process calling ``rwl1.bench.sweep``
and waiting for it) with the default ``SolverConfig``.

- ``gen-mix``: all six distributions, plain l1 at small k.  Every trial is one
  cold LP and instance generation dominates, so it exercises the instances
  layer (rejection samplers included) and bypasses reweighting.
- ``reweight-deep``: normal entries, cwb/w1/w2 at k 16..24.  Trials take 5-10
  LPs and the simplex is most of the time, so it exercises the LP layer.
- ``figure-par``: the paper-figure grid (k 1..26, l1/cwb/w1/w2) through the
  process pool, the run users actually make; its cells differ ~10x in cost,
  so pool scheduling shows.

A run sweeps the grid a fixed number of times, once per pass, and each pass
draws its own instances: pass r uses ``seed_base = seed + (r << 32)``, so pass
0 is the seed's own grid and the same seed always gives the same inputs.
Pooling the passes' trials steadies ``recovery_rate``; the median over passes
steadies the times.  The pass counts make an untraced run last about 30 s on
a 2-vCPU Xeon VM.  A traced run makes enough passes for at least 200 trials,
i.e. at least ten beyond the 95th percentile of trial time.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from rwl1 import DistributionSpec, SolverConfig, SweepSpec, WeightScheme

M, N = 50, 200
DISTRIBUTIONS = ("normal", "poisson", "exponential", "f", "gamma", "uniform")
FIGURE_WORKERS = 2
TRACED_TRIALS = 200

# name: distributions, k values, schemes, trials per cell in one pass, and
# passes in an untraced run.
GRIDS = {
    "gen-mix": (DISTRIBUTIONS, (4, 8, 12), ("l1",), 4, 8),
    "reweight-deep": (("normal",), tuple(range(16, 25)), ("cwb", "w1", "w2"), 4, 3),
    "figure-par": (("normal",), tuple(range(1, 27)), ("l1", "cwb", "w1", "w2"), 2, 5),
}


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[SweepSpec, ...]  # pass 0
    workers: int
    passes: int  # untraced
    traced_passes: int

    @property
    def trials(self) -> int:
        """Trials in one pass."""
        return _trials(self.specs)

    def pass_specs(self, r: int) -> tuple[SweepSpec, ...]:
        return tuple(dataclasses.replace(s, seed_base=s.seed_base + (r << 32))
                     for s in self.specs)


def _trials(specs) -> int:
    return sum(s.trials * len(s.k_values) * len(s.schemes) for s in specs)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's grid; ``tiny`` shrinks it to two k values, one trial per
    cell and one pass, untraced and traced, for the smoke test."""
    if name not in GRIDS:
        raise ValueError(f"unknown workload {name!r}")
    dists, ks, schemes, trials, passes = GRIDS[name]
    if tiny:
        ks, trials, passes = (ks[0], ks[-1]), 1, 1
    config = SolverConfig()
    specs = tuple(SweepSpec(dist=DistributionSpec.default(d), m=M, n=N, k_values=ks,
                            schemes=tuple((WeightScheme(s), config) for s in schemes),
                            trials=trials, seed_base=seed)
                  for d in dists)
    workers = min(FIGURE_WORKERS, nproc()) if name == "figure-par" else 1
    traced_passes = 1 if tiny else -(-TRACED_TRIALS // _trials(specs))
    return Workload(name, specs, workers, passes, traced_passes)
