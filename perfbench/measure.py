"""Measuring one workload: an untraced run for the end-to-end metrics, or a
traced serial run for the per-layer metrics.  Both run the output checks."""

from __future__ import annotations

import multiprocessing
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import rwl1.bench
from rwl1.bench import sweep

import checks
import spans
import workloads

SETUP_REPEATS = 9

# Runs in a fresh interpreter: everything a CLI user pays before the first
# trial starts.  argv: src dir, benchmark dir, workload name, seed.
SETUP_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
wl = workloads.build(sys.argv[3], int(sys.argv[4]))
if wl.workers > 1:
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=wl.workers)
    list(pool.map(abs, range(wl.workers)))
print("ready", flush=True)
"""


@dataclass
class Outcome:
    """What one run measured and checked; ``metrics`` maps name -> (value, unit)."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


@dataclass
class Pass:
    """One sweep over the workload's whole grid."""

    csv: str
    wall: float
    cpu_self: float
    cpu_children: float
    trials: int
    successes: int


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def timed_pass(wl, r: int, workers: int, tracer=None) -> Pass:
    """Pass ``r`` over the workload's grid."""
    s0, c0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    results = []
    for spec in wl.pass_specs(r):
        with tracer.span("sweep") if tracer else nullcontext():
            results.append(sweep(spec, workers=workers))
    wall = time.perf_counter() - t0
    cells = [c for res in results for c in res.cells]
    return Pass(csv="".join(res.to_csv() for res in results), wall=wall,
                cpu_self=_cpu(resource.RUSAGE_SELF) - s0,
                cpu_children=_cpu(resource.RUSAGE_CHILDREN) - c0,
                trials=sum(c.trials for c in cells), successes=sum(c.successes for c in cells))


@contextmanager
def counted_trials():
    """Count ``run_trial`` calls and failed trials, pool workers included.

    The counters are shared memory made before ``sweep`` forks its pool, and
    forked workers inherit the patched module attribute.  Under a start
    method other than fork the workers would not count, which the caller's
    attempted-trials check reports."""
    counts = multiprocessing.Array("q", 2)  # attempted, failed
    original = rwl1.bench.run_trial

    def counting(*args, **kwargs):
        rec = original(*args, **kwargs)
        with counts.get_lock():
            counts[0] += 1
            counts[1] += rec.fail_reason is not None
        return rec

    rwl1.bench.run_trial = counting
    try:
        yield counts
    finally:
        rwl1.bench.run_trial = original


def _check_counts(out: Outcome, counts, expected: int) -> None:
    if counts[0] != expected:
        out.failures.append(f"trial accounting saw {counts[0]} run_trial calls, "
                            f"expected {expected}")


def setup_seconds(name: str, seed: int, src: str, here: str) -> float:
    """Median time from launching a fresh interpreter to the first trial being ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, src, here, name, str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe exited with code {code} before the first trial")
    return statistics.median(times)


def _guarded(out: Outcome, what: str, fn, *args):
    """Run one stage; an exception escaping it fails the workload, not the benchmark."""
    try:
        return fn(*args)
    except Exception as exc:  # boundary: record and report, keep the run alive
        traceback.print_exc()
        out.failures.append(f"{what} raised {type(exc).__name__}: {exc}")
        return None


def end_to_end(wl, seed: int, src: str, here: str) -> Outcome:
    """Untraced run: ``wl.passes`` passes; times are medians over the passes,
    recovery is over all their trials."""
    out = Outcome()
    passes: list[Pass] = []
    n = wl.passes

    def run_passes():
        for r in range(n):
            passes.append(timed_pass(wl, r, wl.workers))

    with counted_trials() as counts:
        _guarded(out, "sweep", run_passes)
    _check_counts(out, counts, len(passes) * wl.trials)
    out.attempted = n * wl.trials
    # an exception escaping a sweep fails the whole workload
    out.failed = counts[1] if len(passes) == n else out.attempted
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if wl.workers > 1 else 0
    out.digests = {f"pass{r}": checks.digest(p.csv) for r, p in enumerate(passes)}
    out.failures += _guarded(out, "oracle check", checks.oracle_failures, wl, seed) or []
    setup = _guarded(out, "setup probe", setup_seconds, wl.name, seed, src, here)
    if not passes or setup is None:
        return out
    out.notes["pass_walls_s"] = [round(p.wall, 4) for p in passes]
    out.metrics = {
        "setup_s": (setup, "s"),
        "sweep_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_self + p.cpu_children for p in passes), "s"),
        # self plus each pool worker at the largest worker's peak
        "peak_rss_mb": ((self_kb + wl.workers * child_kb) / 1024.0, "MB"),
        "recovery_rate": (sum(p.successes for p in passes) / sum(p.trials for p in passes),
                          "ratio"),
    }
    return out


def layers(wl, seed: int) -> tuple[Outcome, spans.Tracer]:
    """Traced run over ``wl.traced_passes`` passes: untraced serial, pooled
    (where the workload uses the pool) and traced serial sweeps of each, whose
    CSVs must agree.

    The untraced serial sweep is the baseline of the tracing overhead: a
    pooled sweep runs on more cores, and its CPU time is inflated by the
    workers contending for them.  The pooled sweep gives ``worker_busy_frac``
    and the worker-count check within this one run: a traced run is its own
    invocation and cannot count on an untraced run of the same seed having
    left its results behind."""
    out = Outcome()
    tracer = spans.Tracer()
    n = wl.traced_passes
    runs = {"serial": [], "pooled": [], "traced": []}

    def run_passes(label, workers, tracer=None):
        for r in range(n):
            runs[label].append(timed_pass(wl, r, workers, tracer))

    with counted_trials() as counts:
        _guarded(out, "serial sweep", run_passes, "serial", 1)
        if wl.workers > 1:
            _guarded(out, "pooled sweep", run_passes, "pooled", wl.workers)
    _check_counts(out, counts, sum(len(v) for v in runs.values()) * wl.trials)
    with spans.traced(tracer):
        _guarded(out, "traced sweep", run_passes, "traced", 1, tracer)
    for r in range(n):
        csvs = {label: checks.digest(v[r].csv) for label, v in runs.items() if len(v) > r}
        out.digests[f"pass{r}"] = csvs.get("serial", "")
        if len(set(csvs.values())) > 1:
            out.failures.append(f"pass {r}: sweep CSV digests differ: {csvs}")
    out.failures += _guarded(out, "oracle check", checks.oracle_failures, wl, seed) or []
    base, traced, pooled = runs["serial"], runs["traced"], runs["pooled"]
    out.attempted = n * wl.trials
    out.failed = (sum(s[spans.NAME] == "run_trial" and s[spans.ATTRS]["failed"]
                      for s in tracer.spans)
                  if len(traced) == n else out.attempted)
    if len(base) < n or len(traced) < n or (wl.workers > 1 and len(pooled) < n):
        return out, tracer
    # share of the workers' capacity spent in trials: pool children, or the
    # benchmark process itself when the grid runs serially
    busy = (sum(p.cpu_children for p in pooled) / (wl.workers * sum(p.wall for p in pooled))
            if pooled else sum(p.cpu_self for p in base) / sum(p.wall for p in base))
    out.metrics = spans.layer_metrics(tracer.spans, sum(p.wall for p in base), busy,
                                      workloads.DISTRIBUTIONS)
    out.notes.update(trials=out.attempted,
                     lps=sum(s[spans.NAME] == "weighted_l1_lp" for s in tracer.spans))
    return out, tracer
