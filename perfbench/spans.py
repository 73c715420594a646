"""Outside-in tracing of rwl1: one span per call into a wrapped public function.

The program is not edited.  ``traced(tracer)`` replaces the module attributes
through which rwl1 calls its own layers, so a serial sweep records:

    sweep > run_trial > make_instance
                      > reweighted_l1 > weighted_l1_lp > solve_standard_form
                                      > weights, merit_value

A span is ``[name, parent, trial, start, end, attrs]``; its id is its index in
``Tracer.spans`` and ``trial`` is the id of the enclosing ``run_trial`` span.
Spans stay in memory until ``write_jsonl`` at the end of the run.  Worker
processes are not traced: only serial sweeps go through the tracer.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager

import numpy as np

import rwl1.bench
import rwl1.simplex
import rwl1.solver

NAME, PARENT, TRIAL, START, END, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trial: int | None = None

    @contextmanager
    def span(self, name: str, starts_trial: bool = False):
        sid = len(self.spans)
        if starts_trial:
            self._trial = sid
        record = [name, self._stack[-1] if self._stack else None, self._trial, 0.0, 0.0, {}]
        self.spans.append(record)
        self._stack.append(sid)
        record[START] = time.perf_counter()
        try:
            yield record[ATTRS]
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
            if starts_trial:
                self._trial = None

    def wrap(self, fn, on_return=None, starts_trial: bool = False):
        """``fn`` recording a span per call; ``on_return(attrs, args, result)``
        stores facts of a call that returned, with ``args`` bound to ``fn``'s
        parameter names; a call that raised gets ``attrs["error"]`` instead."""
        sig = inspect.signature(fn)
        name = fn.__name__

        def traced(*args, **kwargs):
            with self.span(name, starts_trial) as attrs:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    attrs["error"] = type(exc).__name__
                    raise
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(attrs, bound.arguments, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, trial, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent, "trial": trial,
                                     "start": start, "end": end, **attrs}) + "\n")


def _trial_attrs(attrs, args, rec):
    attrs["dist"] = args["spec"].dist.name
    attrs["failed"] = rec.fail_reason is not None


def _instance_attrs(attrs, args, _inst):
    attrs["dist"] = args["dist"].name


def _solver_attrs(attrs, args, result):
    attrs["lps"] = result.iterations_used
    attrs["budget_hit"] = result.iterations_used >= args["config"].max_iter


def _lp_attrs(attrs, _args, result):
    attrs["pivots"] = result[2]


def _simplex_attrs(attrs, args, sol):
    attrs["pivots"] = sol.pivots
    attrs["cold"] = args["initial_basis"] is None


# (module, attribute, on_return, starts_trial): the attributes rwl1 looks up
# at call time when one layer calls the next.
TARGETS = (
    (rwl1.bench, "run_trial", _trial_attrs, True),
    (rwl1.bench, "make_instance", _instance_attrs, False),
    (rwl1.bench, "reweighted_l1", _solver_attrs, False),
    (rwl1.solver, "weighted_l1_lp", _lp_attrs, False),
    (rwl1.simplex, "solve_standard_form", _simplex_attrs, False),
    (rwl1.solver, "weights", None, False),
    (rwl1.solver, "merit_value", None, False),
)


@contextmanager
def traced(tracer: Tracer):
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
    try:
        for mod, attr, on_return, starts_trial in TARGETS:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), on_return, starts_trial))
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, so their durations add up."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _p(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values) -> float:
    return _ratio(sum(values), len(values))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, untraced_sweep_s: float, busy_frac: float,
                  distributions) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``{name: (value, unit)}``.

    A metric whose layer made no calls on this workload (e.g. reweighted LPs
    on an l1-only grid, or a distribution the grid does not draw) reads 0."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for sid, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(sid)

    def dur(sid):
        return spans[sid][END] - spans[sid][START]

    def total(ids):
        return sum(dur(i) for i in ids)

    def ms(ids):
        return [1e3 * dur(i) for i in ids]

    def attr(ids, key, default):
        return [spans[i][ATTRS].get(key, default) for i in ids]

    trials = by_name.get("run_trial", [])
    gens = by_name.get("make_instance", [])
    loops = by_name.get("reweighted_l1", [])
    lps = by_name.get("weighted_l1_lp", [])
    solves = by_name.get("solve_standard_form", [])
    merit = by_name.get("weights", []) + by_name.get("merit_value", [])
    sweep_s, trial_s = total(by_name.get("sweep", [])), total(trials)
    n_trials = len(trials)

    seen, first, rest = set(), [], []
    for i in lps:  # spans are in start order, so a loop's first LP comes first
        (rest if spans[i][PARENT] in seen else first).append(i)
        seen.add(spans[i][PARENT])

    out = {
        "instances.gen_ms_p50": (_p(ms(gens), 50), "ms"),
        "instances.gen_ms_p95": (_p(ms(gens), 95), "ms"),
    }
    for d in distributions:
        out[f"instances.gen_ms.{d}"] = (
            _p(ms([i for i in gens if spans[i][ATTRS].get("dist") == d]), 50), "ms")
    out.update({
        "instances.share": (_ratio(total(gens), trial_s), "ratio"),
        "simplex.pivots_per_lp_first": (_mean(attr(first, "pivots", 0)), "count"),
        "simplex.pivots_per_lp_rest": (_mean(attr(rest, "pivots", 0)), "count"),
        "simplex.lp_ms_first_p50": (_p(ms(first), 50), "ms"),
        "simplex.lp_ms_rest_p50": (_p(ms(rest), 50), "ms"),
        "simplex.lp_ms_p95": (_p(ms(lps), 95), "ms"),
        "simplex.us_per_pivot": (1e6 * _ratio(total(solves), sum(attr(solves, "pivots", 0))), "us"),
        "simplex.frontend_ms": (1e3 * _mean([selfs[i] for i in lps]), "ms"),
        "simplex.cold_starts": (float(sum(attr(solves, "cold", False))), "count"),
        "simplex.share": (_ratio(total(lps), trial_s), "ratio"),
        "solver.lps_per_trial": (_ratio(len(lps), n_trials), "count"),
        "solver.budget_hit_frac": (
            _ratio(sum(attr(loops, "budget_hit", False)), n_trials), "ratio"),
        "solver.self_ms_per_trial": (1e3 * _ratio(sum(selfs[i] for i in loops), n_trials), "ms"),
        "merit.ms_per_trial": (1e3 * _ratio(total(merit), n_trials), "ms"),
        "bench.trial_ms_p50": (_p(ms(trials), 50), "ms"),
        "bench.trial_ms_p95": (_p(ms(trials), 95), "ms"),
        "bench.self_s": (sweep_s - trial_s, "s"),
        "bench.tracing_overhead": (_ratio(sweep_s, untraced_sweep_s), "ratio"),
        "bench.worker_busy_frac": (busy_frac, "ratio"),
    })
    return out
