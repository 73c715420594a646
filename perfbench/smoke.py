#!/usr/bin/env python3
"""Smoke test of the benchmark itself on tiny grids (about half a minute).

    python3 perfbench/smoke.py

Checks, for every workload, that the untraced and traced runs emit exactly
the metrics BENCHMARK.json names, each with its unit; that spans nest; that
self times are non-negative and add up to each trial's time within
SELF_TIME_SLACK_S; and that failed trials and exceptions escaping a sweep
are accounted for instead of crashing the run.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import sys

import run

SELF_TIME_SLACK_S = 1e-6  # per trial: float rounding of the telescoped sum only
SEED = 3
# which span may call which: the layering the tracer must reproduce
PARENTS = {
    "sweep": None,
    "run_trial": "sweep",
    "make_instance": "run_trial",
    "reweighted_l1": "run_trial",
    "weighted_l1_lp": "reweighted_l1",
    "solve_standard_form": "weighted_l1_lp",
    "weights": "reweighted_l1",
    "merit_value": "reweighted_l1",
}


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)


def declared(kind: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emitted(out) -> dict[str, str]:
    return {name: unit for name, (_, unit) in out.metrics.items()}


def check_spans(tracer, wl) -> None:
    import spans as sp

    s = tracer.spans
    for sid, (name, parent, trial, start, end, _) in enumerate(s):
        check(start <= end, f"span {sid} {name} ends before it starts")
        want = PARENTS[name]
        got = None if parent is None else s[parent][sp.NAME]
        check(got == want, f"span {sid} {name} has a {got} parent, {want} expected")
        if parent is not None:
            check(s[parent][sp.START] <= start and end <= s[parent][sp.END],
                  f"span {sid} {name} is not inside its parent {parent}")
        owner = sid if name == "run_trial" else (None if name == "sweep" else s[parent][sp.TRIAL])
        check(trial == owner, f"span {sid} {name} has trial {trial}, its run_trial is {owner}")
    selfs = sp.self_times(s)
    check(min(selfs) >= 0.0, f"negative self time {min(selfs)}")
    per_trial: dict[int, float] = {}
    for (_, _, trial, *_), self_time in zip(s, selfs):
        if trial is not None:
            per_trial[trial] = per_trial.get(trial, 0.0) + self_time
    expected = wl.trials * wl.traced_passes
    check(len(per_trial) == expected, f"{len(per_trial)} traced trials, {expected} expected")
    for trial, total in per_trial.items():
        duration = s[trial][sp.END] - s[trial][sp.START]
        check(abs(total - duration) <= SELF_TIME_SLACK_S,
              f"trial {trial}: self times add to {total}, trial took {duration}")


def check_failure_accounting(measure, workloads) -> None:
    import rwl1.bench
    from rwl1.simplex import SolverError

    wl = workloads.build("reweight-deep", SEED, tiny=True)
    original = rwl1.bench.reweighted_l1
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise SolverError("injected")
        return original(*args, **kwargs)

    def always_asserts(*args, **kwargs):
        raise AssertionError("injected certification miss")

    try:
        rwl1.bench.reweighted_l1 = first_fails
        out = measure.end_to_end(wl, SEED, str(run.SRC), str(run.HERE))
        check(out.correct and out.failed == 1 and out.attempted == wl.trials,
              f"a SolverError trial gave correct={out.correct} failed={out.failed}")
        rwl1.bench.reweighted_l1 = always_asserts
        out = measure.end_to_end(wl, SEED, str(run.SRC), str(run.HERE))
        check(not out.correct and out.failed == wl.trials
              and any("injected certification miss" in f for f in out.failures),
              f"an escaping AssertionError gave {out.failures}")
    finally:
        rwl1.bench.reweighted_l1 = original


def main() -> int:
    run.load_program()
    import measure
    import workloads

    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for name in run.NAMES:
        wl = workloads.build(name, SEED, tiny=True)
        out = measure.end_to_end(wl, SEED, str(run.SRC), str(run.HERE))
        check(out.correct, f"{name} untraced: {out.failures}")
        check(emitted(out) == end_to_end, f"{name} untraced emits {emitted(out)}")
        check(all(v > 0 for m, (v, _) in out.metrics.items() if m != "recovery_rate"),
              f"{name}: an end-to-end cost reads 0: {out.metrics}")
        out, tracer = measure.layers(wl, SEED)
        check(out.correct, f"{name} traced: {out.failures}")
        check(emitted(out) == per_layer, f"{name} traced emits {emitted(out)}")
        check_spans(tracer, wl)
        print(f"ok {name}: {len(tracer.spans)} spans over {wl.trials} trials")
    check_failure_accounting(measure, workloads)
    print("ok failure accounting")
    return 0


if __name__ == "__main__":
    sys.exit(main())
