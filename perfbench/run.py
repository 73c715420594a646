#!/usr/bin/env python3
"""Sweep benchmark for rwl1, run from the root of a source checkout.

    python3 perfbench/run.py                       # every workload, untraced and traced
    python3 perfbench/run.py --workload reweight-deep --seed 42 --trace 0

With ``--trace 0`` one workload is measured untraced and the end-to-end
metrics are reported; with ``--trace 1`` a separate serial run is traced and
the per-layer metrics are reported.  Every run checks the program's outputs
and ends its standard output with one JSON line:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The exit code is 0 when every check passed, 1 when one failed and 2 when the
program's sources are missing.  Results, the machine record and the spans
are also written to ``perfbench-out/`` under the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and every process it starts, set
# before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
NAMES = ("gen-mix", "reweight-deep", "figure-par")
DEFAULT_SEED = 42  # the paper-figure seed; confirm a claim on HELD_OUT_SEED too
HELD_OUT_SEED = 7


def load_program() -> None:
    """Put the checkout's rwl1 sources first on the path, or exit with code 2."""
    if not (SRC / "rwl1" / "__init__.py").is_file():
        print(f"perfbench: no rwl1 sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import rwl1

    if Path(rwl1.__file__).resolve().parent != SRC / "rwl1":
        print(f"perfbench: imported rwl1 from {rwl1.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def machine_record() -> dict:
    import numpy as np

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "loadavg": os.getloadavg(),
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of its own, e.g. an exported tree
    return lines[1]


def result_path(name: str, seed: int, trace: int) -> Path:
    return OUT / f"{name}-seed{seed}-trace{trace}.json"


def run_one(name: str, seed: int, trace: bool) -> int:
    import measure
    import workloads

    machine = machine_record()
    print("machine: " + json.dumps(machine), flush=True)
    wl = workloads.build(name, seed)
    if trace:
        out, tracer = measure.layers(wl, seed)
    else:
        out, tracer = measure.end_to_end(wl, seed, str(SRC), str(HERE)), None

    for label, value in out.digests.items():
        print(f"digest {label}: {value}")
    for key, value in out.notes.items():
        print(f"samples {key}: {value}")
    for metric, (value, unit) in out.metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    print(f"{name} trials = {out.attempted}, trials_failed = {out.failed}")
    for failure in out.failures:
        print(f"CHECK FAILED: {failure}")

    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{name}-seed{seed}-spans.jsonl")
    summary = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }
    with open(result_path(name, seed, int(trace)), "w", encoding="utf-8") as fh:
        json.dump({**summary, "workload": name, "seed": seed, "trace": int(trace),
                   "machine": machine, "digests": out.digests, "failures": out.failures,
                   "samples": out.notes}, fh, indent=1)
    print(json.dumps(summary), flush=True)
    return 0 if out.correct else 1


def run_all(seed: int) -> int:
    """Every workload untraced then traced, each in its own interpreter; the
    passes both runs of a workload made must give identical sweep CSVs.  The
    result line carries both runs' metrics as ``<workload>.<metric>``."""
    failed, rows, combined = False, [], {}
    attempted = trials_failed = 0
    for name in NAMES:
        digests = []
        for trace in (0, 1):
            path = result_path(name, seed, trace)
            path.unlink(missing_ok=True)
            code = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(seed),
                                   "--trace", str(trace)]).returncode
            if code != 0 or not path.is_file():
                failed = True
                rows.append(f"{name}: trace {trace} run exited with code {code}")
                continue
            with open(path, encoding="utf-8") as fh:
                res = json.load(fh)
            digests.append(res["digests"])
            if trace == 0:
                attempted += res["attempted"]
                trials_failed += res["failed"]
                rows.append(f"{name}: trials = {res['attempted']}, "
                            f"trials_failed = {res['failed']}")
            for metric, mv in res["metrics"].items():
                rows.append(f"{name}: {metric} = {mv['value']:.6g} {mv['unit']}")
                combined[f"{name}.{metric}"] = mv
        if len(digests) == 2:
            common = digests[0].keys() & digests[1].keys()
            if any(digests[0][k] != digests[1][k] for k in common):
                failed = True
                rows.append(f"{name}: untraced and traced runs wrote different sweep CSVs")
            rows.append(f"{name}: pass0 sweep CSV digest {digests[0].get('pass0')}")
    print("\n".join(["", f"summary (seed {seed}):"] + rows))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": trials_failed,
                      "metrics": combined}))
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float,
                    help="accepted for BENCHMARK.json's run_seconds and not used: each "
                         "workload makes a fixed number of passes, so every run measures "
                         "the same inputs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args.seed)
    return run_one(args.workload, args.seed, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
