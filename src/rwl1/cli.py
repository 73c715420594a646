"""Command-line front end: solve | sweep | study-eps | study-p | study-pq | plot.

The flags become domain objects (DistributionSpec, WeightScheme,
WeightClamp, EpsilonSchedule, SweepSpec, or make_instance for solve),
which validate them before any work starts: bad flags exit 1, solver
failures exit 2.  The sweep and the three studies are one grid run that
differs in its members and its CSV: one summary row per member, the CSV
to --out (else to stdout, the summary to stderr).  Identical flags and
seeds write byte-identical CSV and SVG, except that sweep --timing records
measured wall-clock times.  plot reads the two CSV kinds written here.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager

import numpy as np

from .bench import CSV_HEADER, MAX_INDEX, SweepResult, SweepSpec, is_success, sweep
from .instances import DISTRIBUTIONS, DistributionSpec, load_instance, make_instance
from .linalg import SUPPORT_TOL
from .merit import CLAMP_KINDS, SCHEME_KINDS, WeightClamp, WeightScheme
from .simplex import SolverError
from .solver import EPS_RULES, EpsilonSchedule, ReweightedResult, SolverConfig, reweighted_l1
from .svgplot import render_lines

# the flag of each distribution parameter, in DISTRIBUTIONS order (defaults from there)
DIST_FLAGS = {
    "normal": ("--mu", "--sigma"),
    "poisson": ("--lam",),
    "exponential": ("--exp-mean",),
    "f": ("--f-d1", "--f-d2"),
    "gamma": ("--gamma-shape", "--gamma-scale"),
    "uniform": ("--uniform-high",),
}
DEFAULT_EPS_LIST = "1e-5,1e-4,1e-3,1e-2,1e-1"
DEFAULT_GRID = "0.04:0.08:1"
DEFAULT_STUDY_K = "5,10,15,20"
STUDY_HEADER_TAIL = "k,trials,successes,success_rate"  # after the column eps, p or q


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    """Flag-validation failure after parsing; maps to exit code 1."""


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def _instance_flags(p: argparse.ArgumentParser):
    p.add_argument("--dist", choices=sorted(DISTRIBUTIONS), default="normal")
    for dist, flags in DIST_FLAGS.items():
        for flag, name, default in zip(flags, *DISTRIBUTIONS[dist]):
            p.add_argument(flag, dest=f"{dist}_{name}", type=float, default=default)
    p.add_argument("--m", type=positive_int, default=50)
    p.add_argument("--n", type=positive_int, default=200)
    p.add_argument("--seed", type=int, default=42)


# --p, --q, --clamp, --clamp-floor and --eps-rule default to the library's own
# defaults, read from WeightScheme, WeightClamp and EpsilonSchedule
def _scheme_flags(p: argparse.ArgumentParser, q: bool = True):
    p.add_argument("--p", type=float, default=WeightScheme.p)
    if q:
        p.add_argument("--q", type=float, default=WeightScheme.q)


def _config_flags(p: argparse.ArgumentParser, eps_rule: bool = True):
    p.add_argument("--clamp", choices=CLAMP_KINDS, default=WeightClamp.kind)
    p.add_argument("--clamp-floor", type=float, default=WeightClamp.floor)
    if eps_rule:
        p.add_argument("--eps-rule", choices=EPS_RULES, default=EpsilonSchedule.rule)
        p.add_argument("--eps0", type=float, default=None,
                       help="initial eps (default: the rule's own, set by the solver)")


def _grid_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--trials", type=positive_int, default=20)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--unpaired", action="store_true",
                   help="give each member its own instances (default: all share each trial's)")
    p.add_argument("--out", default=None)


def _grid_flag(p: argparse.ArgumentParser, flag: str, cast, default: str):
    p.add_argument(flag, type=lambda text: _parse_grid(text, cast), default=default,
                   help="comma list, start:stop or start:step:stop")


def _parse_grid(text: str, cast) -> list:
    """A comma list, start:stop (step 1) or start:step:stop, each value
    through ``cast``; stop is included when a whole number of steps reaches it."""
    try:
        if ":" not in text:
            values = [cast(tok) for tok in text.split(",") if tok.strip() != ""]
        else:
            parts = [cast(tok) for tok in text.split(":")]
            if len(parts) not in (2, 3):
                raise ValueError("expected start:stop or start:step:stop")
            start, step, stop = (parts[0], 1, parts[1]) if len(parts) == 2 else parts
            if step <= 0:
                raise ValueError("step must be > 0")
            span = (stop - start) / step + 1e-9
            if not span < MAX_INDEX:  # bound the list before building it
                raise ValueError(f"expected finite bounds and at most {MAX_INDEX} values")
            values = [start + i * step for i in range(math.floor(span) + 1)]
            if cast is float:  # shed the accumulated rounding error of i * step
                values = [float(f"{v:.12g}") for v in values]
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"must contain at least one value (got {text!r})")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="rwl1", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="recover one instance and report the result")
    ps.add_argument("--instance", default=None, help="instance JSON file (overrides generation flags)")
    ps.add_argument("--k", type=int, default=None, help="planted sparsity when generating")
    ps.add_argument("--scheme", choices=SCHEME_KINDS, default="w1")
    _scheme_flags(ps)
    _config_flags(ps)
    _instance_flags(ps)

    pw = sub.add_parser("sweep", help="success-rate grid over sparsity levels and schemes")
    _grid_flag(pw, "--k", int, "1:26")
    pw.add_argument("--schemes", default="l1,cwb,w1,w2", help="comma list of schemes")
    _scheme_flags(pw)
    pw.add_argument("--timing", action="store_true",
                    help="write measured wall_ms into the CSV (breaks byte reproducibility)")
    _config_flags(pw)
    _instance_flags(pw)
    _grid_run_flags(pw)

    pe = sub.add_parser("study-eps", help="w1 success rate vs fixed eps at one sparsity")
    pe.add_argument("--k", type=int, default=15)
    _scheme_flags(pe, q=False)
    _grid_flag(pe, "--eps-list", float, DEFAULT_EPS_LIST)
    _config_flags(pe, eps_rule=False)

    pp = sub.add_parser("study-p", help="w1 success rate over a p grid at fixed sparsities")
    _grid_flag(pp, "--p-grid", float, DEFAULT_GRID)

    pq = sub.add_parser("study-pq", help="w2 success rate over a q grid at fixed p and sparsities")
    pq.add_argument("--fixed-p", type=float, default=0.08)
    _grid_flag(pq, "--q-grid", float, DEFAULT_GRID)

    for study in (pp, pq):
        _grid_flag(study, "--k-list", int, DEFAULT_STUDY_K)
        _config_flags(study)
    for study in (pe, pp, pq):
        _instance_flags(study)
        _grid_run_flags(study)

    pl = sub.add_parser("plot", help="render a results CSV as an SVG line plot")
    pl.add_argument("csv_in")
    pl.add_argument("svg_out")
    pl.add_argument("--title", default="")

    return parser


# ---------------------------------------------------------------------------
# flags -> domain objects


@contextmanager
def _flag_errors():
    """Report a domain object's rejection of a flag value as a CliError."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _dist_from_args(args) -> DistributionSpec:
    names, _ = DISTRIBUTIONS[args.dist]
    return DistributionSpec(args.dist, [getattr(args, f"{args.dist}_{name}") for name in names])


def _config(args, rule: str, eps0: float | None) -> SolverConfig:
    return SolverConfig(schedule=EpsilonSchedule(rule, eps0=eps0),
                        clamp=WeightClamp(args.clamp, floor=args.clamp_floor))


def _write_text(path: str, text: str, mode: str = "w"):
    try:
        with open(path, mode, encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    with _flag_errors():
        config = _config(args, args.eps_rule, args.eps0)
        scheme = WeightScheme(args.scheme, p=args.p, q=args.q)
        if args.instance is not None:
            inst = load_instance(args.instance)
        elif args.k is None:
            raise CliError("solve needs --instance or --k for generation")
        else:
            inst = make_instance(_dist_from_args(args), args.m, args.n, args.k, args.seed)

    try:
        with _flag_errors():  # e.g. the cwb eps rule on a square system
            result: ReweightedResult = reweighted_l1(inst.a, inst.b, scheme, config)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2

    x, last = result.x_hat, result.history[-1]
    support = [int(i) for i in np.flatnonzero(np.abs(x) > SUPPORT_TOL)]
    print(f"scheme: {scheme.label}")
    print(f"support: {' '.join(map(str, support)) if support else '(empty)'}")
    print(f"nnz: {last.support_size}")
    print(f"residual_inf: {last.residual_inf:.3e}")
    print(f"iterations: {result.iterations_used}")
    print(f"success: {'true' if is_success(x, inst.x_true) else 'false'}")
    return 0


def _run_grid(args, k_values, members, table) -> int:
    """The one run path of sweep and the studies: a sweep over ``k_values``
    and the ``(label, (scheme, config))`` members, one summary row per
    member, and the text ``table(result)``: to --out with the summary on
    stdout, or to stdout with the summary on stderr."""
    with _flag_errors():  # members may be lazy: building a scheme checks its flags
        members = list(members)
        spec = SweepSpec(dist=_dist_from_args(args), m=args.m, n=args.n,
                         k_values=tuple(k_values), schemes=tuple(pair for _, pair in members),
                         trials=args.trials, seed_base=args.seed, paired=not args.unpaired)
    if args.out:
        _write_text(args.out, "", "a")  # an unwritable --out fails before any trial
    result = sweep(spec, workers=args.workers)
    summary = sys.stdout if args.out else sys.stderr
    print(f"{'scheme':<10}{'cells':>6}{'trials':>8}{'mean rate':>11}{'mean iters':>12}"
          f"{'mean pivots':>13}{'wall s':>9}", file=summary)
    grid_cells, per_member = result.cells, len(spec.k_values)
    for i, (label, _) in enumerate(members):  # the cells come in grid order: member, then k
        cells = grid_cells[i * per_member:(i + 1) * per_member]
        rate = sum(c.success_rate for c in cells) / len(cells)
        iters = sum(c.mean_iters for c in cells) / len(cells)
        pivots = sum(c.mean_pivots for c in cells) / len(cells)
        wall = sum(c.wall_ms for c in cells) / 1e3
        print(f"{label:<10}{len(cells):>6}{cells[0].trials * len(cells):>8}"
              f"{rate:>11.3f}{iters:>12.2f}{pivots:>13.1f}{wall:>9.2f}", file=summary)
    if args.out:
        _write_text(args.out, table(result))
        print(f"wrote {args.out}")
    else:
        print(table(result), end="")
    return 0


def cmd_sweep(args) -> int:
    kinds = [tok.strip() for tok in args.schemes.split(",") if tok.strip()]
    members = ((kind, (WeightScheme(kind, p=args.p, q=args.q),
                       _config(args, args.eps_rule, args.eps0))) for kind in kinds)
    return _run_grid(args, args.k, members,
                     lambda result: result.to_csv(include_timing=args.timing))


def _study(args, column: str, values: list[float], k_values: list[int], member) -> int:
    """A grid with one member ``(column=value, member(value))`` per study value."""
    def table(result: SweepResult) -> str:
        return "\n".join([f"{column},{STUDY_HEADER_TAIL}"] + [
            f"{values[c.scheme_index]!r},{c.k},{c.trials},{c.successes},{c.success_rate!r}"
            for c in result.cells]) + "\n"

    return _run_grid(args, k_values, ((f"{column}={v!r}", member(v)) for v in values), table)


def cmd_study_eps(args) -> int:
    return _study(args, "eps", args.eps_list, [args.k], lambda eps: (
        WeightScheme("w1", p=args.p), _config(args, "fixed", eps)))


def cmd_study_p(args) -> int:
    return _study(args, "p", args.p_grid, args.k_list, lambda p: (
        WeightScheme("w1", p=p), _config(args, args.eps_rule, args.eps0)))


def cmd_study_pq(args) -> int:
    return _study(args, "q", args.q_grid, args.k_list, lambda q: (
        WeightScheme("w2", p=args.fixed_p, q=q), _config(args, args.eps_rule, args.eps0)))


# ---------------------------------------------------------------------------
# plot


def _read_csv_rows(path: str) -> tuple[list[str], list[dict[str, str]]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in raw if ln.strip() != ""]
    if not lines:
        raise CliError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise CliError(f"{path}: line {lineno}: expected {len(header)} columns, got {len(cells)}")
        rows.append(dict(zip(header, cells)))
    if not rows:
        raise CliError(f"{path}: no data rows")
    return header, rows


def _num(text: str, path: str, lineno: int) -> float:
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise CliError(f"{path}: line {lineno}: bad number {text!r}")


def _point(row: dict[str, str], x_name: str, path: str, lineno: int) -> tuple[float, float]:
    """A row's (x, success_rate), once its counts agree with its rate."""
    x, trials, successes, rate = (_num(row[name], path, lineno)
                                  for name in (x_name, "trials", "successes", "success_rate"))
    where = f"{path}: line {lineno}"
    if not (trials.is_integer() and trials >= 1):
        raise CliError(f"{where}: trials must be a positive integer, got {row['trials']!r}")
    if not (successes.is_integer() and 0 <= successes <= trials):
        raise CliError(f"{where}: successes must be an integer in [0, trials], "
                       f"got {row['successes']!r}")
    if rate != successes / trials:
        raise CliError(f"{where}: success_rate {row['success_rate']!r} is not successes / trials")
    return x, rate


def cmd_plot(args) -> int:
    header, rows = _read_csv_rows(args.csv_in)
    if header == CSV_HEADER.split(","):
        x_name, key_names = "k", ("distribution", "scheme", "p", "q", "eps_rule")
    elif header[0] in ("eps", "p", "q") and ",".join(header[1:]) == STUDY_HEADER_TAIL:
        x_name, key_names = header[0], ("k",)
    else:
        raise CliError(f"{args.csv_in}: unrecognized CSV header {','.join(header)!r}")
    groups: dict[tuple, list] = {}
    for lineno, row in enumerate(rows, start=2):
        groups.setdefault(tuple(row[name] for name in key_names), []).append(
            _point(row, x_name, args.csv_in, lineno))
    keys = [dict(zip(key_names, key)) for key in groups]
    if x_name == "k":  # name a scheme's series by its p when two share the scheme
        schemes = [key["scheme"] for key in keys]
        dedupe = len(set(schemes)) < len(schemes)
        labels = [f"{key['scheme']} p={key['p']}" if dedupe and key["p"] else key["scheme"]
                  for key in keys]
    else:
        labels = [f"k={key['k']}" for key in keys]
    series = list(zip(labels, groups.values()))
    x_label, log_x = ("eps (log10)", True) if x_name == "eps" else (x_name, False)
    try:
        svg = render_lines(series, x_label=x_label, title=args.title, log_x=log_x)
    except ValueError as exc:  # a hand-made eps CSV can hold eps <= 0
        raise CliError(f"{args.csv_in}: {exc}") from exc
    _write_text(args.svg_out, svg)
    print(f"wrote {args.svg_out}")
    return 0


# ---------------------------------------------------------------------------


COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "study-eps": cmd_study_eps,
    "study-p": cmd_study_p,
    "study-pq": cmd_study_pq,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console():
    sys.exit(main())


if __name__ == "__main__":
    console()
