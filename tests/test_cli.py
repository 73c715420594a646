import argparse
import hashlib
import json

import numpy as np
import pytest

from rwl1.bench import CSV_HEADER
from rwl1.cli import _parse_grid, build_parser, main
from rwl1.merit import WeightClamp, WeightScheme
from rwl1.simplex import SolverError
from rwl1.solver import EpsilonSchedule
from test_instances import IDENTITY_INSTANCE, NO_ROWS_INSTANCE, TALL_INSTANCE


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_generated_instance_succeeds(self, capsys):
        code, out, _ = run(["solve", "--dist", "normal", "--k", "3", "--seed", "42",
                            "--scheme", "w1"], capsys)
        assert code == 0
        assert "success: true" in out
        assert "nnz: 3" in out

    def test_out_of_range_p_exits_1(self, capsys):
        code, _, err = run(["solve", "--k", "3", "--p", "1.5"], capsys)
        assert code == 1
        assert "p must be in (0.0, 1.0]" in err  # message cites the valid range

    def test_identity_instance_file(self, tmp_path, capsys):
        # square invertible system: the unique solution is b itself
        doc = {"m": 2, "n": 2, "k": 2, "dist": {"name": "normal", "mu": 0.0, "sigma": 1.0},
               "seed": 0, "A": [1.0, 0.0, 0.0, 1.0], "b": [3.0, -4.0], "x_true": [3.0, -4.0]}
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["solve", "--instance", str(path), "--scheme", "cwb"], capsys)
        assert code == 0
        assert "success: true" in out
        assert "residual_inf: 0.000e+00" in out

    def test_cwb_rule_on_square_instance_exits_1(self, tmp_path, capsys):
        # rows 5-9 repeat rows 0-4: this run reached the cwb rule at its
        # second LP and ended in a traceback
        top = np.random.default_rng(4).normal(size=(5, 10))
        a, x = np.vstack([top, top]), np.repeat([0.0, 1.0], [6, 4])
        doc = {**IDENTITY_INSTANCE, "m": 10, "n": 10, "k": 4, "A": a.ravel().tolist(),
               "b": (a @ x).tolist(), "x_true": x.tolist()}
        for name, inst in (("repeated", doc), ("identity", IDENTITY_INSTANCE)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(inst))
            code, out, err = run(["solve", "--instance", str(path), "--scheme", "w1",
                                  "--eps-rule", "cwb"], capsys)
            m = inst["m"]
            assert (code, out) == (1, "")
            assert err == f"error: cwb eps rule requires m < n, got m={m}, n={m}\n"

    def test_missing_k_without_instance(self, capsys):
        code, _, err = run(["solve"], capsys)
        assert code == 1
        assert "--k" in err

    def test_invalid_instance_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**IDENTITY_INSTANCE, "dist": {"name": "cauchy"}}))
        code, _, err = run(["solve", "--instance", str(path)], capsys)
        assert code == 1
        assert "unknown distribution 'cauchy'" in err

    def test_solver_error_exits_2(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise SolverError("simplex stalled")

        monkeypatch.setattr("rwl1.cli.reweighted_l1", fail)
        code, out, err = run(["solve", "--k", "3"], capsys)
        assert code == 2
        assert err == "solver error: simplex stalled\n"
        assert out == ""

    @pytest.mark.parametrize("argv", [["solve", "--nope"], ["solve", "--m", "notanint"]])
    def test_bad_flags_exit_1_via_parser(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


class TestSweep:
    def test_minimal_grid_single_row(self, tmp_path, capsys):
        out_csv = tmp_path / "mini.csv"
        code, out, _ = run(["sweep", "--dist", "normal", "--m", "10", "--n", "30",
                            "--k", "2", "--schemes", "cwb", "--trials", "1",
                            "--seed", "7", "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("distribution,scheme,")

    def test_grid_shape_four_schemes(self, tmp_path, capsys):
        out_csv = tmp_path / "grid.csv"
        code, _, _ = run(["sweep", "--m", "8", "--n", "24", "--k", "1:3",
                          "--schemes", "l1,cwb,w1,w2", "--trials", "1",
                          "--seed", "3", "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert len(lines) == 1 + 4 * 3

    def test_byte_identical_reruns_and_workers(self, tmp_path, capsys):
        args = ["sweep", "--m", "10", "--n", "30", "--k", "2,3", "--schemes", "l1,w1",
                "--trials", "2", "--seed", "11"]
        outs = []
        for name, extra in [("a.csv", []), ("b.csv", []), ("c.csv", ["--workers", "4"])]:
            path = tmp_path / name
            code, _, _ = run(args + ["--out", str(path)] + extra, capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_rejects_bad_k_range(self, capsys):
        code, _, err = run(["sweep", "--m", "10", "--n", "30", "--k", "5:60",
                            "--schemes", "l1", "--trials", "1"], capsys)
        assert code == 1
        assert "m=10" in err

    def test_rejects_unknown_scheme(self, capsys):
        code, _, err = run(["sweep", "--k", "2", "--schemes", "l1,omp", "--trials", "1"], capsys)
        assert code == 1
        assert "omp" in err

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        out_csv = tmp_path / "missing" / "out.csv"
        code, _, err = run(["sweep", "--m", "8", "--n", "20", "--k", "2", "--schemes", "l1",
                            "--trials", "1", "--out", str(out_csv)], capsys)
        assert code == 1
        assert f"cannot write {out_csv}" in err


class TestStudies:
    def test_eps_single_value_single_row(self, tmp_path, capsys):
        out_csv = tmp_path / "eps.csv"
        code, _, _ = run(["study-eps", "--m", "10", "--n", "30", "--k", "3",
                          "--eps-list", "0.01", "--trials", "2", "--seed", "5",
                          "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "eps,k,trials,successes,success_rate"
        assert len(lines) == 2
        assert lines[1].startswith("0.01,3,2,")

    def test_eps_zero_rejected(self, capsys):
        code, _, err = run(["study-eps", "--eps-list", "0.01,0", "--trials", "1"], capsys)
        assert code == 1
        assert "> 0" in err

    def test_study_p_grid_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "p.csv"
        code, out, _ = run(["study-p", "--m", "10", "--n", "30", "--p-grid", "0.1,0.5,0.9",
                            "--k-list", "2,3", "--trials", "1", "--seed", "4",
                            "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "p,k,trials,successes,success_rate"
        assert len(lines) == 1 + 3 * 2
        # one summary row per p value, named by it, then the "wrote" line
        assert [row.split()[0] for row in out.splitlines()[1:-1]] == ["p=0.1", "p=0.5", "p=0.9"]

    def test_study_rows_keep_the_given_order(self, tmp_path, capsys):
        out_csv = tmp_path / "p.csv"
        code, _, _ = run(["study-p", "--m", "10", "--n", "30", "--p-grid", "0.9,0.1",
                          "--k-list", "4,2", "--trials", "1", "--seed", "4",
                          "--out", str(out_csv)], capsys)
        assert code == 0
        rows = [ln.split(",")[:2] for ln in out_csv.read_text().splitlines()[1:]]
        assert rows == [["0.9", "4"], ["0.9", "2"], ["0.1", "4"], ["0.1", "2"]]

    def test_study_pq_default_grid_includes_endpoint(self, tmp_path, capsys):
        out_csv = tmp_path / "q.csv"
        code, _, _ = run(["study-pq", "--m", "8", "--n", "20", "--fixed-p", "0.08",
                          "--q-grid", "0.04:0.08:1", "--k-list", "2", "--trials", "1",
                          "--seed", "4", "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert len(lines) == 1 + 13  # 0.04:0.08:1 has 13 grid points
        assert lines[-1].startswith("1.0,")


class TestPlot:
    @pytest.fixture
    def bench_csv(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        code, _, _ = run(["sweep", "--m", "8", "--n", "24", "--k", "1:3",
                          "--schemes", "l1,cwb,w1,w2", "--trials", "1",
                          "--seed", "3", "--out", str(path)], capsys)
        assert code == 0
        return path

    def test_four_polylines_and_legend(self, bench_csv, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        code, _, _ = run(["plot", str(bench_csv), str(svg)], capsys)
        assert code == 0
        text = svg.read_text()
        assert text.count("<polyline") == 4
        for label in ["l1", "cwb", "w1", "w2"]:
            assert f">{label}</text>" in text

    def test_byte_identical_outputs(self, bench_csv, tmp_path, capsys):
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(["plot", str(bench_csv), str(s1)], capsys)[0] == 0
        assert run(["plot", str(bench_csv), str(s2)], capsys)[0] == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_header_only_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("eps,k,trials,successes,success_rate\n")
        code, _, err = run(["plot", str(path), str(tmp_path / "x.svg")], capsys)
        assert code == 1
        assert "no data rows" in err

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("eps,k,trials,successes,success_rate\n0.01,3,2,1,0.5\n0.1,oops\n")
        code, _, err = run(["plot", str(path), str(tmp_path / "x.svg")], capsys)
        assert code == 1
        assert "line 3" in err

    @pytest.mark.parametrize("text,fragment", [
        (None, "cannot read"),
        ("eps,k,trials,successes,success_rate\n0.01,3,2,1,half\n", "line 2: bad number 'half'"),
        ("x,k,trials\n0.01,3,2\n", "unrecognized CSV header 'x,k,trials'"),
        ("\n", "empty CSV"),
        ("eps,k,trials,successes,success_rate\n0,3,2,1,0.5\n",
         "log x axis requires positive x values"),
        ("eps,k,x\n0.01,3,2\n", "unrecognized CSV header 'eps,k,x'"),
        ("eps,k,trials,successes,success_rate\n0.01,3,2,1,nan\n", "line 2: bad number 'nan'"),
        ("p,k,trials,successes,success_rate\n0.1,3,2,1,0.5\ninf,3,2,1,0.5\n",
         "line 3: bad number 'inf'"),
        ("q,k,trials,successes,success_rate\n0.1,3,2,1,0.5\n0.2,3,2,1,5\n",
         "line 3: success_rate '5' is not successes / trials"),
        ("eps,k,trials,successes,success_rate\n0.01,3,3,1,0.33\n",
         "line 2: success_rate '0.33' is not successes / trials"),
        ("eps,k,trials,successes,success_rate\n0.01,3,-3,9,-3.0\n",
         "line 2: trials must be a positive integer, got '-3'"),
        ("eps,k,trials,successes,success_rate\n0.01,3,2.5,1,0.4\n",
         "line 2: trials must be a positive integer, got '2.5'"),
        ("eps,k,trials,successes,success_rate\n0.01,3,2,3,1.5\n",
         "line 2: successes must be an integer in [0, trials], got '3'"),
        (CSV_HEADER + "\nnormal,l1,,,,2,2,1,0.75,1.0,30.0,0\n",
         "line 2: success_rate '0.75' is not successes / trials"),
    ], ids=["missing-file", "non-numeric-cell", "unknown-header", "empty-file",
            "eps-not-positive", "study-header-without-rate", "nan-rate", "inf-x",
            "rate-above-one", "rate-not-successes-over-trials", "negative-trials",
            "fractional-trials", "successes-above-trials", "sweep-rate-not-successes-over-trials"])
    def test_unreadable_csv_exits_1(self, text, fragment, tmp_path, capsys):
        path = tmp_path / "in.csv"
        if text is not None:
            path.write_text(text)
        code, _, err = run(["plot", str(path), str(tmp_path / "x.svg")], capsys)
        assert code == 1
        assert fragment in err
        assert not (tmp_path / "x.svg").exists()

    def test_far_apart_x_stays_finite(self, tmp_path, capsys):
        # 1e308 - (-1e308) overflows to inf: the coordinates must not become nan
        path = tmp_path / "p.csv"
        path.write_text("p,k,trials,successes,success_rate\n-1e308,3,2,1,0.5\n1e308,3,2,1,0.5\n")
        svg = tmp_path / "p.svg"
        assert run(["plot", str(path), str(svg)], capsys)[0] == 0
        text = svg.read_text()
        assert "nan" not in text
        assert 'points="70.00,230.00 590.00,230.00"' in text

    def test_study_csv_plots(self, tmp_path, capsys):
        path = tmp_path / "eps.csv"
        path.write_text("eps,k,trials,successes,success_rate\n"
                        "0.0001,15,2,1,0.5\n0.01,15,2,2,1.0\n0.1,15,2,0,0.0\n")
        svg = tmp_path / "eps.svg"
        code, _, _ = run(["plot", str(path), str(svg)], capsys)
        assert code == 0
        assert svg.read_text().count("<polyline") == 1


@pytest.mark.parametrize("argv,labels", [
    (["sweep", "--k", "2,3", "--schemes", "l1,w1"], ["l1", "w1"]),
    (["study-eps", "--k", "3", "--eps-list", "0.01,0.1"], ["eps=0.01", "eps=0.1"]),
], ids=["sweep", "study-eps"])
def test_csv_goes_to_stdout_without_out(argv, labels, tmp_path, capsys):
    # every grid command: without --out the CSV alone goes to stdout, the summary to stderr
    argv = argv + ["--m", "10", "--n", "30", "--trials", "1", "--seed", "5"]
    code, out, err = run(argv, capsys)
    assert code == 0
    assert run(argv + ["--out", str(tmp_path / "out.csv")], capsys)[0] == 0
    assert out.encode() == (tmp_path / "out.csv").read_bytes()
    assert err.startswith("scheme ")
    assert [row.split()[0] for row in err.splitlines()[1:]] == labels
    (tmp_path / "piped.csv").write_text(out)
    assert run(["plot", str(tmp_path / "piped.csv"), str(tmp_path / "piped.svg")], capsys)[0] == 0


# SHA-256 of the CSV each invocation writes and of the SVG `plot` renders from it
GOLDEN_RUNS = {
    "sweep-normal-five-schemes": (
        ["sweep", "--m", "10", "--n", "30", "--k", "1:4", "--schemes", "l1,cwb,zl,w1,w2",
         "--trials", "3", "--seed", "5", "--unpaired"],
        "52feae7fd101ec1cd2da6f1b52d55f1c9823c72df13363cbab7d222dc0c96644",
        "810098e84e4cabe2500f96a0a45a4a9c2c79a4cce74d655325ebad7c7e1f650f"),
    # the default paired sweep: every scheme of a (k, trial) solves one instance
    "sweep-normal-five-schemes-paired": (
        ["sweep", "--m", "10", "--n", "30", "--k", "1:4", "--schemes", "l1,cwb,zl,w1,w2",
         "--trials", "3", "--seed", "5"],
        "3f63cdcbe7dfdefc1652dbfece37ecda85bf1198fd8eb600532a9635edc46099",
        "dc200e97b8e367af4fe941f686ab6a09d35b44721141ce2a5a1535c457f4e6d1"),
    "sweep-poisson-floor-cwb": (
        ["sweep", "--dist", "poisson", "--m", "8", "--n", "24", "--k", "2,3",
         "--schemes", "w1,w2", "--p", "0.3", "--q", "0.2", "--eps-rule", "cwb",
         "--clamp", "floor", "--clamp-floor", "1e-6", "--trials", "2", "--seed", "9",
         "--unpaired"],
        "d60c2ba6c1c2190d1c9ff6a9850e21afa750f1a078f60b2ee40d7985fcfbe8e5",
        "e335cc7cdf55e4865b725fe121d67150683c2507f2125f45ce575978f2fdff0b"),
    "study-eps": (
        ["study-eps", "--m", "10", "--n", "30", "--k", "3", "--eps-list", "1e-3,1e-2,1e-1",
         "--trials", "3", "--seed", "5"],
        "2775d6283d2a521705b570502eaa5cd44a1d5f832e02cdb958049e9bc6c0f0c2",
        "2a02be448eb393e78727eae02eb616bd1211cc16328d15c485e0c423a0250def"),
    "study-p-list": (
        ["study-p", "--m", "10", "--n", "30", "--p-grid", "0.1,0.5,0.9", "--k-list", "2,4",
         "--trials", "2", "--seed", "4", "--unpaired"],
        "b3d7816f22527ead6ce2fb6a21f54463e26798708d464cebdc824a5088d4bac3",
        "d9d15714a3361233a504fb7b1e868c29ef614e273786f6152dde7028391f919b"),
    "study-p-range": (
        ["study-p", "--m", "10", "--n", "30", "--p-grid", "0.1:0.4:0.9", "--k-list", "2:4",
         "--eps-rule", "fixed", "--trials", "2", "--seed", "4", "--unpaired"],
        "0154dce28dc1d040742ff638edcc3320203f51df9a2797e58c67d423c2b5f8c5",
        "058b8b11da4f127bf7db96867f4755f23074b03ae6adaaf0ffecbe814c76380c"),
    "study-pq": (
        ["study-pq", "--m", "8", "--n", "20", "--fixed-p", "0.08", "--q-grid", "0.04:0.3:1",
         "--k-list", "2,3", "--trials", "2", "--seed", "4", "--unpaired"],
        "8d77edba4eaf23c976878feb61c4fafb69c6e4090fd719ad87cd284d01ec319b",
        "deb17bbeffb281f75bc0ee9770061536a4c80829e7abb0f452ac81fcbf7db970"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_artifact_digests(name, tmp_path, capsys):
    argv, csv_digest, svg_digest = GOLDEN_RUNS[name]
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    assert run(argv + ["--out", str(csv_path)], capsys)[0] == 0
    assert run(["plot", str(csv_path), str(svg_path)], capsys)[0] == 0
    got = (hashlib.sha256(csv_path.read_bytes()).hexdigest(),
           hashlib.sha256(svg_path.read_bytes()).hexdigest())
    assert got == (csv_digest, svg_digest)


# one row per flag check; each fragment names the bad value or the valid range
BAD_FLAGS = [
    (["solve", "--k", "3", "--scheme", "zl", "--p", "0"], "p must be in (0.0, 1.0]"),
    (["sweep", "--k", "2", "--schemes", "w1", "--p", "1.5", "--trials", "1"],
     "p must be in (0.0, 1.0]"),
    (["study-eps", "--p", "-0.5", "--trials", "1"], "p must be in (0.0, 1.0]"),
    (["study-p", "--p-grid", "0.5,1.5", "--k-list", "2", "--trials", "1"],
     "p must be in (0.0, 1.0]"),
    (["study-pq", "--fixed-p", "2", "--k-list", "2", "--trials", "1"], "p must be in (0.0, 1.0]"),
    (["sweep", "--k", "2", "--schemes", "w2", "--q", "0", "--trials", "1"],
     "q must be in (0.0, 1.0]"),
    (["study-pq", "--q-grid", "0.5,1.5", "--k-list", "2", "--trials", "1"],
     "q must be in (0.0, 1.0]"),
    (["study-eps", "--eps-list", "0.01,-1", "--trials", "1"], "must be > 0"),
    (["sweep", "--k", "2", "--eps0", "0", "--trials", "1"], "eps0 must be > 0"),
    (["study-p", "--eps0", "-1", "--k-list", "2", "--trials", "1"], "eps0 must be > 0"),
    (["solve", "--k", "3", "--eps0", "0"], "eps0 must be > 0"),
    (["sweep", "--k", "2", "--clamp", "floor", "--clamp-floor", "0", "--trials", "1"],
     "floor must be > 0"),
    (["study-eps", "--clamp", "floor", "--clamp-floor", "-1", "--trials", "1"],
     "floor must be > 0"),
    (["sweep", "--m", "10", "--n", "30", "--k", "0:3", "--trials", "1"], "m=10"),
    (["sweep", "--m", "10", "--n", "30", "--k", "4,11", "--trials", "1"], "m=10"),
    (["study-eps", "--m", "10", "--n", "30", "--k", "11", "--trials", "1"], "m=10"),
    (["study-p", "--m", "10", "--n", "30", "--k-list", "0,2", "--trials", "1"], "m=10"),
    (["study-pq", "--m", "10", "--n", "30", "--k-list", "2,12", "--trials", "1"], "m=10"),
    (["solve", "--m", "10", "--n", "30", "--k", "0"], "m=10"),
    (["sweep", "--m", "30", "--n", "30", "--k", "2", "--trials", "1"], "m=30, n=30"),
    (["study-p", "--m", "40", "--n", "30", "--k-list", "2", "--trials", "1"], "m=40, n=30"),
    (["solve", "--m", "30", "--n", "30", "--k", "2"], "m=30, n=30"),
    (["sweep", "--k", "2", "--trials", "0"], "must be >= 1"),
    (["study-eps", "--trials", "-2"], "must be >= 1"),
    (["sweep", "--k", "2", "--trials", "1", "--workers", "0"], "must be >= 1"),
    (["study-pq", "--k-list", "2", "--trials", "1", "--workers", "0"], "must be >= 1"),
    (["sweep", "--k", "2", "--schemes", "l1,omp", "--trials", "1"], "unknown scheme 'omp'"),
    (["study-eps", "--eps-list", ",", "--trials", "1"], "must contain at least one value"),
    (["sweep", "--k", "2", "--sigma", "0", "--trials", "1"], "sigma must be > 0"),
    (["solve", "--k", "2", "--sigma", "-1"], "sigma must be > 0"),
    (["solve", "--instance", "{tmp}/tall.json"], "m=3, n=2"),
    (["solve", "--instance", "{tmp}/norows.json"], "m=0, n=3"),
    (["solve", "--instance", "{tmp}/nullmu.json"], "dist parameter 'mu' is not a number"),
    (["sweep", "--k", "1:x", "--trials", "1"], "cannot parse"),
    (["sweep", "--k", "1.5", "--trials", "1"], "cannot parse"),
    (["study-p", "--k-list", "1:0:4", "--trials", "1"], "cannot parse"),
    (["study-pq", "--q-grid", "0.1:0.2:0.3:0.4", "--trials", "1"], "'0.1:0.2:0.3:0.4'"),
    (["sweep", "--k", "5:3", "--trials", "1"], "'5:3'"),
    # a range is bounded before its list is built
    (["study-p", "--p-grid", "0:1e-12:1", "--k-list", "2", "--trials", "1"],
     "at most 1048576 values"),
    (["sweep", "--k", "1:100000000", "--trials", "1"], "at most 1048576 values"),
    (["sweep", "--k", "1:1048577", "--trials", "1"], "at most 1048576 values"),
    (["study-pq", "--q-grid", "0.1:0.1:inf", "--k-list", "2", "--trials", "1"], "finite bounds"),
    (["study-eps", "--eps-list", "nan:0.1:1", "--trials", "1"], "finite bounds"),
    (["study-eps", "--timing", "--trials", "1"], "unrecognized arguments: --timing"),
    (["study-p", "--timing", "--trials", "1"], "unrecognized arguments: --timing"),
    (["study-pq", "--timing", "--trials", "1"], "unrecognized arguments: --timing"),
    (["sweep", "--k", "2", "--sigma", "nan", "--trials", "1"], "parameters must be finite"),
    (["sweep", "--k", "2", "--mu", "inf", "--trials", "1"], "parameters must be finite"),
    (["solve", "--k", "2", "--sigma", "inf"], "parameters must be finite"),
    (["sweep", "--dist", "exponential", "--exp-mean", "nan", "--k", "2", "--trials", "1"],
     "parameters must be finite"),
    (["sweep", "--dist", "gamma", "--gamma-shape", "nan", "--k", "2", "--trials", "1"],
     "parameters must be finite"),
    (["sweep", "--dist", "uniform", "--uniform-high", "inf", "--k", "2", "--trials", "1"],
     "parameters must be finite"),
    (["sweep", "--dist", "f", "--f-d1", "inf", "--k", "2", "--trials", "1"],
     "parameters must be finite"),
    (["sweep", "--k", "2", "--eps0", "nan", "--trials", "1"], "eps0 must be > 0 and finite"),
    (["sweep", "--k", "2", "--eps0", "inf", "--trials", "1"], "eps0 must be > 0 and finite"),
    (["study-eps", "--eps-list", "nan", "--trials", "1"], "must be > 0 and finite"),
    (["sweep", "--k", "2", "--clamp", "floor", "--clamp-floor", "nan", "--trials", "1"],
     "floor must be > 0 and finite"),
    (["sweep", "--m", "2", "--n", "3", "--k", "1", "--trials", "1048577"],
     "trials must be in [1, 1048576]"),
    (["sweep", "--k", "2", "--schemes", "w1,w1", "--trials", "1"], "schemes must be distinct"),
    (["study-p", "--p-grid", "0.1,0.1", "--k-list", "2", "--trials", "1"],
     "schemes must be distinct"),
    (["sweep", "--m", "10", "--n", "30", "--k", "2,2", "--schemes", "l1", "--trials", "1"],
     "k values must be distinct"),
    (["sweep", "--k", "2", "--trials", "1", "--out", "{tmp}/missing/x.csv"], "cannot write"),
]


@pytest.mark.parametrize("argv,fragment", BAD_FLAGS, ids=[" ".join(a) for a, _ in BAD_FLAGS])
def test_bad_flag_exits_1_before_any_trial(argv, fragment, tmp_path, monkeypatch, capsys):
    (tmp_path / "tall.json").write_text(json.dumps(TALL_INSTANCE))
    (tmp_path / "norows.json").write_text(json.dumps(NO_ROWS_INSTANCE))
    (tmp_path / "nullmu.json").write_text(json.dumps(
        {**IDENTITY_INSTANCE, "dist": {"name": "normal", "mu": None, "sigma": 1.0}}))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the flags were rejected")

    monkeypatch.setattr("rwl1.bench.run_trial", no_solve)
    monkeypatch.setattr("rwl1.cli.reweighted_l1", no_solve)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("text,cast,expected", [
    ("2", int, [2]),
    (" 2, 4,,6 ", int, [2, 4, 6]),
    ("1:4", int, [1, 2, 3, 4]),
    ("1:3:8", int, [1, 4, 7]),
    ("3:3", int, [3]),
    ("1e-3,0.1", float, [1e-3, 0.1]),
    ("0.25:1", float, [0.25]),
    ("0.04:0.3:1", float, [0.04, 0.34, 0.64, 0.94]),
    ("5e-11:1e-10:1e-9", float, [5e-11, 1.5e-10, 2.5e-10, 3.5e-10, 4.5e-10, 5.5e-10, 6.5e-10,
                                 7.5e-10, 8.5e-10, 9.5e-10]),
])
def test_grid_syntax(text, cast, expected):
    assert _parse_grid(text, cast) == expected


def test_grid_range_bound():
    # 2^20 values at most, the bound SweepSpec puts on schemes, and no
    # OverflowError from a stop too large for a float
    assert len(_parse_grid("1:1048576", int)) == 1 << 20
    with pytest.raises(argparse.ArgumentTypeError, match="too large for a float"):
        _parse_grid("1:" + "9" * 400, int)


# each flag that restates a library default, by the subcommands that have it
LIBRARY_DEFAULTS = {
    "p": (WeightScheme("w2").p, ("solve", "sweep", "study-eps")),
    "q": (WeightScheme("w2").q, ("solve", "sweep")),
    "clamp": (WeightClamp().kind, ("solve", "sweep", "study-eps", "study-p", "study-pq")),
    "clamp_floor": (WeightClamp().floor, ("solve", "sweep", "study-eps", "study-p", "study-pq")),
    "eps_rule": (EpsilonSchedule().rule, ("solve", "sweep", "study-p", "study-pq")),
}


@pytest.mark.parametrize("command", ["solve", "sweep", "study-eps", "study-p", "study-pq"])
def test_flag_defaults_are_the_library_defaults(command):
    args = vars(build_parser().parse_args([command]))
    expected = {dest: default for dest, (default, commands) in LIBRARY_DEFAULTS.items()
                if command in commands}
    assert {dest: args[dest] for dest in expected} == expected
    assert not {dest for dest in LIBRARY_DEFAULTS if dest not in expected} & set(args)
