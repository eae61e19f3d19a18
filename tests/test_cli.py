import argparse
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockcov
import blockcov.benchmark
import blockcov.cli
import blockcov.pipeline
import blockcov.psd
from blockcov._rng import STREAM_BL, substream
from blockcov.cli import main
from blockcov.corr import sample_correlation
from blockcov.io import read_matrix_csv, write_matrix_csv
from blockcov.pipeline import PipelineConfig, estimate
from blockcov.simulate import ScenarioSpec, build_scenario, permute_columns, sample_gaussian
from blockcov.sparsify import default_train_size


def run(args):
    return main([str(a) for a in args])


def run_fresh(args, cwd):
    """``python -m blockcov.cli`` in a new interpreter that imports this test's ``blockcov``."""
    env = dict(os.environ)
    # pytest's ``pythonpath`` setting does not reach a child process
    home = str(Path(blockcov.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [home, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "blockcov.cli", *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True)


def simulate_files(tmp_path, scenario="diagonal-equal", q=100, n=50, seed=0, extra=()):
    x = tmp_path / "X.csv"
    sigma = tmp_path / "Sigma.csv"
    support = tmp_path / "support.csv"
    code = run(["simulate", "--scenario", scenario, "--q", q, "--n", n, "--seed", seed,
                "--out-x", x, "--out-sigma", sigma, "--out-support", support, *extra])
    assert code == 0
    return x, sigma, support


class TestSimulateCommand:
    def test_byte_identical_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        for d in (a, b):
            run(["simulate", "--scenario", "extra-diagonal-unequal", "--q", 40, "--n", 10,
                 "--seed", 7, "--out-x", d / "X.csv", "--out-sigma", d / "S.csv"])
        assert (a / "X.csv").read_bytes() == (b / "X.csv").read_bytes()
        assert (a / "S.csv").read_bytes() == (b / "S.csv").read_bytes()

    def test_block_values_in_sigma(self, tmp_path):
        _, sigma_path, _ = simulate_files(tmp_path, q=100, n=10)
        Sigma, _ = read_matrix_csv(sigma_path)
        off = Sigma[:10, :10][~np.eye(10, dtype=bool)]
        assert np.allclose(off, 0.7, atol=1e-12)

    def test_permute_columns_writes_perm(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=20, n=10, extra=["--permute-columns"])
        perm, _ = read_matrix_csv(tmp_path / "perm.csv")
        assert np.array_equal(np.sort(perm[:, 0]), np.arange(20))

    def test_outputs_are_savetxt_of_the_scenario(self, tmp_path):
        z = tmp_path / "Z.csv"
        x, sigma, support = simulate_files(tmp_path, scenario="extra-diagonal-unequal", q=30, n=10,
                                           seed=4, extra=["--permute-columns", "--out-z", z])
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 30, seed=4))
        X, perm = permute_columns(sample_gaussian(truth, 10, seed=4), seed=4)
        mask = truth.support.astype(int)
        assert set(np.unique(mask)) == {0, 1} and truth.Z.shape == (30, 5)
        for path, M in ((x, X), (tmp_path / "perm.csv", perm), (sigma, truth.Sigma),
                        (support, mask), (z, truth.Z)):
            reference = io.BytesIO()
            np.savetxt(reference, M, fmt="%.17g", delimiter=",", newline="\r\n")
            assert path.read_bytes() == reference.getvalue(), path.name

    def test_out_z_and_support_shapes(self, tmp_path):
        z_path = tmp_path / "Z.csv"
        _, _, support_path = simulate_files(tmp_path, q=30, n=10,
                                            extra=["--out-z", z_path])
        Z, _ = read_matrix_csv(z_path)
        assert Z.shape == (30, 5)
        support, _ = read_matrix_csv(support_path)
        assert set(np.unique(support)) <= {0.0, 1.0}

    def test_unknown_scenario_lists_valid_names(self, tmp_path, capsys):
        code = run(["simulate", "--scenario", "banded", "--q", 20, "--n", 10,
                    "--out-x", tmp_path / "X.csv"])
        assert code == 1
        assert "diagonal-equal" in capsys.readouterr().err


class TestEstimateCommand:
    def test_end_to_end_recovers_rank_five(self, tmp_path):
        x, _, _ = simulate_files(tmp_path)
        report = tmp_path / "report.json"
        sigma_out = tmp_path / "sigma_hat.csv"
        w_out = tmp_path / "w.csv"
        code = run(["estimate", "--input", x, "--out-report", report,
                    "--out-sigma", sigma_out, "--out-invsqrt", w_out, "--seed", 0])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["rank"] == 5
        assert data["eigenvalue_min"] >= -1e-8
        assert data["support_size"] > 0
        assert "timings_s" in data
        assert set(data["projection"]) == {"newton_steps", "cg_steps", "eigh_calls", "diag_gap"}
        assert data["projection"]["diag_gap"] <= 1e-7
        assert len(data["lambda_trace"]["grid"]) == 100
        assert "splits" not in data["lambda_trace"] and "permutations" not in data["rank_trace"]
        assert data["eigendecompositions"] == {
            "correlation": 1, "rank-selection": 1, "lambda-selection": 0,
            "psd-projection": data["projection"]["eigh_calls"], "inverse-square-root": 1}
        S, _ = read_matrix_csv(sigma_out)
        assert np.all(np.diag(S) == 1.0)
        W, _ = read_matrix_csv(w_out)
        assert W.shape == (100, 100)

    def test_missing_input_exits_one_with_path(self, tmp_path, capsys):
        code = run(["estimate", "--input", tmp_path / "nope.csv"])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self, capsys):
        code = run(["estimate"])
        assert code == 1
        assert "--input" in capsys.readouterr().err

    def test_numerical_failure_exits_two_naming_step(self, tmp_path, capsys, monkeypatch):
        # a line search that demands more decrease than any step gives fails
        monkeypatch.setattr(blockcov.psd, "_ARMIJO", 1e6)
        monkeypatch.setattr(blockcov.psd, "_MIN_STEP", 1.0)
        x, _, _ = simulate_files(tmp_path, q=30, n=12, seed=3)
        code = run(["estimate", "--input", x])
        assert code == 2
        assert "psd-projection" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--psd-tol", 1e-9), ("--psd-max-iter", 5)])
    def test_removed_projection_flags_are_rejected(self, tmp_path, capsys, flag, value):
        # the projection's numerics are fixed; a script that still sets them fails loudly
        x, _, _ = simulate_files(tmp_path, q=30, n=12, seed=3)
        assert run(["estimate", "--input", x, flag, value]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, shape, flags, step", [
        ("estimate", (50, 100), ["--rank", 500], "rank-selection"),
        ("estimate", (20, 4), [], "rank-selection"),
        ("estimate", (3, 20), ["--lambda", "bl"], "lambda-selection"),
        ("estimate", (30, 20), ["--inv-sqrt-threshold", -1], "inverse-square-root"),
        ("estimate", (30, 20), ["--rank", 0], "rank-selection"),
        ("estimate", (30, 20), ["--rank", "nope"], "rank-selection"),
        ("estimate", (30, 20), ["--lambda", -1], "lambda-selection"),
        ("estimate", (30, 20), ["--lambda", "nope"], "lambda-selection"),
        ("estimate", (30, 20), ["--lambda", "nan"], "lambda-selection"),
        ("estimate", (30, 20), ["--inv-sqrt-threshold", "nan"], "inverse-square-root"),
        ("estimate", (4, 20), ["--lambda", "bl"], "lambda-selection"),
    ], ids=["rank-above-q", "q4-scree-too-short", "bl-on-n3",
            "negative-inv-sqrt-threshold", "rank-zero", "rank-not-a-name", "negative-lambda",
            "lambda-not-a-name", "nan-lambda", "nan-inv-sqrt-threshold", "bl-on-n4"])
    def test_invalid_input_exits_one_naming_step(self, tmp_path, capsys, monkeypatch, command,
                                                 shape, flags, step):
        x = tmp_path / "X.csv"
        write_matrix_csv(x, np.random.default_rng(0).standard_normal(shape))
        correlations = []
        monkeypatch.setattr(blockcov.pipeline, "sample_correlation",
                            lambda X: correlations.append(X) or sample_correlation(X))
        assert run([command, "--input", x, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid input in step '{step}': ")
        assert "failed" not in err
        assert correlations == []  # rejected before any numerical work

    def test_linalg_error_in_psd_exits_two(self, tmp_path, capsys, monkeypatch):
        x, _, _ = simulate_files(tmp_path, q=20, n=30, seed=4)
        eigh = np.linalg.eigh

        def failing_on_q_by_q(A):
            # the (q-1) x (q-1) arrangement still decomposes; the 20 x 20 matrix does not
            if np.shape(A) == (20, 20):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(A)
        monkeypatch.setattr(np.linalg, "eigh", failing_on_q_by_q)
        assert run(["estimate", "--input", x]) == 2
        assert capsys.readouterr().err.startswith(
            "numerical failure in step 'psd-projection': Eigenvalues did not converge")

    def test_report_eigenvalue_extremes_match_the_estimate(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=40, n=20, seed=8, extra=["--permute-columns"])
        report = tmp_path / "report.json"
        sigma_out = tmp_path / "sigma_hat.csv"
        assert run(["estimate", "--input", x, "--reorder", "--out-report", report,
                    "--out-sigma", sigma_out]) == 0
        data = json.loads(report.read_text())
        eigvals = np.linalg.eigvalsh(read_matrix_csv(sigma_out)[0])
        assert abs(data["eigenvalue_min"] - eigvals[0]) <= 1e-10
        assert abs(data["eigenvalue_max"] - eigvals[-1]) <= 1e-10

    def test_fixed_parameters(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=20, n=30, seed=4)
        report = tmp_path / "report.json"
        code = run(["estimate", "--input", x, "--rank", 5, "--lambda", 0.8,
                    "--out-report", report])
        assert code == 0
        data = json.loads(report.read_text())
        # neither selector runs and no trace is recorded
        assert data["rank_method"] == data["lambda_method"] == "fixed"
        assert data["lambda"] == 0.8
        assert data["lambda_trace"] == {}

    def test_config_fields_are_the_estimate_flags(self):
        # every field has a flag and every flag but I/O sets a field, so
        # a report's config can be turned back into flags
        sub = next(a for a in blockcov.cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["estimate"]._actions}
        io_dests = {"help", "input", "header", "out_sigma", "out_invsqrt", "out_order",
                    "out_report"}
        assert io_dests <= dests
        assert {f.name for f in dataclasses.fields(PipelineConfig)} == dests - io_dests
        # PA's and BL's budgets are their selectors' defaults, not settings
        for name in ("pa_permutations", "bl_splits"):
            with pytest.raises(TypeError, match=name):
                PipelineConfig(**{name: 5})

    def test_byte_identical_given_same_flags(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=20, n=30, seed=5)
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert run(["estimate", "--input", x, "--seed", 2, "--out-sigma", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_byte_order_mark_changes_no_output(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=20, n=30, seed=5)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + x.read_bytes())
        outs = []
        for name, path in (("plain", x), ("marked", marked)):
            files = [tmp_path / f"{name}-{what}.csv" for what in ("sigma", "invsqrt")]
            assert run(["estimate", "--input", path, "--out-sigma", files[0],
                        "--out-invsqrt", files[1]]) == 0
            outs.append([f.read_bytes() for f in files])
        assert outs[0] == outs[1]

    def test_power_of_two_scale_changes_no_output_byte(self, tmp_path):
        # %.17g round-trips every double, and squaring entries of 2**600 would overflow
        x, _, _ = simulate_files(tmp_path, q=40, n=20)
        big = tmp_path / "big.csv"
        np.savetxt(big, np.ldexp(np.loadtxt(x, delimiter=","), 600), fmt="%.17g", delimiter=",")
        outs = []
        for name, path in (("plain", x), ("big", big)):
            files = [tmp_path / f"{name}-{what}.csv" for what in ("sigma", "invsqrt")]
            assert run(["estimate", "--input", path, "--rank", "pa", "--lambda", "bl",
                        "--reorder", "--out-sigma", files[0], "--out-invsqrt", files[1]]) == 0
            outs.append([f.read_bytes() for f in files])
        assert outs[0] == outs[1]

    def test_bl_split_with_a_constant_column_names_it_in_the_input_file(self, tmp_path,
                                                                        capsys):
        # sparse 0/1 data: no column is constant, but columns 20, 27, 44, 52 and 88
        # are on the 9 held-out rows of split 0; --reorder's leaf order puts 44 first
        X = (np.random.default_rng(0).random((30, 100)) < 0.3).astype(float)
        rows = np.ones(30, dtype=bool)
        rows[substream(0, STREAM_BL, 0).permutation(30)[:default_train_size(30)]] = False
        dead = np.flatnonzero((X[rows] == X[rows][0]).all(axis=0))
        assert not (X == X[0]).all(axis=0).any() and dead[0] == 20 and rows.sum() == 9
        x = tmp_path / "X.csv"
        write_matrix_csv(x, X)
        for extra in ([], ["--reorder"]):
            assert run(["estimate", "--input", x, "--lambda", "bl", *extra]) == 1
            assert capsys.readouterr().err == (
                "error: invalid input in step 'lambda-selection': BL split 0, held-out side "
                "(9 rows): column 20 has zero sample variance on these rows; use --lambda "
                "elbow or a fixed threshold\n")

    def test_header_width_mismatch_exits_one(self, tmp_path, capsys):
        x = tmp_path / "X.csv"
        x.write_text("a,b,c\n" + "1,2,3,4\n2,1,4,3\n" * 5)
        sigma_out = tmp_path / "sigma.csv"
        assert run(["estimate", "--input", x, "--header", "--rank", 2, "--lambda", 0,
                    "--out-sigma", sigma_out]) == 1
        assert "header has 3 names, rows have 4 fields" in capsys.readouterr().err
        assert not sigma_out.exists()

    def test_reorder_writes_leaf_order(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=20, n=30, seed=6, extra=["--permute-columns"])
        order_path = tmp_path / "order.csv"
        code = run(["estimate", "--input", x, "--reorder", "--out-order", order_path])
        assert code == 0
        order, _ = read_matrix_csv(order_path)
        assert np.array_equal(np.sort(order[:, 0]), np.arange(20))

    def test_reorder_outputs_are_savetxt_of_the_estimate(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=30, n=20, seed=9, extra=["--permute-columns"])
        outs = {name: tmp_path / f"{name}.csv" for name in ("sigma", "invsqrt", "order")}
        assert run(["estimate", "--input", x, "--reorder", "--out-sigma", outs["sigma"],
                    "--out-invsqrt", outs["invsqrt"], "--out-order", outs["order"]]) == 0
        est = estimate(read_matrix_csv(x)[0], PipelineConfig(reorder=True))
        for name, M in (("sigma", est.sigma_hat), ("invsqrt", est.inv_sqrt.matrix),
                        ("order", est.permutation)):
            if M.ndim == 2:
                assert np.array_equal(M.view(np.int64), M.T.view(np.int64)), name
            reference = io.BytesIO()
            np.savetxt(reference, M, fmt="%.17g", delimiter=",", newline="\r\n")
            assert outs[name].read_bytes() == reference.getvalue(), name


class TestEstimateReport:
    @pytest.mark.parametrize("rank, lam, extra", [
        ("cattell", "elbow", []),
        ("pa", "bl", []),
        (5, 0.8, []),
        ("cattell", "elbow", ["--reorder"]),
    ], ids=["cattell-elbow", "pa-bl", "5-0.8", "cattell-elbow-reorder"])
    def test_curves_are_the_library_estimates(self, tmp_path, rank, lam, extra):
        x, _, _ = simulate_files(tmp_path, q=30, n=20, seed=5, extra=["--permute-columns"])
        report = tmp_path / "report.json"
        assert run(["estimate", "--input", x, "--rank", rank, "--lambda", lam, "--seed", 3,
                    *extra, "--out-report", report]) == 0
        data = json.loads(report.read_text())
        cfg = PipelineConfig(rank_method=rank, lambda_method=lam, reorder=bool(extra), seed=3)
        est = estimate(read_matrix_csv(x)[0], cfg)
        assert np.array_equal(data["scree"], est.scree)
        assert data["eigendecompositions"] == est.diagnostics["eigendecompositions"]
        for key, trace in (("rank_trace", est.rank.trace), ("lambda_trace", est.lam.trace)):
            assert data[key].keys() == trace.keys()
            for name, curve in trace.items():
                assert np.array_equal(data[key][name], curve), (key, name)
        if isinstance(lam, str):
            assert data["lambda"] in data["lambda_trace"]["grid"]
        else:
            assert data["rank_trace"] == data["lambda_trace"] == {}

    @pytest.mark.parametrize("extra", [
        ["--rank", "pa", "--lambda", "bl", "--reorder"],
        ["--rank", 5, "--lambda", 0.4],
    ], ids=["pa-bl-reorder", "5-0.4"])
    def test_every_diagnostics_record_is_in_the_report(self, tmp_path, monkeypatch, extra):
        x, _, _ = simulate_files(tmp_path, q=30, n=20, seed=5, extra=["--permute-columns"])
        report = tmp_path / "report.json"
        runs = []
        monkeypatch.setattr(blockcov.cli, "estimate",
                            lambda X, cfg: runs.append(estimate(X, cfg)) or runs[-1])
        assert run(["estimate", "--input", x, *extra, "--out-report", report]) == 0
        data = json.loads(report.read_text())
        diagnostics = runs[0].diagnostics
        keys = list(data)
        start = keys.index("timings_s") + 1
        assert keys[start:start + len(diagnostics)] == list(diagnostics)
        for key, record in diagnostics.items():
            if key == "cpu_s":
                assert data[key].keys() == record.keys()
                assert all(abs(data[key][step] - v) <= 1e-6 for step, v in record.items())
            else:
                assert data[key] == record, key

    def test_pa_bl_counts_live_only_in_the_traces(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=30, n=20, seed=5, extra=["--permute-columns"])
        report = tmp_path / "report.json"
        assert run(["estimate", "--input", x, "--rank", "pa", "--lambda", "bl", "--reorder",
                    "--out-report", report]) == 0
        data = json.loads(report.read_text())
        assert data["schema"] == "blockcov-report v2"
        assert {"cpu_s", "projection", "eigendecompositions"} <= set(data)
        assert not {"threads", "selection", "inverse_root"} & set(data)
        assert {"threads", "permutations", "quantile_curve"} <= set(data["rank_trace"])
        assert {"threads", "splits", "grid", "loss"} <= set(data["lambda_trace"])
        assert data["projection"]["diag_gap"] <= 1e-7
        assert data["rank_trace"]["permutations"] == data["lambda_trace"]["splits"] == 50

    def test_curve_lengths_and_keys(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=30, n=20, seed=5)
        report = tmp_path / "report.json"
        assert run(["estimate", "--input", x, "--out-report", report]) == 0
        data = json.loads(report.read_text())
        assert len(data["scree"]) == 29
        assert set(data["rank_trace"]) == {"rss"}
        assert set(data["lambda_trace"]) == {"grid", "criterion", "support_size", "rss"}
        curve = data["lambda_trace"]
        assert len(curve["grid"]) == len(curve["criterion"]) == len(curve["support_size"])

    def test_full_rank_criterion_non_decreasing(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=20, n=40, seed=6)
        report = tmp_path / "report.json"
        assert run(["estimate", "--input", x, "--rank", 19, "--out-report", report]) == 0
        criterion = json.loads(report.read_text())["lambda_trace"]["criterion"]
        assert np.all(np.diff(criterion) >= -1e-12)

    def test_pa_records_quantile_curve(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=15, n=20, seed=7)
        report = tmp_path / "report.json"
        assert run(["estimate", "--input", x, "--rank", "pa", "--out-report", report]) == 0
        data = json.loads(report.read_text())
        assert len(data["rank_trace"]["quantile_curve"]) == len(data["scree"]) == 14
        assert data["rank_trace"]["permutations"] == 50

    def test_help_documents_report_curves(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "scree, rank_trace, lambda_trace" in text

    def test_trace_subcommand_is_gone(self, tmp_path, capsys):
        x, _, _ = simulate_files(tmp_path, q=20, n=10)
        assert run(["trace", "--input", x, "--out-scree", tmp_path / "scree.csv"]) == 1
        assert "invalid choice: 'trace'" in capsys.readouterr().err
        assert not (tmp_path / "scree.csv").exists()


class TestBenchmarkCommand:
    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "results.csv"
        code = run(["benchmark", "--scenarios", "diagonal-equal,extra-diagonal-equal",
                    "--n-list", "20", "--q-list", "20", "--reps", 1,
                    "--methods", "empirical,hclust,kmeans", "--seed", 0, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schema:")
        with open(out) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 1 * 1 * 3

    def test_reorder_and_permuted_columns_give_a_row_per_scenario_and_method(self, tmp_path):
        out = tmp_path / "results.csv"
        assert run(["benchmark", "--methods", "blocks_fast,hclust", "--q-list", 40,
                    "--n-list", 20, "--reps", 1, "--reorder", "--permute-columns",
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[:2] == [
            "# schema: blockcov-results v1",
            "scenario,n,q,rep,method,frobenius_error,tpr,fpr,whitening_error,rank,lambda,"
            "support_size,wall_time_s"]
        assert len(lines) == 2 + 4 * 2  # four scenarios x two methods

    def test_invalid_method_exits_one(self, tmp_path, capsys):
        code = run(["benchmark", "--methods", "specc", "--out", tmp_path / "r.csv"])
        assert code == 1
        assert "specc" in capsys.readouterr().err

    def test_non_integer_list_exits_one(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run(["benchmark", "--n-list", "20,x", "--out", out]) == 1
        assert ("--n-list and --q-list must be comma-separated integers"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_deterministic_given_seed(self, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            code = run(["benchmark", "--scenarios", "diagonal-equal", "--n-list", "20",
                        "--q-list", "20", "--reps", 2, "--methods", "blocks_fast,empirical",
                        "--seed", 5, "--out", out])
            assert code == 0
            with open(out) as fh:
                fh.readline()
                outs.append(list(csv.DictReader(fh)))
        for a, b in zip(*outs):
            for key in a:
                if key != "wall_time_s":
                    assert a[key] == b[key]


@pytest.mark.parametrize("command, flags", [
    ("estimate", ["--input", "X.csv"]),
    ("simulate", ["--scenario", "diagonal-equal", "--q", 20, "--n", 10, "--out-x", "Y.csv"]),
    ("benchmark", ["--scenarios", "diagonal-equal", "--n-list", 20, "--q-list", 20,
                   "--jobs", 2, "--out", "r.csv"]),
])
def test_negative_seed_exits_one(tmp_path, capsys, monkeypatch, command, flags):
    write_matrix_csv(tmp_path / "X.csv", np.random.default_rng(0).standard_normal((20, 10)))
    monkeypatch.chdir(tmp_path)
    started = []
    monkeypatch.setattr(blockcov.pipeline, "sample_correlation",
                        lambda X: started.append("correlation") or sample_correlation(X))
    monkeypatch.setattr(blockcov.benchmark, "ProcessPoolExecutor",
                        lambda **kw: started.append("pool"))
    assert run([command, *flags, "--seed", -1]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert started == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["X.csv"]


class TestFreshProcess:
    def test_exit_status_of_the_module(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=20, n=10)
        assert run_fresh(["estimate", "--input", x], tmp_path).returncode == 0
        # the projection's numerics are fixed; a removed flag is an argument error
        done = run_fresh(["estimate", "--input", x, "--psd-tol", 1e-9], tmp_path)
        assert done.returncode == 1
        assert "unrecognized arguments: --psd-tol" in done.stderr

    def test_threaded_selectors_repeat_across_processes(self, tmp_path):
        # at q = 150 BL prepares its splits on a worker thread and PA spreads its
        # permutation stacks over the CPUs; two runs must select and score alike,
        # with BL and with PA alone (a fixed threshold)
        x, _, _ = simulate_files(tmp_path, q=150, n=20)
        reports = {}
        for name, lam in (("bl1", "bl"), ("bl2", "bl"), ("pa1", 0.4), ("pa2", 0.4)):
            done = run_fresh(["estimate", "--input", x, "--rank", "pa", "--lambda", lam,
                              "--out-report", f"{name}.json"], tmp_path)
            assert done.returncode == 0, done.stderr
            reports[name] = json.loads((tmp_path / f"{name}.json").read_text())
        a, b = reports["bl1"], reports["bl2"]
        for key in ("rank", "rank_trace", "lambda", "lambda_trace"):
            assert a[key] == b[key], key
        for pa in (reports["pa1"], reports["pa2"]):
            assert pa["rank"] == a["rank"] and pa["rank_trace"] == a["rank_trace"]
            assert pa["lambda_trace"] == {}
        # PA's stacks and BL's two tasks take their threads from one rule;
        # their budgets are the selectors' defaults
        assert a["lambda_trace"]["threads"] == min(a["rank_trace"]["threads"], 2)
        assert a["rank_trace"]["permutations"] == a["lambda_trace"]["splits"] == 50
