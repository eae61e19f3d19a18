import csv
import json

import numpy as np
import pytest

import blockcov.pipeline
from blockcov.cli import main
from blockcov.corr import sample_correlation
from blockcov.io import read_matrix_csv, write_matrix_csv
from blockcov.pipeline import PipelineConfig, estimate


def run(args):
    return main([str(a) for a in args])


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
        assert data["selection"] == {"lambda_grid_size": 100, "bl_splits": None,
                                     "pa_permutations": None}
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

    def test_numerical_failure_exits_two_naming_step(self, tmp_path, capsys):
        x, _, _ = simulate_files(tmp_path, q=30, n=12, seed=3)
        code = run(["estimate", "--input", x, "--psd-max-iter", 1, "--psd-tol", 1e-12])
        assert code == 2
        assert "psd-projection" in capsys.readouterr().err

    @pytest.mark.parametrize("command, shape, flags, step", [
        ("estimate", (50, 100), ["--rank", 500], "rank-selection"),
        ("trace", (50, 100), ["--rank", 500], "rank-selection"),
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
    ], ids=["rank-above-q", "trace-rank-above-q", "q4-scree-too-short", "bl-on-n3",
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
        assert data["rank_method"] == "fixed"
        assert data["lambda"] == 0.8

    def test_byte_identical_given_same_flags(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=20, n=30, seed=5)
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            assert run(["estimate", "--input", x, "--seed", 2, "--out-sigma", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_reorder_writes_leaf_order(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=20, n=30, seed=6, extra=["--permute-columns"])
        order_path = tmp_path / "order.csv"
        code = run(["estimate", "--input", x, "--reorder", "--out-order", order_path])
        assert code == 0
        order, _ = read_matrix_csv(order_path)
        assert np.array_equal(np.sort(order[:, 0]), np.arange(20))


class TestTraceCommand:
    def test_scree_and_elbow_outputs(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=30, n=20, seed=5)
        scree_path = tmp_path / "scree.csv"
        elbow_path = tmp_path / "elbow.csv"
        code = run(["trace", "--input", x, "--out-scree", scree_path,
                    "--out-elbow", elbow_path])
        assert code == 0
        scree, names = read_matrix_csv(scree_path, header=True)
        assert names == ["index", "value"]
        assert scree.shape[0] == 29
        elbow, names = read_matrix_csv(elbow_path, header=True)
        assert names == ["lambda", "criterion", "support_size"]

    def test_full_rank_criterion_non_decreasing(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=20, n=40, seed=6)
        elbow_path = tmp_path / "elbow.csv"
        code = run(["trace", "--input", x, "--rank", 19, "--out-elbow", elbow_path])
        assert code == 0
        elbow, _ = read_matrix_csv(elbow_path, header=True)
        assert np.all(np.diff(elbow[:, 1]) >= -1e-12)

    def test_pa_quantile_column(self, tmp_path):
        x, _, _ = simulate_files(tmp_path, q=15, n=20, seed=7)
        scree_path = tmp_path / "scree.csv"
        code = run(["trace", "--input", x, "--rank", "pa", "--out-scree", scree_path])
        assert code == 0
        _, names = read_matrix_csv(scree_path, header=True)
        assert names == ["index", "value", "pa_quantile"]

    @pytest.mark.parametrize("rank", ["cattell", "pa", 5])
    def test_curves_are_the_pipeline_selection(self, tmp_path, rank):
        x, _, _ = simulate_files(tmp_path, q=30, n=20, seed=5)
        scree_path = tmp_path / "scree.csv"
        elbow_path = tmp_path / "elbow.csv"
        assert run(["trace", "--input", x, "--rank", rank, "--seed", 3,
                    "--out-scree", scree_path, "--out-elbow", elbow_path]) == 0
        est = estimate(read_matrix_csv(x)[0], PipelineConfig(rank_method=rank, seed=3))
        scree, _ = read_matrix_csv(scree_path, header=True)
        assert np.array_equal(scree[:, 1], est.scree)
        if rank == "pa":
            assert np.array_equal(scree[:, 2], est.rank.trace["quantile_curve"])
        elbow, _ = read_matrix_csv(elbow_path, header=True)
        curve = est.lam.trace
        assert np.array_equal(elbow, np.column_stack([curve["grid"], curve["criterion"],
                                                      curve["support_size"]]))
        assert est.lam.lam in elbow[:, 0]

    def test_help_documents_columns(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "criterion,support_size" in text
        assert "index,value" in text


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

    def test_invalid_method_exits_one(self, tmp_path, capsys):
        code = run(["benchmark", "--methods", "specc", "--out", tmp_path / "r.csv"])
        assert code == 1
        assert "specc" in capsys.readouterr().err

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
