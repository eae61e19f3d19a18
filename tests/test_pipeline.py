import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import blockcov.lowrank
import blockcov.pipeline
import blockcov.sparsify
from blockcov.corr import build_gamma, sample_correlation, vech
from blockcov.lowrank import scree, truncate_rank
from blockcov.metrics import support_confusion
from blockcov.pipeline import (CorrelationEstimate, PipelineConfig, PipelineError, estimate,
                               finish, select, whiten)
import blockcov.psd
from blockcov.psd import DIAG_TOL, inv_sqrt
from blockcov.simulate import ScenarioSpec, build_scenario, permute_columns, sample_gaussian
from blockcov.sparsify import hard_threshold


class TestEstimate:
    def test_diagonal_equal_recovery(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 100, seed=0))
        X = sample_gaussian(truth, 50, seed=0)
        est = estimate(X, PipelineConfig(seed=0))
        assert est.rank.r == 5
        tpr, fpr = support_confusion(truth.support, est.sigma_tilde)
        assert fpr <= 0.1
        assert tpr >= 0.9

    def test_reduces_to_identity_transform(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 10))
        R = sample_correlation(X)
        est = estimate(X, PipelineConfig(rank_method=9, lambda_method=0.0))
        assert np.linalg.norm(est.sigma_hat - R) <= 1e-6

    def test_sigma_hat_contract(self):
        truth = build_scenario(ScenarioSpec("extra-diagonal-equal", 40, seed=2))
        X = sample_gaussian(truth, 20, seed=2)
        est = estimate(X, PipelineConfig(seed=2))
        assert np.all(np.diag(est.sigma_hat) == 1.0)
        assert np.array_equal(est.sigma_hat, est.sigma_hat.T)
        assert np.linalg.eigvalsh(est.sigma_hat)[0] >= -1e-8

    def test_support_is_threshold_support_of_gamma_r(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 30, seed=3))
        X = sample_gaussian(truth, 25, seed=3)
        est = estimate(X, PipelineConfig(seed=3))
        G_r = truncate_rank(build_gamma(sample_correlation(X)), est.rank.r)
        kept = hard_threshold(vech(G_r), est.lam.lam) != 0
        assert int(kept.sum()) == est.lam.support_size
        assert int(est.support.sum()) // 2 == est.lam.support_size

    def test_deterministic(self):
        truth = build_scenario(ScenarioSpec("diagonal-unequal", 30, seed=4))
        X = sample_gaussian(truth, 20, seed=4)
        cfg = PipelineConfig(rank_method="pa", lambda_method="bl", seed=11)
        a = estimate(X, cfg)
        b = estimate(X, cfg)
        assert np.array_equal(a.sigma_hat, b.sigma_hat)
        assert a.rank.r == b.rank.r and a.lam.lam == b.lam.lam

    def test_reorder_round_trip_on_scrambled_blocks(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 60, seed=5))
        X = sample_gaussian(truth, 40, seed=5)
        Xp, perm = permute_columns(X, seed=5)
        est = estimate(Xp, PipelineConfig(reorder=True, seed=5))
        # results come back in the data's (permuted) index order
        from blockcov.permute import permute_matrix
        support_perm = permute_matrix(truth.support, perm)
        tpr, fpr = support_confusion(support_perm, est.sigma_tilde)
        assert tpr >= 0.8
        assert fpr <= 0.2
        assert not np.array_equal(est.permutation, np.arange(60))
        assert np.array_equal(np.sort(est.permutation), np.arange(60))

    def test_reported_support_size_is_the_estimates_under_reorder(self, monkeypatch):
        # BL counts its support on its own full-data truncation, which under
        # reordering differs from the pipeline's G_r in the last bits; on this
        # input with 5 splits that moves one entry across the selected threshold.
        bl = blockcov.pipeline.select_lambda_bl
        monkeypatch.setattr(blockcov.pipeline, "select_lambda_bl",
                            lambda *args, **kwargs: bl(*args, n_splits=5, **kwargs))
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 30, seed=7))
        X, _ = permute_columns(sample_gaussian(truth, 20, seed=7), seed=7)
        cfg = PipelineConfig(rank_method=5, lambda_method="bl", reorder=True, seed=7)
        sel = select(X, cfg)
        est = finish(sel, cfg)
        assert sel.lam.support_size != est.lam.support_size
        assert int(est.support.sum()) // 2 == est.lam.support_size

    @pytest.mark.parametrize("rank, lam, reorder", [("cattell", "elbow", False),
                                                    ("pa", "bl", True)],
                             ids=["cattell-elbow", "pa-bl-reorder"])
    @pytest.mark.parametrize("k", [-600, 600])
    def test_power_of_two_scale_keeps_every_bit(self, rank, lam, reorder, k):
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 30, seed=3))
        X, _ = permute_columns(sample_gaussian(truth, 20, seed=3), seed=3)
        cfg = PipelineConfig(rank_method=rank, lambda_method=lam, reorder=reorder, seed=3)
        a, b = estimate(X, cfg), estimate(np.ldexp(X, k), cfg)
        for name in ("sigma_hat", "sigma_tilde", "support", "permutation", "scree"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(a.inv_sqrt.matrix, b.inv_sqrt.matrix)
        assert (a.rank.r, a.lam.lam) == (b.rank.r, b.lam.lam)

    def test_fixed_parameter_validation(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((10, 5))
        with pytest.raises(PipelineError, match="rank-selection"):
            estimate(X, PipelineConfig(rank_method=0))
        with pytest.raises(PipelineError, match="lambda-selection"):
            estimate(X, PipelineConfig(lambda_method=-0.5))

    @pytest.mark.parametrize("step, setting", [
        ("rank-selection", {"rank_method": "nope"}),
        ("lambda-selection", {"lambda_method": "nope"}),
        ("lambda-selection", {"lambda_method": -0.5}),
        ("rank-selection", {"rank_method": True}),
        ("lambda-selection", {"lambda_method": True}),
    ], ids=["unknown-rank", "unknown-lambda", "negative-lambda", "bool-rank", "bool-lambda"])
    def test_bad_selector_rejected_before_the_correlation(self, monkeypatch, step, setting):
        X = np.random.default_rng(6).standard_normal((10, 8))
        correlations = []
        monkeypatch.setattr(blockcov.pipeline, "sample_correlation",
                            lambda X: correlations.append(X) or sample_correlation(X))
        with pytest.raises(PipelineError, match=step) as exc:
            estimate(X, PipelineConfig(**setting))
        assert exc.value.step == step
        assert correlations == []

    @pytest.mark.parametrize("setting, message", [
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"reorder": "no"}, "reorder must be True or False, got 'no'"),
    ], ids=["negative-seed", "fractional-seed", "bool-seed", "string-reorder"])
    def test_bad_config_value_rejected_before_the_correlation(self, monkeypatch, setting,
                                                              message):
        X = np.random.default_rng(6).standard_normal((10, 8))
        correlations = []
        monkeypatch.setattr(blockcov.pipeline, "sample_correlation",
                            lambda X: correlations.append(X) or sample_correlation(X))
        with pytest.raises(ValueError, match=message):
            estimate(X, PipelineConfig(**setting))
        assert correlations == []

    @pytest.mark.parametrize("step, setting", [
        ("lambda-selection", {"lambda_method": None}),
        ("lambda-selection", {"lambda_method": [0.5]}),
        ("inverse-square-root", {"inv_sqrt_threshold": None}),
        ("inverse-square-root", {"inv_sqrt_threshold": "0.1"}),
    ], ids=["none-lambda", "list-lambda", "none-threshold", "text-threshold"])
    def test_setting_that_is_not_a_number_is_bad_input(self, monkeypatch, step, setting):
        X = np.random.default_rng(6).standard_normal((10, 8))
        correlations = []
        monkeypatch.setattr(blockcov.pipeline, "sample_correlation",
                            lambda X: correlations.append(X) or sample_correlation(X))
        with pytest.raises(PipelineError, match=f"{step}.*must be a number, got") as exc:
            estimate(X, PipelineConfig(**setting))
        assert exc.value.step == step
        assert type(exc.value.__cause__) is ValueError
        assert correlations == []

    @pytest.mark.parametrize("step, setting, message", [
        ("lambda-selection", {"lambda_method": True}, r"lambda must be a number, got True"),
        ("lambda-selection", {"lambda_method": np.True_},
         r"lambda must be a number, got (np\.)?True"),
        ("inverse-square-root", {"inv_sqrt_threshold": True},
         r"threshold must be a number, got True"),
        ("inverse-square-root", {"inv_sqrt_threshold": np.True_},
         r"threshold must be a number, got (np\.)?True"),
        ("rank-selection", {"rank_method": 2.5}, r"rank must be an integer, got 2\.5"),
        ("rank-selection", {"rank_method": 5.0}, r"rank must be an integer, got 5\.0"),
        ("rank-selection", {"rank_method": np.float64(3)}, r"rank must be an integer, got"),
    ], ids=["bool-lambda", "numpy-bool-lambda", "bool-threshold", "numpy-bool-threshold",
            "fractional-rank", "float-rank", "numpy-float-rank"])
    def test_setting_fails_its_number_check_before_the_correlation(self, monkeypatch, step,
                                                                   setting, message):
        X = np.random.default_rng(6).standard_normal((10, 8))
        correlations = []
        monkeypatch.setattr(blockcov.pipeline, "sample_correlation",
                            lambda X: correlations.append(X) or sample_correlation(X))
        with pytest.raises(PipelineError, match=message) as exc:
            estimate(X, PipelineConfig(**setting))
        assert exc.value.step == step
        assert correlations == []

    def test_numpy_integer_counts_accepted(self):
        assert PipelineConfig(seed=np.int64(3)).seed == 3

    def test_step_provenance_on_numerical_failure(self, monkeypatch):
        # a line search that demands more decrease than any step gives fails
        monkeypatch.setattr(blockcov.psd, "_ARMIJO", 1e6)
        monkeypatch.setattr(blockcov.psd, "_MIN_STEP", 1.0)
        truth = build_scenario(ScenarioSpec("extra-diagonal-equal", 30, seed=7))
        X = sample_gaussian(truth, 12, seed=7)
        with pytest.raises(PipelineError, match="psd-projection") as exc:
            estimate(X, PipelineConfig(seed=7))
        assert exc.value.step == "psd-projection"

    def test_trace_and_timings_populated(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 20, seed=8))
        X = sample_gaussian(truth, 15, seed=8)
        est = estimate(X, PipelineConfig(seed=8))
        assert est.scree.size == 19
        assert "rss" in est.rank.trace
        assert "criterion" in est.lam.trace
        assert est.timings["psd-projection"] >= 0.0

    def test_projection_record_matches_the_benchmark_trace(self, monkeypatch):
        # the record counts its eigendecompositions in the code path; the
        # benchmark's tracer counts them by rebinding numpy.linalg.eigh
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 60, seed=2))
        X = sample_gaussian(truth, 30, seed=2)
        tracer = spans.Tracer()
        with tracer.installed(), tracer.span("estimate", op=0):
            est = estimate(X, PipelineConfig(seed=2))
        traced = tracer.summaries()[0]["psd.nearest_correlation"]
        record = est.diagnostics["projection"]
        assert record["eigh_calls"] == traced["iterations"] + 1
        assert record["eigh_calls"] > record["newton_steps"] >= 1
        assert record["diag_gap"] <= DIAG_TOL

    def test_parallel_analysis_reuses_the_observed_scree(self, monkeypatch):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 20, seed=8))
        X = sample_gaussian(truth, 15, seed=8)
        calls = []

        def counted(G):
            calls.append(G.shape)
            return scree(G)
        for module in (blockcov.pipeline, blockcov.lowrank):
            monkeypatch.setattr(module, "scree", counted)
        passed = []
        pa = blockcov.pipeline.select_rank_pa
        monkeypatch.setattr(blockcov.pipeline, "select_rank_pa",
                            lambda X, s, **kw: passed.append(s) or pa(X, s, **kw))
        est = estimate(X, PipelineConfig(rank_method="pa", seed=8))
        # PA passes its permutations as stacks: count matrices, not calls
        assert est.rank.trace["permutations"] == 50
        assert sum(math.prod(shape[:-2]) for shape in calls) == 1 + 50
        assert len(passed) == 1 and passed[0] is est.scree

    def test_selection_record_counts_the_bl_threshold_passes(self, monkeypatch):
        # BL thresholds once per split and grid point, then once more for the
        # support of its pick
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 20, seed=0))
        X = sample_gaussian(truth, 15, seed=0)
        calls, in_bl = [], []
        bl = blockcov.sparsify.select_lambda_bl

        def counted(y, lam):
            calls.append(lam)
            return hard_threshold(y, lam)

        def counted_bl(*args, **kwargs):
            start = len(calls)
            sel = bl(*args, **kwargs)
            in_bl.append(len(calls) - start - 1)
            return sel
        monkeypatch.setattr(blockcov.sparsify, "hard_threshold", counted)
        monkeypatch.setattr(blockcov.pipeline, "select_lambda_bl", counted_bl)
        est = estimate(X, PipelineConfig(rank_method="pa", lambda_method="bl"))
        splits, grid = est.lam.trace["splits"], est.lam.trace["grid"].size
        assert (est.rank.trace["permutations"], splits, grid) == (50, 50, 100)
        assert in_bl == [splits * grid]
        assert list(est.diagnostics) == ["cpu_s", "projection", "eigendecompositions"]

    def test_inverse_root_record_counts_the_kept_spectrum(self):
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 30, seed=4))
        X, _ = permute_columns(sample_gaussian(truth, 15, seed=4), seed=4)
        est = estimate(X, PipelineConfig(reorder=True, inv_sqrt_threshold=0.5))
        record = est.inv_sqrt
        w = np.linalg.eigvalsh(est.sigma_hat)
        assert record.dropped == np.count_nonzero(w <= 0.5) > 0
        assert record.kept + record.dropped == 30
        assert abs(record.eig_min - w[0]) <= 1e-10
        assert abs(record.eig_max - w[-1]) <= 1e-10

    @pytest.mark.parametrize("rank, lam, reorder", [
        ("cattell", "elbow", False), ("pa", "bl", False), ("pa", "bl", True), (5, 0.8, False),
    ], ids=["cattell-elbow", "pa-bl", "pa-bl-reorder", "5-0.8"])
    def test_eigendecomposition_record_counts_every_call(self, monkeypatch, rank, lam, reorder):
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 30, seed=4))
        X, _ = permute_columns(sample_gaussian(truth, 15, seed=4), seed=4)
        # count numpy's eigendecompositions by the pipeline step they run in
        counts, steps = {}, []
        step = blockcov.pipeline._step

        @contextmanager
        def tracked(name, *records):
            steps.append(name)
            try:
                with step(name, *records):
                    yield
            finally:
                steps.pop()

        def counter(fn):
            # a stack of matrices counts once per matrix
            def counted(A, *args, **kwargs):
                counts[steps[-1]] = counts.get(steps[-1], 0) + math.prod(np.shape(A)[:-2])
                return fn(A, *args, **kwargs)
            return counted
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counter(getattr(np.linalg, name)))
        monkeypatch.setattr(blockcov.pipeline, "_step", tracked)
        est = estimate(X, PipelineConfig(rank_method=rank, lambda_method=lam, reorder=reorder,
                                         seed=4))
        record = est.diagnostics["eigendecompositions"]
        assert {k: v for k, v in record.items() if v} == counts
        assert set(record) == {"correlation", "rank-selection", "lambda-selection",
                               "psd-projection", "inverse-square-root"} <= set(est.timings)
        assert record["psd-projection"] == est.diagnostics["projection"]["eigh_calls"]

    @pytest.mark.parametrize("rank, lam", [("cattell", "elbow"), ("pa", "bl"), (5, 0.8)],
                             ids=["cattell-elbow", "pa-bl", "5-0.8"])
    def test_eigendecomposition_record_sums_the_selectors_traces(self, rank, lam):
        X = sample_gaussian(build_scenario(ScenarioSpec("extra-diagonal-unequal", 30, seed=4)),
                            15, seed=4)
        est = estimate(X, PipelineConfig(rank_method=rank, lambda_method=lam, seed=4))
        record = est.diagnostics["eigendecompositions"]
        # the selectors' own decompositions, then the truncation to G_r
        assert record["rank-selection"] == est.rank.trace.get("eigendecompositions", 0) + 1
        assert record["lambda-selection"] == est.lam.trace.get("eigendecompositions", 0)
        assert est.rank.trace.get("eigendecompositions") == (50 if rank == "pa" else None)
        assert est.lam.trace.get("eigendecompositions") == (51 if lam == "bl" else None)


class TestWhiten:
    def test_identity_estimate_only_standardises(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((12, 6)) * [1.0, 2.0, 0.5, 10.0, 1e-3, 3.0] + 5.0
        est = CorrelationEstimate(
            sigma_hat=np.eye(6), sigma_tilde=np.eye(6),
            support=np.zeros((6, 6), dtype=bool), rank=None, lam=None,
            permutation=np.arange(6), scree=None, inv_sqrt=inv_sqrt(np.eye(6), 0.0))
        Z = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        assert np.allclose(whiten(X, est), Z, atol=1e-12)

    def test_column_scale_and_location_do_not_matter(self):
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 20, seed=11))
        X = sample_gaussian(truth, 40, seed=11)
        est = estimate(X, PipelineConfig(seed=11))
        scale = np.geomspace(0.1, 10.0, 20)
        shift = np.linspace(-50.0, 50.0, 20)
        assert np.allclose(whiten(X * scale + shift, est), whiten(X, est), atol=1e-10)

    @pytest.mark.parametrize("k", [-600, -540, 540, 600])
    def test_power_of_two_scale_keeps_every_bit(self, k):
        # the squares of entries of 2**-540 underflow and of 2**540 overflow
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 20, seed=11))
        X = sample_gaussian(truth, 40, seed=11)
        est = estimate(X, PipelineConfig(seed=11))
        assert np.array_equal(whiten(np.ldexp(X, k), est), whiten(X, est))

    def test_true_sigma_whitens_large_sample(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 10, seed=10))
        t = 0.5 * np.linalg.eigvalsh(truth.Sigma)[0]
        est = CorrelationEstimate(
            sigma_hat=truth.Sigma, sigma_tilde=truth.Sigma, support=truth.support,
            rank=None, lam=None, permutation=np.arange(10), scree=None,
            inv_sqrt=inv_sqrt(truth.Sigma, t))
        X = sample_gaussian(truth, 10000, seed=10)
        W = whiten(X, est)
        assert W.shape == X.shape
        R = sample_correlation(W)
        assert np.max(np.abs(R - np.eye(10))) <= 0.05
