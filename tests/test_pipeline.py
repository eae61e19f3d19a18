import numpy as np
import pytest

from blockcov.corr import build_gamma, sample_correlation, vech
from blockcov.lowrank import truncate_rank
from blockcov.metrics import support_confusion
from blockcov.pipeline import (CorrelationEstimate, PipelineConfig, PipelineError,
                               SelectionTrace, estimate, whiten)
from blockcov.psd import PsdConfig, inv_sqrt
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
        cfg = PipelineConfig(rank_method="pa", lambda_method="bl",
                             pa_permutations=5, bl_splits=5, seed=11)
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

    def test_reported_support_size_is_the_estimates_under_reorder(self):
        # BL counts its support on its own full-data truncation, which under
        # reordering differs from the pipeline's G_r in the last bits; on this
        # input that moves one entry across the selected threshold.
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 30, seed=7))
        X, _ = permute_columns(sample_gaussian(truth, 20, seed=7), seed=7)
        cfg = PipelineConfig(rank_method=5, lambda_method="bl", reorder=True, bl_splits=5,
                             seed=7)
        est = estimate(X, cfg)
        assert int(est.support.sum()) // 2 == est.lam.support_size

    def test_fixed_parameter_validation(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((10, 5))
        with pytest.raises(PipelineError, match="rank-selection"):
            estimate(X, PipelineConfig(rank_method=0))
        with pytest.raises(PipelineError, match="lambda-selection"):
            estimate(X, PipelineConfig(lambda_method=-0.5))

    def test_step_provenance_on_numerical_failure(self):
        truth = build_scenario(ScenarioSpec("extra-diagonal-equal", 30, seed=7))
        X = sample_gaussian(truth, 12, seed=7)
        cfg = PipelineConfig(psd=PsdConfig(max_iter=1, tol=1e-12), seed=7)
        with pytest.raises(PipelineError, match="psd-projection") as exc:
            estimate(X, cfg)
        assert exc.value.step == "psd-projection"

    def test_trace_and_timings_populated(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 20, seed=8))
        X = sample_gaussian(truth, 15, seed=8)
        est = estimate(X, PipelineConfig(seed=8))
        assert isinstance(est.trace, SelectionTrace)
        assert est.trace.scree.size == 19
        assert "rss" in est.trace.rank
        assert "criterion" in est.trace.lam
        assert est.timings["psd-projection"] >= 0.0


class TestWhiten:
    def test_identity_estimate_leaves_data_unchanged(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((12, 6))
        est = CorrelationEstimate(
            sigma_hat=np.eye(6), sigma_tilde=np.eye(6),
            support=np.zeros((6, 6), dtype=bool), rank=None, lam=None,
            permutation=np.arange(6), trace=None, inv_sqrt=inv_sqrt(np.eye(6), 0.0))
        assert np.allclose(whiten(X, est), X, atol=1e-12)

    def test_true_sigma_whitens_large_sample(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 10, seed=10))
        t = 0.5 * np.linalg.eigvalsh(truth.Sigma)[0]
        est = CorrelationEstimate(
            sigma_hat=truth.Sigma, sigma_tilde=truth.Sigma, support=truth.support,
            rank=None, lam=None, permutation=np.arange(10), trace=None,
            inv_sqrt=inv_sqrt(truth.Sigma, t))
        X = sample_gaussian(truth, 10000, seed=10)
        W = whiten(X, est)
        assert W.shape == X.shape
        R = sample_correlation(W)
        assert np.max(np.abs(R - np.eye(10))) <= 0.05

    def test_missing_inv_sqrt(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 12, seed=11))
        X = sample_gaussian(truth, 15, seed=11)
        est = estimate(X, PipelineConfig(compute_inv_sqrt=False, seed=11))
        assert est.inv_sqrt is None
        with pytest.raises(ValueError, match="inverse square root"):
            whiten(X, est)
