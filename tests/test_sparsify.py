import itertools

import numpy as np
import pytest

from blockcov.corr import build_gamma, sample_correlation, vech
from blockcov.lowrank import truncate_rank
from blockcov.simulate import ScenarioSpec, build_scenario
from blockcov.sparsify import (candidate_lambdas, hard_threshold, select_lambda_bl,
                               select_lambda_elbow, soft_threshold, sparse_sigma,
                               support_lambda)


def scan_oracle(y, lam, soft):
    out = np.zeros_like(y)
    for j, v in enumerate(y):
        if abs(v) > lam / 2:
            out[j] = v * (1 - lam / (2 * abs(v))) if soft else v
    return out


class TestThresholds:
    def test_soft_examples(self):
        assert soft_threshold(np.array([0.8]), 0.4)[0] == pytest.approx(0.6)
        assert soft_threshold(np.array([0.1]), 0.4)[0] == 0.0
        y = np.array([0.3, -0.9, 0.0, 2.0])
        assert np.array_equal(soft_threshold(y, 0.0), y)

    def test_hard_examples(self):
        assert hard_threshold(np.array([0.8]), 0.4)[0] == 0.8
        assert hard_threshold(np.array([-0.21]), 0.4)[0] == -0.21

    def test_match_elementwise_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.standard_normal(int(rng.integers(1, 40)))
            lam = float(rng.uniform(0, 3))
            assert np.array_equal(hard_threshold(y, lam), scan_oracle(y, lam, soft=False))
            assert np.allclose(soft_threshold(y, lam), scan_oracle(y, lam, soft=True), atol=1e-15)

    def test_shared_support_and_pointwise_domination(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(60)
        lam = 0.8
        h = hard_threshold(y, lam)
        s = soft_threshold(y, lam)
        assert np.array_equal(h != 0, s != 0)
        assert np.all(np.abs(s) <= np.abs(h))
        assert np.all((np.abs(s) == np.abs(h)) == (h == 0))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            hard_threshold(np.array([1.0]), -0.1)
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -0.1)


class TestCandidateLambdas:
    def test_support_change_points(self):
        assert np.allclose(candidate_lambdas(np.array([0.3, -0.5])), [0.0, 0.6, 1.0])

    def test_distinctness(self):
        assert np.allclose(candidate_lambdas(np.array([0.3, 0.3])), [0.0, 0.6])

    def test_endpoints_retained(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(50)
        grid = candidate_lambdas(y, max_grid=2)
        assert np.allclose(grid, [0.0, 2 * np.abs(y).max()])
        grid = candidate_lambdas(y, max_grid=10)
        assert len(grid) <= 10
        assert grid[0] == 0.0
        assert grid[-1] == 2 * np.abs(y).max()

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            candidate_lambdas(np.array([]))


class TestSupportLambda:
    def test_hits_target_sizes(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(40)
        for size in (0, 1, 7, 39, 40, 50):
            lam = support_lambda(y, size)
            got = int(np.count_nonzero(hard_threshold(y, lam)))
            assert got == min(size, 40)


class TestSparseSigma:
    def test_identity_pass_through(self):
        rng = np.random.default_rng(4)
        R = sample_correlation(rng.standard_normal((30, 8)))
        S = sparse_sigma(build_gamma(R), 0.0, 8)
        assert np.allclose(S, R, atol=1e-15)

    def test_everything_thresholded(self):
        rng = np.random.default_rng(5)
        R = sample_correlation(rng.standard_normal((10, 6)))
        lam = 2 * np.abs(vech(build_gamma(R))).max() + 0.1
        assert np.array_equal(sparse_sigma(build_gamma(R), lam, 6), np.eye(6))

    def test_exact_scenario_support_at_half(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 40, seed=0))
        S = sparse_sigma(build_gamma(truth.Sigma), 0.5, 40)
        got = S != 0
        np.fill_diagonal(got, False)
        assert np.array_equal(got, truth.support)

    def test_support_size_non_increasing_in_lambda(self):
        rng = np.random.default_rng(6)
        G = build_gamma(sample_correlation(rng.standard_normal((12, 10))))
        sizes = []
        for lam in np.linspace(0, 2.1, 25):
            S = sparse_sigma(G, lam, 10)
            sizes.append(np.count_nonzero(np.triu(S, 1)))
        assert np.all(np.diff(sizes) <= 0)


def elbow_oracle(R, G_r, grid):
    # full-matrix criterion and an lstsq breakpoint scan, sharing the vertex
    q = R.shape[0]
    curve = np.array([np.linalg.norm(R - sparse_sigma(G_r, lam, q)) for lam in grid])
    x = np.arange(len(grid), dtype=float)

    def rss(xs, ys):
        if len(ys) < 2:
            return 0.0
        A = np.column_stack([xs, np.ones(len(xs))])
        coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
        return float(((A @ coef - ys) ** 2).sum())

    best_b, best = None, np.inf
    for b in range(1, len(grid) - 1):
        total = rss(x[:b + 1], curve[:b + 1]) + rss(x[b:], curve[b:])
        if total < best:
            best_b, best = b, total
    return grid[best_b], curve


class TestSelectLambdaElbow:
    def test_synthetic_kink_selected(self):
        # piecewise-linear criterion with a single kink: scan must return it
        from blockcov._twoline import two_segment_scan
        k = 6
        idx = np.arange(15, dtype=float)
        curve = np.where(idx <= k, 1.0 + 0.05 * idx, 1.0 + 0.05 * k + 0.9 * (idx - k))
        breaks = np.arange(1, 14)
        rss = two_segment_scan(curve, breaks)
        assert int(breaks[np.argmin(rss)]) == k
        assert rss[np.argmin(rss)] == pytest.approx(0.0, abs=1e-18)

    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            R = sample_correlation(rng.standard_normal((15, 12)))
            G_r = truncate_rank(build_gamma(R), 3)
            grid = candidate_lambdas(vech(G_r), max_grid=20)
            sel = select_lambda_elbow(build_gamma(R), G_r, grid)
            lam_ref, curve_ref = elbow_oracle(R, G_r, grid)
            assert sel.lam == lam_ref
            assert np.allclose(sel.trace["criterion"], curve_ref, atol=1e-10)

    def test_linear_curve_ties_to_smallest(self):
        from blockcov._twoline import two_segment_scan
        curve = np.linspace(1.0, 5.0, 10)
        breaks = np.arange(1, 9)
        rss = two_segment_scan(curve, breaks)
        assert int(breaks[np.argmin(rss)]) == 1

    def test_criterion_non_decreasing_for_full_rank(self):
        rng = np.random.default_rng(8)
        R = sample_correlation(rng.standard_normal((14, 9)))
        G = build_gamma(R)
        grid = candidate_lambdas(vech(G), max_grid=30)
        sel = select_lambda_elbow(G, G, grid)
        assert np.all(np.diff(sel.trace["criterion"]) >= -1e-12)

    def test_grid_too_short(self):
        R = np.eye(4)
        with pytest.raises(ValueError, match="4 points"):
            select_lambda_elbow(build_gamma(R), build_gamma(R), np.array([0.0, 0.1, 0.2]))


def bl_oracle(X, r, grid, splits):
    # brute-force re-implementation on full matrices
    losses = np.zeros(len(grid))
    n, q = X.shape
    for train in splits:
        mask = np.zeros(n, dtype=bool)
        mask[list(train)] = True
        R1 = sample_correlation(X[mask])
        R2 = sample_correlation(X[~mask])
        G_r = truncate_rank(build_gamma(R1), r)
        for k, lam in enumerate(grid):
            losses[k] += np.linalg.norm(sparse_sigma(G_r, lam, q) - R2) ** 2
    return grid[int(np.argmin(losses))], losses


class TestSelectLambdaBL:
    def test_singleton_grid(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 5))
        sel = select_lambda_bl(X, 2, np.array([0.0]), n_splits=3, seed=0)
        assert sel.lam == 0.0

    def test_exhaustive_splits_match_brute_force(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((6, 4))
        grid = np.array([0.0, 0.2, 0.5, 0.9, 1.5])
        splits = list(itertools.combinations(range(6), 3))
        sel = select_lambda_bl(X, 2, grid, splits=splits)
        lam_ref, loss_ref = bl_oracle(X, 2, grid, splits)
        assert sel.lam == lam_ref
        assert np.allclose(sel.trace["loss"], loss_ref, rtol=1e-10)

    def test_same_seed_same_lambda(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((12, 6))
        grid = candidate_lambdas(vech(build_gamma(sample_correlation(X))), max_grid=15)
        a = select_lambda_bl(X, 3, grid, n_splits=8, seed=21)
        b = select_lambda_bl(X, 3, grid, n_splits=8, seed=21)
        assert a.lam == b.lam
        assert np.array_equal(a.trace["loss"], b.trace["loss"])

    def test_split_size_validation(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((6, 4))
        with pytest.raises(ValueError, match="fewer than 2"):
            select_lambda_bl(X, 2, np.array([0.0, 0.1]), splits=[range(5)])
        with pytest.raises(ValueError, match="5 samples"):
            select_lambda_bl(rng.standard_normal((3, 4)), 2, np.array([0.0]))
