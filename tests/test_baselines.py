import itertools

import numpy as np
import pytest

from blockcov.baselines import block_constant_estimator, kmeans_columns
from blockcov.corr import sample_correlation
from blockcov.simulate import ScenarioSpec, build_scenario, sample_gaussian


def block_constant_oracle(R, labels):
    # direct pair enumeration of the cluster-mean formula
    q = R.shape[0]
    ks = sorted(set(labels))
    rho = {}
    for a in ks:
        for b in ks:
            ia = [i for i in range(q) if labels[i] == a]
            ib = [j for j in range(q) if labels[j] == b]
            if a != b:
                rho[a, b] = sum(R[i, j] for i in ia for j in ib) / (len(ia) * len(ib))
            elif len(ia) > 1:
                rho[a, b] = sum(R[i, j] for i in ia for j in ia if i != j) / (len(ia) * (len(ia) - 1))
            else:
                rho[a, b] = 0.0
    out = np.empty((q, q))
    for i in range(q):
        for j in range(q):
            out[i, j] = 1.0 if i == j else rho[labels[i], labels[j]]
    return out


class TestBlockConstantEstimator:
    def test_two_pair_clusters(self):
        rng = np.random.default_rng(0)
        R = sample_correlation(rng.standard_normal((20, 4)))
        out = block_constant_estimator(R, np.array([0, 0, 1, 1]))
        assert out[0, 1] == pytest.approx(R[0, 1], abs=1e-12)
        assert out[2, 3] == pytest.approx(R[2, 3], abs=1e-12)
        cross = (R[0, 2] + R[0, 3] + R[1, 2] + R[1, 3]) / 4
        assert out[0, 2] == pytest.approx(cross, abs=1e-12)

    def test_single_cluster_constant_matrix(self):
        rho = 0.42
        R = np.full((6, 6), rho)
        np.fill_diagonal(R, 1.0)
        out = block_constant_estimator(R, np.zeros(6, dtype=int))
        assert np.allclose(out, R, atol=1e-12)

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            R = sample_correlation(rng.standard_normal((15, 6)))
            labels = rng.integers(0, 3, size=6)
            labels[:3] = [0, 1, 2]  # every cluster non-empty
            out = block_constant_estimator(R, labels)
            assert np.allclose(out, block_constant_oracle(R, labels.tolist()), atol=1e-10)

    def test_symmetric_unit_diagonal_block_constant(self):
        rng = np.random.default_rng(2)
        R = sample_correlation(rng.standard_normal((25, 9)))
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        out = block_constant_estimator(R, labels)
        assert np.array_equal(out, out.T)
        assert np.all(np.diag(out) == 1.0)
        for a in range(3):
            for b in range(3):
                block = out[np.ix_(labels == a, labels == b)]
                if a != b:
                    assert np.unique(block).size == 1
                else:
                    vals = block[~np.eye(block.shape[0], dtype=bool)]
                    assert np.unique(vals).size <= 1

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        R = sample_correlation(rng.standard_normal((12, 7)))
        labels = np.array([0, 1, 0, 2, 1, 2, 0])
        once = block_constant_estimator(R, labels)
        twice = block_constant_estimator(once, labels)
        assert np.allclose(once, twice, atol=1e-12)

    def test_reproduces_equal_scenario_exactly(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 50, seed=0))
        out = block_constant_estimator(truth.Sigma, truth.blocks)
        assert np.max(np.abs(out - truth.Sigma)) <= 1e-12

    def test_singleton_cluster_allowed(self):
        rng = np.random.default_rng(4)
        R = sample_correlation(rng.standard_normal((10, 4)))
        out = block_constant_estimator(R, np.array([0, 1, 1, 1]))
        assert out[0, 0] == 1.0

    @pytest.mark.parametrize("R", [np.float64(1.0), np.ones((2, 3))], ids=["scalar", "2x3"])
    def test_non_square_rejected(self, R):
        with pytest.raises(ValueError, match="correlation matrix must be square"):
            block_constant_estimator(R, [0])

    def test_empty_cluster_rejected(self):
        R = np.eye(4)
        with pytest.raises(ValueError, match="empty cluster"):
            block_constant_estimator(R, np.array([0, 0, 2, 2]))


def kmeans_oracle(pts, k):
    # exhaustive assignment search for the global WCSS optimum
    q = pts.shape[0]
    best, best_wcss = None, np.inf
    for labels in itertools.product(range(k), repeat=q):
        if len(set(labels)) < k:
            continue
        labels = np.array(labels)
        wcss = 0.0
        for c in range(k):
            block = pts[labels == c]
            wcss += ((block - block.mean(axis=0)) ** 2).sum()
        if wcss < best_wcss:
            best, best_wcss = labels, wcss
    return best, best_wcss


def as_partition(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return frozenset(frozenset(g) for g in groups.values())


class TestKmeansColumns:
    def test_separated_groups_recovered(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 6)) * 0.1
        X[:, :3] += 10.0
        X[:, 3:] -= 10.0
        labels = kmeans_columns(X, 2, seed=0)
        assert as_partition(labels) == as_partition([0, 0, 0, 1, 1, 1])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 6))
        X[:, :3] += 6.0
        labels = kmeans_columns(X, 2, seed=1)
        oracle_labels, oracle_wcss = kmeans_oracle(np.ascontiguousarray(X.T), 2)
        assert as_partition(labels) == as_partition(oracle_labels)

    def test_k_one_and_k_q(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 5))
        assert len(set(kmeans_columns(X, 1, seed=0).tolist())) == 1
        assert len(set(kmeans_columns(X, 5, seed=0).tolist())) == 5

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((7, 12))
        a = kmeans_columns(X, 3, seed=4)
        b = kmeans_columns(X, 3, seed=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k, message", [
        (0, r"k must be in \[1, 3\], got 0"),
        (4, r"k must be in \[1, 3\], got 4"),
        (2.5, "k must be an integer, got 2.5"),
    ])
    def test_k_must_be_a_count_of_columns(self, k, message):
        X = np.random.default_rng(0).standard_normal((6, 3))
        with pytest.raises(ValueError, match=message):
            kmeans_columns(X, k)

    @pytest.mark.parametrize("q", [60, 100])
    @pytest.mark.parametrize("data_seed", range(6))
    def test_power_of_two_scale_keeps_the_labels(self, q, data_seed):
        # at 2**530 the squared distances overflowed (no clustering was returned),
        # at 2**-600 they underflowed to zero (56 of 60 columns in one cluster)
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", q))
        X = sample_gaussian(truth, 30, seed=data_seed)
        labels = kmeans_columns(X, 5)
        for scale in (530, -600):
            assert np.array_equal(kmeans_columns(np.ldexp(X, scale), 5), labels), scale

    def test_k_exceeding_distinct_columns(self):
        col = np.arange(5.0)
        X = np.column_stack([col, col, col + 1])
        with pytest.raises(ValueError, match="distinct columns"):
            kmeans_columns(X, 3, seed=0)
