import numpy as np
import pytest

from blockcov.corr import sample_correlation
from blockcov.simulate import (SCENARIOS, ScenarioSpec, block_sizes, build_scenario,
                               permute_columns, sample_gaussian)


def zz_oracle(Z):
    # independent entrywise product, no matmul
    q = Z.shape[0]
    out = np.zeros((q, q))
    for i in range(q):
        for j in range(q):
            out[i, j] = sum(Z[i, c] * Z[j, c] for c in range(Z.shape[1]))
    return out


class TestBlockSizes:
    @pytest.mark.parametrize("q", [10, 11, 37, 97, 100, 199, 500])
    def test_tiles_q(self, q):
        sizes = block_sizes(q)
        assert len(sizes) == 5
        assert sum(sizes) == q
        assert min(sizes) >= 1

    def test_canonical_q100(self):
        assert block_sizes(100) == [10, 20, 30, 20, 20]

    def test_q_too_small(self):
        with pytest.raises(ValueError):
            ScenarioSpec("diagonal-equal", 9)

    @pytest.mark.parametrize("field, spec", [
        ("q", {"q": 20.0}), ("q", {"q": 20.5}), ("q", {"q": True}),
        ("seed", {"q": 20, "seed": 2.5}), ("seed", {"q": 20, "seed": 3.0}),
        ("seed", {"q": 20, "seed": -1}),
    ])
    def test_spec_rejects_a_size_or_seed_that_is_not_a_count(self, field, spec):
        # before any draw: a float q used to fail later in build_scenario with a bare TypeError
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ScenarioSpec("diagonal-unequal", **spec)

    def test_spec_accepts_numpy_integers(self):
        spec = ScenarioSpec("diagonal-unequal", np.int64(20), seed=np.uint8(3))
        assert build_scenario(spec).Sigma.shape == (20, 20)


class TestBuildScenario:
    def test_diagonal_equal_block_values(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 100, seed=0))
        block1 = truth.Sigma[:10, :10]
        off = block1[~np.eye(10, dtype=bool)]
        assert np.allclose(off, 0.7, atol=1e-12)
        # cross-block entries vanish
        assert np.all(truth.Sigma[:10, 10:30] == 0.0)

    def test_extra_diagonal_cross_term(self):
        truth = build_scenario(ScenarioSpec("extra-diagonal-equal", 100, seed=0))
        # overlap rows 35..45 (1-based) against block-4 rows 61..80
        cross = truth.Sigma[34:45, 60:80]
        assert np.allclose(cross, -0.5 * np.sqrt(0.8), atol=1e-12)
        assert np.allclose(truth.Sigma, np.where(np.eye(100, dtype=bool), 1.0, zz_oracle(truth.Z)),
                           atol=1e-12)

    @pytest.mark.parametrize("kind", SCENARIOS)
    def test_unit_diagonal_and_psd(self, kind):
        truth = build_scenario(ScenarioSpec(kind, 60, seed=1))
        assert np.all(np.diag(truth.Sigma) == 1.0)
        assert np.linalg.eigvalsh(truth.Sigma)[0] >= -1e-10

    @pytest.mark.parametrize("kind", SCENARIOS)
    def test_support_matches_product_pattern(self, kind):
        truth = build_scenario(ScenarioSpec(kind, 40, seed=2))
        ZZ = zz_oracle(truth.Z)
        np.fill_diagonal(ZZ, 0.0)
        assert np.array_equal(truth.support, np.abs(ZZ) > 1e-12)
        assert np.array_equal(truth.support, truth.support.T)

    def test_unequal_draws_respect_ranges(self):
        truth = build_scenario(ScenarioSpec("diagonal-unequal", 80, seed=3))
        sizes = block_sizes(80)
        start = 0
        for c, size in enumerate(sizes):
            vals = truth.Z[start:start + size, c]
            lo, hi = (np.sqrt(0.3), np.sqrt(0.6)) if c == 2 else (np.sqrt(0.6), np.sqrt(0.8))
            assert np.all((vals >= lo) & (vals <= hi))
            start += size

    def test_block_labels(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 100, seed=0))
        assert np.array_equal(np.bincount(truth.blocks), [10, 20, 30, 20, 20])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioSpec("banded", 50)


class TestSampleGaussian:
    def test_identity_covariance_law_of_large_numbers(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 10, seed=0))
        identity_truth = type(truth)(Z=np.zeros((5, 5)), Sigma=np.eye(5),
                                     support=np.zeros((5, 5), dtype=bool),
                                     blocks=np.zeros(5, dtype=int))
        X = sample_gaussian(identity_truth, 10000, seed=0)
        R = sample_correlation(X)
        assert np.max(np.abs(R - np.eye(5))) <= 0.05

    def test_seeded_determinism(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 20, seed=1))
        X1 = sample_gaussian(truth, 15, seed=7)
        X2 = sample_gaussian(truth, 15, seed=7)
        assert np.array_equal(X1, X2)
        X3 = sample_gaussian(truth, 15, seed=8)
        assert not np.array_equal(X1, X3)

    def test_monte_carlo_covariance_convergence(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 20, seed=2))
        X = sample_gaussian(truth, 50000, seed=3)
        S = np.cov(X, rowvar=False)
        assert np.max(np.abs(S - truth.Sigma)) <= 0.05

    def test_n_validation(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 12, seed=0))
        with pytest.raises(ValueError, match="2 samples"):
            sample_gaussian(truth, 1)
        with pytest.raises(ValueError, match="n must be an integer, got 20.5"):
            sample_gaussian(truth, 20.5)


class TestPermuteColumns:
    def test_single_column(self):
        X = np.arange(6.0)[:, None]
        Xp, perm = permute_columns(X, seed=0)
        assert np.array_equal(perm, [0])
        assert np.array_equal(Xp, X)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((7, 11))
        Xp, perm = permute_columns(X, seed=9)
        assert np.array_equal(Xp[:, np.argsort(perm)], X)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((5, 20))
        _, p1 = permute_columns(X, seed=4)
        _, p2 = permute_columns(X, seed=4)
        assert np.array_equal(p1, p2)


@pytest.mark.parametrize("seed", [2.5, 1.9, 4.0, True, -1])
def test_seed_that_is_not_a_count_is_rejected(seed):
    # truncating 2.5 would draw seed 2's stream and True seed 1's
    truth = build_scenario(ScenarioSpec("diagonal-unequal", 20))
    for draw in (lambda: build_scenario(ScenarioSpec("diagonal-unequal", 20, seed=seed)),
                 lambda: sample_gaussian(truth, 5, seed=seed),
                 lambda: permute_columns(np.eye(3), seed=seed)):
        with pytest.raises(ValueError, match="seed must be"):
            draw()


def test_numpy_integer_seed_draws_the_same_stream():
    truth = build_scenario(ScenarioSpec("diagonal-unequal", 20, seed=np.uint64(2)))
    assert np.array_equal(truth.Z, build_scenario(ScenarioSpec("diagonal-unequal", 20, seed=2)).Z)
    assert np.array_equal(sample_gaussian(truth, 5, seed=np.int32(1)),
                          sample_gaussian(truth, 5, seed=1))
