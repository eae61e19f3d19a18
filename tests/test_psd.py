import numpy as np
import pytest

from blockcov.corr import sample_correlation
from blockcov.psd import (ConvergenceError, InvSqrtResult, PsdConfig, inv_sqrt,
                          nearest_correlation, whitening_error)


def clipped_rescale(A):
    # the naive repair: clip eigenvalues at zero, rescale to unit diagonal
    w, V = np.linalg.eigh(A)
    M = (V * np.maximum(w, 0)) @ V.T
    d = np.sqrt(np.diag(M))
    M = M / np.outer(d, d)
    np.fill_diagonal(M, 1.0)
    return M


class TestNearestCorrelation:
    def test_pd_input_is_fixed_point(self):
        rng = np.random.default_rng(0)
        A = sample_correlation(rng.standard_normal((40, 10)))
        out = nearest_correlation(A)
        assert np.linalg.norm(out - A) <= 1e-6

    def test_identity(self):
        out = nearest_correlation(np.eye(6))
        assert np.allclose(out, np.eye(6), atol=1e-12)

    def test_indefinite_input_repaired_better_than_clipping(self):
        A = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        assert np.linalg.eigvalsh(A)[0] < 0
        out = nearest_correlation(A)
        assert np.all(np.diag(out) == 1.0)
        assert np.linalg.eigvalsh(out)[0] >= -1e-8
        # at least as close as the naive repair, up to convergence tolerance
        # (for this symmetric input the two coincide)
        assert np.linalg.norm(out - A) <= np.linalg.norm(clipped_rescale(A) - A) + 1e-6

    def test_strictly_better_than_clipping_on_generic_inputs(self):
        rng = np.random.default_rng(13)
        strictly_better = 0
        for _ in range(10):
            B = rng.standard_normal((8, 8)) * 0.5
            A = (B + B.T) / 2
            np.fill_diagonal(A, 1.0)
            if np.linalg.eigvalsh(A)[0] >= 0:
                continue
            out = nearest_correlation(A)
            d_proj = np.linalg.norm(out - A)
            d_clip = np.linalg.norm(clipped_rescale(A) - A)
            assert d_proj <= d_clip + 1e-6
            strictly_better += d_proj < d_clip - 1e-4
        assert strictly_better >= 5

    def test_unit_diagonal_symmetry_and_floor(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            B = rng.standard_normal((12, 12)) * 0.4
            A = (B + B.T) / 2
            np.fill_diagonal(A, 1.0)
            out = nearest_correlation(A)
            assert np.all(np.diag(out) == 1.0)
            assert np.array_equal(out, out.T)
            assert np.linalg.eigvalsh(out)[0] >= -1e-8

    def test_iteration_cap_raises_with_payload(self):
        A = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ConvergenceError) as exc:
            nearest_correlation(A, PsdConfig(max_iter=1))
        assert exc.value.last_iterate.shape == (3, 3)
        assert exc.value.change > 0

    def test_iterates_move_monotonically_toward_feasible_set(self):
        # Dykstra iterates start at the input and walk out to the
        # intersection, so their distance to the input never decreases
        rng = np.random.default_rng(2)
        B = rng.standard_normal((20, 20)) * 0.3
        A = (B + B.T) / 2
        np.fill_diagonal(A, 1.0)
        dists = []
        nearest_correlation(A, callback=lambda Y: dists.append(np.linalg.norm(Y - A)))
        assert len(dists) > 2
        assert np.all(np.diff(dists) >= -1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PsdConfig(tol=0.0)
        with pytest.raises(ValueError):
            PsdConfig(tol=float("nan"))
        with pytest.raises(ValueError):
            PsdConfig(max_iter=0)


class TestInvSqrt:
    def test_identity(self):
        res = inv_sqrt(np.eye(5), 0.5)
        assert np.allclose(res.matrix, np.eye(5), atol=1e-12)
        assert res.kept == 5 and res.dropped == 0

    def test_small_eigenvalue_dropped(self):
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        S = (Q * np.array([4.0, 0.04])) @ Q.T
        res = inv_sqrt(S, 0.1)
        expected = (Q * np.array([0.5, 0.0])) @ Q.T
        assert np.allclose(res.matrix, expected, atol=1e-12)
        assert res.kept == 1 and res.dropped == 1

    def test_exact_inverse_square_root_when_nothing_dropped(self):
        from blockcov.simulate import ScenarioSpec, build_scenario
        truth = build_scenario(ScenarioSpec("diagonal-equal", 20, seed=0))
        t = 0.5 * np.linalg.eigvalsh(truth.Sigma)[0]
        res = inv_sqrt(truth.Sigma, t)
        assert res.dropped == 0
        err = np.linalg.norm(res.matrix @ truth.Sigma @ res.matrix - np.eye(20))
        assert err <= 1e-8

    def test_inverse_relation_at_zero_threshold(self):
        rng = np.random.default_rng(4)
        M = sample_correlation(rng.standard_normal((50, 8)))
        W = inv_sqrt(M, 0.0).matrix
        Minv = np.linalg.inv(M)
        assert np.linalg.norm(W @ W - Minv) <= 1e-6 * np.linalg.norm(Minv)

    def test_invariant_under_eigenvector_sign_flips(self):
        # rebuild the input from a sign-flipped eigenbasis; the result only
        # depends on the spectral projectors
        rng = np.random.default_rng(5)
        M = sample_correlation(rng.standard_normal((30, 6)))
        w, V = np.linalg.eigh(M)
        V_flipped = V * np.where(np.arange(6) % 2 == 0, -1.0, 1.0)
        M2 = (V_flipped * w) @ V_flipped.T
        r1 = inv_sqrt(M, 0.05)
        r2 = inv_sqrt(M2, 0.05)
        assert np.allclose(r1.matrix, r2.matrix, atol=1e-10)
        assert (r1.kept, r1.dropped) == (r2.kept, r2.dropped)

    def test_kept_plus_dropped(self):
        rng = np.random.default_rng(6)
        M = sample_correlation(rng.standard_normal((9, 7)))
        res = inv_sqrt(M, 0.2)
        assert res.kept + res.dropped == 7
        assert isinstance(res, InvSqrtResult)


class TestWhiteningError:
    def test_exact_inverse_root_scores_zero(self):
        rng = np.random.default_rng(7)
        M = sample_correlation(rng.standard_normal((40, 6)))
        W = inv_sqrt(M, 0.0).matrix
        assert whitening_error(W, M) <= 1e-8

    def test_identity_pair(self):
        assert whitening_error(np.eye(4), np.eye(4)) == 0.0

    def test_single_entry_difference(self):
        assert whitening_error(np.eye(2), np.diag([2.0, 1.0])) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            whitening_error(np.eye(3), np.eye(4))
