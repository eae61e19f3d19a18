import numpy as np
import pytest

import blockcov.psd
from blockcov.corr import sample_correlation
from blockcov.pipeline import PipelineConfig, select
from blockcov.psd import (_CG_SHIFT, DIAG_TOL, EIG_FLOOR, ConvergenceError, InvSqrtResult,
                          _Dual, inv_sqrt, nearest_correlation)
from blockcov.simulate import ScenarioSpec, build_scenario, sample_gaussian
from blockcov.sparsify import sparse_sigma


def clipped_rescale(A):
    # the naive repair: clip eigenvalues at zero, rescale to unit diagonal
    w, V = np.linalg.eigh(A)
    M = (V * np.maximum(w, 0)) @ V.T
    d = np.sqrt(np.diag(M))
    M = M / np.outer(d, d)
    np.fill_diagonal(M, 1.0)
    return M


def naive_dykstra(A, tol=1e-9, max_iter=5000, callback=None):
    # Reference: alternating projections with Dykstra's correction between the
    # PSD cone and the unit-diagonal matrices, until the relative change of the
    # iterate is at most tol, then the library's eigenvalue floor and rescale.
    Y = A.copy()
    correction = np.zeros_like(A)
    for _ in range(max_iter):
        R = Y - correction
        w, V = np.linalg.eigh(R)
        X = (V * np.maximum(w, 0.0)) @ V.T
        correction = X - R
        Y_new = X
        np.fill_diagonal(Y_new, 1.0)
        change = np.linalg.norm(Y_new - Y) / np.linalg.norm(Y_new)
        Y = Y_new
        if callback is not None:
            callback(Y)
        if change <= tol:
            break
    else:
        raise AssertionError("reference projection did not converge")
    w, V = np.linalg.eigh(Y)
    M = (V * np.maximum(w, EIG_FLOOR * w[-1])) @ V.T
    M = (M + M.T) / 2
    d = np.sqrt(np.diag(M))
    M /= np.outer(d, d)
    np.fill_diagonal(M, 1.0)
    return M


def pipeline_s_tilde(scenario, q, n, seed):
    # the projection's input in the pipeline: thresholded cattell + elbow estimate
    truth = build_scenario(ScenarioSpec(scenario, q, seed=seed))
    sel = select(sample_gaussian(truth, n, seed=seed), PipelineConfig(seed=seed))
    return sparse_sigma(sel.y, sel.lam.lam, q)


def random_inputs():
    rng = np.random.default_rng(11)
    for q in (3, 5, 8, 13, 21, 34, 40):
        yield f"pd-{q}", sample_correlation(rng.standard_normal((3 * q, q)))
        B = rng.standard_normal((q, q)) * 0.5
        A = (B + B.T) / 2
        np.fill_diagonal(A, 1.0)
        yield f"perturbed-{q}", A
        # constant off-diagonal above 1: about one positive eigenvalue, q - 1 negative
        A = 1.3 + (B + B.T) * 0.05
        np.fill_diagonal(A, 1.0)
        yield f"mostly-negative-{q}", A
    yield "s-tilde-100", pipeline_s_tilde("extra-diagonal-unequal", 100, 30, 0)


class TestNearestCorrelation:
    def test_pd_input_is_fixed_point(self):
        rng = np.random.default_rng(0)
        A = sample_correlation(rng.standard_normal((40, 10)))
        out = nearest_correlation(A).matrix
        assert np.linalg.norm(out - A) <= 1e-6

    def test_identity(self):
        out = nearest_correlation(np.eye(6)).matrix
        assert np.allclose(out, np.eye(6), atol=1e-12)

    def test_indefinite_input_repaired_better_than_clipping(self):
        A = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        assert np.linalg.eigvalsh(A)[0] < 0
        out = nearest_correlation(A).matrix
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
            out = nearest_correlation(A).matrix
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
            out = nearest_correlation(A).matrix
            assert np.all(np.diag(out) == 1.0)
            assert np.array_equal(out, out.T)
            assert np.linalg.eigvalsh(out)[0] >= -1e-8

    def test_iteration_cap_raises(self, monkeypatch):
        # one Newton step leaves a diagonal gap of ~7e-11 on this input
        monkeypatch.setattr(blockcov.psd, "DIAG_TOL", 1e-12)
        A = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        monkeypatch.setattr(blockcov.psd, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError, match="1 Newton steps"):
            nearest_correlation(A)
        monkeypatch.setattr(blockcov.psd, "MAX_NEWTON_STEPS", 2)
        assert nearest_correlation(A).newton_steps == 2

    def test_failed_line_search_names_the_newton_step(self, monkeypatch):
        # demand more decrease than any step gives, and allow no step shortening
        monkeypatch.setattr(blockcov.psd, "_ARMIJO", 1e6)
        monkeypatch.setattr(blockcov.psd, "_MIN_STEP", 1.0)
        A = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(ConvergenceError, match="line search failed at Newton step 1"):
            nearest_correlation(A)

    def test_iterates_move_monotonically_toward_feasible_set(self):
        # the reference's Dykstra iterates start at the input and walk out to
        # the intersection, so their distance to the input never decreases
        rng = np.random.default_rng(2)
        B = rng.standard_normal((20, 20)) * 0.3
        A = (B + B.T) / 2
        np.fill_diagonal(A, 1.0)
        dists = []
        naive_dykstra(A, callback=lambda Y: dists.append(np.linalg.norm(Y - A)))
        assert len(dists) > 2
        assert np.all(np.diff(dists) >= -1e-12)

    @pytest.mark.parametrize("A", [pytest.param(A, id=name) for name, A in random_inputs()])
    def test_matches_naive_dykstra(self, A):
        ref = naive_dykstra(A)
        res = nearest_correlation(A)
        assert np.linalg.norm(res.matrix - ref) <= 1e-5 * np.linalg.norm(ref)
        assert res.diag_gap <= DIAG_TOL
        assert res.eigh_calls >= res.newton_steps + 1

    @pytest.mark.parametrize("offset", [0.0, 1.3], ids=["few-negative", "few-positive"])
    def test_jacobian_matches_finite_differences(self, offset):
        # away from zero eigenvalues the gradient diag((A + diag y)_+) - 1 is
        # smooth and the generalised Jacobian is its derivative; the two
        # offsets put the smaller side of the spectrum on either sign
        rng = np.random.default_rng(3)
        B = rng.standard_normal((15, 15)) * (0.3 if offset == 0.0 else 0.05)
        A = offset + (B + B.T) / 2
        np.fill_diagonal(A, 1.0)
        y, h, eps = 0.1 * rng.standard_normal(15), rng.standard_normal(15), 1e-6
        matvec, diag = _Dual(A, y).jacobian()
        fd = (_Dual(A, y + eps * h).grad - _Dual(A, y - eps * h).grad) / (2 * eps)
        assert np.allclose(matvec(h) - _CG_SHIFT * h, fd, atol=1e-7)
        full = np.column_stack([matvec(e) for e in np.eye(15)])
        assert np.allclose(np.diag(full), diag, atol=1e-12)

    @pytest.mark.parametrize("scenario, seed", [("extra-diagonal-equal", 7),
                                                ("extra-diagonal-unequal", 3),
                                                ("diagonal-equal", 3)])
    def test_tight_tolerance_converges_despite_rounding(self, scenario, seed, monkeypatch):
        # near the solution the Armijo decrease falls below the rounding error
        # of the dual objective; the line search must still accept the step
        monkeypatch.setattr(blockcov.psd, "DIAG_TOL", 1e-12)
        A = pipeline_s_tilde(scenario, 30, 12, seed)
        res = nearest_correlation(A)
        assert res.newton_steps <= 10
        assert res.diag_gap <= 1e-12

    def test_unreachable_tolerance_stops_at_the_default_cap(self, monkeypatch):
        # a gap of 1e-20 is below rounding, so only the cap of 50 steps ends the loop
        monkeypatch.setattr(blockcov.psd, "DIAG_TOL", 1e-20)
        A = pipeline_s_tilde("extra-diagonal-unequal", 30, 12, 3)
        with pytest.raises(ConvergenceError, match="within 50 Newton steps"):
            nearest_correlation(A)


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

    @pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_boolean_threshold_is_not_a_number(self, value):
        with pytest.raises(ValueError, match=r"threshold must be a number, got (np\.)?True"):
            inv_sqrt(np.eye(3), value)

    def test_kept_plus_dropped(self):
        rng = np.random.default_rng(6)
        M = sample_correlation(rng.standard_normal((9, 7)))
        res = inv_sqrt(M, 0.2)
        assert res.kept + res.dropped == 7
        assert isinstance(res, InvSqrtResult)



class TestSymmetricPart:
    # eigh reads one triangle only; both functions act on A/2 + A'/2 instead
    def test_nearest_correlation_of_a_skew_pair_is_the_identity(self):
        M = nearest_correlation([[1.0, 0.9], [-0.9, 1.0]]).matrix
        assert np.array_equal(M, np.eye(2))

    def test_inv_sqrt_reads_both_triangles(self):
        res = inv_sqrt([[2.0, 1.0], [0.0, 2.0]], 0.0)
        assert np.array_equal(res.matrix, inv_sqrt([[2.0, 0.5], [0.5, 2.0]], 0.0).matrix)
        assert res.matrix[0, 1] < 0

    @pytest.mark.parametrize("q", [5, 40])
    def test_non_symmetric_input_acts_as_its_symmetric_part(self, q):
        rng = np.random.default_rng(q)
        A = rng.uniform(-0.6, 0.6, size=(q, q))
        np.fill_diagonal(A, 1.0)
        assert not np.array_equal(A, A.T)
        sym = A / 2 + A.T / 2
        assert np.array_equal(nearest_correlation(A).matrix, nearest_correlation(sym).matrix)
        assert np.array_equal(inv_sqrt(A, 0.1).matrix, inv_sqrt(sym, 0.1).matrix)

    def test_symmetric_input_is_used_as_it_is(self):
        rng = np.random.default_rng(3)
        S = sample_correlation(rng.standard_normal((30, 12)))
        assert np.array_equal(S, S.T)
        assert blockcov.psd._check_input(S) is S

    def test_halving_first_cannot_overflow(self):
        big = np.finfo(float).max
        sym = blockcov.psd._check_input([[1.0, big], [big / 2, 1.0]])
        assert np.array_equal(sym, [[1.0, 0.75 * big], [0.75 * big, 1.0]])
