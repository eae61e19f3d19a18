import itertools
import threading

import numpy as np
import pytest

import blockcov.lowrank
import blockcov.sparsify
from blockcov._rng import STREAM_BL, substream
from blockcov.cli import main
from blockcov.corr import build_gamma, sample_correlation, vech
from blockcov.io import write_matrix_csv
from blockcov.lowrank import _THREADS_MIN_Q, truncate_rank
from blockcov.pipeline import PipelineConfig, PipelineError, estimate
from blockcov.simulate import ScenarioSpec, build_scenario, sample_gaussian
from blockcov.sparsify import (_one_ahead, candidate_lambdas, default_train_size,
                               hard_threshold, select_lambda_bl, select_lambda_elbow,
                               soft_threshold, sparse_sigma, support_lambda)


def scan_oracle(y, lam, soft):
    out = np.zeros_like(y)
    for j, v in enumerate(y):
        if abs(v) > lam / 2:
            out[j] = v * (1 - lam / (2 * abs(v))) if soft else v
    return out


def gather_threshold(y, lam):
    # the earlier body of hard_threshold: zeros, then a boolean-mask scatter
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    keep = np.abs(y) > lam / 2
    out[keep] = y[keep]
    return out


def where_threshold(y, lam):
    # the np.where body hard_threshold had before its bit-mask select
    y = np.asarray(y, dtype=float)
    return np.where(np.abs(y) > lam / 2, y, 0.0)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


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

    @pytest.mark.parametrize("lam", [0.0, 0.6, 1.0, 3.0, 5e-324, np.inf])
    def test_hard_matches_the_gather_reference_bit_for_bit(self, lam):
        # signed zeros, NaN, infinities and entries exactly at lambda/2
        y = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.3, -0.3, 0.5, -0.5,
                      1.5, -1.5, 0.29999999999999993, 5e-324, -5e-324, 2.0])
        got = hard_threshold(y, lam)
        assert_same_bits(got, gather_threshold(y, lam))
        assert not np.any(np.signbit(got[got == 0]))
        assert np.array_equal(got[np.abs(y) > lam / 2], y[np.abs(y) > lam / 2])

    @pytest.mark.parametrize("y", [np.float64(-0.5), -0.5, 0.25, -0.0, [1, -2, 0, 3],
                                   np.array([]), np.arange(6, dtype=np.int64).reshape(2, 3)])
    def test_hard_matches_the_gather_reference_on_any_shape(self, y):
        for lam in (0.0, 0.5, 1.0, 4.0):
            assert_same_bits(hard_threshold(y, lam), gather_threshold(y, lam))

    @pytest.mark.parametrize("lam", [0.0, 5e-324, 0.4, np.inf])
    def test_hard_matches_np_where_bit_for_bit(self, lam):
        # signed zeros, NaN, infinities, subnormals and entries exactly at lambda/2
        y = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                      0.2, -0.2, 0.7, -0.7, 0.19999999999999998])
        got = hard_threshold(y, lam)
        assert np.array_equal(got.view(np.int64), where_threshold(y, lam).view(np.int64))
        assert got.flags.writeable and not np.shares_memory(got, y)

    @pytest.mark.parametrize("y", [np.float64(-0.5), 0.25, -0.0, np.nan,
                                   np.linspace(-1, 1, 12).reshape(3, 4),
                                   np.linspace(-1, 1, 12).reshape(3, 4).T,
                                   np.linspace(-1, 1, 24)[::-3]],
                             ids=["0d-numpy", "0d-float", "0d-neg-zero", "0d-nan", "2d",
                                  "2d-transposed", "strided"])
    def test_hard_matches_np_where_on_any_layout(self, y):
        for lam in (0.0, 5e-324, 0.4, 1.0, np.inf):
            got = hard_threshold(y, lam)
            want = where_threshold(y, lam)
            assert isinstance(got, np.ndarray) and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert not np.shares_memory(got, y)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            hard_threshold(np.array([1.0]), -0.1)
        with pytest.raises(ValueError):
            soft_threshold(np.array([1.0]), -0.1)

    @pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
    @pytest.mark.parametrize("threshold", [hard_threshold, soft_threshold],
                             ids=["hard", "soft"])
    def test_boolean_lambda_is_not_a_number(self, threshold, value):
        with pytest.raises(ValueError, match=r"lambda must be a number, got (np\.)?True"):
            threshold(np.array([1.0]), value)


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
        for y in (np.array([]), []):
            with pytest.raises(ValueError, match="empty coefficient vector"):
                candidate_lambdas(y)

    @pytest.mark.parametrize("max_grid", [1, 2.5, True])
    def test_rejects_bad_max_grid(self, max_grid):
        with pytest.raises(ValueError, match="max_grid"):
            candidate_lambdas(np.array([0.3, -0.5, 0.1]), max_grid=max_grid)


class TestSupportLambda:
    def test_hits_target_sizes(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(40)
        for size in (0, 1, 7, 39, 40, 50):
            lam = support_lambda(y, size)
            got = int(np.count_nonzero(hard_threshold(y, lam)))
            assert got == min(size, 40)

    @pytest.mark.parametrize("size", [-1, 1.5, True])
    def test_rejects_bad_size(self, size):
        with pytest.raises(ValueError, match="size"):
            support_lambda(np.array([0.3, -0.5, 0.1]), size)


class TestSparseSigma:
    def test_identity_pass_through(self):
        rng = np.random.default_rng(4)
        R = sample_correlation(rng.standard_normal((30, 8)))
        S = sparse_sigma(vech(build_gamma(R)), 0.0, 8)
        assert np.allclose(S, R, atol=1e-15)

    def test_everything_thresholded(self):
        rng = np.random.default_rng(5)
        R = sample_correlation(rng.standard_normal((10, 6)))
        lam = 2 * np.abs(vech(build_gamma(R))).max() + 0.1
        assert np.array_equal(sparse_sigma(vech(build_gamma(R)), lam, 6), np.eye(6))

    def test_exact_scenario_support_at_half(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 40, seed=0))
        S = sparse_sigma(vech(build_gamma(truth.Sigma)), 0.5, 40)
        got = S != 0
        np.fill_diagonal(got, False)
        assert np.array_equal(got, truth.support)

    def test_q_must_be_an_integer(self):
        y = vech(build_gamma(sample_correlation(np.random.default_rng(7).standard_normal((10, 3)))))
        with pytest.raises(ValueError, match="q must be an integer, got 3.0"):
            sparse_sigma(y, 0.1, 3.0)

    def test_support_size_non_increasing_in_lambda(self):
        rng = np.random.default_rng(6)
        y = vech(build_gamma(sample_correlation(rng.standard_normal((12, 10)))))
        sizes = []
        for lam in np.linspace(0, 2.1, 25):
            S = sparse_sigma(y, lam, 10)
            sizes.append(np.count_nonzero(np.triu(S, 1)))
        assert np.all(np.diff(sizes) <= 0)


def elbow_oracle(R, G_r, grid):
    # full-matrix criterion and an lstsq breakpoint scan, sharing the vertex
    q = R.shape[0]
    y = vech(G_r)
    curve = np.array([np.linalg.norm(R - sparse_sigma(y, lam, q)) for lam in grid])
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


def criterion_oracle(rvec, y, grid):
    # per-grid definition: threshold, clip and compare again at every grid point
    curve, support = [], []
    for lam in grid:
        b = np.clip(hard_threshold(y, lam), -1.0, 1.0)
        curve.append(np.sqrt(2.0 * float((rvec - b) @ (rvec - b))))
        support.append(np.count_nonzero(b))
    return np.array(curve), np.array(support)


def symmetric(B):
    return np.triu(B) + np.triu(B, 1).T


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
            sel = select_lambda_elbow(vech(build_gamma(R)), vech(G_r), grid)
            lam_ref, curve_ref = elbow_oracle(R, G_r, grid)
            assert sel.lam == lam_ref
            assert np.allclose(sel.trace["criterion"], curve_ref, atol=1e-10)

    @pytest.mark.parametrize("m, seed", [(11, 0), (39, 1), (120, 2)])
    def test_sorted_curve_matches_per_grid_definition(self, m, seed):
        # entries beyond [-1, 1] exercise the clip, exact zeros and repeated
        # magnitudes sit on the cut. The candidate grids put every point on
        # some 2|y_j|; the linspace grid puts its inner points between them,
        # and the last two grids repeat a point and start above 0.
        rng = np.random.default_rng(seed)
        rvec = vech(symmetric(rng.uniform(-1.0, 1.0, size=(m, m))))
        B = rng.uniform(-1.6, 1.6, size=(m, m))
        B[rng.random((m, m)) < 0.2] = 0.0
        B[rng.random((m, m)) < 0.1] = 0.5
        y = vech(symmetric(B))
        assert np.any(np.abs(y) > 1) and np.any(y == 0)
        full, coarse = candidate_lambdas(y, max_grid=y.size + 1), candidate_lambdas(y, max_grid=17)
        assert all(np.all(np.isin(grid[1:] / 2, np.abs(y))) for grid in (full, coarse))
        between = np.linspace(0.0, 3.3, 23)
        assert not np.any(np.isin(between[1:-1] / 2, np.abs(y)))
        repeated = np.sort(np.append(coarse, coarse[5]))
        for grid in (full, coarse, between, repeated, coarse[3:]):
            sel = select_lambda_elbow(rvec, y, grid)
            curve, support = criterion_oracle(rvec, y, grid)
            assert np.allclose(sel.trace["criterion"], curve, rtol=1e-12, atol=0)
            assert np.array_equal(sel.trace["support_size"], support)

    def test_linear_curve_ties_to_smallest(self):
        from blockcov._twoline import two_segment_scan
        curve = np.linspace(1.0, 5.0, 10)
        breaks = np.arange(1, 9)
        rss = two_segment_scan(curve, breaks)
        assert int(breaks[np.argmin(rss)]) == 1

    def test_criterion_non_decreasing_for_full_rank(self):
        rng = np.random.default_rng(8)
        R = sample_correlation(rng.standard_normal((14, 9)))
        rvec = vech(build_gamma(R))
        grid = candidate_lambdas(rvec, max_grid=30)
        sel = select_lambda_elbow(rvec, rvec, grid)
        assert np.all(np.diff(sel.trace["criterion"]) >= -1e-12)

    def test_grid_too_short(self):
        y = vech(build_gamma(np.eye(4)))
        with pytest.raises(ValueError, match="4 points"):
            select_lambda_elbow(y, y, np.array([0.0, 0.1, 0.2]))

    @pytest.mark.parametrize("grid, match", [
        ([0.0, 0.1, np.nan, 0.3, 0.5], "non-negative, not NaN"),
        ([-0.1, 0.1, 0.2, 0.3, 0.5], "non-negative, not NaN"),
        ([0.0, 0.3, 0.2, 0.4, 0.5], "grid must be ascending"),
    ], ids=["nan", "negative", "descending"])
    def test_bad_grid_rejected(self, grid, match):
        y = np.random.default_rng(14).uniform(-1.0, 1.0, 10)
        with pytest.raises(ValueError, match=match):
            select_lambda_elbow(y, y, grid)

    def test_infinite_grid_point_drops_everything(self):
        rng = np.random.default_rng(15)
        rvec, y = rng.uniform(-1.0, 1.0, 10), rng.uniform(-1.0, 1.0, 10)
        sel = select_lambda_elbow(rvec, y, [0.0, 0.2, 0.4, 0.6, np.inf])
        assert sel.trace["support_size"][-1] == 0
        assert sel.trace["criterion"][-1] == pytest.approx(np.sqrt(2.0 * rvec @ rvec), rel=1e-15)

    @pytest.mark.parametrize("rvec, y", [
        (np.zeros(6), np.zeros(5)),
        (np.zeros((2, 3)), np.zeros((2, 3))),
    ], ids=["two-lengths", "matrices"])
    def test_vectors_must_match(self, rvec, y):
        with pytest.raises(ValueError, match="1-d vectors of one length"):
            select_lambda_elbow(rvec, y, np.array([0.0, 0.1, 0.2, 0.3]))


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
            losses[k] += np.linalg.norm(sparse_sigma(vech(G_r), lam, q) - R2) ** 2
    return grid[int(np.argmin(losses))], losses


def bl_loss_reference(X, r, grid, n_splits, seed, truncate=truncate_rank):
    # the per-grid loss loop as first written: gather threshold, clip, and
    # the difference formed twice; also returns max |y1| of each split
    n = X.shape[0]
    loss, peaks = np.zeros(grid.size), []
    for i in range(n_splits):
        train = substream(seed, STREAM_BL, i).permutation(n)[:default_train_size(n)]
        mask = np.zeros(n, dtype=bool)
        mask[train] = True
        y1 = vech(truncate(build_gamma(sample_correlation(X[mask])), r))
        rvec2 = vech(build_gamma(sample_correlation(X[~mask])))
        peaks.append(np.abs(y1).max())
        for k, lam in enumerate(grid):
            b = np.clip(gather_threshold(y1, lam), -1.0, 1.0)
            loss[k] += 2.0 * float((b - rvec2) @ (b - rvec2))
    return loss, np.array(peaks)


def assert_bl_matches_reference(q, data_seed):
    X = sample_gaussian(build_scenario(ScenarioSpec("extra-diagonal-unequal", q,
                                                    seed=data_seed)), 30, seed=data_seed)
    grid = candidate_lambdas(vech(truncate_rank(build_gamma(sample_correlation(X)), 5)))
    sel = select_lambda_bl(X, 5, grid, n_splits=5, seed=0)
    loss, peaks = bl_loss_reference(X, 5, grid, 5, 0)
    # one split's truncation leaves [-1, 1], so the clip changes its loss
    assert np.any(peaks > 1.0) and np.any(peaks <= 1.0)
    assert np.array_equal(sel.trace["loss"], loss)
    assert sel.lam == grid[int(np.argmin(loss))]
    assert sel.trace["splits"] == 5


class TestSelectLambdaBL:
    def test_empty_grid_rejected(self):
        X = np.random.default_rng(3).standard_normal((10, 6))
        with pytest.raises(ValueError, match="empty threshold grid"):
            select_lambda_bl(X, 2, [])

    def test_loss_is_bit_identical_to_the_reference_loop(self):
        assert 60 < _THREADS_MIN_Q  # the serial path
        assert_bl_matches_reference(60, 0)

    def test_threaded_loss_is_bit_identical_to_the_reference_loop(self, monkeypatch):
        assert 120 >= _THREADS_MIN_Q
        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: 2)
        # truncate_rank is looked up as a module global, so this wrapper sees
        # the thread each split is prepared on
        threads = []

        def recording(G, r):
            threads.append(threading.get_ident())
            return truncate_rank(G, r)

        monkeypatch.setattr(blockcov.sparsify, "truncate_rank", recording)
        assert_bl_matches_reference(120, 4)
        assert len(threads) == 6  # five splits and the full-data support count
        assert threading.get_ident() not in threads[:5] and threads[5] == threading.get_ident()

    def test_one_cpu_prepares_every_split_on_this_thread(self, monkeypatch):
        assert 120 >= _THREADS_MIN_Q
        X = sample_gaussian(build_scenario(ScenarioSpec("extra-diagonal-unequal", 120, seed=4)),
                            30, seed=4)
        grid = candidate_lambdas(vech(truncate_rank(build_gamma(sample_correlation(X)), 5)))
        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: 2)
        threaded = select_lambda_bl(X, 5, grid, n_splits=5, seed=0)
        seen = []

        def recording(G, r):
            seen.append((threading.get_ident(), threading.active_count()))
            return truncate_rank(G, r)

        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: 1)
        monkeypatch.setattr(blockcov.sparsify, "truncate_rank", recording)
        before = threading.active_count()
        serial = select_lambda_bl(X, 5, grid, n_splits=5, seed=0)
        assert seen == [(threading.get_ident(), before)] * 6  # five splits and the support count
        assert (threaded.trace["threads"], serial.trace["threads"]) == (2, 1)
        assert np.array_equal(serial.trace["loss"], threaded.trace["loss"])

    def test_one_split_is_prepared_on_this_thread(self, monkeypatch):
        # a worker could overlap nothing: the caller would only wait for it
        assert 120 >= _THREADS_MIN_Q
        X = sample_gaussian(build_scenario(ScenarioSpec("extra-diagonal-unequal", 120, seed=4)),
                            30, seed=4)
        grid = candidate_lambdas(vech(truncate_rank(build_gamma(sample_correlation(X)), 5)))
        seen = []

        def recording(G, r):
            seen.append((threading.get_ident(), threading.active_count()))
            return truncate_rank(G, r)

        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: 2)
        monkeypatch.setattr(blockcov.sparsify, "truncate_rank", recording)
        before = threading.active_count()
        sel = select_lambda_bl(X, 5, grid, n_splits=1, seed=0)
        loss, _ = bl_loss_reference(X, 5, grid, 1, 0)
        assert seen == [(threading.get_ident(), before)] * 2  # the split and the support count
        assert sel.trace["threads"] == 1
        assert np.array_equal(sel.trace["loss"], loss)

    @pytest.mark.parametrize("q", [40, 120], ids=["serial", "threaded"])
    def test_clip_at_and_beyond_one_matches_the_reference_loop(self, monkeypatch, q):
        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: 2)
        # the truncation of every split gets entries exactly at +-1, which stay,
        # and entries beyond, which are clipped while kept; the grid points
        # from 2 on drop them one by one
        def skewed(G, r):
            Gr = truncate_rank(G, r)
            for (i, j), v in {(0, 1): 1.0, (0, 2): -1.0, (1, 3): 1.5, (2, 4): -2.5}.items():
                Gr[i, j] = Gr[j, i] = v
            return Gr

        monkeypatch.setattr(blockcov.sparsify, "truncate_rank", skewed)
        X = sample_gaussian(build_scenario(ScenarioSpec("extra-diagonal-unequal", q, seed=1)),
                            30, seed=1)
        grid = np.array([0.0, 0.5, 1.0, 1.9, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0])
        sel = select_lambda_bl(X, 5, grid, n_splits=5, seed=0)
        loss, peaks = bl_loss_reference(X, 5, grid, 5, 0, truncate=skewed)
        assert np.all(peaks == 2.5)
        assert np.array_equal(sel.trace["loss"], loss)
        assert sel.lam == grid[int(np.argmin(loss))]
        assert sel.trace["threads"] == (2 if q >= _THREADS_MIN_Q else 1)

    @pytest.mark.parametrize("q, cpus", [(40, 2), (120, 1), (120, 2)])
    def test_trace_counts_every_eigendecomposition(self, monkeypatch, q, cpus):
        X = sample_gaussian(build_scenario(ScenarioSpec("extra-diagonal-unequal", q, seed=2)),
                            20, seed=2)
        grid = candidate_lambdas(vech(truncate_rank(build_gamma(sample_correlation(X)), 5)))
        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: cpus)
        calls = []  # list.append is safe across the preparing thread
        eigh = np.linalg.eigh

        def counted(G):
            calls.append(G.shape)
            return eigh(G)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        sel = select_lambda_bl(X, 5, grid, n_splits=4, seed=0)
        # one truncation per split and one on the full data
        assert sel.trace["eigendecompositions"] == len(calls) == 5

    def test_singleton_grid(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 5))
        sel = select_lambda_bl(X, 2, np.array([0.0]), n_splits=3, seed=0)
        assert sel.lam == 0.0

    def test_exhaustive_splits_match_brute_force(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((6, 4))
        grid = np.array([0.0, 0.2, 0.5, 0.9, 1.5])
        splits = [substream(4, STREAM_BL, i).permutation(6)[:default_train_size(6)]
                  for i in range(150)]
        # the seeded splits visit every 3-of-6 training set
        assert {frozenset(s) for s in splits} == set(map(frozenset,
                                                       itertools.combinations(range(6), 3)))
        sel = select_lambda_bl(X, 2, grid, n_splits=150, seed=4)
        lam_ref, loss_ref = bl_oracle(X, 2, grid, splits)
        assert sel.lam == lam_ref
        assert np.allclose(sel.trace["loss"], loss_ref, rtol=1e-10)
        assert sel.trace["splits"] == 150

    def test_default_train_size_leaves_two_rows_on_each_side(self):
        for n in range(5, 2001):
            assert 2 <= default_train_size(n) <= n - 2, n

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
        with pytest.raises(ValueError, match="5 samples"):
            select_lambda_bl(rng.standard_normal((3, 4)), 2, np.array([0.0]))


class TestOneAhead:
    @pytest.mark.parametrize("threaded", [False, True])
    def test_yields_in_order(self, threaded):
        assert list(_one_ahead(lambda i: i * i, 6, threaded)) == [0, 1, 4, 9, 16, 25]
        assert list(_one_ahead(lambda i: i + 10, 1, threaded)) == [10]
        assert list(_one_ahead(lambda i: i, 0, threaded)) == []

    def test_next_item_is_computed_while_the_caller_works(self):
        second_started = threading.Event()

        def fn(i):
            if i == 1:
                second_started.set()
            return i

        for i in _one_ahead(fn, 3, threaded=True):
            if i == 0:
                assert second_started.wait(timeout=30)

    @pytest.mark.parametrize("threaded", [False, True])
    def test_exception_surfaces_at_its_index(self, threaded):
        before = threading.active_count()
        calls, got = [], []

        def fn(i):
            calls.append(i)
            if i == 2:
                raise ValueError("split 2 failed")
            return i

        with pytest.raises(ValueError, match="split 2 failed"):
            for item in _one_ahead(fn, 6, threaded):
                got.append(item)
        assert got == [0, 1] and calls == [0, 1, 2]
        assert threading.active_count() == before

    @pytest.mark.parametrize("threaded", [False, True])
    def test_consumer_that_stops_early_leaves_no_thread(self, threaded):
        before = threading.active_count()
        calls = []
        items = _one_ahead(lambda i: calls.append(i) or i, 10, threaded)
        assert next(items) == 0
        items.close()
        # at most the one split prepared ahead was computed
        assert calls == ([0, 1] if threaded else [0])
        assert threading.active_count() == before
        for item in _one_ahead(lambda i: i, 10, threaded):
            if item == 3:
                break
        assert threading.active_count() == before


class TestFailingSplit:
    # column 7 is constant except in row 0, so every split has a zero-variance
    # column on its training or its held-out side; q = 120 takes the threaded path
    @pytest.fixture
    def X(self):
        X = np.random.default_rng(13).standard_normal((10, 120))
        X[:, 7] = 0.5
        X[0, 7] = 1.5
        return X

    @pytest.mark.parametrize("min_q", [_THREADS_MIN_Q, 10 ** 9], ids=["threaded", "serial"])
    def test_selector_raises_the_split_error(self, X, monkeypatch, min_q):
        monkeypatch.setattr(blockcov.lowrank, "_THREADS_MIN_Q", min_q)
        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: 2)
        before = threading.active_count()
        with pytest.raises(ValueError, match="column 7 has zero sample variance"):
            select_lambda_bl(X, 3, np.array([0.0, 0.5]), n_splits=4, seed=0)
        assert threading.active_count() == before

    def test_pipeline_names_the_step(self, X):
        before = threading.active_count()
        with pytest.raises(PipelineError, match="lambda-selection") as exc:
            estimate(X, PipelineConfig(rank_method=3, lambda_method="bl"))
        assert "column 7 has zero sample variance" in str(exc.value)
        assert threading.active_count() == before

    def test_cli_exits_one(self, X, tmp_path, capsys):
        before = threading.active_count()
        write_matrix_csv(tmp_path / "X.csv", X)
        assert main(["estimate", "--input", str(tmp_path / "X.csv"), "--rank", "3",
                     "--lambda", "bl"]) == 1
        assert "lambda-selection" in capsys.readouterr().err
        assert threading.active_count() == before
