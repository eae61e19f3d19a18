import gc
import re
import tracemalloc

import numpy as np
import pytest

import blockcov.corr
from blockcov.corr import (_flat_positions, assemble_sigma, build_gamma, check_flag,
                           check_nonnegative, offdiag_indices, offdiag_vech, sample_correlation,
                           validate_observations, vech, vech_indices)
from blockcov.pipeline import PipelineConfig, estimate


def pearson_oracle(X):
    # direct double-loop summation, independent of the vectorized path
    n, q = X.shape
    R = np.empty((q, q))
    for i in range(q):
        for j in range(q):
            xi, xj = X[:, i], X[:, j]
            mi = sum(xi) / n
            mj = sum(xj) / n
            sij = sum((xi[k] - mi) * (xj[k] - mj) for k in range(n)) / (n - 1)
            sii = sum((xi[k] - mi) ** 2 for k in range(n)) / (n - 1)
            sjj = sum((xj[k] - mj) ** 2 for k in range(n)) / (n - 1)
            R[i, j] = sij / np.sqrt(sii * sjj)
    return R


class TestSampleCorrelation:
    def test_identical_columns(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(12)
        X = np.column_stack([col, col, rng.standard_normal(12)])
        R = sample_correlation(X)
        assert R[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_pair(self):
        X = np.array([[0.0, 0.0], [1.0, -1.0]])
        R = sample_correlation(X)
        assert R[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 10))
        assert np.allclose(sample_correlation(X), pearson_oracle(X), atol=1e-12)

    def test_diagonal_exactly_one_and_symmetric(self):
        rng = np.random.default_rng(2)
        R = sample_correlation(rng.standard_normal((8, 15)))
        assert np.all(np.diag(R) == 1.0)
        assert np.array_equal(R, R.T)
        assert np.all(np.abs(R) <= 1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 6))
        Y = X.copy()
        Y[:, 2] += 17.0
        Y[:, 4] *= 3.5
        assert np.max(np.abs(sample_correlation(X) - sample_correlation(Y))) <= 1e-12

    def test_zero_variance_column_names_index(self):
        X = np.ones((5, 3))
        X[:, 0] = np.arange(5)
        X[:, 2] = np.arange(5) ** 2
        with pytest.raises(ValueError, match="column 1"):
            sample_correlation(X)

    @pytest.mark.parametrize("value, n", [(0.1, 3), (0.1, 7), (0.1, 30), (0.7, 7),
                                          (100000.1, 7), (1 / 3, 7)])
    def test_constant_column_rejected_whatever_its_rounding(self, value, n):
        # the mean of n copies of 0.1 need not round to 0.1, so a variance pass
        # leaves a few ulps of spread on such a column
        X = np.random.default_rng(4).standard_normal((n, 4))
        X[:, 2] = value
        with pytest.raises(ValueError, match="column 2 has zero sample variance"):
            validate_observations(X)

    def test_spread_that_underflows_when_squared_correlates_as_scaled(self):
        # 1e-300 is no power-of-two multiple of 1, so allow the rounding of the
        # centred column; ldexp([1, 2, 3], -997) is one and keeps every bit
        X = np.random.default_rng(4).standard_normal((3, 3))
        Y = X.copy()
        Y[:, 1] = [1.0, 2.0, 3.0]
        R = sample_correlation(Y)
        X[:, 1] = [1e-300, 2e-300, 3e-300]
        assert np.allclose(sample_correlation(X), R, rtol=0, atol=4 * np.finfo(float).eps)
        X[:, 1] = np.ldexp(Y[:, 1], -997)
        assert np.array_equal(sample_correlation(X), R)

    @pytest.mark.parametrize("k", [-1000, -600, -530, 530, 600, 1000])
    def test_power_of_two_scale_keeps_every_bit(self, k):
        # squaring entries of 2**-530 loses bits, of 2**-600 underflows to zero,
        # and of 2**530 overflows; scaled columns must correlate as the data does
        X = np.random.default_rng(5).standard_normal((30, 12))
        R = sample_correlation(X)
        assert np.array_equal(sample_correlation(np.ldexp(X, k)), R)

    def test_column_whose_sum_overflows(self):
        X = np.random.default_rng(6).standard_normal((3, 3))
        Y = X.copy()
        X[:, 0] = [1.5e308, -1.5e308, 1e308]
        Y[:, 0] = [1.5, -1.5, 1.0]
        assert np.allclose(sample_correlation(X), sample_correlation(Y), rtol=0, atol=1e-15)

    def test_rejects_non_finite(self):
        X = np.ones((5, 3))
        X[:, 0] = np.arange(5)
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            validate_observations(X)

    def test_rejects_too_few_samples_or_variables(self):
        with pytest.raises(ValueError, match="2 samples"):
            validate_observations(np.ones((1, 4)))
        with pytest.raises(ValueError, match="2 variables"):
            validate_observations(np.arange(4.0)[:, None])


class TestBuildGamma:
    def test_q3_layout(self):
        r12, r13, r23 = 0.5, -0.2, 0.8
        R = np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])
        assert np.array_equal(build_gamma(R), np.array([[r12, r13], [r13, r23]]))

    def test_q2_smallest_case(self):
        R = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(build_gamma(R), np.array([[0.3]]))

    def test_identity_gives_zero(self):
        assert np.array_equal(build_gamma(np.eye(5)), np.zeros((4, 4)))

    def test_enumerates_upper_triangle_once(self):
        # position bookkeeping: vech(gamma) entry k must read R[cols[k], rows[k]+1],
        # and those targets must cover every strictly-upper position exactly once
        q = 9
        rows, cols = vech_indices(q - 1)
        targets = list(zip(cols.tolist(), (rows + 1).tolist()))
        assert len(targets) == len(set(targets)) == q * (q - 1) // 2
        assert set(targets) == {(i, j) for i in range(q) for j in range(q) if i < j}
        rng = np.random.default_rng(4)
        R = sample_correlation(rng.standard_normal((20, q)))
        v = vech(build_gamma(R))
        assert np.array_equal(v, np.array([R[i, j] for i, j in targets]))


class TestOffdiagVech:
    @pytest.mark.parametrize("q", [2, 3, 57])
    def test_equals_vech_of_gamma(self, q):
        R = sample_correlation(np.random.default_rng(q).standard_normal((12, q)))
        assert np.array_equal(offdiag_vech(R), vech(build_gamma(R)))

    def test_reads_where_assemble_sigma_writes(self):
        rows, cols = offdiag_indices(6)
        v = np.arange(1.0, 16.0)
        S = assemble_sigma(v, 6)
        assert np.array_equal(S[rows, cols], v) and np.array_equal(offdiag_vech(S), v)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            offdiag_vech(np.ones((2, 3)))


class TestVech:
    def test_one_by_one(self):
        assert np.array_equal(vech(np.array([[4.2]])), np.array([4.2]))

    def test_two_by_two(self):
        A = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(vech(A), np.array([1.0, 2.0, 5.0]))

    def test_length_for_q199_gamma(self):
        m = 198  # gamma side for q = 199 variables
        rows, cols = vech_indices(m)
        assert rows.size == m * (m + 1) // 2 == 19701

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            vech(np.ones((2, 3)))


def _vech_reference(m):
    rows, cols = np.triu_indices(m)
    return cols, rows


class TestIndexMaps:
    @pytest.mark.parametrize("index_map, reference", [
        (vech_indices, _vech_reference), (offdiag_indices, lambda m: np.triu_indices(m, 1)),
    ], ids=["vech_indices", "offdiag_indices"])
    def test_built_once_and_read_only(self, index_map, reference):
        # the cache holds one position array per layout and size, and nothing else
        _flat_positions.cache_clear()
        built = []

        def counting(m):
            built.append(m)
            return index_map(m)

        pos = _flat_positions(counting, 7)
        assert _flat_positions(counting, 7) is pos and built == [7]
        assert _flat_positions.cache_info().currsize == 1
        with pytest.raises(ValueError, match="read-only"):
            pos[0] = 1
        rows, cols = index_map(7)
        assert np.array_equal(pos, rows * 7 + cols)
        # the pair map itself is not cached: fresh, writable arrays each call
        assert not hasattr(index_map, "cache_info")
        assert index_map(7)[0] is not rows and index_map(7)[1] is not cols
        assert rows.flags.writeable and cols.flags.writeable
        expected = reference(7)
        assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])

    def test_an_estimate_builds_each_size_once(self, monkeypatch):
        built = {"vech": [], "offdiag": []}
        monkeypatch.setattr(blockcov.corr, "vech_indices",
                            lambda m: built["vech"].append(m) or vech_indices(m))
        monkeypatch.setattr(blockcov.corr, "offdiag_indices",
                            lambda q: built["offdiag"].append(q) or offdiag_indices(q))
        X = np.random.default_rng(8).standard_normal((12, 9))
        cfg = PipelineConfig(rank_method="pa", lambda_method="bl")
        for _ in range(2):
            estimate(X, cfg)
        assert built == {"vech": [8], "offdiag": [9]}

    @pytest.mark.parametrize("rank, lam", [("cattell", "elbow"), ("pa", "bl")])
    def test_an_estimate_leaves_one_q_squared_allocated(self, rank, lam):
        # after one estimate only the two position arrays, q(q-1)/2 int64 each, stay
        q = 120
        X = np.random.default_rng(9).standard_normal((30, q))
        cfg = PipelineConfig(rank_method=rank, lambda_method=lam)
        estimate(X, cfg)  # warm-up: first-call state of numpy and the interpreter
        _flat_positions.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            est = estimate(X, cfg)
            del est
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert left <= 1.1 * q * q * 8

    def test_gathers_match_the_index_pairs_on_any_layout(self):
        A = np.random.default_rng(6).standard_normal((8, 8))
        for M in (A, A.T, np.asfortranarray(A), A[::2, ::2], A[1:, :-1]):
            m = M.shape[0]
            assert np.array_equal(vech(M), M[vech_indices(m)])
            assert np.array_equal(offdiag_vech(M), M[offdiag_indices(m)])


class TestAssembleSigma:
    def test_zeros_give_identity(self):
        assert np.array_equal(assemble_sigma(np.zeros(6), 4), np.eye(4))

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(5)
        for q in (2, 3, 7, 20):
            R = sample_correlation(rng.standard_normal((25, q)))
            back = assemble_sigma(vech(build_gamma(R)), q)
            assert np.array_equal(back, R)

    def test_negative_zero_reaches_both_triangles(self):
        S = assemble_sigma(np.array([-0.0, 0.5, -0.0]), 3)
        assert np.array_equal(np.signbit(S), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_single_entry_placement(self):
        S = assemble_sigma(np.array([0.7, 0.0, 0.0]), 3)
        expected = np.array([[1.0, 0.7, 0.0], [0.7, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(S, expected)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="q\\(q-1\\)/2"):
            assemble_sigma(np.zeros(5), 4)

    @pytest.mark.parametrize("v, q", [(np.ones(3), 3.0), (np.ones(0), True)], ids=["float", "bool"])
    def test_q_must_be_an_integer(self, v, q):
        with pytest.raises(ValueError, match=f"q must be an integer, got {q}"):
            assemble_sigma(v, q)


class TestCheckNonnegative:
    @pytest.mark.parametrize("value", [0, 0.0, 2.5, np.float64(1e-300), np.inf])
    def test_accepts_non_negative_numbers(self, value):
        check_nonnegative("lambda", value)

    @pytest.mark.parametrize("value", [-1, -0.5, np.nan])
    def test_negative_or_nan_keeps_its_message(self, value):
        with pytest.raises(ValueError, match=f"lambda must be non-negative, got {value}"):
            check_nonnegative("lambda", value)

    @pytest.mark.parametrize("value", [None, "0.5", [0.5], np.array([0.5, 0.6]), 1j])
    def test_non_number_is_a_value_error(self, value):
        with pytest.raises(ValueError, match="lambda must be a number, got"):
            check_nonnegative("lambda", value)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_boolean_is_not_a_number(self, value):
        message = f"lambda must be a number, got {re.escape(repr(value))}"
        with pytest.raises(ValueError, match=message):
            check_nonnegative("lambda", value)


class TestCheckFlag:
    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_accepts_booleans(self, value):
        check_flag("reorder", value)

    @pytest.mark.parametrize("value", ["no", "", 1, 0, 1.0, None, np.array([True]), [True]])
    def test_rejects_anything_else(self, value):
        message = f"reorder must be True or False, got {re.escape(repr(value))}"
        with pytest.raises(ValueError, match=message):
            check_flag("reorder", value)
