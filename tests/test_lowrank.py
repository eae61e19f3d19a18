import threading

import numpy as np
import pytest

import blockcov.lowrank
from blockcov._rng import STREAM_PA, substream
from blockcov.corr import build_gamma, sample_correlation
from blockcov.lowrank import (_THREADS_MIN_Q, _replicate_threads, scree, select_rank_cattell,
                              select_rank_pa, truncate_rank)
from blockcov.sparsify import select_lambda_bl


def observed_scree(X):
    return scree(build_gamma(sample_correlation(X)))


def lstsq_line_rss(x, y):
    if len(y) < 2:
        return 0.0
    A = np.column_stack([x, np.ones(len(x))])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(((A @ coef - y) ** 2).sum())


def cattell_oracle(s, r_max):
    # exhaustive two-segment scan via lstsq, sharing the breakpoint sample
    window = min(3 * r_max, len(s))
    y = np.asarray(s[:window], dtype=float)
    x = np.arange(window, dtype=float)
    best_b, best_rss = None, np.inf
    for b in range(1, r_max + 1):
        rss = lstsq_line_rss(x[:b + 1], y[:b + 1]) + lstsq_line_rss(x[b:], y[b:])
        if rss < best_rss:
            best_b, best_rss = b, rss
    return best_b


class TestScree:
    def test_zero_matrix(self):
        assert np.array_equal(scree(np.zeros((4, 4))), np.zeros(4))

    def test_identity(self):
        assert np.array_equal(scree(np.eye(5)), np.ones(5))

    def test_absolute_eigenvalues_sorted(self):
        assert np.allclose(scree(np.diag([3.0, 2.0, -4.0])), [4.0, 3.0, 2.0])

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 3), (3,)])
    def test_non_square_is_bad_input(self, shape):
        with pytest.raises(ValueError, match="scree's input must be square"):
            scree(np.ones(shape))


class TestTruncateRank:
    def test_full_rank_keeps_everything(self):
        rng = np.random.default_rng(0)
        G = build_gamma(sample_correlation(rng.standard_normal((12, 9))))
        assert np.max(np.abs(truncate_rank(G, 8) - G)) <= 1e-10

    def test_rank_one_fixed_point(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(7)
        G = np.outer(u, u)
        assert np.allclose(truncate_rank(G, 1), G, atol=1e-12)

    def test_beats_random_competitors(self):
        # Frobenius optimality against 100 random rank-3 matrices
        rng = np.random.default_rng(2)
        B = rng.standard_normal((20, 20))
        G = (B + B.T) / 2
        G3 = truncate_rank(G, 3)
        err = np.linalg.norm(G - G3)
        for _ in range(100):
            M = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20))
            M *= np.linalg.norm(G) / np.linalg.norm(M)
            assert err <= np.linalg.norm(G - M) + 1e-8

    def test_numerical_rank_and_discarded_mass(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((15, 15))
        G = (B + B.T) / 2
        s = scree(G)
        for r in (1, 4, 10):
            Gr = truncate_rank(G, r)
            sr = scree(Gr)
            assert np.all(sr[r:] <= 1e-8 * s[0])
            discarded = float((s[r:] ** 2).sum())
            assert np.linalg.norm(G - Gr) ** 2 == pytest.approx(discarded, rel=1e-8)

    def test_rank_out_of_range(self):
        G = np.eye(4)
        with pytest.raises(ValueError, match="rank"):
            truncate_rank(G, 0)
        with pytest.raises(ValueError, match="rank"):
            truncate_rank(G, 5)
        with pytest.raises(ValueError, match="rank must be an integer, got 2.5"):
            truncate_rank(G, 2.5)

    def test_non_square_is_bad_input(self):
        with pytest.raises(ValueError, match="truncate_rank's input must be square"):
            truncate_rank(np.ones((2, 3)), 1)

    def test_result_symmetric(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((11, 11))
        Gr = truncate_rank((B + B.T) / 2, 3)
        assert np.array_equal(Gr, Gr.T)


class TestSelectRankCattell:
    def test_clear_elbow(self):
        s = np.array([10.0, 9.5, 9.0, 0.1, 0.1, 0.1, 0.1, 0.1])
        sel = select_rank_cattell(s, r_max=6)
        assert sel.r == 3
        assert sel.r == cattell_oracle(s, 6)

    def test_matches_oracle_on_random_screes(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = np.sort(np.abs(rng.standard_normal(30)))[::-1] * rng.uniform(1, 10)
            r_max = int(rng.integers(2, 15))
            assert select_rank_cattell(s, r_max=r_max).r == cattell_oracle(s, r_max)

    def test_linear_scree_ties_to_smallest(self):
        s = np.linspace(12.0, 1.0, 12)
        assert select_rank_cattell(s, r_max=8).r == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        s = np.sort(rng.uniform(0, 5, size=20))[::-1]
        r1 = select_rank_cattell(s, r_max=10).r
        r2 = select_rank_cattell(1234.5 * s, r_max=10).r
        assert r1 == r2

    def test_too_few_values(self):
        with pytest.raises(ValueError, match="4 scree values"):
            select_rank_cattell(np.array([3.0, 2.0, 1.0]), r_max=2)

    @pytest.mark.parametrize("r_max, message", [
        (1, r"r_max must be in \[2, 7\], got 1"),
        (8, r"r_max must be in \[2, 7\], got 8"),
        (2.5, "r_max must be an integer, got 2.5"),
    ])
    def test_r_max_must_be_a_rank_below_the_scree_size(self, r_max, message):
        with pytest.raises(ValueError, match=message):
            select_rank_cattell(np.linspace(8.0, 1.0, 8), r_max=r_max)

    def test_trace_has_per_candidate_rss(self):
        s = np.array([10.0, 9.5, 9.0, 0.1, 0.1, 0.1, 0.1, 0.1])
        sel = select_rank_cattell(s, r_max=5)
        assert sel.trace["rss"].shape == (5,)
        assert sel.method == "cattell"


def pa_reference(X, n_perm, quantile, seed):
    # one-loop re-implementation: per-column permutation loop and an
    # SVD-based scree, sharing only the substream derivation
    n, q = X.shape
    observed = np.linalg.svd(build_gamma(sample_correlation(X)), compute_uv=False)
    permuted = np.empty((n_perm, q - 1))
    for b in range(n_perm):
        rng = substream(seed, STREAM_PA, b)
        keys = rng.random((n, q))
        Xp = np.empty_like(X)
        for j in range(q):
            Xp[:, j] = X[np.argsort(keys[:, j]), j]
        permuted[b] = np.linalg.svd(build_gamma(sample_correlation(Xp)), compute_uv=False)
    qcurve = np.quantile(permuted, quantile, axis=0)
    r = 0
    for i in range(q - 1):
        if observed[i] > qcurve[i]:
            r += 1
        else:
            break
    return max(r, 1), qcurve


class TestSelectRankPA:
    def test_independent_columns_match_reference(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 12))
        obs = observed_scree(X)
        sel = select_rank_pa(X, obs, n_perm=20, seed=11)
        ref_r, ref_curve = pa_reference(X, 20, 0.95, 11)
        assert sel.r == ref_r
        assert np.allclose(sel.trace["quantile_curve"], ref_curve, atol=1e-10)
        assert sel.r <= 2  # no real structure to retain
        # retention stops at the first index where observed <= quantile
        curve = sel.trace["quantile_curve"]
        assert np.all(obs[:sel.r - 1] > curve[:sel.r - 1])

    def test_quantile_is_read_at_call_time(self, monkeypatch):
        X = np.random.default_rng(7).standard_normal((20, 12))
        monkeypatch.setattr(blockcov.lowrank, "PA_QUANTILE", 0.5)
        sel = select_rank_pa(X, observed_scree(X), n_perm=20, seed=11)
        ref_r, ref_curve = pa_reference(X, 20, 0.5, 11)
        assert sel.r == ref_r
        assert np.allclose(sel.trace["quantile_curve"], ref_curve, atol=1e-10)

    def test_degenerate_single_permutation(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10, 6))
        monkeypatch.setattr(blockcov.lowrank, "PA_QUANTILE", 1.0)  # read at call time
        sel = select_rank_pa(X, observed_scree(X), n_perm=1, seed=3)
        # hand-run of the same substream: one column-wise permutation
        gen = substream(3, STREAM_PA, 0)
        keys = gen.random(X.shape)
        Xp = np.take_along_axis(X, np.argsort(keys, axis=0), axis=0)
        single = scree(build_gamma(sample_correlation(Xp)))
        obs = scree(build_gamma(sample_correlation(X)))
        r = 0
        for i in range(obs.size):
            if obs[i] > single[i]:
                r += 1
            else:
                break
        assert sel.r == max(r, 1)

    def test_bit_reproducible(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((15, 8))
        a = select_rank_pa(X, observed_scree(X), n_perm=10, seed=5)
        b = select_rank_pa(X, observed_scree(X), n_perm=10, seed=5)
        assert a.r == b.r
        assert np.array_equal(a.trace["quantile_curve"], b.trace["quantile_curve"])

    def test_parameter_validation(self):
        X = np.random.default_rng(10).standard_normal((10, 5))
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError, match="n_perm"):
                select_rank_pa(X, observed_scree(X), n_perm=bad)
            with pytest.raises(ValueError, match="n_splits"):
                select_lambda_bl(X, 2, np.array([0.0, 0.5]), n_splits=bad)
        with pytest.raises(ValueError, match="scree values"):
            select_rank_pa(X, observed_scree(X)[:-1])


def null_screes_reference(X, n_perm, seed):
    # one scree call per permutation, as PA ran before it stacked them
    n, q = X.shape
    permuted = np.empty((n_perm, q - 1))
    for b in range(n_perm):
        keys = substream(seed, STREAM_PA, b).random((n, q))
        Xp = np.take_along_axis(X, np.argsort(keys, axis=0), axis=0)
        permuted[b] = scree(build_gamma(sample_correlation(Xp)))
    return permuted


class TestReplicateThreads:
    @pytest.mark.parametrize("q, cpus, tasks, threads", [
        (89, 1, 1, 1), (89, 1, 3, 1), (89, 2, 1, 1), (89, 2, 3, 1), (89, 4, 1, 1), (89, 4, 3, 1),
        (90, 1, 1, 1), (90, 1, 3, 1), (90, 2, 1, 1), (90, 2, 3, 2), (90, 4, 1, 1), (90, 4, 3, 3),
    ])
    def test_one_below_the_cutoff_else_one_per_cpu_and_task(self, monkeypatch, q, cpus, tasks,
                                                            threads):
        assert _THREADS_MIN_Q == 90
        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: cpus)
        assert _replicate_threads(q, tasks) == threads


class TestThreadedPA:
    # q = 100: stacks of ceil(512 / 99) = 6 permutations, so 20 permutations
    # make three full stacks and a ragged one of 2
    @pytest.fixture(scope="class")
    def X(self):
        return np.random.default_rng(14).standard_normal((20, 100))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_quantile_curve_is_bit_identical_to_one_scree_per_permutation(self, X, monkeypatch,
                                                                          threads):
        assert 100 >= _THREADS_MIN_Q
        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: threads)
        callers, sizes = set(), []

        def recording(G):
            callers.add(threading.get_ident())
            sizes.append(len(G))
            return scree(G)
        monkeypatch.setattr(blockcov.lowrank, "scree", recording)
        sel = select_rank_pa(X, observed_scree(X), n_perm=20, seed=3)
        reference = np.quantile(null_screes_reference(X, 20, 3), 0.95, axis=0)
        assert np.array_equal(sel.trace["quantile_curve"], reference)
        assert sorted(sizes) == [2, 6, 6, 6]
        assert sel.trace["threads"] == threads
        # the pool may hand two stacks to one worker, never one to a fourth thread
        assert threading.get_ident() in callers and min(threads, 2) <= len(callers) <= threads

    def test_below_the_cutoff_runs_on_the_calling_thread(self, monkeypatch):
        X = np.random.default_rng(15).standard_normal((20, 60))
        assert 60 < _THREADS_MIN_Q
        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: 3)
        sel = select_rank_pa(X, observed_scree(X), n_perm=20, seed=3)
        reference = np.quantile(null_screes_reference(X, 20, 3), 0.95, axis=0)
        assert np.array_equal(sel.trace["quantile_curve"], reference)
        assert sel.trace["threads"] == 1

    @pytest.mark.parametrize("q, threads", [(60, 1), (100, 1), (100, 2)])
    def test_trace_counts_every_permuted_matrix_decomposed(self, monkeypatch, q, threads):
        X = np.random.default_rng(16).standard_normal((20, q))
        s = observed_scree(X)
        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: threads)
        matrices = []  # list.append is safe across the stack threads
        eigvalsh = np.linalg.eigvalsh

        def counted(G):
            matrices.append(int(np.prod(np.shape(G)[:-2])))
            return eigvalsh(G)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        sel = select_rank_pa(X, s, n_perm=20, seed=3)
        assert sel.trace["eigendecompositions"] == sum(matrices) == 20

    def test_stacked_eigvalsh_equals_one_call_per_matrix(self):
        # the premise of the bit identity above, on whichever numpy runs it
        rng = np.random.default_rng(16)
        for m, k in ((19, 27), (99, 6), (199, 3)):
            G = np.stack([build_gamma(sample_correlation(rng.standard_normal((20, m + 1))))
                          for _ in range(k)])
            single = np.stack([np.linalg.eigvalsh(g) for g in G])
            assert np.array_equal(np.linalg.eigvalsh(G), single)
            assert np.array_equal(scree(G), np.stack([scree(g) for g in G]))

    # permutation 0 is in the calling thread's first stack, 7 in a worker's,
    # 19 in the ragged last stack
    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("failing", [0, 7, 19])
    def test_failing_stack_raises_and_leaves_no_thread(self, X, monkeypatch, threads, failing):
        monkeypatch.setattr(blockcov.lowrank, "_cpu_threads", lambda: threads)

        def draw(seed, stream, b):
            if b == failing:
                raise ValueError(f"permutation {b} failed")
            return substream(seed, stream, b)
        monkeypatch.setattr(blockcov.lowrank, "substream", draw)
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"permutation {failing} failed"):
            select_rank_pa(X, observed_scree(X), n_perm=20, seed=3)
        assert threading.active_count() == before
