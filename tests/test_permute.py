import numpy as np
import pytest

from blockcov.corr import sample_correlation
from blockcov.permute import (Dendrogram, _order_children, cut_tree, dissimilarity,
                              hclust_complete, leaf_order, permute_matrix)
from blockcov.simulate import ScenarioSpec, build_scenario, permute_columns, sample_gaussian


def naive_complete_linkage(d):
    # O(q^3) reference: explicit max over all cross pairs, same tie rule
    q = d.shape[0]
    members = {i: (i,) for i in range(q)}
    merges = []
    next_id = q
    while len(members) > 1:
        best = None
        for a in sorted(members):
            for b in sorted(members):
                if a >= b:
                    continue
                dist = max(d[x, y] for x in members[a] for y in members[b])
                key = (dist, a, b)
                if best is None or key < best:
                    best = key
        dist, a, b = best
        merges.append((a, b, dist))
        members[next_id] = members.pop(a) + members.pop(b)
        next_id += 1
    return merges


def cubic_complete_linkage(d):
    # O(q^3) reference: rescan the whole matrix for the smallest distance at
    # every merge, then take the lexicographically smallest node-id pair
    q = d.shape[0]
    D = np.asarray(d, dtype=float).copy()
    np.fill_diagonal(D, np.inf)
    ids = np.arange(q)
    merges = []
    for step in range(q - 1):
        height = D.min()
        best = None
        for i, j in np.argwhere(D == height):
            if i >= j:
                continue
            pair = (ids[i], ids[j]) if ids[i] < ids[j] else (ids[j], ids[i])
            if best is None or pair < best:
                best, si, sj = pair, int(i), int(j)
        merges.append((*_order_children(int(ids[si]), int(ids[sj]), q), float(height)))
        row = np.maximum(D[si], D[sj])
        D[si, :] = row
        D[:, si] = row
        D[si, si] = np.inf
        D[sj, :] = np.inf
        D[:, sj] = np.inf
        ids[si] = q + step
    return merges


def assert_matches_naive(d):
    tree = hclust_complete(d)
    ref = naive_complete_linkage(d)
    assert [m[2] for m in tree.merges] == [m[2] for m in ref]
    assert [{m[0], m[1]} for m in tree.merges] == [{m[0], m[1]} for m in ref]


class TestDissimilarity:
    def test_perfect_correlation_is_zero(self):
        R = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert dissimilarity(R)[0, 1] == 0.0

    def test_anticorrelation_kinds(self):
        R = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert dissimilarity(R)[0, 1] == 0.0

    def test_non_square_is_bad_input(self):
        with pytest.raises(ValueError, match="correlation matrix must be square"):
            dissimilarity(np.ones((2, 3)))


class TestHclustComplete:
    def test_three_point_example(self):
        d = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]])
        tree = hclust_complete(d)
        assert tree.merges[0] == (0, 1, 0.1)
        # complete linkage takes the max of 0.9 and 0.8
        assert tree.merges[1] == (3, 2, 0.9)

    def test_two_points(self):
        tree = hclust_complete(np.array([[0.0, 0.4], [0.4, 0.0]]))
        assert tree.merges == [(0, 1, 0.4)]

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            B = rng.uniform(0.0, 1.0, size=(8, 8))
            d = (B + B.T) / 2
            np.fill_diagonal(d, 0.0)
            assert_matches_naive(d)

    def test_matches_naive_reference_with_ties(self):
        # integer distances make equal heights common, so the rule that the
        # lexicographically smallest pair merges first decides the tree
        rng = np.random.default_rng(3)
        for k in range(100):
            q = 2 + k % 10
            B = rng.integers(0, 4, size=(q, q))
            d = np.triu(B, 1) + np.triu(B, 1).T
            assert_matches_naive(d)

    def test_equals_cubic_reference_on_scrambled_blocks(self):
        truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 300, seed=0))
        X, _ = permute_columns(sample_gaussian(truth, 30, seed=0), seed=0)
        d = dissimilarity(sample_correlation(X))
        assert hclust_complete(d).merges == cubic_complete_linkage(d)

    def test_equals_cubic_reference_when_all_tied(self):
        d = np.ones((60, 60))
        np.fill_diagonal(d, 0.0)
        assert hclust_complete(d).merges == cubic_complete_linkage(d)

    def test_equals_cubic_reference_on_block_constant_distances(self):
        # whole blocks share one nearest neighbour, so one merge leaves many
        # cached neighbours stale at once
        rng = np.random.default_rng(10)
        labels = rng.permutation(np.repeat(np.arange(6), [30, 20, 15, 15, 10, 10]))
        between = rng.integers(1, 4, size=(6, 6))
        between = np.triu(between, 1) + np.triu(between, 1).T
        d = between[np.ix_(labels, labels)].astype(float)
        np.fill_diagonal(d, 0.0)
        assert hclust_complete(d).merges == cubic_complete_linkage(d)

    def test_heights_monotone(self):
        rng = np.random.default_rng(1)
        B = rng.uniform(0.0, 1.0, size=(12, 12))
        d = (B + B.T) / 2
        np.fill_diagonal(d, 0.0)
        heights = [m[2] for m in hclust_complete(d).merges]
        assert np.all(np.diff(heights) >= 0)

    def test_relabeling_keeps_height_multiset(self):
        rng = np.random.default_rng(2)
        B = rng.uniform(0.0, 1.0, size=(9, 9))
        d = (B + B.T) / 2
        np.fill_diagonal(d, 0.0)
        p = rng.permutation(9)
        h1 = sorted(m[2] for m in hclust_complete(d).merges)
        h2 = sorted(m[2] for m in hclust_complete(d[np.ix_(p, p)]).merges)
        assert np.allclose(h1, h2)

    def test_rejects_non_finite(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            hclust_complete(d)

    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 0.1, 0.5], [0.2, 0.0, 0.5], [0.5, 0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            hclust_complete(d)


class TestLeafOrder:
    def test_single_leaf(self):
        assert np.array_equal(leaf_order(Dendrogram(n_leaves=1, merges=[])), [0])

    def test_three_point_example(self):
        d = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]])
        assert np.array_equal(leaf_order(hclust_complete(d)), [0, 1, 2])

    def test_always_a_permutation(self):
        rng = np.random.default_rng(3)
        B = rng.uniform(0.0, 1.0, size=(15, 15))
        d = (B + B.T) / 2
        np.fill_diagonal(d, 0.0)
        order = leaf_order(hclust_complete(d))
        assert np.array_equal(np.sort(order), np.arange(15))

    def test_block_dissimilarity_gives_contiguous_blocks(self):
        # 0 within blocks, 1 across: every block must appear as one run
        labels = np.repeat([0, 1, 2], [4, 3, 5])
        rng = np.random.default_rng(4)
        p = rng.permutation(labels.size)
        scrambled = labels[p]
        d = (scrambled[:, None] != scrambled[None, :]).astype(float)
        order = leaf_order(hclust_complete(d))
        reordered = scrambled[order]
        changes = int((np.diff(reordered) != 0).sum())
        assert changes == 2


class TestCutTree:
    def test_k_equals_one_and_q(self):
        rng = np.random.default_rng(5)
        B = rng.uniform(0.0, 1.0, size=(7, 7))
        d = (B + B.T) / 2
        np.fill_diagonal(d, 0.0)
        tree = hclust_complete(d)
        assert len(set(cut_tree(tree, 1).tolist())) == 1
        assert len(set(cut_tree(tree, 7).tolist())) == 7

    def test_three_point_example(self):
        d = np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]])
        labels = cut_tree(hclust_complete(d), 2)
        assert labels[0] == labels[1] != labels[2]

    def test_k_out_of_range(self):
        tree = hclust_complete(np.array([[0.0, 0.2], [0.2, 0.0]]))
        with pytest.raises(ValueError, match="k must be"):
            cut_tree(tree, 0)
        with pytest.raises(ValueError, match="k must be"):
            cut_tree(tree, 3)
        with pytest.raises(ValueError, match="k must be an integer, got 1.5"):
            cut_tree(tree, 1.5)


class TestPermuteMatrix:
    def test_identity_permutation(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((5, 5))
        assert np.array_equal(permute_matrix(M, np.arange(5)), M)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((9, 9))
        p = rng.permutation(9)
        assert np.array_equal(permute_matrix(permute_matrix(M, p), p, inverse=True), M)

    def test_spectrum_and_norm_preserved(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((10, 10))
        M = (B + B.T) / 2
        p = rng.permutation(10)
        Mp = permute_matrix(M, p)
        assert np.allclose(np.linalg.eigvalsh(M), np.linalg.eigvalsh(Mp), atol=1e-10)
        assert np.linalg.norm(M) == pytest.approx(np.linalg.norm(Mp), rel=1e-12)

    def test_scrambled_scenario_blocks_recovered_contiguously(self):
        truth = build_scenario(ScenarioSpec("diagonal-equal", 50, seed=0))
        rng = np.random.default_rng(9)
        p = rng.permutation(50)
        scrambled = permute_matrix(truth.Sigma, p)
        order = leaf_order(hclust_complete(dissimilarity(scrambled)))
        reordered_labels = truth.blocks[p][order]
        changes = int((np.diff(reordered_labels) != 0).sum())
        assert changes == 4  # five contiguous blocks

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            permute_matrix(np.eye(3), np.array([0, 0, 2]))
        # a float order is not truncated to [0, 1, 2]
        with pytest.raises(ValueError, match="order must hold integers"):
            permute_matrix(np.eye(3), [0.0, 1.9, 2.2])
        with pytest.raises(ValueError, match="does not match permutation of 4"):
            permute_matrix(np.eye(3), np.arange(4))
