"""Variable clustering and permutation recovery.

When the block structure of the correlation matrix is latent (columns
arrive in scrambled order), a complete-linkage clustering of the
variables yields a leaf ordering that makes the blocks contiguous again.
The same tree also provides flat clusterings for the block-constant
baseline estimators.
"""

from dataclasses import dataclass

import numpy as np

from .corr import check_count, check_finite, check_instance, check_integers, check_square


@dataclass
class Dendrogram:
    """Binary merge tree over ``n_leaves`` items.

    ``merges[k] = (left, right, height)``; node ids below ``n_leaves`` are
    leaves and node ``n_leaves + k`` is the cluster created by merge k.
    Complete linkage makes the heights non-decreasing.
    """

    n_leaves: int
    merges: list


def dissimilarity(R):
    """Pairwise variable dissimilarities 1 - |r| from a correlation matrix.

    Strong negative correlation counts as closeness, which matters when
    blocks interact with negative loadings.
    """
    d = 1.0 - np.abs(check_square(R, "correlation matrix"))
    d = (d + d.T) / 2
    d = np.maximum(d, 0.0)
    np.fill_diagonal(d, 0.0)
    return d


def hclust_complete(d):
    """Agglomerative clustering with complete (maximum pairwise) linkage.

    When several pairs are at the minimal distance, the pair with the
    lexicographically smallest node ids merges first, so the tree is
    identical across platforms.

    Each live cluster caches its nearest neighbour (the smallest node id
    among tied ones). A merge only ever raises distances, and the new node
    id is larger than every live one, so a cache that pointed at neither
    merged cluster stays exact; only those that did, and the new cluster's
    own, are rescanned. Memory is O(q^2) and time typically O(q^2).
    """
    d = check_finite(check_square(d, "dissimilarity matrix"), "dissimilarity matrix")
    if not np.array_equal(d, d.T):
        raise ValueError("dissimilarity matrix must be symmetric")
    q = d.shape[0]
    if q < 2:
        return Dendrogram(n_leaves=q, merges=[])
    D = d.copy()
    np.fill_diagonal(D, np.inf)
    ids = np.arange(q)  # node id held by each matrix slot
    # slots are node ids at the start, so argmin's first hit is the smallest id
    nn_slot = D.argmin(axis=1)
    nn_dist = D[np.arange(q), nn_slot]
    merges = []
    for step in range(q - 1):
        height = nn_dist.min()
        rows = np.flatnonzero(nn_dist == height)
        a, b = ids[rows], ids[nn_slot[rows]]
        k = np.lexsort((np.maximum(a, b), np.minimum(a, b)))[0]
        si, sj = sorted((int(rows[k]), int(nn_slot[rows[k]])))
        merges.append((*_order_children(int(ids[si]), int(ids[sj]), q), float(height)))
        # complete linkage: distance to the union is the max of the two
        row = np.maximum(D[si], D[sj])
        D[si, :] = row
        D[:, si] = row
        D[si, si] = np.inf
        D[sj, :] = np.inf
        D[:, sj] = np.inf
        ids[si] = q + step
        nn_dist[sj] = np.inf
        stale = np.flatnonzero((nn_slot == si) | (nn_slot == sj))
        stale = np.union1d(stale[np.isfinite(nn_dist[stale])], [si])
        sub = D[stale]
        nn_dist[stale] = sub.min(axis=1)
        tied = sub == nn_dist[stale][:, None]
        nn_slot[stale] = np.where(tied, ids, np.iinfo(ids.dtype).max).argmin(axis=1)
    return Dendrogram(n_leaves=q, merges=merges)


def _order_children(a, b, n_leaves):
    # Earlier-formed clusters sit on the left; leaves (never merged) come
    # after clusters and are ordered by index among themselves.
    ka = (a < n_leaves, a)
    kb = (b < n_leaves, b)
    return (a, b) if ka < kb else (b, a)


def leaf_order(tree):
    """Depth-first left-to-right leaf enumeration of the dendrogram.

    Plotting the tree in this order has no crossing branches, so
    reordering variables by it makes latent blocks contiguous.
    """
    check_instance("tree", tree, Dendrogram)
    q = tree.n_leaves
    if not tree.merges:
        return np.arange(q)
    order = []
    stack = [q + len(tree.merges) - 1]
    while stack:
        node = stack.pop()
        if node < q:
            order.append(node)
        else:
            left, right, _ = tree.merges[node - q]
            stack.append(right)
            stack.append(left)
    return np.array(order)


def cut_tree(tree, k):
    """Flat clustering with ``k`` clusters.

    Drops the k-1 highest merges (the last ones, heights being monotone)
    and labels the connected components 0..k-1 in leaf order of first
    appearance.
    """
    check_instance("tree", tree, Dendrogram)
    q = tree.n_leaves
    check_count("k", k, 1, q)
    parent = list(range(q + len(tree.merges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step, (a, b, _) in enumerate(tree.merges[: len(tree.merges) - (k - 1)]):
        node = q + step
        parent[find(a)] = node
        parent[find(b)] = node
    labels = np.empty(q, dtype=int)
    seen = {}
    for leaf in leaf_order(tree):
        root = find(int(leaf))
        if root not in seen:
            seen[root] = len(seen)
        labels[leaf] = seen[root]
    return labels


def permute_matrix(M, order, inverse=False):
    """Simultaneous row/column reordering: out[i, j] = M[p[i], p[j]].

    With ``inverse`` the inverse permutation is applied instead, undoing a
    previous call with the same ``order``.
    """
    M = np.asarray(M)
    check_square(M, "matrix")
    p = check_integers("order", order)
    if M.shape[0] != p.size:
        raise ValueError(f"matrix of shape {M.shape} does not match permutation of {p.size}")
    if not np.array_equal(np.sort(p), np.arange(p.size)):
        raise ValueError("order is not a permutation")
    if inverse:
        p = np.argsort(p)
    return M[np.ix_(p, p)]
