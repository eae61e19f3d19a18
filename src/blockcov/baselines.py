"""Clustering-driven block-constant correlation estimators.

Comparison methods: cluster the variables, then replace every
cluster-pair block of the sample correlation by its mean value.
"""

import numpy as np

from ._rng import STREAM_KMEANS, substream
from .corr import check_count, check_finite, check_integers, check_matrix, check_square


def block_constant_estimator(R, labels):
    """Block-wise constant estimate of a correlation matrix.

    Cross-cluster blocks get the mean of R over all their pairs; within
    blocks the mean over off-diagonal pairs; the diagonal stays 1.
    Singleton clusters have no off-diagonal pairs, so their within value
    is vacuous.
    """
    R = check_finite(check_square(R, "correlation matrix"), "correlation matrix")
    labels = check_integers("labels", labels)
    q = R.shape[0]
    if labels.shape != (q,):
        raise ValueError(f"need {q} labels, got shape {labels.shape}")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative")
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        raise ValueError(f"empty cluster {int(np.flatnonzero(counts == 0)[0])}")
    onehot = np.zeros((q, k))
    onehot[np.arange(q), labels] = 1.0
    block_sum = onehot.T @ R @ onehot
    rho = block_sum / np.outer(counts, counts)
    diag_sum = np.bincount(labels, weights=np.diag(R), minlength=k)
    within_pairs = counts * (counts - 1)
    for c in range(k):
        if within_pairs[c] > 0:
            rho[c, c] = (block_sum[c, c] - diag_sum[c]) / within_pairs[c]
        else:
            rho[c, c] = 0.0  # vacuous, overwritten by the unit diagonal below
    out = onehot @ rho @ onehot.T
    out = (out + out.T) / 2
    np.fill_diagonal(out, 1.0)
    return out


KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100


def kmeans_columns(X, k, seed=0):
    """Cluster the columns of ``X`` with Lloyd's algorithm.

    Each of the ``KMEANS_RESTARTS`` restarts starts from k distinct
    columns drawn without replacement from its own substream; the
    clustering with the smallest within-cluster sum of squares wins, ties
    keeping the earliest restart, which stops when its labels repeat or
    after ``KMEANS_MAX_ITER`` updates. Clusters emptied during an update
    are re-seeded with the point farthest from its assigned centroid.
    """
    pts = np.ascontiguousarray(check_finite(check_matrix(X, "observations"), "observations").T)
    # one power of two brings the largest magnitude into [0.5, 1): exact, and the
    # squared distances can then neither overflow nor underflow to zero
    pts = np.ldexp(pts, -np.frexp(np.abs(pts).max())[1])
    q = pts.shape[0]
    check_count("k", k, 1, q)
    n_distinct = np.unique(pts, axis=0).shape[0]
    if k > n_distinct:
        raise ValueError(f"k={k} exceeds the {n_distinct} distinct columns")
    best_labels = None
    best_wcss = np.inf
    for restart in range(KMEANS_RESTARTS):
        rng = substream(seed, STREAM_KMEANS, restart)
        centroids = pts[rng.choice(q, size=k, replace=False)].copy()
        labels = None
        for _ in range(KMEANS_MAX_ITER):
            d2 = _sq_distances(pts, centroids)
            new_labels = d2.argmin(axis=1)
            for c in range(k):
                if not np.any(new_labels == c):
                    far = int(d2[np.arange(q), new_labels].argmax())
                    new_labels[far] = c
                    d2[far] = 0.0  # no longer a candidate for other reseeds
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                centroids[c] = pts[labels == c].mean(axis=0)
        wcss = float(((pts - centroids[labels]) ** 2).sum())
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels.copy()
    return best_labels


def _sq_distances(pts, centroids):
    d2 = ((pts ** 2).sum(axis=1)[:, None] + (centroids ** 2).sum(axis=1)[None, :]
          - 2.0 * pts @ centroids.T)
    return np.maximum(d2, 0.0)
