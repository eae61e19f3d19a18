"""Thresholding of the half-vectorized low-rank matrix and sparsity selection.

With an identity design the l1-penalized least-squares problem has a
closed form: entries of magnitude at most lambda/2 vanish and the rest
shrink. The pipeline keeps the surviving entries unshrunk (hard
thresholding, a least-squares refit of the non-nulls); soft thresholding
is exposed for comparison. Two selectors choose the threshold: an elbow
fit on the reconstruction-error curve and a cross-validation criterion.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import STREAM_BL, substream
from ._twoline import two_segment_scan
from .corr import assemble_sigma, build_gamma, sample_correlation, validate_observations, vech
from .lowrank import truncate_rank


@dataclass
class LambdaSelection:
    """Chosen threshold plus the diagnostics recorded while selecting it."""

    lam: float
    method: str  # "elbow", "bl" or "fixed"
    support_size: int
    trace: dict = field(default_factory=dict)


def check_lambda(lam):
    if not lam >= 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")


def soft_threshold(y, lam):
    """Shrinking threshold: y_j (1 - lambda/(2|y_j|)) when |y_j| > lambda/2, else 0."""
    check_lambda(lam)
    y = np.asarray(y, dtype=float)
    mag = np.abs(y)
    keep = mag > lam / 2
    out = np.zeros_like(y)
    out[keep] = y[keep] * (1 - lam / (2 * mag[keep]))
    return out


def hard_threshold(y, lam):
    """Keep-unshrunk threshold: y_j when |y_j| > lambda/2, else 0."""
    check_lambda(lam)
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    keep = np.abs(y) > lam / 2
    out[keep] = y[keep]
    return out


def candidate_lambdas(y, max_grid=100):
    """Threshold grid covering every support change.

    The hard-threshold support changes exactly at lambda = 2|y_j|, so the
    grid is the sorted distinct values of 2|y_j| plus 0, downsampled evenly
    to at most ``max_grid`` points while always keeping both endpoints.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("empty coefficient vector")
    if max_grid < 2:
        raise ValueError(f"max_grid must be at least 2, got {max_grid}")
    vals = np.unique(np.concatenate([[0.0], 2.0 * np.abs(y)]))
    if vals.size > max_grid:
        pick = np.unique(np.round(np.linspace(0, vals.size - 1, max_grid)).astype(int))
        vals = vals[pick]
    return vals


def support_lambda(y, size):
    """Threshold whose hard-threshold support has (at most) ``size`` entries.

    Exact when the magnitudes around the cut are distinct; ties can only
    shrink the support further. Used by benchmarks that feed the true
    support size to the estimator.
    """
    y = np.asarray(y, dtype=float)
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    mags = np.sort(np.abs(y))[::-1]
    if size >= np.count_nonzero(mags):
        return 0.0
    return 2.0 * float(mags[size])


def sparse_sigma(G_r, lam, q):
    """Sparse unit-diagonal estimate assembled from a rank-truncated arrangement.

    Hard-thresholds the half-vectorization of ``G_r``, rebuilds the q x q
    matrix, and clamps entries to [-1, 1] (truncation can push them
    slightly outside).
    """
    G_r = np.asarray(G_r, dtype=float)
    if G_r.shape != (q - 1, q - 1):
        raise ValueError(f"expected a {q - 1} x {q - 1} matrix for q={q}, got shape {G_r.shape}")
    S = assemble_sigma(hard_threshold(vech(G_r), lam), q)
    return np.clip(S, -1.0, 1.0)


def _criterion_curve(rvec, y, grid):
    # ||R - Sigma~(lambda)||_F via the off-diagonal vectors: the diagonals
    # of both matrices are exactly 1, so only the (doubled) upper triangle
    # contributes.
    curve = np.empty(grid.size)
    support = np.empty(grid.size, dtype=int)
    for k, lam in enumerate(grid):
        b = np.clip(hard_threshold(y, lam), -1.0, 1.0)
        curve[k] = math.sqrt(2.0 * float((rvec - b) @ (rvec - b)))
        support[k] = int(np.count_nonzero(b))
    return curve, support


def select_lambda_elbow(G, G_r, grid):
    """Threshold at the kink of lambda -> ||R - Sigma~(lambda)||_F.

    ``G`` is ``build_gamma(R)`` and ``G_r`` its rank truncation. The curve
    is evaluated on the grid and, for every interior breakpoint of the
    (grid index, criterion) points, one line is fit to each side (the
    breakpoint itself belongs to both). The grid value at the best
    breakpoint is returned; ties go to the smaller index.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 4:
        raise ValueError(f"grid needs at least 4 points, got {grid.size}")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be ascending")
    rvec = vech(np.asarray(G, dtype=float))
    y = vech(np.asarray(G_r, dtype=float))
    curve, support = _criterion_curve(rvec, y, grid)
    breaks = np.arange(1, grid.size - 1)
    rss = two_segment_scan(curve, breaks)
    pick = int(breaks[int(np.argmin(rss))])
    return LambdaSelection(lam=float(grid[pick]), method="elbow",
                           support_size=int(support[pick]),
                           trace={"grid": grid, "criterion": curve,
                                  "support_size": support, "rss": rss})


def default_train_size(n):
    """Training-part size for the cross-validation selector: round(n(1 - 1/log n))."""
    return int(round(n * (1.0 - 1.0 / math.log(n))))


def check_cv_samples(n):
    if n < 5:
        raise ValueError(f"need at least 5 samples for cross-validation, got {n}")


def select_lambda_bl(X, r, grid, n_splits=50, seed=0, splits=None):
    """Cross-validated threshold choice.

    Every split estimates the thresholded matrix on a training subsample
    and scores it against the raw correlation of the held-out part in
    squared Frobenius norm; losses are summed over splits and the
    minimizing grid value wins (ties to the smaller index). The rank ``r``
    is reused as selected on the full data rather than re-selected per
    split. Random splits draw from substreams of ``seed``; explicit
    ``splits`` (sequences of training row indices) override them, which
    lets callers run exhaustive or stratified designs.
    """
    X = validate_observations(X)
    n, q = X.shape
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty threshold grid")
    check_cv_samples(n)
    if splits is None:
        if n_splits < 1:
            raise ValueError(f"n_splits must be at least 1, got {n_splits}")
        train_size = default_train_size(n)
        splits = []
        for i in range(n_splits):
            rng = substream(seed, STREAM_BL, i)
            splits.append(rng.permutation(n)[:train_size])
    loss = np.zeros(grid.size)
    for train_idx in splits:
        mask = np.zeros(n, dtype=bool)
        mask[np.asarray(train_idx, dtype=int)] = True
        n1 = int(mask.sum())
        if n1 < 2 or n - n1 < 2:
            raise ValueError(f"split of {n1}/{n - n1} leaves fewer than 2 samples on one side")
        R1 = sample_correlation(X[mask])
        R2 = sample_correlation(X[~mask])
        y1 = vech(truncate_rank(build_gamma(R1), r))
        rvec2 = vech(build_gamma(R2))
        for k, lam in enumerate(grid):
            b = np.clip(hard_threshold(y1, lam), -1.0, 1.0)
            loss[k] += 2.0 * float((b - rvec2) @ (b - rvec2))
    pick = int(np.argmin(loss))
    lam = float(grid[pick])
    y_full = vech(truncate_rank(build_gamma(sample_correlation(X)), r))
    support_size = int(np.count_nonzero(hard_threshold(y_full, lam)))
    return LambdaSelection(lam=lam, method="bl", support_size=support_size,
                           trace={"grid": grid, "loss": loss})
