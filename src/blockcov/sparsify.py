"""Thresholding of the half-vectorized low-rank matrix and sparsity selection.

With an identity design the l1-penalized least-squares problem has a
closed form: entries of magnitude at most lambda/2 vanish and the rest
shrink. The pipeline keeps the surviving entries unshrunk (hard
thresholding, a least-squares refit of the non-nulls); soft thresholding
is that closed form itself, the exact l1-penalized solution the hard
threshold refits, kept as its reference. Two selectors choose the
threshold: an elbow fit on the reconstruction-error curve and a
cross-validation criterion.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._rng import STREAM_BL, substream
from ._twoline import two_segment_scan
from .corr import (assemble_sigma, build_gamma, check_count, check_finite, check_nonnegative,
                   constant_columns, offdiag_vech, sample_correlation, validate_observations,
                   vech)
from .lowrank import _replicate_threads, truncate_rank


@dataclass
class LambdaSelection:
    """Chosen threshold plus the diagnostics recorded while selecting it."""

    lam: float
    method: str  # "elbow", "bl" or "fixed"
    support_size: int
    trace: dict = field(default_factory=dict)


def soft_threshold(y, lam):
    """Shrinking threshold: y_j (1 - lambda/(2|y_j|)) when |y_j| > lambda/2, else 0."""
    check_nonnegative("lambda", lam)
    y = np.asarray(y, dtype=float)
    mag = np.abs(y)
    keep = mag > lam / 2
    out = np.zeros_like(y)
    out[keep] = y[keep] * (1 - lam / (2 * mag[keep]))
    return out


def hard_threshold(y, lam):
    """Keep-unshrunk threshold: y_j when |y_j| > lambda/2, else 0."""
    check_nonnegative("lambda", lam)
    y = np.asarray(y, dtype=float)
    # a bit mask instead of np.where, which branches per entry and mispredicts
    # on half-kept vectors; a dropped entry (NaN and -0.0 too) becomes +0.0.
    # asarray keeps the mask of a 0-d input an array that ``out=`` can write.
    keep = np.asarray(np.abs(y) > lam / 2).astype(np.int64)
    np.negative(keep, out=keep)  # 0 or all ones
    keep &= y.view(np.int64)
    return keep.view(np.float64)


def candidate_lambdas(y, max_grid=100):
    """Threshold grid covering every support change.

    The hard-threshold support changes exactly at lambda = 2|y_j|, so the
    grid is the sorted distinct values of 2|y_j| plus 0, downsampled evenly
    to at most ``max_grid`` points while always keeping both endpoints.
    """
    y = check_finite(np.asarray(y, dtype=float), "coefficient vector")
    if y.size == 0:
        raise ValueError("empty coefficient vector")
    check_count("max_grid", max_grid, 2)
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
    y = check_finite(np.asarray(y, dtype=float), "coefficient vector")
    check_count("size", size, 0)
    mags = np.sort(np.abs(y))[::-1]
    if size >= np.count_nonzero(mags):
        return 0.0
    return 2.0 * float(mags[size])


def sparse_sigma(y, lam, q):
    """Sparse unit-diagonal estimate from ``y = vech(G_r)``, the half-vectorized truncation.

    Hard-thresholds ``y``, clamps it to [-1, 1] (truncation can push entries
    slightly outside) and places it in a q x q matrix with unit diagonal.
    """
    return assemble_sigma(np.clip(hard_threshold(y, lam), -1.0, 1.0), q)


def _threshold_loss(rvec, y, grid):
    # ||R - Sigma~(lambda)||_F^2 on every point of an ascending grid, via the
    # off-diagonal vectors: both diagonals are exactly 1, so only the doubled
    # upper triangle counts. Entry j is kept at grid point k iff k < c_j, which
    # is hard_threshold's strict test |y_j| > grid[k]/2; binning on c_j turns
    # the dropped entries into a prefix sum and the kept ones into a suffix sum.
    c = np.searchsorted(grid / 2, np.abs(y), side="left")
    bins = grid.size + 1
    dropped = np.cumsum(np.bincount(c, rvec * rvec, minlength=bins))[:-1]
    kept_sq = (rvec - np.clip(y, -1.0, 1.0)) ** 2
    kept = np.cumsum(np.bincount(c, kept_sq, minlength=bins)[::-1])[::-1][1:]
    support = np.cumsum(np.bincount(c, minlength=bins)[::-1])[::-1][1:]
    return 2.0 * (dropped + kept), support


def select_lambda_elbow(rvec, y, grid):
    """Threshold at the kink of lambda -> ||R - Sigma~(lambda)||_F.

    ``rvec`` is ``vech(build_gamma(R))`` and ``y`` is ``vech(G_r)``, the
    half-vectorized rank truncation; ``grid`` holds ascending,
    non-negative thresholds (``inf`` allowed). The curve is evaluated on
    the grid and, for every interior breakpoint of the (grid index,
    criterion) points, one line is fit to each side (the breakpoint itself
    belongs to both). The grid value at the best breakpoint is returned;
    ties go to the smaller index.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 4:
        raise ValueError(f"grid needs at least 4 points, got {grid.size}")
    if not np.all(grid >= 0):
        raise ValueError("grid points must be non-negative, not NaN")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be ascending")
    rvec, y = np.asarray(rvec, dtype=float), np.asarray(y, dtype=float)
    if rvec.ndim != 1 or rvec.shape != y.shape:
        raise ValueError(f"rvec {rvec.shape} and y {y.shape} must be 1-d vectors of one length")
    check_finite(rvec, "rvec")
    check_finite(y, "y")
    loss, support = _threshold_loss(rvec, y, grid)
    curve = np.sqrt(loss)
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


def _one_ahead(fn, count, threaded):
    """Yield ``fn(0), ..., fn(count - 1)`` in order.

    When ``threaded``, one worker thread computes ``fn(i + 1)`` while the
    caller works on ``fn(i)``. An exception raised by ``fn(i)`` is raised
    again in the caller at ``i``, and the worker is joined when the
    generator ends, fails or is closed.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:  # no thread starts before a submit
        ahead = pool.submit(fn, 0) if threaded and count > 0 else None
        for i in range(count):
            current = ahead.result() if threaded else fn(i)
            if threaded and i + 1 < count:
                ahead = pool.submit(fn, i + 1)
            yield current


def select_lambda_bl(X, r, grid, n_splits=50, seed=0, columns=None):
    """Cross-validated threshold choice.

    Every split estimates the thresholded matrix on a training subsample
    of ``default_train_size(n)`` rows and scores it against the raw
    correlation of the held-out rows in squared Frobenius norm; losses are
    summed over splits and the minimizing grid value wins (ties to the
    smaller index). The rank ``r`` is reused as selected on the full data
    rather than re-selected per split. Split ``i`` draws from substream
    ``i`` of ``seed``.

    A column that is constant on a split's training or held-out rows has
    no correlation there; the ``ValueError`` names the split, the side,
    its row count and the lowest such column as ``columns`` numbers them
    (the caller's data, before any reordering; default ``0, ..., q - 1``).

    When ``_replicate_threads(q, min(n_splits, 2))`` gives two threads,
    one worker thread prepares the next split (its two correlations and
    the rank truncation) while this thread scores the current one. Losses
    are summed in split order on this thread, so the result is
    bit-identical to a serial run, whatever the thread timing or the
    benchmark's ``--jobs``.
    """
    X = validate_observations(X)
    n, q = X.shape
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty threshold grid")
    check_cv_samples(n)
    check_count("n_splits", n_splits, 1)
    train_size = default_train_size(n)
    columns = np.arange(q) if columns is None else np.asarray(columns)

    def correlation(i, side, rows):
        Xs = X[rows]
        try:
            return sample_correlation(Xs)
        except ValueError:
            dead = constant_columns(Xs)
            if dead.size == 0:
                raise
            raise ValueError(f"BL split {i}, {side} side ({Xs.shape[0]} rows): column "
                             f"{min(columns[dead])} has zero sample variance on these rows; "
                             "use --lambda elbow or a fixed threshold") from None

    def split(i):
        mask = np.zeros(n, dtype=bool)
        mask[substream(seed, STREAM_BL, i).permutation(n)[:train_size]] = True
        # the training side first: no held-out correlation is held across the eigh
        y1 = vech(truncate_rank(build_gamma(correlation(i, "training", mask)), r))
        rvec2 = offdiag_vech(correlation(i, "held-out", ~mask))
        # only a kept entry with |y1| > 1 can leave [-1, 1]
        return y1, rvec2, np.flatnonzero(np.abs(y1) > 1.0)

    threads = _replicate_threads(q, min(n_splits, 2))  # this one and at most one preparer
    loss = np.zeros(grid.size)
    for y1, rvec2, out in _one_ahead(split, n_splits, threads > 1):
        for k, lam in enumerate(grid):
            b = hard_threshold(y1, lam)
            b[out] = np.clip(b[out], -1.0, 1.0)
            b -= rvec2
            loss[k] += 2.0 * float(b @ b)
    pick = int(np.argmin(loss))
    lam = float(grid[pick])
    # the pipeline already holds this truncation, G_r; the repeat costs one eigendecomposition
    y_full = vech(truncate_rank(build_gamma(sample_correlation(X)), r))
    support_size = int(np.count_nonzero(hard_threshold(y_full, lam)))
    return LambdaSelection(lam=lam, method="bl", support_size=support_size,
                           trace={"grid": grid, "loss": loss, "splits": int(n_splits),
                                  "eigendecompositions": int(n_splits) + 1,
                                  "threads": threads})
