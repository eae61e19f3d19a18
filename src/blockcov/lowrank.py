"""Best low-rank approximation and data-driven rank selection.

The rank is the first of the two tuning parameters of the estimation
pipeline. Two selectors are provided: a scree-elbow criterion (two-line
fit over the singular value plot) and parallel analysis (retain components
whose singular values beat those of column-permuted data).
"""

from dataclasses import dataclass, field

import numpy as np

from ._rng import STREAM_PA, substream
from ._twoline import two_segment_scan
from .corr import build_gamma, check_count, sample_correlation, validate_observations


@dataclass
class RankSelection:
    """Chosen rank plus the diagnostics recorded while selecting it."""

    r: int
    method: str  # "cattell", "pa" or "fixed"
    trace: dict = field(default_factory=dict)


def scree(G):
    """Singular values of a symmetric matrix, in descending order.

    For a symmetric matrix these are the absolute eigenvalues, which is
    what the eigendecomposition-based truncation uses.
    """
    G = np.asarray(G, dtype=float)
    w = np.linalg.eigvalsh(G)
    return np.sort(np.abs(w))[::-1]


def check_rank(r, m):
    if not 1 <= r <= m:
        raise ValueError(f"rank must be in [1, {m}], got {r}")


def check_scree_size(size):
    if size < 4:
        raise ValueError(f"need at least 4 scree values, got {size}")


def truncate_rank(G, r):
    """Frobenius-optimal approximation of symmetric ``G`` with rank <= r.

    Keeps the r eigenvalues of largest magnitude (their eigenvectors are
    the singular vectors) and zeroes the rest; the result is
    re-symmetrized to remove round-off asymmetry.
    """
    G = np.asarray(G, dtype=float)
    check_rank(r, G.shape[0])
    w, V = np.linalg.eigh(G)
    keep = np.argsort(np.abs(w))[::-1][:r]
    Vk = V[:, keep]
    Gr = (Vk * w[keep]) @ Vk.T
    return (Gr + Gr.T) / 2


def select_rank_cattell(s, r_max):
    """Scree-elbow rank choice by an exhaustive two-line fit scan.

    For every candidate rank b, one line is fit to the scree values at
    ranks 1..b+1 and another to ranks b+1 onward (the first discarded
    value belongs to both fits), limited to a window of 3*r_max points so
    the long tail of near-zero values cannot drown the elbow. The rank
    with the smallest total residual wins; ties go to the smallest rank.
    """
    s = np.asarray(s, dtype=float)
    check_scree_size(s.size)
    if not 2 <= r_max <= s.size - 1:
        raise ValueError(f"r_max must be in [2, {s.size - 1}], got {r_max}")
    window = min(3 * r_max, s.size)
    rss = two_segment_scan(s[:window], np.arange(1, r_max + 1))  # rss[b - 1] is rank b
    return RankSelection(r=int(np.argmin(rss)) + 1, method="cattell", trace={"rss": rss})


def select_rank_pa(X, s, n_perm=50, quantile=0.95, seed=0):
    """Parallel-analysis rank choice.

    ``s`` is the observed scree of ``X``: ``scree(build_gamma(R))`` for
    its sample correlation ``R``. Each replicate permutes the entries of
    every column of ``X`` independently and recomputes the scree of the
    off-diagonal arrangement. A component is retained while its observed
    value exceeds the per-index empirical quantile of the permuted values;
    retention stops at the first failure and at least rank 1 is returned.
    Replicates draw from independent substreams of ``seed``, so the result
    is bit-reproducible and independent of evaluation order.
    """
    X = validate_observations(X)
    check_count("n_perm", n_perm, 1)
    if not 0 < quantile <= 1:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    n, q = X.shape
    observed = np.asarray(s, dtype=float)
    if observed.shape != (q - 1,):
        raise ValueError(f"expected {q - 1} scree values for q={q}, got shape {observed.shape}")
    permuted = np.empty((n_perm, q - 1))
    for b in range(n_perm):
        rng = substream(seed, STREAM_PA, b)
        keys = rng.random((n, q))
        Xp = np.take_along_axis(X, np.argsort(keys, axis=0), axis=0)
        permuted[b] = scree(build_gamma(sample_correlation(Xp)))
    qcurve = np.quantile(permuted, quantile, axis=0)
    retained = observed > qcurve
    failures = np.flatnonzero(~retained)
    r = int(failures[0]) if failures.size else int(retained.size)
    r = max(r, 1)
    return RankSelection(r=r, method="pa",
                         trace={"quantile_curve": qcurve, "permutations": int(n_perm)})
