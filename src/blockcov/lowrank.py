"""Best low-rank approximation and data-driven rank selection.

The rank is the first of the two tuning parameters of the estimation
pipeline. Two selectors are provided: a scree-elbow criterion (two-line
fit over the singular value plot) and parallel analysis (retain components
whose singular values beat those of column-permuted data).
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._rng import STREAM_PA, substream
from ._twoline import two_segment_scan
from .corr import (build_gamma, check_count, check_finite, check_square, sample_correlation,
                   validate_observations)


@dataclass
class RankSelection:
    """Chosen rank plus the diagnostics recorded while selecting it."""

    r: int
    method: str  # "cattell", "pa" or "fixed"
    trace: dict = field(default_factory=dict)


def scree(G):
    """Singular values of a symmetric matrix, or of each matrix of a stack, in descending order.

    For a symmetric matrix these are the absolute eigenvalues, which is
    what the eigendecomposition-based truncation uses. Only the lower
    triangle is read: the upper one is taken to mirror it.
    """
    G = check_square(G, "scree's input", stack=True)
    return np.sort(np.abs(np.linalg.eigvalsh(G)), axis=-1)[..., ::-1]


def check_scree_size(size):
    if size < 4:
        raise ValueError(f"need at least 4 scree values, got {size}")


def truncate_rank(G, r):
    """Frobenius-optimal approximation of symmetric ``G`` with rank <= r.

    Keeps the r eigenvalues of largest magnitude (their eigenvectors are
    the singular vectors) and zeroes the rest; the result is
    re-symmetrized to remove round-off asymmetry. Only the lower triangle
    of ``G`` is read: the upper one is taken to mirror it.
    """
    G = check_square(G, "truncate_rank's input")
    check_count("rank", r, 1, G.shape[0])
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
    s = check_finite(np.asarray(s, dtype=float), "scree")
    check_scree_size(s.size)
    check_count("r_max", r_max, 2, s.size - 1)
    window = min(3 * r_max, s.size)
    rss = two_segment_scan(s[:window], np.arange(1, r_max + 1))  # rss[b - 1] is rank b
    return RankSelection(r=int(np.argmin(rss)) + 1, method="cattell", trace={"rss": rss})


# numpy's eigvalsh holds the GIL on a call that returns at most 500
# eigenvalues, so PA decomposes its permutations in stacks of at least this
# many; a larger call releases it, and the stacks of two threads overlap.
_STACK_EIGENVALUES = 512
# From this many variables on, PA and BL run their replicates on threads. Below
# it the hand-off costs about what the overlap saves. One BLAS thread on two cores,
# threaded against serial: BL 1.0-1.25 at q = 80, 0.89-0.98 at q = 90, 0.64 at
# q = 200; PA 1.1-1.5 at q = 60-80, 0.81-1.05 at q = 90-100, 0.60-0.86 at q = 110-200.
_THREADS_MIN_Q = 90
PA_QUANTILE = 0.95  # PA keeps a component while it beats this quantile of the permuted ones


def _cpu_threads():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _replicate_threads(q, tasks):
    """Threads for ``tasks`` replicates on ``q`` variables, the caller's included.

    1 below ``_THREADS_MIN_Q``, else one per CPU the process may use, at most one per task.
    """
    return min(_cpu_threads(), tasks) if q >= _THREADS_MIN_Q else 1


def select_rank_pa(X, s, n_perm=50, seed=0):
    """Parallel-analysis rank choice.

    ``s`` is the observed scree of ``X``: ``scree(build_gamma(R))`` for
    its sample correlation ``R``. Each replicate permutes the entries of
    every column of ``X`` independently and recomputes the scree of the
    off-diagonal arrangement. A component is retained while its observed
    value exceeds the per-index ``PA_QUANTILE`` quantile of the permuted
    values; retention stops at the first failure and at least rank 1 is
    returned. Replicates draw from independent substreams of ``seed``, so
    the result is bit-reproducible and independent of evaluation order.

    Replicates are decomposed in stacks of ``ceil(512 / (q - 1))``, one
    ``scree`` call each. Stack c runs on thread ``c mod w`` of
    ``w = _replicate_threads(q, stacks)``, thread 0 being this one. Each
    scree is written to its replicate's row, so the result is
    bit-identical to a serial run.
    """
    X = validate_observations(X)
    check_count("n_perm", n_perm, 1)
    n, q = X.shape
    observed = check_finite(np.asarray(s, dtype=float), "scree")
    if observed.shape != (q - 1,):
        raise ValueError(f"expected {q - 1} scree values for q={q}, got shape {observed.shape}")
    permuted = np.empty((n_perm, q - 1))
    size = -(-_STACK_EIGENVALUES // (q - 1))
    starts = range(0, n_perm, size)

    def null_screes(start):
        stop = min(start + size, n_perm)
        G = np.empty((stop - start, q - 1, q - 1))
        for b in range(start, stop):
            rng = substream(seed, STREAM_PA, b)
            keys = rng.random((n, q))
            Xp = np.take_along_axis(X, np.argsort(keys, axis=0), axis=0)
            G[b - start] = build_gamma(sample_correlation(Xp))
        permuted[start:stop] = scree(G)

    threads = _replicate_threads(q, len(starts))

    def stacks(t):
        for start in starts[t::threads]:
            null_screes(start)

    # no worker thread starts when threads == 1; leaving the block joins them
    with ThreadPoolExecutor(max_workers=max(threads - 1, 1)) as pool:
        workers = [pool.submit(stacks, t) for t in range(1, threads)]
        stacks(0)
        for worker in workers:
            worker.result()
    qcurve = np.quantile(permuted, PA_QUANTILE, axis=0)
    retained = observed > qcurve
    failures = np.flatnonzero(~retained)
    r = int(failures[0]) if failures.size else int(retained.size)
    r = max(r, 1)
    return RankSelection(r=r, method="pa",
                         trace={"quantile_curve": qcurve, "permutations": int(n_perm),
                                "eigendecompositions": int(n_perm), "threads": threads})
