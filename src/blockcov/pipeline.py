"""End-to-end correlation estimation.

Two stages: ``select`` optionally reorders the variables by a clustering
leaf order so latent blocks become contiguous, approximates the
off-diagonal arrangement at low rank and picks a data-driven sparsity
level; ``finish`` hard-thresholds at it, repairs positive definiteness,
takes the thresholded inverse square root and restores the variable order.

Two stock configurations mirror the selector pairings that matter in
practice: cattell+elbow (fast, default) and pa+bl.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .corr import build_gamma, sample_correlation, validate_observations, vech
from .lowrank import RankSelection, scree, select_rank_cattell, select_rank_pa, truncate_rank
from .permute import dissimilarity, hclust_complete, leaf_order, permute_matrix
from .psd import InvSqrtResult, PsdConfig, inv_sqrt, nearest_correlation
from .sparsify import (LambdaSelection, candidate_lambdas, hard_threshold,
                       select_lambda_bl, select_lambda_elbow, sparse_sigma)


@dataclass
class PipelineConfig:
    """Estimation policy: selectors, reordering, numerical controls."""

    rank_method: str | int = "cattell"     # "cattell", "pa", or a fixed rank
    lambda_method: str | float = "elbow"   # "elbow", "bl", or a fixed threshold
    reorder: bool = False
    dissimilarity_kind: str = "one_minus_abs_corr"
    psd: PsdConfig = field(default_factory=PsdConfig)
    inv_sqrt_threshold: float = 0.1
    compute_inv_sqrt: bool = True
    seed: int = 0
    r_max: int | None = None             # cattell scan limit; default min(n-1, q-2, 50)
    pa_permutations: int = 50
    pa_quantile: float = 0.95
    lambda_max_grid: int = 100
    bl_splits: int = 50


@dataclass
class SelectionTrace:
    """Curves recorded during parameter selection, for diagnostics export."""

    scree: np.ndarray
    rank: dict
    lam: dict


@dataclass
class Selection:
    """Output of ``select``; ``G_r`` is in the working (possibly reordered) order."""

    permutation: np.ndarray
    scree: np.ndarray
    rank: RankSelection
    G_r: np.ndarray
    lam: LambdaSelection
    timings: dict


@dataclass
class CorrelationEstimate:
    """Final estimate and everything produced on the way.

    ``sigma_hat`` is the positive-definite estimate, ``sigma_tilde`` the
    sparse pre-projection matrix whose exact zeros define ``support``
    (strictly off-diagonal, symmetric). All matrices are in the original
    variable order; ``permutation`` records the reordering used
    internally (identity when reordering is off).
    """

    sigma_hat: np.ndarray
    sigma_tilde: np.ndarray
    support: np.ndarray
    rank: RankSelection
    lam: LambdaSelection
    permutation: np.ndarray
    trace: SelectionTrace
    inv_sqrt: InvSqrtResult | None = None
    timings: dict = field(default_factory=dict)


class PipelineError(RuntimeError):
    """A pipeline step failed; ``step`` names it."""

    def __init__(self, step, cause):
        super().__init__(f"pipeline step '{step}' failed: {cause}")
        self.step = step


@contextmanager
def _step(name, timings):
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


def fixed_lambda(G_r, value):
    """Selection record of a caller-chosen threshold, with its support size."""
    size = int(np.count_nonzero(hard_threshold(vech(G_r), value)))
    return LambdaSelection(lam=float(value), method="fixed", support_size=size)


def select(X, cfg):
    """Selection stage: correlation, optional reordering, rank and threshold."""
    X = validate_observations(X)
    n, q = X.shape
    timings = {}

    with _step("correlation", timings):
        R = sample_correlation(X)

    perm = np.arange(q)
    with _step("reorder", timings):
        if cfg.reorder:
            values = X if cfg.dissimilarity_kind == "euclidean_columns" else R
            perm = leaf_order(hclust_complete(dissimilarity(values, cfg.dissimilarity_kind)))
            X = X[:, perm]
            R = permute_matrix(R, perm)

    with _step("correlation", timings):
        G = build_gamma(R)
        s = scree(G)

    with _step("rank-selection", timings):
        if isinstance(cfg.rank_method, (int, np.integer)):
            rank = RankSelection(r=int(cfg.rank_method), method="fixed")
        elif cfg.rank_method == "cattell":
            r_max = cfg.r_max if cfg.r_max is not None else max(2, min(n - 1, q - 2, 50))
            rank = select_rank_cattell(s, r_max=r_max)
        elif cfg.rank_method == "pa":
            rank = select_rank_pa(X, n_perm=cfg.pa_permutations,
                                  quantile=cfg.pa_quantile, seed=cfg.seed)
        else:
            raise ValueError(f"unknown rank method {cfg.rank_method!r}")
        G_r = truncate_rank(G, rank.r)

    with _step("lambda-selection", timings):
        if isinstance(cfg.lambda_method, str):
            grid = candidate_lambdas(vech(G_r), cfg.lambda_max_grid)
            if cfg.lambda_method == "elbow":
                lam = select_lambda_elbow(R, G_r, grid)
            elif cfg.lambda_method == "bl":
                lam = select_lambda_bl(X, rank.r, grid, n_splits=cfg.bl_splits, seed=cfg.seed)
            else:
                raise ValueError(f"unknown lambda method {cfg.lambda_method!r}")
        else:
            lam = fixed_lambda(G_r, cfg.lambda_method)

    return Selection(permutation=perm, scree=s, rank=rank, G_r=G_r, lam=lam, timings=timings)


def finish(sel, cfg):
    """Finishing stage: threshold, PSD projection, inverse root, original order."""
    perm = sel.permutation
    timings = dict(sel.timings)

    with _step("lambda-selection", timings):
        S_tilde = sparse_sigma(sel.G_r, sel.lam.lam, perm.size)

    with _step("psd-projection", timings):
        S_hat = nearest_correlation(S_tilde, cfg.psd)

    W = None
    with _step("inverse-square-root", timings):
        if cfg.compute_inv_sqrt:
            W = inv_sqrt(S_hat, cfg.inv_sqrt_threshold)

    with _step("back-permutation", timings):
        if cfg.reorder:
            S_hat = permute_matrix(S_hat, perm, inverse=True)
            S_tilde = permute_matrix(S_tilde, perm, inverse=True)
            if W is not None:
                W = replace(W, matrix=permute_matrix(W.matrix, perm, inverse=True))
        support = S_tilde != 0.0
        np.fill_diagonal(support, False)

    # BL counts its support on its own truncation, which under reordering can
    # differ from G_r by a tie at the threshold; report the estimate's support.
    lam = replace(sel.lam, support_size=int(support.sum()) // 2)
    return CorrelationEstimate(
        sigma_hat=S_hat, sigma_tilde=S_tilde, support=support,
        rank=sel.rank, lam=lam, permutation=perm,
        trace=SelectionTrace(scree=sel.scree, rank=sel.rank.trace, lam=lam.trace),
        inv_sqrt=W, timings=timings)


def estimate(X, cfg=None):
    """Run the full estimation pipeline on an n x q observation matrix."""
    cfg = PipelineConfig() if cfg is None else cfg
    return finish(select(X, cfg), cfg)


def whiten(X, est):
    """Decorrelate the rows of ``X`` with the estimated inverse square root."""
    if est.inv_sqrt is None:
        raise ValueError("estimate has no inverse square root; rerun with compute_inv_sqrt=True")
    X = np.asarray(X, dtype=float)
    q = est.inv_sqrt.matrix.shape[0]
    if X.ndim != 2 or X.shape[1] != q:
        raise ValueError(f"observations of shape {X.shape} do not match a {q}-variable estimate")
    return X @ est.inv_sqrt.matrix
