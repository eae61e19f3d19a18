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

from .corr import (_centred_columns, build_gamma, check_count, check_flag, check_instance,
                   check_nonnegative, sample_correlation, validate_observations, vech)
from .lowrank import (RankSelection, check_scree_size, scree, select_rank_cattell, select_rank_pa,
                      truncate_rank)
from .permute import dissimilarity, hclust_complete, leaf_order, permute_matrix
from .psd import InvSqrtResult, inv_sqrt, nearest_correlation
from .sparsify import (LambdaSelection, candidate_lambdas, check_cv_samples, hard_threshold,
                       select_lambda_bl, select_lambda_elbow, sparse_sigma)


@dataclass
class PipelineConfig:
    """The settings of ``blockcov estimate``, one field per flag; PA and BL run their defaults."""

    rank_method: str | int = "cattell"     # "cattell", "pa", or a fixed rank
    lambda_method: str | float = "elbow"   # "elbow", "bl", or a fixed threshold
    reorder: bool = False
    inv_sqrt_threshold: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_flag("reorder", self.reorder)
        check_count("seed", self.seed, 0)


@dataclass
class Selection:
    """Output of ``select``; ``y = vech(G_r)`` is in the working (possibly reordered) order."""

    permutation: np.ndarray
    scree: np.ndarray
    rank: RankSelection
    y: np.ndarray
    lam: LambdaSelection
    timings: dict
    cpu_s: dict


@dataclass
class CorrelationEstimate:
    """Final estimate and everything produced on the way.

    ``sigma_hat`` is the positive-definite estimate, ``sigma_tilde`` the
    sparse pre-projection matrix whose exact zeros define ``support``
    (strictly off-diagonal, symmetric). All matrices are in the original
    variable order; ``permutation`` records the reordering used
    internally (identity when reordering is off) and ``scree`` the
    spectrum the rank was chosen from, in the working order.
    ``timings`` holds each step's wall seconds, ``inv_sqrt`` the spectrum
    the inverse root kept. Each selector's ``trace`` records what it ran:
    PA its ``"permutations"`` and ``"threads"``, BL its ``"splits"``,
    ``"grid"`` and ``"threads"`` (BLAS threads not counted), elbow its
    ``"grid"``. ``diagnostics`` holds only what no other field holds, in
    the order the ``--out-report`` JSON writes it: ``"cpu_s"``, each step's
    process CPU seconds, all threads together; ``"projection"``, the PSD
    projection's Newton steps, CG steps, eigendecompositions and final
    diagonal gap; and ``"eigendecompositions"``, each step's full
    eigendecompositions, keyed by the step names of ``timings``.
    """

    sigma_hat: np.ndarray
    sigma_tilde: np.ndarray
    support: np.ndarray
    rank: RankSelection
    lam: LambdaSelection
    permutation: np.ndarray
    scree: np.ndarray
    inv_sqrt: InvSqrtResult
    timings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


class PipelineError(RuntimeError):
    """A pipeline step failed; ``step`` names it."""

    def __init__(self, step, cause):
        super().__init__(f"pipeline step '{step}' failed: {cause}")
        self.step = step


@contextmanager
def _step(name, timings, cpu_s):
    """Name the step in any error; add its wall and process CPU seconds to the two records."""
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start
        cpu_s[name] = cpu_s.get(name, 0.0) + time.process_time() - cpu_start


def fixed_lambda(y, value):
    """Selection record of a caller-chosen threshold, with its support size on ``y``."""
    size = int(np.count_nonzero(hard_threshold(y, value)))
    return LambdaSelection(lam=float(value), method="fixed", support_size=size)


def _rank_call(n, q, cfg):
    """Apply the rank setting's rules; return the call that picks the rank from X and its scree."""
    method = cfg.rank_method
    if not isinstance(method, str):
        check_count("rank", method, 1, q - 1)
        return lambda X, s: RankSelection(r=int(method), method="fixed")
    if method == "cattell":
        check_scree_size(q - 1)
        return lambda X, s: select_rank_cattell(s, r_max=max(2, min(n - 1, q - 2, 50)))
    if method == "pa":
        return lambda X, s: select_rank_pa(X, s, seed=cfg.seed)
    raise ValueError(f"unknown rank method {method!r}")


def _lambda_call(n, cfg):
    """Apply the threshold setting's rules; return the call that picks it.

    The call takes X, the input column of each of its columns, r, G and G_r.
    """
    method = cfg.lambda_method
    if not isinstance(method, str):
        check_nonnegative("lambda", method)
        return lambda X, perm, r, G, y: fixed_lambda(y, method)
    if method == "elbow":
        return lambda X, perm, r, G, y: select_lambda_elbow(vech(G), y, candidate_lambdas(y))
    if method == "bl":
        check_cv_samples(n)
        return lambda X, perm, r, G, y: select_lambda_bl(X, r, candidate_lambdas(y),
                                                         seed=cfg.seed, columns=perm)
    raise ValueError(f"unknown lambda method {method!r}")


def select(X, cfg):
    """Selection stage: every setting's rules, correlation, reordering, rank and threshold."""
    X = validate_observations(X)
    n, q = X.shape
    with _step("rank-selection", {}, {}):
        select_rank = _rank_call(n, q, cfg)
    with _step("lambda-selection", {}, {}):
        select_lambda = _lambda_call(n, cfg)
    with _step("inverse-square-root", {}, {}):
        check_nonnegative("threshold", cfg.inv_sqrt_threshold)
    timings, cpu_s = {}, {}

    with _step("correlation", timings, cpu_s):
        R = sample_correlation(X)

    perm = np.arange(q)
    with _step("reorder", timings, cpu_s):
        if cfg.reorder:
            perm = leaf_order(hclust_complete(dissimilarity(R)))
            X = X[:, perm]
            R = permute_matrix(R, perm)

    with _step("correlation", timings, cpu_s):
        G = build_gamma(R)
        s = scree(G)

    with _step("rank-selection", timings, cpu_s):
        rank = select_rank(X, s)
        y = vech(truncate_rank(G, rank.r))

    with _step("lambda-selection", timings, cpu_s):
        lam = select_lambda(X, perm, rank.r, G, y)

    return Selection(permutation=perm, scree=s, rank=rank, y=y, lam=lam, timings=timings,
                     cpu_s=cpu_s)


def finish(sel, cfg):
    """Finishing stage: threshold, PSD projection, inverse root, original order."""
    perm = sel.permutation
    timings, cpu_s = dict(sel.timings), dict(sel.cpu_s)

    with _step("lambda-selection", timings, cpu_s):
        S_tilde = sparse_sigma(sel.y, sel.lam.lam, perm.size)

    with _step("psd-projection", timings, cpu_s):
        proj = nearest_correlation(S_tilde)
        S_hat = proj.matrix

    with _step("inverse-square-root", timings, cpu_s):
        W = inv_sqrt(S_hat, cfg.inv_sqrt_threshold)

    with _step("back-permutation", timings, cpu_s):
        if cfg.reorder:
            S_hat = permute_matrix(S_hat, perm, inverse=True)
            S_tilde = permute_matrix(S_tilde, perm, inverse=True)
            W = replace(W, matrix=permute_matrix(W.matrix, perm, inverse=True))
        support = S_tilde != 0.0
        np.fill_diagonal(support, False)

    # full eigendecompositions per step: the scree, the selectors' own as their
    # traces record them, and the truncation to G_r
    eig = {
        "correlation": 1,
        "rank-selection": sel.rank.trace.get("eigendecompositions", 0) + 1,
        "lambda-selection": sel.lam.trace.get("eigendecompositions", 0),
        "psd-projection": proj.eigh_calls,
        "inverse-square-root": 1,
    }
    # BL counts its support on its own truncation, which under reordering can
    # differ from G_r by a tie at the threshold; report the estimate's support.
    lam = replace(sel.lam, support_size=int(support.sum()) // 2)
    return CorrelationEstimate(
        sigma_hat=S_hat, sigma_tilde=S_tilde, support=support,
        rank=sel.rank, lam=lam, permutation=perm, scree=sel.scree,
        inv_sqrt=W, timings=timings,
        diagnostics={"cpu_s": cpu_s,
                     "projection": {k: v for k, v in vars(proj).items() if k != "matrix"},
                     "eigendecompositions": eig})


def estimate(X, cfg=None):
    """Run the full estimation pipeline on an n x q observation matrix."""
    cfg = PipelineConfig() if cfg is None else cfg
    return finish(select(X, cfg), cfg)


def whiten(X, est):
    """Standardise the columns of ``X``, then decorrelate its rows with the inverse square root.

    Each column is centred and divided by its sample standard deviation
    (n - 1 denominator) before ``@ est.inv_sqrt.matrix``: the estimate is a
    correlation matrix, so its inverse root whitens unit-variance columns,
    and the result does not depend on the scale or location of a column.
    """
    X = validate_observations(X)
    check_instance("est", est, CorrelationEstimate)
    q = est.inv_sqrt.matrix.shape[0]
    if X.shape[1] != q:
        raise ValueError(f"observations of shape {X.shape} do not match a {q}-variable estimate")
    c = _centred_columns(X)
    Z = c / np.sqrt((c * c).sum(axis=0) / (X.shape[0] - 1))
    return Z @ est.inv_sqrt.matrix
