"""Replicated estimator comparison on the synthetic scenarios.

Every (scenario, n, q, replication) cell draws its own ground truth and
data from seed substreams keyed by the cell, so results are identical
for any worker count and any scheduling order. Rows report Frobenius
estimation error against the true matrix, support recovery rates, and
the whitening error of the thresholded inverse square root.
"""

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from time import perf_counter

from ._rng import STREAM_BENCH, derive_seed
from .baselines import block_constant_estimator, kmeans_columns
from .corr import sample_correlation, vech
from .metrics import frobenius_error, support_confusion
from .permute import cut_tree, dissimilarity, hclust_complete, permute_matrix
from .pipeline import PipelineConfig, estimate, finish, fixed_lambda, select
from .psd import inv_sqrt, whitening_error
from .simulate import ScenarioSpec, build_scenario, permute_columns, sample_gaussian
from .sparsify import support_lambda

METHODS = ("empirical", "blocks", "blocks_fast", "blocks_real", "hclust", "kmeans")
TRUE_CLUSTERS = 5

RESULTS_SCHEMA = "blockcov-results v1"
RESULT_COLUMNS = ("scenario", "n", "q", "rep", "method", "frobenius_error", "tpr",
                  "fpr", "whitening_error", "rank", "lambda", "support_size",
                  "wall_time_s")


@dataclass
class BenchmarkConfig:
    scenarios: tuple
    n_list: tuple
    q_list: tuple
    reps: int = 1
    methods: tuple = METHODS
    seed: int = 0
    inv_sqrt_threshold: float = PipelineConfig.inv_sqrt_threshold
    permute_columns: bool = False
    reorder: bool = False
    jobs: int = 1


def run_benchmark(cfg):
    """Run all cells and return one row dict per (cell, method), in task order.

    The whole configuration is checked before the first cell runs.
    """
    for m in cfg.methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    for scenario in cfg.scenarios:
        for q in cfg.q_list:
            ScenarioSpec(scenario, q)
    if cfg.reps < 1:
        raise ValueError(f"reps must be at least 1, got {cfg.reps}")
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {cfg.jobs}")
    tasks = [(cfg, si, scenario, n, q, rep)
             for si, scenario in enumerate(cfg.scenarios)
             for n in cfg.n_list
             for q in cfg.q_list
             for rep in range(cfg.reps)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            per_cell = list(pool.map(_run_cell, tasks))
    else:
        per_cell = [_run_cell(t) for t in tasks]
    return [row for rows in per_cell for row in rows]


def write_results(path, rows):
    """Write benchmark rows as CSV behind a schema-version comment line."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {RESULTS_SCHEMA}\n")
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _format_cell(row.get(k)) for k in RESULT_COLUMNS})


def _format_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return v


def _run_cell(task):
    cfg, si, scenario, n, q, rep = task
    truth = build_scenario(ScenarioSpec(scenario, q,
                                        seed=derive_seed(cfg.seed, STREAM_BENCH, si, q, rep, 0)))
    X = sample_gaussian(truth, n, seed=derive_seed(cfg.seed, STREAM_BENCH, si, q, n, rep, 1))
    Sigma, support = truth.Sigma, truth.support
    if cfg.permute_columns:
        X, perm = permute_columns(X, seed=derive_seed(cfg.seed, STREAM_BENCH, si, q, n, rep, 2))
        Sigma = permute_matrix(Sigma, perm)
        support = permute_matrix(support, perm)
    true_size = int(support.sum()) // 2
    R = sample_correlation(X)
    rows = []
    for method in cfg.methods:
        start = perf_counter()
        rank_val = lam_val = size_val = None
        if method == "empirical":
            S_final = S_support = R
            W = inv_sqrt(R, cfg.inv_sqrt_threshold).matrix
        elif method in ("blocks", "blocks_fast", "blocks_real"):
            est = _run_pipeline(method, X, true_size, cfg, si, q, n, rep)
            S_final, S_support, W = est.sigma_hat, est.sigma_tilde, est.inv_sqrt.matrix
            rank_val, lam_val, size_val = est.rank.r, est.lam.lam, est.lam.support_size
        elif method == "hclust":
            labels = cut_tree(hclust_complete(dissimilarity(R)), TRUE_CLUSTERS)
            S_final = S_support = block_constant_estimator(R, labels)
            W = inv_sqrt(S_final, cfg.inv_sqrt_threshold).matrix
        elif method == "kmeans":
            labels = kmeans_columns(X, TRUE_CLUSTERS,
                                    seed=derive_seed(cfg.seed, STREAM_BENCH, si, q, n, rep, 4))
            S_final = S_support = block_constant_estimator(R, labels)
            W = inv_sqrt(S_final, cfg.inv_sqrt_threshold).matrix
        tpr, fpr = support_confusion(support, S_support)
        rows.append({
            "scenario": scenario, "n": n, "q": q, "rep": rep, "method": method,
            "frobenius_error": frobenius_error(S_final, Sigma),
            "tpr": tpr, "fpr": fpr,
            "whitening_error": whitening_error(W, Sigma),
            "rank": rank_val, "lambda": lam_val, "support_size": size_val,
            "wall_time_s": perf_counter() - start,
        })
    return rows


def _run_pipeline(method, X, true_size, cfg, si, q, n, rep):
    seed = derive_seed(cfg.seed, STREAM_BENCH, si, q, n, rep, 3)
    if method == "blocks":
        rank_method, lambda_method = "pa", "bl"
    elif method == "blocks_fast":
        rank_method, lambda_method = "cattell", "elbow"
    else:  # blocks_real: true rank, threshold matched to the true support size below
        rank_method, lambda_method = TRUE_CLUSTERS, 0.0
    pipe_cfg = PipelineConfig(rank_method=rank_method, lambda_method=lambda_method,
                              reorder=cfg.reorder, inv_sqrt_threshold=cfg.inv_sqrt_threshold,
                              seed=seed)
    if method != "blocks_real":
        return estimate(X, pipe_cfg)
    sel = select(X, pipe_cfg)
    lam = fixed_lambda(sel.G_r, support_lambda(vech(sel.G_r), true_size))
    return finish(replace(sel, lam=lam), pipe_cfg)
