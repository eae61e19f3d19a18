"""Block-structured sparse correlation matrix estimation for n << q data.

Estimates a large correlation matrix (and the inverse square root of it)
as a low-rank-plus-diagonal structure: rank-truncate the off-diagonal
arrangement of the sample correlation, hard-threshold it, project onto
the positive-definite correlation matrices, and invert the surviving
spectrum. Rank and sparsity level are selected from the data.
"""

from .baselines import block_constant_estimator, kmeans_columns
from .corr import (assemble_sigma, build_gamma, offdiag_indices, sample_correlation, vech,
                   vech_indices)
from .lowrank import RankSelection, scree, select_rank_cattell, select_rank_pa, truncate_rank
from .metrics import frobenius_error, support_confusion, whitening_error
from .permute import (Dendrogram, cut_tree, dissimilarity, hclust_complete, leaf_order,
                      permute_matrix)
from .pipeline import CorrelationEstimate, PipelineConfig, PipelineError, estimate, whiten
from .psd import ConvergenceError, InvSqrtResult, ProjectionResult, inv_sqrt, nearest_correlation
from .simulate import SCENARIOS, GroundTruth, ScenarioSpec, build_scenario, permute_columns, \
    sample_gaussian
from .sparsify import (LambdaSelection, candidate_lambdas, hard_threshold, select_lambda_bl,
                       select_lambda_elbow, soft_threshold, sparse_sigma, support_lambda)

__version__ = "0.1.0"

__all__ = [
    "assemble_sigma", "build_gamma", "offdiag_indices", "sample_correlation", "vech",
    "vech_indices",
    "RankSelection", "scree", "select_rank_cattell", "select_rank_pa", "truncate_rank",
    "LambdaSelection", "candidate_lambdas", "hard_threshold", "soft_threshold",
    "select_lambda_bl", "select_lambda_elbow", "sparse_sigma", "support_lambda",
    "ConvergenceError", "InvSqrtResult", "ProjectionResult", "inv_sqrt",
    "nearest_correlation", "whitening_error",
    "Dendrogram", "cut_tree", "dissimilarity", "hclust_complete", "leaf_order",
    "permute_matrix",
    "SCENARIOS", "GroundTruth", "ScenarioSpec", "build_scenario", "permute_columns",
    "sample_gaussian",
    "block_constant_estimator", "kmeans_columns",
    "frobenius_error", "support_confusion",
    "CorrelationEstimate", "PipelineConfig", "PipelineError", "estimate", "whiten",
]
