"""One bad input per public callable, and the ValueError it must raise.

Every callable in ``blockcov.__all__`` needs at least one row here, except
the result records and exception classes listed in ``NO_INPUT_RULES``, so a
new public function cannot arrive without a stated input contract.
"""

import numpy as np
import pytest

import blockcov as bc

NAN = np.full((3, 3), np.nan)
X_RANDOM = np.random.default_rng(0).standard_normal((4, 4))

# classes that only hold results or name a failure; they check no input
NO_INPUT_RULES = {"RankSelection", "LambdaSelection", "InvSqrtResult", "ProjectionResult",
                  "Dendrogram", "GroundTruth", "CorrelationEstimate", "ConvergenceError",
                  "PipelineError"}


def _constant_column(value):
    X = np.random.default_rng(1).standard_normal((7, 6))
    X[:, 3] = value
    return X


# (public name, call with a bad input, expected message)
ROWS = [
    ("assemble_sigma", lambda: bc.assemble_sigma(np.ones(2), 3),
     r"expected q\(q-1\)/2 = 3 values for q=3, got 2"),
    ("build_gamma", lambda: bc.build_gamma(np.ones((2, 3))),
     r"correlation matrix must be square, got shape \(2, 3\)"),
    ("sample_correlation", lambda: bc.sample_correlation(np.ones(3)),
     r"observations must be a 2-d array, got shape \(3,\)"),
    ("sample_correlation", lambda: bc.sample_correlation(_constant_column(0.1)),
     "column 3 has zero sample variance"),
    ("vech", lambda: bc.vech(np.ones((2, 3))), "vech's input must be square"),
    ("vech_indices", lambda: bc.vech_indices(-1), "m must be non-negative, got -1"),
    ("vech_indices", lambda: bc.vech_indices(2.5), "m must be an integer, got 2.5"),
    ("scree", lambda: bc.scree(np.ones(3)), r"scree's input must be square, got shape \(3,\)"),
    ("select_rank_cattell", lambda: bc.select_rank_cattell(np.full(10, np.nan), 3),
     "non-finite entries in scree"),
    ("select_rank_pa", lambda: bc.select_rank_pa(X_RANDOM, np.ones(2)),
     r"expected 3 scree values for q=4, got shape \(2,\)"),
    ("select_rank_pa", lambda: bc.select_rank_pa(X_RANDOM, np.full(3, np.nan)),
     "non-finite entries in scree"),
    ("truncate_rank", lambda: bc.truncate_rank(np.eye(3), 0), r"rank must be in \[1, 3\], got 0"),
    ("candidate_lambdas", lambda: bc.candidate_lambdas(np.array([np.nan, 1.0])),
     "non-finite entries in coefficient vector"),
    ("hard_threshold", lambda: bc.hard_threshold(np.ones(3), None),
     "lambda must be a number, got None"),
    ("soft_threshold", lambda: bc.soft_threshold(np.ones(3), -1),
     "lambda must be non-negative, got -1"),
    ("select_lambda_bl", lambda: bc.select_lambda_bl(X_RANDOM, 1, np.arange(3.0)),
     "need at least 5 samples for cross-validation, got 4"),
    ("select_lambda_elbow", lambda: bc.select_lambda_elbow(np.full(5, np.nan), np.ones(5),
                                                           np.arange(5.0)),
     "non-finite entries in rvec"),
    ("select_lambda_elbow", lambda: bc.select_lambda_elbow(np.ones(5), np.full(5, np.nan),
                                                           np.arange(5.0)),
     "non-finite entries in y"),
    ("sparse_sigma", lambda: bc.sparse_sigma(np.ones(2), 0.1, 3),
     r"expected q\(q-1\)/2 = 3 values for q=3, got 2"),
    ("support_lambda", lambda: bc.support_lambda(np.ones(3), -1),
     "size must be non-negative, got -1"),
    ("inv_sqrt", lambda: bc.inv_sqrt(NAN, 0.1), "non-finite entries in input"),
    ("inv_sqrt", lambda: bc.inv_sqrt(np.eye(3), None), "threshold must be a number, got None"),
    ("nearest_correlation", lambda: bc.nearest_correlation(np.ones((0, 0))),
     "input size must be at least 1, got 0"),
    ("nearest_correlation", lambda: bc.nearest_correlation(NAN), "non-finite entries in input"),
    ("whitening_error", lambda: bc.whitening_error(np.eye(3), np.eye(2)),
     r"shape mismatch: \(3, 3\) vs \(2, 2\)"),
    ("cut_tree", lambda: bc.cut_tree(None, 2), "tree must be a Dendrogram, got NoneType"),
    ("dissimilarity", lambda: bc.dissimilarity(np.ones(3)), "correlation matrix must be square"),
    ("hclust_complete", lambda: bc.hclust_complete(NAN),
     "non-finite entries in dissimilarity matrix"),
    ("leaf_order", lambda: bc.leaf_order(None), "tree must be a Dendrogram, got NoneType"),
    ("permute_matrix", lambda: bc.permute_matrix(np.eye(2), [0.0, 1.0]),
     "order must hold integers, got dtype float64"),
    ("build_scenario", lambda: bc.build_scenario(None), "spec must be a ScenarioSpec"),
    ("permute_columns", lambda: bc.permute_columns(np.ones(5)),
     r"observations must be a 2-d array, got shape \(5,\)"),
    ("sample_gaussian",
     lambda: bc.sample_gaussian(bc.build_scenario(bc.ScenarioSpec("diagonal-equal", 10)), 1),
     "need at least 2 samples, got 1"),
    ("block_constant_estimator", lambda: bc.block_constant_estimator(np.eye(3), [0, 1, 2.5]),
     "labels must hold integers, got dtype float64"),
    ("kmeans_columns", lambda: bc.kmeans_columns(np.ones((3, 4)), 0),
     r"k must be in \[1, 4\], got 0"),
    ("frobenius_error", lambda: bc.frobenius_error(np.eye(2), np.eye(3)),
     r"shape mismatch: \(2, 2\) vs \(3, 3\)"),
    ("support_confusion", lambda: bc.support_confusion(np.ones(3, bool), np.ones(3)),
     r"estimate must be square, got shape \(3,\)"),
    ("estimate", lambda: bc.estimate(np.ones(3)),
     r"observations must be a 2-d array, got shape \(3,\)"),
    ("estimate", lambda: bc.estimate(_constant_column(100000.1)),
     "column 3 has zero sample variance"),
    ("whiten", lambda: bc.whiten(np.ones(3), None),
     r"observations must be a 2-d array, got shape \(3,\)"),
    ("PipelineConfig", lambda: bc.PipelineConfig(seed=-1), "seed must be non-negative, got -1"),
    ("ScenarioSpec", lambda: bc.ScenarioSpec("x", 10), "unknown scenario 'x'"),
    ("hard_threshold", lambda: bc.hard_threshold(np.ones(3), np.array([0.5])),
     r"lambda must be a number, got array\(\[0\.5\]\)"),
    ("support_lambda", lambda: bc.support_lambda(np.full(3, np.nan), 1),
     "non-finite entries in coefficient vector"),
    ("kmeans_columns", lambda: bc.kmeans_columns(np.full((3, 4), np.nan), 2),
     "non-finite entries in observations"),
    ("block_constant_estimator", lambda: bc.block_constant_estimator(NAN, [0, 1, 2]),
     "non-finite entries in correlation matrix"),
    ("support_confusion", lambda: bc.support_confusion(np.ones((3, 3), bool), NAN),
     "non-finite entries in estimate"),
    ("whiten", lambda: bc.whiten(X_RANDOM, None), "est must be a CorrelationEstimate, got NoneType"),
    ("support_confusion", lambda: bc.support_confusion(np.full((3, 3), 0.5), np.eye(3) + 0.5),
     "truth must hold booleans or 0/1 values"),
    ("support_confusion", lambda: bc.support_confusion(np.eye(3, dtype=bool), np.eye(3),
                                                       zero_tol=-1),
     "zero_tol must be non-negative, got -1"),
    ("PipelineConfig", lambda: bc.PipelineConfig(reorder="no"),
     "reorder must be True or False, got 'no'"),
    ("PipelineConfig", lambda: bc.PipelineConfig(reorder=1),
     "reorder must be True or False, got 1"),
    ("offdiag_indices", lambda: bc.offdiag_indices(2.5), "q must be an integer, got 2.5"),
    ("offdiag_indices", lambda: bc.offdiag_indices(-1), "q must be non-negative, got -1"),
    ("offdiag_indices", lambda: bc.offdiag_indices(True), "q must be an integer, got True"),
]


def test_every_public_callable_has_a_row():
    public = {name for name in bc.__all__ if callable(getattr(bc, name))}
    assert NO_INPUT_RULES <= public
    assert public - NO_INPUT_RULES == {name for name, _, _ in ROWS}


@pytest.mark.parametrize("name, call, message", ROWS,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(ROWS)])
def test_bad_input_is_a_value_error(name, call, message):
    with pytest.raises(ValueError, match=message) as exc:
        call()
    # a LinAlgError is a ValueError too, but it reports a numerical failure
    assert type(exc.value) is ValueError
