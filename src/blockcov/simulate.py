"""Synthetic block-structured correlation scenarios and Gaussian sampling.

Each scenario builds a q x 5 sparse loading matrix Z supported on five
consecutive variable blocks and the correlation target Z Z' + D, with D
diagonal making the diagonal exactly 1. "Equal" scenarios use fixed
loadings per block; "unequal" ones draw them uniformly from documented
ranges. "Extra-diagonal" scenarios add a negative loading stripe to the
fourth column inside the third block, creating off-diagonal blocks.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rng import STREAM_COLPERM, STREAM_SAMPLE, STREAM_SCENARIO, substream
from .corr import check_count, check_instance, check_matrix, check_sample_count

SCENARIOS = ("diagonal-equal", "diagonal-unequal", "extra-diagonal-equal", "extra-diagonal-unequal")

BLOCK_FRACTIONS = (0.1, 0.2, 0.3, 0.2, 0.2)
EQUAL_LOADINGS = tuple(math.sqrt(v) for v in (0.7, 0.75, 0.65, 0.8, 0.7))
UNEQUAL_RANGES = (
    (math.sqrt(0.6), math.sqrt(0.8)),
    (math.sqrt(0.6), math.sqrt(0.8)),
    (math.sqrt(0.3), math.sqrt(0.6)),  # kept lower so overlap rows stay below unit variance
    (math.sqrt(0.6), math.sqrt(0.8)),
    (math.sqrt(0.6), math.sqrt(0.8)),
)
EXTRA_LOADING = -0.5


@dataclass(frozen=True)
class ScenarioSpec:
    """Which scenario to build, at which size, with which seed."""

    kind: str
    q: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.kind!r}; expected one of {SCENARIOS}")
        check_count("q", self.q, 10)  # so every block is non-empty
        check_count("seed", self.seed, 0)


@dataclass
class GroundTruth:
    """Exact scenario target: loadings, correlation matrix, support, labels."""

    Z: np.ndarray
    Sigma: np.ndarray
    support: np.ndarray  # boolean q x q mask of non-zero off-diagonal entries
    blocks: np.ndarray   # true block label (0..4) of each variable


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def block_sizes(q):
    """Sizes of the five consecutive blocks.

    Computed left to right as round(fraction * q), with the final block
    absorbing the rounding remainder so the blocks always tile 1..q.
    """
    sizes = [_round_half_up(f * q) for f in BLOCK_FRACTIONS[:-1]]
    sizes.append(q - sum(sizes))
    if min(sizes) < 1:
        raise ValueError(f"q={q} leaves an empty block")
    return sizes


def build_scenario(spec):
    """Construct the exact correlation target of a scenario."""
    check_instance("spec", spec, ScenarioSpec)
    q = spec.q
    sizes = block_sizes(q)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    Z = np.zeros((q, 5))
    rng = substream(spec.seed, STREAM_SCENARIO)
    unequal = spec.kind.endswith("-unequal")
    for c in range(5):
        rows = slice(int(starts[c]), int(starts[c]) + sizes[c])
        if unequal:
            low, high = UNEQUAL_RANGES[c]
            Z[rows, c] = rng.uniform(low, high, size=sizes[c])
        else:
            Z[rows, c] = EQUAL_LOADINGS[c]
    if spec.kind.startswith("extra-diagonal"):
        lo = _round_half_up(0.35 * q)
        hi = _round_half_up(0.45 * q)
        Z[lo - 1:hi, 3] = EXTRA_LOADING
    zz_diag = (Z * Z).sum(axis=1)
    if np.any(zz_diag > 1.0):
        raise ValueError("scenario loadings exceed unit variance")
    Sigma = Z @ Z.T
    support = np.abs(Sigma) > 1e-12
    np.fill_diagonal(support, False)
    np.fill_diagonal(Sigma, 1.0)  # adds the diagonal part I - diag(Z Z')
    blocks = np.repeat(np.arange(5), sizes)
    return GroundTruth(Z=Z, Sigma=Sigma, support=support, blocks=blocks)


def sample_gaussian(truth, n, seed=0):
    """Draw ``n`` i.i.d. zero-mean Gaussian rows with covariance ``truth.Sigma``.

    The matrix square root comes from the symmetric eigendecomposition
    with negative eigenvalues clipped at zero; a fixed seed reproduces the
    output bit for bit.
    """
    check_sample_count(n)
    w, V = np.linalg.eigh(truth.Sigma)
    root = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
    rng = substream(seed, STREAM_SAMPLE)
    return rng.standard_normal((n, truth.Sigma.shape[0])) @ root


def permute_columns(X, seed=0):
    """Uniformly random column permutation of the data.

    Returns the permuted matrix and the permutation used (new column j is
    old column perm[j]), so ``X_perm[:, np.argsort(perm)]`` restores X.
    """
    X = check_matrix(X, "observations")
    rng = substream(seed, STREAM_COLPERM)
    perm = rng.permutation(X.shape[1])
    return X[:, perm], perm
