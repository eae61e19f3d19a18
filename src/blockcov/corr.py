"""Sample correlation and the structural transforms around it.

The estimation pipeline works on the (q-1) x (q-1) symmetric arrangement
of the off-diagonal correlations rather than on the q x q matrix itself,
because that arrangement inherits low rank from a low-rank-plus-diagonal
covariance. This module provides the correlation computation, the
rearrangement and its half-vectorization, and the inverse assembly step.
"""

from functools import lru_cache

import numpy as np


def _check_integer(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_count(name, value, minimum, maximum=None):
    """Reject a non-integer count (``bool`` included) or one outside [minimum, maximum]."""
    _check_integer(name, value)
    if maximum is not None and not minimum <= value <= maximum:
        raise ValueError(f"{name} must be in [{minimum}, {maximum}], got {value}")
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def check_sample_count(n):
    _check_integer("n", n)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")


def check_square(A, what, stack=False):
    """Return ``A`` as a float array, rejecting anything but a square matrix.

    With ``stack``, a stack of square matrices (3-d) is accepted too.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim not in ((2, 3) if stack else (2,)) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {A.shape}")
    return A


def check_nonnegative(name, value):
    """Reject a value below zero, NaN, which fails every comparison, and a non-number."""
    # an array, even of one value, compares as that value; True and False as 1 and 0
    if getattr(value, "ndim", 0) or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        if value >= 0:
            return
    except (TypeError, ValueError):  # None, a string, a list
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    raise ValueError(f"{name} must be non-negative, got {value}")


def check_flag(name, value):
    """Reject a flag that is not ``True`` or ``False``, Python's or numpy's."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be True or False, got {value!r}")


def check_matrix(X, what):
    """Return ``X`` as a float array, rejecting anything but a 2-d one."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{what} must be a 2-d array, got shape {X.shape}")
    return X


def check_finite(A, what):
    """Return ``A``, rejecting a NaN or infinite entry."""
    if not np.isfinite(A).all():
        raise ValueError(f"non-finite entries in {what}")
    return A


def check_integers(name, a):
    """Return ``a`` as an array, rejecting one whose dtype is not an integer type."""
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{name} must hold integers, got dtype {a.dtype}")
    return a


def check_instance(name, value, kind):
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def validate_observations(X):
    """Check an observation matrix and return it as a float array.

    Rows are samples and columns are variables. Requirements: at least two
    rows, at least two columns, all entries finite, and no constant column
    (its sample variance is zero and its correlations undefined).
    """
    X = check_matrix(X, "observations")
    n, q = X.shape
    check_sample_count(n)
    if q < 2:
        raise ValueError(f"need at least 2 variables, got {q}")
    check_finite(X, "observations")
    # an exact test: a variance pass misses a constant whose mean rounds (a column of 0.1s)
    dead = constant_columns(X)
    if dead.size:
        raise ValueError(f"column {dead[0]} has zero sample variance")
    return X


def constant_columns(X):
    """Indices of the columns of ``X`` whose every entry equals the first row's."""
    return np.flatnonzero((X == X[0]).all(axis=0))


def _centred_columns(X):
    """Columns of ``X`` centred after an exact power-of-two scale to a maximum in [0.5, 1).

    Ordinary data keeps its bits. For any finite input no sum overflows, and
    a column that is not constant keeps a centred entry of at least 2**-55.
    """
    X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=0))[1])
    return X - X.mean(axis=0)


def sample_correlation(X):
    """Pearson correlation matrix of the columns of ``X``.

    The covariance underneath uses the unbiased n-1 denominator (some
    ecosystems default to n). The result is symmetrized, clipped to
    [-1, 1], and its diagonal is set to exactly 1 so that 1 +/- ulp noise
    never reaches the thresholding step.
    """
    X = validate_observations(X)
    c = _centred_columns(X)
    S = c.T @ c / (X.shape[0] - 1)
    sd = np.sqrt(np.diag(S))
    R = S / np.outer(sd, sd)
    R = (R + R.T) / 2
    R = np.clip(R, -1.0, 1.0)
    np.fill_diagonal(R, 1.0)
    return R


def build_gamma(R):
    """Symmetric (q-1) x (q-1) arrangement of the off-diagonal entries of ``R``.

    Entry (i, j) with i <= j holds R[i, j+1]; the lower triangle follows by
    symmetry. Every strictly-upper entry of R appears exactly once in the
    upper-including-diagonal triangle of the result.
    """
    R = _check_correlation_shape(R)
    G = np.triu(R[:-1, 1:])
    return G + np.triu(G, 1).T


def offdiag_indices(q):
    """Index pair (rows, cols) of the strictly-upper entries of a q x q matrix, row by row.

    This is the order of ``vech(build_gamma(R))``: its k-th entry is
    ``R[rows[k], cols[k]]``, and ``assemble_sigma`` writes ``v[k]`` there.
    """
    check_count("q", q, 0)
    return np.triu_indices(q, 1)


# The module's one cache: row-major positions of index_map(m) in an m x m matrix, which a
# 1-d take gathers at a quarter of the 2-d fancy index's cost. A run needs two sizes (q and
# q - 1), and the bound keeps a long-lived process from growing it. Shared, so read-only.
@lru_cache(maxsize=4)
def _flat_positions(index_map, m):
    rows, cols = index_map(m)
    pos = rows * m + cols
    pos.flags.writeable = False
    return pos


def offdiag_vech(R):
    """``vech(build_gamma(R))`` gathered straight from ``R``.

    Equal to the two-step form under ``==``; only the sign of a zero can
    differ, since ``build_gamma`` adds ``+0.0`` to every entry.
    """
    R = _check_correlation_shape(R)
    return R.take(_flat_positions(offdiag_indices, R.shape[0]))


def _check_correlation_shape(R):
    R = check_square(R, "correlation matrix")
    if R.shape[0] < 2:
        raise ValueError("need at least 2 variables")
    return R


def vech_indices(m):
    """Index pair (rows, cols) addressing the entries of ``vech``.

    ``vech(A)[k] == A[rows[k], cols[k]]``; the order is column-major over
    the lower-including-diagonal triangle.
    """
    check_count("m", m, 0)
    iu, ju = np.triu_indices(m)
    return ju, iu


def vech(A):
    """Half-vectorization of a square matrix.

    Stacks each column after striking out its first i-1 entries, i.e. the
    lower-including-diagonal triangle column by column; the result has
    length m(m+1)/2.
    """
    A = check_square(A, "vech's input")
    return A.take(_flat_positions(vech_indices, A.shape[0]))


def assemble_sigma(v, q):
    """Rebuild a unit-diagonal symmetric q x q matrix from off-diagonal values.

    ``v`` must be the half-vectorization of the off-diagonal arrangement
    (length q(q-1)/2); the upper triangle is filled so that
    ``vech(build_gamma(result)) == v`` and the lower triangle follows by
    symmetry. Exact inverse of ``vech(build_gamma(.))``.
    """
    check_count("q", q, 1)
    v = np.asarray(v, dtype=float)
    expected = q * (q - 1) // 2
    if v.ndim != 1 or v.size != expected:
        raise ValueError(f"expected q(q-1)/2 = {expected} values for q={q}, got {v.size}")
    pos = _flat_positions(offdiag_indices, q)
    S = np.eye(q)
    S.ravel()[pos] = v
    S.T.flat[pos] = v  # (i, j) of S.T is (j, i) of S: the lower triangle
    return S
