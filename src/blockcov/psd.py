"""Positive-definiteness repair and the thresholded inverse square root.

Thresholding breaks positive semidefiniteness, so the sparse estimate is
projected onto the correlation matrices (unit diagonal, PSD) by
alternating projections with Dykstra's correction, followed by a small
eigenvalue floor that makes the result strictly definite. The inverse
square root drops eigenvalue directions below a threshold instead of
inverting them, which keeps the whitening transform stable when the
spectrum has a near-null tail.
"""

from dataclasses import dataclass

import numpy as np

EIG_FLOOR = 1e-8  # smallest eigenvalue of a projection, relative to the largest


@dataclass
class PsdConfig:
    """Numerical controls of the nearest-correlation projection.

    The iteration cap is sized for matrices in the thousands of columns;
    well-conditioned inputs converge in a handful of iterations.
    """

    tol: float = 1e-7
    max_iter: int = 400

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class InvSqrtResult:
    """Thresholded inverse square root and how much spectrum survived."""

    matrix: np.ndarray
    kept: int
    dropped: int
    eig_min: float  # extreme eigenvalues of the input, from the same decomposition
    eig_max: float


class ConvergenceError(RuntimeError):
    """Raised when the alternating projections hit the iteration cap.

    Carries the last iterate and the relative change it achieved so
    callers can inspect or resume.
    """

    def __init__(self, message, last_iterate, change):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.change = change


def _check_square(A, what):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {A.shape}")
    return A


def _project_psd(A):
    w, V = np.linalg.eigh(A)
    np.maximum(w, 0.0, out=w)
    return (V * w) @ V.T


def nearest_correlation(A, cfg=None, callback=None):
    """Nearest correlation matrix by alternating projections.

    Dykstra's correction alternates between the PSD cone and the
    unit-diagonal matrices until the relative Frobenius change of the
    iterate drops to ``cfg.tol``; hitting ``cfg.max_iter`` first raises
    ConvergenceError. Afterwards the eigenvalues are floored at
    ``EIG_FLOOR`` times the largest one and the result is rescaled to
    an exactly-unit diagonal, so it is strictly positive definite and safe
    to eigendecompose downstream. ``callback``, when given, is invoked
    with each iterate (testing hook).
    """
    cfg = PsdConfig() if cfg is None else cfg
    A = _check_square(A, "input")
    Y = A.copy()
    correction = np.zeros_like(A)
    change = np.inf
    for _ in range(cfg.max_iter):
        Rk = Y - correction
        Xk = _project_psd(Rk)
        correction = Xk - Rk
        Y_new = Xk
        np.fill_diagonal(Y_new, 1.0)
        scale = np.linalg.norm(Y_new)
        change = np.linalg.norm(Y_new - Y) / (scale if scale > 0 else 1.0)
        Y = Y_new
        if callback is not None:
            callback(Y)
        if change <= cfg.tol:
            break
    else:
        raise ConvergenceError(
            f"nearest-correlation projection did not converge within {cfg.max_iter} "
            f"iterations (relative change {change:.3e}, tolerance {cfg.tol:.3e})",
            last_iterate=Y, change=change)
    w, V = np.linalg.eigh(Y)
    np.maximum(w, EIG_FLOOR * w[-1], out=w)
    M = (V * w) @ V.T
    M = (M + M.T) / 2
    d = np.sqrt(np.clip(np.diag(M), np.finfo(float).tiny, None))
    M /= np.outer(d, d)
    np.fill_diagonal(M, 1.0)
    return M


def check_threshold(t):
    if not t >= 0:
        raise ValueError(f"threshold must be non-negative, got {t}")


def inv_sqrt(S, t):
    """Inverse square root with the small end of the spectrum dropped.

    Eigenvalues above ``t`` enter as 1/sqrt(d); the rest contribute
    nothing. ``kept`` and ``dropped`` count the two groups.
    """
    S = _check_square(S, "input")
    check_threshold(t)
    w, V = np.linalg.eigh(S)
    keep = w > t
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    W = (V * inv) @ V.T
    W = (W + W.T) / 2
    return InvSqrtResult(matrix=W, kept=int(keep.sum()), dropped=int((~keep).sum()),
                         eig_min=float(w[0]), eig_max=float(w[-1]))


def whitening_error(W, Sigma):
    """Frobenius norm of W Sigma W - I, the residual dependence after whitening."""
    W = _check_square(W, "whitening matrix")
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.shape != W.shape:
        raise ValueError(f"shape mismatch: {W.shape} vs {Sigma.shape}")
    return float(np.linalg.norm(W @ Sigma @ W - np.eye(W.shape[0])))
