"""Positive-definiteness repair and the thresholded inverse square root.

Thresholding breaks positive semidefiniteness, so the sparse estimate is
projected onto the correlation matrices (unit diagonal, PSD) by the dual
Newton method of Qi and Sun (SIAM J. Matrix Anal. Appl. 28(2), 2006),
followed by a small eigenvalue floor that makes the result strictly
definite. The inverse square root drops eigenvalue directions below a
threshold instead of inverting them, which keeps the whitening transform
stable when the spectrum has a near-null tail.
"""

from dataclasses import dataclass

import numpy as np

from .corr import check_count, check_finite, check_nonnegative, check_square

EIG_FLOOR = 1e-8  # smallest eigenvalue of a projection, relative to the largest
# The projection stops once the RMS diagonal gap ||diag(X) - 1|| / sqrt(q) of
# the PSD iterate X is at most DIAG_TOL, and fails after MAX_NEWTON_STEPS
# Newton steps; Newton converges in under ten, so the cap only stops a
# gap that rounding keeps above the tolerance.
DIAG_TOL = 1e-7
MAX_NEWTON_STEPS = 50
_ARMIJO = 1e-4     # sufficient-decrease fraction of the line search
_MIN_STEP = 2.0 ** -40  # a line search that must cut the step below this has failed
_CG_SHIFT = 1e-10  # keeps the generalised Jacobian definite (Qi and Sun's perturbation)
_CG_MAX = 200     # CG steps per Newton step; an unfinished solve is still a descent direction


@dataclass
class InvSqrtResult:
    """Thresholded inverse square root and how much spectrum survived."""

    matrix: np.ndarray
    kept: int
    dropped: int
    eig_min: float  # extreme eigenvalues of the input, from the same decomposition
    eig_max: float


@dataclass
class ProjectionResult:
    """Nearest correlation matrix and the work it took."""

    matrix: np.ndarray
    newton_steps: int
    cg_steps: int
    eigh_calls: int
    diag_gap: float  # RMS diagonal gap of the PSD iterate at exit, before floor and rescale


class ConvergenceError(RuntimeError):
    """Raised when the Newton iteration hits its cap or its line search fails."""


class _Dual:
    """Dual objective, gradient and generalised Jacobian at one point ``y``.

    With ``A + diag(y) = P diag(w) P'`` (ascending ``w``), the PSD part is
    ``X = P diag(max(w, 0)) P'``, the objective ``0.5 ||X||^2 - sum(y)`` and
    its gradient ``diag(X) - 1``.
    """

    def __init__(self, A, y):
        self.y = y
        B = A.copy()
        B.flat[::B.shape[0] + 1] += y
        self.w, self.P = np.linalg.eigh(B)
        wp = np.maximum(self.w, 0.0)
        self.theta = 0.5 * (wp @ wp) - y.sum()
        self.grad = np.einsum("ij,ij,j->i", self.P, self.P, wp) - 1.0

    def jacobian(self):
        """Product with, and diagonal of, the generalised Jacobian ``V``.

        ``V h = diag(P (Omega o P' diag(h) P) P')``, where ``Omega`` is 1
        between positive eigenvalues, 0 between the others and
        ``w_i / (w_i - w_j)`` across. Only the cross block is stored, and the
        product runs over the smaller side of the spectrum, written through
        ``1 - Omega`` when the positive side is the larger: O(q^2 min(p, q - p))
        per product, with p positive eigenvalues, instead of O(q^3).
        """
        m = int(np.searchsorted(self.w, 0.0, side="right"))  # eigenvalues <= 0 come first
        neg, pos = self.w[:m], self.w[m:]
        cross = pos / (pos - neg[:, None])                      # Omega between the sides
        if pos.size <= neg.size:
            S, L, C, sign = self.P[:, m:], self.P[:, :m], cross, 1.0
        else:
            S, L, C, sign = self.P[:, :m], self.P[:, m:], (1.0 - cross).T, -1.0
        shift = _CG_SHIFT + (sign < 0)

        def matvec(h):
            Sh = S * h[:, None]
            core = np.einsum("ij,ij->i", S @ (Sh.T @ S), S)
            core += 2.0 * np.einsum("ij,ij->i", L @ (C * (L.T @ Sh)), S)
            return shift * h + sign * core

        S2, L2 = S * S, L * L
        diag = shift + sign * (S2.sum(axis=1) ** 2 + 2.0 * np.einsum("ij,ij->i", L2 @ C, S2))
        return matvec, np.maximum(diag, _CG_SHIFT)


def _pcg(matvec, precond, b, rtol):
    """Diagonally preconditioned conjugate gradients for ``V x = b``; returns (x, steps)."""
    x = np.zeros_like(b)
    r = b.copy()
    z = r / precond
    p = z.copy()
    rz = r @ z
    stop = rtol * np.linalg.norm(b)
    for steps in range(1, _CG_MAX + 1):
        Vp = matvec(p)
        alpha = rz / (p @ Vp)
        x += alpha * p
        r -= alpha * Vp
        if np.linalg.norm(r) <= stop:
            break
        z = r / precond
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x, steps


def _check_input(A):
    """Return ``A`` as a float matrix, rejecting one that is not square, is empty or not finite.

    A matrix that is not exactly symmetric becomes its symmetric part
    ``A/2 + A'/2``, halved first so that no sum overflows: ``eigh`` would
    read one triangle only.
    """
    A = check_square(A, "input")
    check_count("input size", A.shape[0], 1)
    check_finite(A, "input")
    return A if np.array_equal(A, A.T) else A / 2 + A.T / 2


def nearest_correlation(A):
    """Nearest correlation matrix by the dual Newton method.

    Minimises ``0.5 ||(A + diag y)_+||^2 - sum(y)`` over ``y``: each Newton
    step solves the generalised-Jacobian system by preconditioned CG and
    takes an Armijo line search, one eigendecomposition per trial point.
    It stops when the RMS diagonal gap of ``X = (A + diag y)_+`` is at most
    ``DIAG_TOL``; more than ``MAX_NEWTON_STEPS`` Newton steps, or a line
    search that cannot descend, raises ConvergenceError. The eigenvalues of
    ``X`` are then floored at ``EIG_FLOOR`` times the largest one and the
    result is rescaled to an exactly-unit diagonal, so it is strictly
    positive definite and safe to eigendecompose downstream. A non-symmetric
    ``A`` is replaced by its symmetric part ``A/2 + A'/2``: for every
    symmetric ``X``, ``||X - A||^2 = ||X - sym A||^2 + ||skew A||^2``, so
    the two have the same nearest correlation matrix.
    """
    A = _check_input(A)
    q = A.shape[0]
    cur = _Dual(A, 1.0 - np.diag(A))
    eigh_calls, cg_steps, steps = 1, 0, 0
    while (gap := np.linalg.norm(cur.grad) / np.sqrt(q)) > DIAG_TOL:
        if steps >= MAX_NEWTON_STEPS:
            raise ConvergenceError(
                f"nearest-correlation projection did not converge within {MAX_NEWTON_STEPS} "
                f"Newton steps (diagonal gap {gap:.3e}, tolerance {DIAG_TOL:.3e})")
        steps += 1
        matvec, precond = cur.jacobian()
        dy, k = _pcg(matvec, precond, -cur.grad, min(0.1, np.sqrt(q) * gap))
        # the line search reads only y, theta and grad: free the eigenvectors
        # and the Jacobian's blocks before the trials' eigendecompositions
        del matvec, precond
        cur.P = None
        cg_steps += k
        slope = cur.grad @ dy
        # sufficient decrease, up to the rounding error of the objective itself
        slack = 16 * np.finfo(float).eps * abs(cur.theta)
        t = 1.0
        while True:
            trial = _Dual(A, cur.y + t * dy)
            eigh_calls += 1
            if trial.theta <= cur.theta + _ARMIJO * t * slope + slack:
                break
            del trial
            t /= 2
            if t < _MIN_STEP:
                raise ConvergenceError(
                    f"nearest-correlation line search failed at Newton step {steps} "
                    f"(diagonal gap {gap:.3e})")
        cur = trial
    w = np.maximum(cur.w, EIG_FLOOR * cur.w[-1])
    M = (cur.P * w) @ cur.P.T
    cur.P = None
    M += M.T  # numpy copies the overlapping M.T: the bits of (M + M.T) / 2
    M *= 0.5
    d = np.sqrt(np.clip(np.diag(M), np.finfo(float).tiny, None))
    M /= np.outer(d, d)
    np.fill_diagonal(M, 1.0)
    return ProjectionResult(matrix=M, newton_steps=steps, cg_steps=cg_steps,
                            eigh_calls=eigh_calls, diag_gap=float(gap))


def inv_sqrt(S, t):
    """Inverse square root with the small end of the spectrum dropped.

    Eigenvalues above ``t`` enter as 1/sqrt(d); the rest contribute
    nothing. ``kept`` and ``dropped`` count the two groups. A non-symmetric
    ``S`` is replaced by its symmetric part ``S/2 + S'/2``.
    """
    S = _check_input(S)
    check_nonnegative("threshold", t)
    w, V = np.linalg.eigh(S)
    keep = w > t
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    W = (V * inv) @ V.T
    del V
    W += W.T
    W *= 0.5
    return InvSqrtResult(matrix=W, kept=int(keep.sum()), dropped=int((~keep).sum()),
                         eig_min=float(w[0]), eig_max=float(w[-1]))
