"""Estimation-quality metrics: Frobenius error and support recovery rates."""

import numpy as np


def frobenius_error(A, B):
    """Frobenius norm of A - B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return float(np.linalg.norm(A - B))


def support_confusion(truth, estimate, zero_tol=1e-12):
    """(TPR, FPR) of the estimated support over strictly-upper positions.

    An entry is called positive when its magnitude exceeds ``zero_tol``
    (hard thresholding produces exact zeros, so the tolerance only guards
    against later fill-in). A rate whose reference class is empty (no true
    non-zeros, or no true zeros) is returned as NaN rather than 0.
    """
    truth = np.asarray(truth, dtype=bool)
    E = np.asarray(estimate, dtype=float)
    if truth.shape != E.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {E.shape}")
    iu = np.triu_indices(E.shape[0], k=1)
    t = truth[iu]
    positive = np.abs(E[iu]) > zero_tol
    tp = int(np.count_nonzero(t & positive))
    fn = int(np.count_nonzero(t & ~positive))
    fp = int(np.count_nonzero(~t & positive))
    tn = int(np.count_nonzero(~t & ~positive))
    tpr = tp / (tp + fn) if tp + fn else float("nan")
    fpr = fp / (fp + tn) if fp + tn else float("nan")
    return tpr, fpr
