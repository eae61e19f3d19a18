import math

import numpy as np
import pytest

from blockcov.corr import sample_correlation
from blockcov.metrics import frobenius_error, support_confusion, whitening_error
from blockcov.psd import inv_sqrt


def confusion_oracle(truth, estimate, zero_tol):
    q = truth.shape[0]
    tp = fn = fp = tn = 0
    for i in range(q):
        for j in range(i + 1, q):
            pos = abs(estimate[i, j]) > zero_tol
            if truth[i, j]:
                tp += pos
                fn += not pos
            else:
                fp += pos
                tn += not pos
    tpr = tp / (tp + fn) if tp + fn else math.nan
    fpr = fp / (fp + tn) if fp + tn else math.nan
    return tpr, fpr


class TestFrobeniusError:
    def test_equal_matrices(self):
        A = np.random.default_rng(0).standard_normal((4, 4))
        assert frobenius_error(A, A) == 0.0

    def test_single_entry(self):
        A = np.zeros((3, 3))
        B = np.zeros((3, 3))
        B[1, 2] = 3.0
        assert frobenius_error(A, B) == pytest.approx(3.0)

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6))
        B = rng.standard_normal((6, 6))
        direct = math.sqrt(sum((A[i, j] - B[i, j]) ** 2 for i in range(6) for j in range(6)))
        assert frobenius_error(A, B) == pytest.approx(direct, rel=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(2)
        A, B, C = (rng.standard_normal((5, 5)) for _ in range(3))
        assert frobenius_error(A, B) == frobenius_error(B, A)
        assert frobenius_error(A, C) <= frobenius_error(A, B) + frobenius_error(B, C) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            frobenius_error(np.eye(3), np.eye(4))


class TestSupportConfusion:
    def test_perfect_recovery(self):
        truth = np.zeros((5, 5), dtype=bool)
        truth[0, 1] = truth[1, 0] = truth[2, 4] = truth[4, 2] = True
        est = np.where(truth, 0.5, 0.0)
        assert support_confusion(truth, est) == (1.0, 0.0)

    def test_identity_estimate(self):
        truth = np.zeros((4, 4), dtype=bool)
        truth[0, 1] = truth[1, 0] = True
        tpr, fpr = support_confusion(truth, np.eye(4))
        assert (tpr, fpr) == (0.0, 0.0)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            truth = rng.random((8, 8)) < 0.4
            truth = np.triu(truth, 1)
            truth = truth | truth.T
            est = rng.standard_normal((8, 8)) * (rng.random((8, 8)) < 0.5)
            est = np.triu(est, 1)
            est = est + est.T
            got = support_confusion(truth, est)
            want = confusion_oracle(truth, est, 1e-12)
            assert got == pytest.approx(want, nan_ok=True)
            assert all(math.isnan(v) or 0.0 <= v <= 1.0 for v in got)

    def test_degenerate_classes_are_nan(self):
        all_true = np.ones((3, 3), dtype=bool)
        tpr, fpr = support_confusion(all_true, np.ones((3, 3)))
        assert tpr == 1.0 and math.isnan(fpr)
        none_true = np.zeros((3, 3), dtype=bool)
        tpr, fpr = support_confusion(none_true, np.ones((3, 3)))
        assert math.isnan(tpr) and fpr == 1.0

    def test_zero_tol_guards_fill_in(self):
        truth = np.zeros((3, 3), dtype=bool)
        est = np.full((3, 3), 1e-13)
        _, fpr = support_confusion(truth, est)
        assert fpr == 0.0
        _, fpr = support_confusion(truth, est, zero_tol=1e-14)
        assert fpr == 1.0

    def test_zero_one_mask_reads_as_booleans(self):
        truth = np.zeros((4, 4), dtype=bool)
        truth[0, 1] = truth[1, 0] = True
        est = np.where(truth, 0.5, 0.0) + np.eye(4)
        assert support_confusion(truth.astype(float), est) == support_confusion(truth, est)

    @pytest.mark.parametrize("bad", [np.nan, 0.5, 2.0, -1.0])
    def test_mask_value_other_than_zero_or_one_is_rejected(self, bad):
        truth = np.zeros((3, 3))
        truth[0, 1] = truth[1, 0] = bad
        with pytest.raises(ValueError, match="truth must hold booleans or 0/1 values"):
            support_confusion(truth, np.eye(3) + 0.5)


class TestWhiteningError:
    def test_exact_inverse_root_scores_zero(self):
        rng = np.random.default_rng(7)
        M = sample_correlation(rng.standard_normal((40, 6)))
        W = inv_sqrt(M, 0.0).matrix
        assert whitening_error(W, M) <= 1e-8

    def test_identity_pair(self):
        assert whitening_error(np.eye(4), np.eye(4)) == 0.0

    def test_single_entry_difference(self):
        assert whitening_error(np.eye(2), np.diag([2.0, 1.0])) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            whitening_error(np.eye(3), np.eye(4))
