import numpy as np
import pytest

from blockcov._twoline import two_segment_scan

EPS = np.finfo(float).eps


def lstsq_line_rss(x, y):
    if len(y) < 2:
        return 0.0
    A = np.column_stack([x, np.ones(len(x))])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(((A @ coef - y) ** 2).sum())


def scan_oracle(y, breaks):
    # one lstsq line fit per side of every breakpoint, sharing the breakpoint
    x = np.arange(len(y), dtype=float)
    return np.array([lstsq_line_rss(x[:b + 1], y[:b + 1]) + lstsq_line_rss(x[b:], y[b:])
                     for b in breaks])


def rounding_bound(y):
    return y.size * EPS * float(((y - y.mean()) ** 2).sum())


def assert_matches_oracle(y, breaks):
    rss, want = two_segment_scan(y, breaks), scan_oracle(y, breaks)
    assert np.all(np.abs(rss - want) <= rounding_bound(y))
    assert np.argmin(rss) == np.argmin(want)
    return rss


def random_scree(rng, n):
    return np.sort(np.abs(rng.standard_normal(n)))[::-1] * 10 ** rng.uniform(-3, 2)


class TestTwoSegmentScan:
    def test_random_screes(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(5, 120))
            assert_matches_oracle(random_scree(rng, n), np.arange(1, n - 1))

    def test_every_breakpoint_with_one_and_two_point_ends(self):
        # b = 0 and b = n-1 leave one point on a side, b = 1 and b = n-2 two
        rng = np.random.default_rng(1)
        for n in (3, 4, 7, 60):
            assert_matches_oracle(random_scree(rng, n), np.arange(n))

    def test_flat_tail_far_from_the_mean(self):
        # the tail's sums of z and z^2 nearly cancel between two prefixes
        rng = np.random.default_rng(2)
        for head in (3, 10, 40):
            y = np.r_[np.linspace(1e4, 9e3, head), 1.0 + 1e-3 * rng.standard_normal(100 - head)]
            assert_matches_oracle(y, np.arange(1, y.size - 1))

    @pytest.mark.parametrize("kink", [1, 6, 13])
    def test_one_kink(self, kink):
        idx = np.arange(15, dtype=float)
        y = np.where(idx <= kink, 1.0 + 0.05 * idx, 1.0 + 0.05 * kink + 0.9 * (idx - kink))
        rss = assert_matches_oracle(y, np.arange(1, 14))
        assert np.argmin(rss) + 1 == kink
        assert rss[kink - 1] == 0.0

    @pytest.mark.parametrize("y", [np.linspace(1.0, 5.0, 10), np.linspace(12.0, 1.0, 12),
                                   np.full(8, 3.0), 1e6 + 0.1 * np.arange(50)])
    def test_linear_curve_is_zero_everywhere(self, y):
        assert np.array_equal(two_segment_scan(y, np.arange(1, y.size - 1)), np.zeros(y.size - 2))

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_scale_keeps_the_argmin(self, scale):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = random_scree(rng, int(rng.integers(5, 120)))
            breaks = np.arange(1, y.size - 1)
            rss = assert_matches_oracle(scale * y, breaks)
            assert np.argmin(rss) == np.argmin(two_segment_scan(y, breaks))
