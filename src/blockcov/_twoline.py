"""Two-segment least-squares line fits shared by the elbow-style selectors."""

import numpy as np


def _line_rss(count, mean_x, sums):
    # residual of the line fit to ``count`` consecutive indices centred on
    # ``mean_x``, from the sums of z, x z and z z over them; one point fits exactly
    sz, sxz, szz = sums
    var_x = count * (count * count - 1) / 12.0  # sum of (x - mean_x)^2 over consecutive integers
    cov = sxz - mean_x * sz
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(count > 1, szz - sz * sz / count - cov * cov / var_x, 0.0)


def two_segment_scan(y, breaks):
    """Total RSS of a two-line fit of ``y`` against its indices, per breakpoint.

    Breakpoint ``b`` fits one line to points 0..b and another to points
    b..end: the segments share the point at ``b``, so an elbow located
    exactly at a sample belongs to both lines and neither side gains from
    excluding it. Returns an array aligned with ``breaks``.

    One pass of prefix sums of z = y - mean(y), x z and z z (x the index)
    gives every segment's sums by one subtraction. A total at or below
    ``n * eps * sum(z^2)``, the rounding of those sums, counts as exactly
    0, so a straight line reads 0 at every breakpoint; the caller's argmin
    then takes the first, which is how ties go to the smallest breakpoint.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    z = y - y.mean()
    prefix = np.zeros((3, n + 1))
    np.cumsum([z, np.arange(n) * z, z * z], axis=1, out=prefix[:, 1:])  # column k: points 0..k-1
    b = np.asarray(breaks)
    total = (_line_rss(b + 1, b / 2, prefix[:, b + 1])
             + _line_rss(n - b, (b + n - 1) / 2, prefix[:, n:] - prefix[:, b]))
    total[total <= n * np.finfo(float).eps * prefix[2, n]] = 0.0
    return total
