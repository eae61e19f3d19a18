"""CSV reading/writing for matrices.

Plain comma-separated values with '.' as the decimal separator and no
locale-dependent formatting; an optional first row carries variable
names. Values are written as ``%.17g`` (17 significant digits, so a
write/read round trip is exact), one row per ``\r\n``-terminated line:
the bytes ``np.savetxt(fmt="%.17g", delimiter=",", newline="\r\n")``
writes.
"""

import csv

import numpy as np


def read_matrix_csv(path, header=False):
    """Read a numeric matrix; returns (matrix, names), names None without header."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    names = None
    if header:
        names = rows[0]
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: no data rows after header")
    width = len(rows[0])
    if names is not None and len(names) != width:
        raise ValueError(f"{path}: header has {len(names)} names, rows have {width} fields")
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} fields, expected {width}")
        try:
            data[i] = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"{path}: row {i + 1}: {exc}") from exc
    return data, names


def write_matrix_csv(path, M, names=None):
    """Write a matrix (or vector, as a single column) to CSV, one row at a time.

    A float64 matrix equal to its transpose bit for bit has only its upper
    triangle formatted; the mirrored entries reuse the same text.
    """
    M = np.asarray(M)
    if M.ndim == 1:
        M = M[:, None]
    elif M.ndim != 2:
        raise ValueError(f"expected a 1-d or 2-d array, got {M.ndim}-d")
    fields = ",".join(["%.17g"] * M.shape[1])
    lines = _symmetric_rows(M, fields) if _is_symmetric(M) else (
        fields % tuple(row.tolist()) for row in M)
    # a 64 KiB buffer makes one system call per several rows, not one per row
    with open(path, "w", newline="", buffering=1 << 16) as fh:
        if names is not None:
            csv.writer(fh).writerow(names)
        for line in lines:
            fh.write(line + "\r\n")


def _is_symmetric(M):
    """Square float64 and equal to its transpose bit for bit (-0.0 differs from +0.0)."""
    if M.dtype != np.float64 or M.shape[0] != M.shape[1]:
        return False
    bits = M.view(np.int64)
    return np.array_equal(bits, bits.T)


def _symmetric_rows(M, fields):
    """Text rows of a symmetric matrix, formatting only its upper triangle.

    Row i formats ``M[i, i:]`` in one call; its left part is the text that
    rows 0..i-1 produced for column i. Each row keeps its unused texts in
    reverse, so the next row pops them in column order and at most about
    q*q/4 texts are alive at once.
    """
    pending = []
    for i, row in enumerate(M):
        # "%.17g," is 6 characters, so fields[6 * i:] holds the q - i fields of M[i, i:]
        right = fields[6 * i:] % tuple(row[i:].tolist())
        left = ",".join(map(list.pop, pending))
        pending.append(right.split(",")[:0:-1])
        yield f"{left},{right}" if i else right
