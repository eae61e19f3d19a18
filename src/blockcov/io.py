"""CSV reading/writing for matrices.

Plain comma-separated values with '.' as the decimal separator and no
locale-dependent formatting; an optional first row carries variable
names. Floats are written with 17 significant digits so a write/read
round trip is exact.
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
    """Write a matrix (or vector, as a single column) to CSV."""
    with open(path, "w", newline="") as fh:
        if names is not None:
            csv.writer(fh).writerow(names)
        np.savetxt(fh, M, fmt="%.17g", delimiter=",", newline="\r\n")
