import csv
import io

import numpy as np
import pytest

import blockcov.io
from blockcov.io import read_matrix_csv, write_matrix_csv


def savetxt_bytes(M, names=None):
    """The bytes of the writer's contract: a csv header row, then np.savetxt."""
    fh = io.StringIO(newline="")
    if names is not None:
        csv.writer(fh).writerow(names)
    np.savetxt(fh, M, fmt="%.17g", delimiter=",", newline="\r\n")
    return fh.getvalue().encode()


def _symmetric(q, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((q, q)) * 10.0 ** rng.integers(-300, 300, (q, q))
    return (A + A.T) / 2


def _signed_zero_mirror():
    S = _symmetric(5, 1)
    S[1, 3], S[3, 1] = -0.0, 0.0
    return S


def _non_finite():
    S = _symmetric(6, 2)
    S[0, 4] = S[4, 0] = np.nan
    S[2, 5] = S[5, 2] = np.inf
    S[1, 1] = -np.inf
    return S


def _nan_sign_mirror():
    S = _symmetric(4, 3)
    S[0, 2], S[2, 0] = np.nan, -np.nan
    return S


# (matrix, whether the writer may format it from its upper triangle)
WRITER_CASES = {
    "symmetric": (_symmetric(9, 0), True),
    "non-symmetric": (np.random.default_rng(4).standard_normal((7, 7)), False),
    "signed-zero-mirror": (_signed_zero_mirror(), False),
    "nan-inf-symmetric": (_non_finite(), True),
    "nan-sign-mirror": (_nan_sign_mirror(), False),
    "one-by-one": (np.array([[0.1]]), True),
    "non-square": (np.random.default_rng(5).standard_normal((3, 8)), False),
    "vector": (np.array([0.1, -2.5e-300, np.inf]), False),
    "int-matrix": (np.array([[1, 2], [2, 1]]), False),
}


def test_round_trip_without_header(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    back, names = read_matrix_csv(path)
    assert names is None
    assert np.array_equal(back, M)


def test_round_trip_with_header(tmp_path):
    M = np.array([[1.5, -2.25], [0.0, 1e-17]])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M, names=["alpha", "beta"])
    back, names = read_matrix_csv(path, header=True)
    assert names == ["alpha", "beta"]
    assert np.array_equal(back, M)


def test_vector_written_as_column(tmp_path):
    path = tmp_path / "v.csv"
    write_matrix_csv(path, np.array([3, 1, 2]))
    back, _ = read_matrix_csv(path)
    assert back.shape == (3, 1)
    assert np.array_equal(back[:, 0], [3, 1, 2])


def test_exact_bytes(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.array([[0.1, -0.0], [np.nan, 2.0]]), names=["a", "b"])
    assert path.read_bytes() == b"a,b\r\n0.10000000000000001,-0\r\nnan,2\r\n"


@pytest.mark.parametrize("with_names", [False, True], ids=["no-names", "names"])
@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_bytes_match_savetxt(tmp_path, monkeypatch, case, with_names):
    M, symmetric = WRITER_CASES[case]
    columns = 1 if M.ndim == 1 else M.shape[1]
    names = [f"v{j}" for j in range(columns)] if with_names else None
    taken = []
    rows = blockcov.io._symmetric_rows
    monkeypatch.setattr(blockcov.io, "_symmetric_rows", lambda *a: taken.append(a) or rows(*a))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M, names=names)
    assert path.read_bytes() == savetxt_bytes(M, names)
    assert bool(taken) == symmetric


def test_three_dimensional_array_rejected(tmp_path):
    with pytest.raises(ValueError, match="1-d or 2-d"):
        write_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2, 2)))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_matrix_csv(path)


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="row 2"):
        read_matrix_csv(path)


def test_non_numeric_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(ValueError, match="row 2"):
        read_matrix_csv(path)


def test_header_width_mismatch_rejected(tmp_path):
    path = tmp_path / "short_header.csv"
    path.write_text("a,b,c\n" + "1,2,3,4\n" * 6)
    with pytest.raises(ValueError, match="header has 3 names, rows have 4 fields"):
        read_matrix_csv(path, header=True)
