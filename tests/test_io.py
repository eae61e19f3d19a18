import numpy as np
import pytest

from blockcov.io import read_matrix_csv, write_matrix_csv


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
