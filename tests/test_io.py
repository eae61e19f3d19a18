import csv
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import blockcov.io
from blockcov.io import read_matrix_csv, write_matrix_csv
from blockcov.pipeline import PipelineConfig, estimate
from blockcov.simulate import ScenarioSpec, build_scenario, sample_gaussian


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


WRITER_CASES = {
    "symmetric": _symmetric(9, 0),
    "non-symmetric": np.random.default_rng(4).standard_normal((7, 7)),
    "signed-zero-mirror": _signed_zero_mirror(),
    "nan-inf-symmetric": _non_finite(),
    "nan-sign-mirror": _nan_sign_mirror(),
    "one-by-one": np.array([[0.1]]),
    "non-square": np.random.default_rng(5).standard_normal((3, 8)),
    "vector": np.array([0.1, -2.5e-300, np.inf]),
    "int-matrix": np.array([[1, 2], [2, 1]]),
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


def test_names_must_match_the_columns(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="1 names for 3 columns"):
        write_matrix_csv(path, np.ones((2, 3)), names=["a"])
    assert not path.exists()


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
def test_bytes_match_savetxt(tmp_path, case, with_names):
    M = WRITER_CASES[case]
    columns = 1 if M.ndim == 1 else M.shape[1]
    names = [f"v{j}" for j in range(columns)] if with_names else None
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M, names=names)
    assert path.read_bytes() == savetxt_bytes(M, names)


def _written(tmp_path, M, names=None):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M, names=names)
    return path.read_bytes()


def _with_exponents(rng, size, low, high):
    """Random float64 bit patterns whose biased exponent field lies in [low, high]."""
    sign = rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
    bits = rng.integers(0, 2 ** 63, size, dtype=np.uint64) | sign
    exponent = rng.integers(low, high + 1, size, dtype=np.uint64) << np.uint64(52)
    return ((bits & ~np.uint64(0x7FF << 52)) | exponent).view(np.float64)


def test_random_bit_patterns_match_savetxt(tmp_path):
    rng = np.random.default_rng(11)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 4000, dtype=np.uint64).view(np.float64),  # any exponent
        _with_exponents(rng, 4000, 1023 - 15, 1023 + 57),  # around the fixed-point range
        _with_exponents(rng, 500, 0, 0),  # subnormals
        _with_exponents(rng, 500, 2047, 2047),  # NaN of both signs and any payload
        [np.inf, -np.inf, 0.0, -0.0],
    ])
    rng.shuffle(values)
    M = values.reshape(-1, 4)
    assert np.isnan(M).sum() > 400 and (np.abs(M) < np.finfo(float).tiny).sum() > 400
    assert _written(tmp_path, M) == savetxt_bytes(M)


def test_decimal_ties_match_savetxt(tmp_path):
    # (2m + 1) * 2**-17 has 17 fraction digits, ending in 5: in [1, 10) each is
    # exactly halfway between two 17-digit decimals, and %.17g rounds it to even
    m = np.arange(2 ** 16, 9 * 2 ** 16, 5)
    M = ((2 * m + 1) * 2.0 ** -17).reshape(-1, 1)
    assert blockcov.io._round17(M.ravel())[2].all()  # every tie takes the exact path
    assert _written(tmp_path, M) == savetxt_bytes(M)


def test_exact_path_covers_one_integer_digit():
    inside = np.array([1.0, 9.5, np.nextafter(10, 0), 1e-4, 0.0])
    outside = np.array([10.0, 12.5, 1e16, np.nextafter(1e-4, 0)])
    fixed = blockcov.io._round17(np.concatenate([inside, outside, -inside, -outside]))[2]
    assert np.array_equal(fixed, np.tile(np.arange(9) < 5, 2))


def test_estimates_take_the_exact_path_below_ten():
    truth = build_scenario(ScenarioSpec("extra-diagonal-unequal", 60))
    est = estimate(sample_gaussian(truth, 30, seed=1), PipelineConfig())
    for M in (est.sigma_hat, est.inv_sqrt.matrix):
        x = M.ravel()
        fixed = blockcov.io._round17(x)[2]
        assert np.array_equal(fixed, (np.abs(x) >= 1e-4) & (np.abs(x) < 10) | (x == 0))
        assert (np.abs(x) >= 1).any()  # each has entries with one integer digit


def test_carry_past_one_integer_digit_falls_back(tmp_path, monkeypatch):
    # with log10 one low, 10 rounds to the 17-digit significand 10**17 at k = 0
    # and carries to k = 1, which the exact path does not write
    exponent = blockcov.io._decimal_exponent
    monkeypatch.setattr(blockcov.io, "_decimal_exponent", lambda a: exponent(a) - 1)
    M = np.array([[10.0, 99.5, 1e16, 9.5], [-10.0, 1.0, 0.5, 1e-3]])
    assert _written(tmp_path, M) == savetxt_bytes(M)


def test_powers_of_ten_and_neighbours_match_savetxt(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-6, 18)])
    values = np.stack([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)], axis=1)
    M = np.concatenate([values, -values], axis=1)
    assert _written(tmp_path, M) == savetxt_bytes(M)


def test_exponent_estimates_one_off_fall_back_to_savetxt_bytes(tmp_path, monkeypatch):
    # log10 may be one off near a power of ten: the exact range check of the
    # rounded product must send such a value to the fallback, never to a wrong text
    rng = np.random.default_rng(13)
    exponent = blockcov.io._decimal_exponent
    monkeypatch.setattr(blockcov.io, "_decimal_exponent",
                        lambda a: exponent(a) + rng.integers(-1, 2, a.shape))
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    spread = rng.standard_normal(200) * 10.0 ** rng.integers(-5, 18, 200)
    M = np.concatenate([powers, np.nextafter(powers, 0), spread])
    M = np.concatenate([M, -M]).reshape(-1, 6)
    assert _written(tmp_path, M) == savetxt_bytes(M)


@pytest.mark.parametrize("M", [
    np.array([[0.0, -0.0], [-0.0, 0.0]]),
    np.array([[2 ** 53 + 1, 2 ** 62 + 3, -2 ** 63], [2 ** 63 - 1, 10 ** 17 + 1, 7]]),
    np.array([[True, False], [False, True]]),
    np.array([1e-5, 0.5, 3.0, 1e16, 1e17, -2.5]),
    np.zeros((3, 0)),
    np.zeros((0, 3)),
], ids=["signed-zeros", "ints-beyond-2**53", "bool", "vector", "no-columns", "no-rows"])
def test_special_inputs_match_savetxt(tmp_path, M):
    assert _written(tmp_path, M) == savetxt_bytes(M)


def test_non_ascii_header_matches_csv_module(tmp_path):
    names = ["σ̂", "naïve, \"quoted\"", "日本"]
    M = np.eye(3)
    assert _written(tmp_path, M, names) == savetxt_bytes(M, names)


@pytest.mark.parametrize("columns", [7, blockcov.io._BLOCK_VALUES + 3],
                         ids=["narrow", "wider-than-a-block"])
def test_rows_not_a_multiple_of_the_block(tmp_path, columns):
    rows_per_block = max(1, blockcov.io._BLOCK_VALUES // columns)
    M = np.random.default_rng(12).standard_normal((2 * rows_per_block + 1, columns))
    assert _written(tmp_path, M) == savetxt_bytes(M)


def test_three_dimensional_array_rejected(tmp_path):
    with pytest.raises(ValueError, match="1-d or 2-d"):
        write_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2, 2)))


def test_scalar_rejected(tmp_path):
    with pytest.raises(ValueError, match="1-d or 2-d"):
        write_matrix_csv(tmp_path / "m.csv", np.float64(1.5))


@pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
def test_byte_order_mark_is_read_as_utf8(tmp_path, header):
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    text = ("σ̂,b\r\n" if header else "") + "1,2.5\r\n-3,4\r\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    M, names = read_matrix_csv(plain, header=header)
    assert np.array_equal(M, [[1, 2.5], [-3, 4]])
    assert names == (["σ̂", "b"] if header else None)
    back, back_names = read_matrix_csv(marked, header=header)
    assert np.array_equal(back, M) and back_names == names


def test_names_round_trip_as_utf8_in_an_ascii_locale(tmp_path):
    # the C locale without UTF-8 mode makes ASCII the default file encoding
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join([str(Path(blockcov.io.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, numpy as np; from blockcov.io import read_matrix_csv, write_matrix_csv; "
            "write_matrix_csv(sys.argv[1], np.eye(2), ['\\u03c3', '\\u65e5']); "
            "assert read_matrix_csv(sys.argv[1], header=True)[1] == ['\\u03c3', '\\u65e5']")
    path = tmp_path / "m.csv"
    subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
    assert path.read_bytes() == savetxt_bytes(np.eye(2), ["σ", "日"])


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


@pytest.mark.parametrize("text, message", [
    ("a,b\n\n1,2\n3\n", "row 4 has 1 fields, expected 2"),
    ("a,b\n1,2\n\n3,x\n", "row 4: could not convert string to float: 'x'"),
], ids=["ragged", "non-numeric"])
def test_errors_name_the_line_of_the_file(tmp_path, text, message):
    # the header and the blank line count: row 4 is the fourth line of the file
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_matrix_csv(path, header=True)


def test_header_mark_and_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes("\ufeffσ,b\r\n\r\n1,2.5\r\n\r\n\r\n-3, 1_000\r\nnan,-0\r\n\r\n".encode())
    M, names = read_matrix_csv(path, header=True)
    assert names == ["σ", "b"]
    assert M.dtype == np.float64 and M.flags.c_contiguous
    assert np.array_equal(M, [[1, 2.5], [-3, 1000], [np.nan, -0.0]], equal_nan=True)
    assert np.signbit(M[2, 1])


def test_read_holds_about_twice_the_matrix(tmp_path):
    # each row becomes floats as it is read; the strings of the whole file
    # held about 10.7 times the matrix
    M = np.random.default_rng(12).standard_normal((300, 300))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    read_matrix_csv(path)  # warm-up: first-call state of csv and numpy
    tracemalloc.start()
    try:
        back, _ = read_matrix_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, M)
    assert peak <= 3 * M.nbytes


def test_header_only_file_rejected(tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="no data rows after header"):
        read_matrix_csv(path, header=True)


def test_header_width_mismatch_rejected(tmp_path):
    path = tmp_path / "short_header.csv"
    path.write_text("a,b,c\n" + "1,2,3,4\n" * 6)
    with pytest.raises(ValueError, match="header has 3 names, rows have 4 fields"):
        read_matrix_csv(path, header=True)
