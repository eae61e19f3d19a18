"""CSV reading/writing for matrices.

Plain comma-separated values with '.' as the decimal separator and no
locale-dependent formatting; an optional first row carries variable
names. Files are read as UTF-8, with or without a byte-order mark, and
written as UTF-8 without one. Values are written as ``%.17g`` (17
significant digits, so a write/read round trip is exact), one row per
``\r\n``-terminated line: the bytes
``np.savetxt(fmt="%.17g", delimiter=",", newline="\r\n")`` writes.

The writer formats about 4096 values (whole rows) at a time with numpy
array operations. Zeros and every value with ``1e-4 <= |x| < 10``, whose
``%.17g`` text is fixed-point with at most one integer digit, get their 17
digits from Dekker's error-free product of the value and a power of ten
(T. J. Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 18, 1971), rounded half to even as CPython's
``%`` rounds them. NaN, infinities and every other value go through
Python's ``%``, one call per block. Each block reaches the file in one
write.
"""

import csv
import functools

import numpy as np


def read_matrix_csv(path, header=False):
    """Read a numeric matrix; returns (matrix, names), names None without header."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    """Write a matrix (or vector, as a single column) to CSV, a block of rows at a time."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim == 1:
        M = M[:, None]
    elif M.ndim != 2:
        raise ValueError(f"expected a 1-d or 2-d array, got {M.ndim}-d")
    rows, cols = M.shape
    if names is not None and len(names) != cols:
        raise ValueError(f"{len(names)} names for {cols} columns")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if names is not None:
            csv.writer(fh).writerow(names)
        if cols == 0:
            fh.write("\r\n" * rows)
            return
        fh.flush()  # the text layer holds nothing more; blocks go to the bytes below it
        step = max(1, _BLOCK_VALUES // cols)
        for start in range(0, rows, step):
            fh.buffer.write(_format_rows(M[start:start + step]))


# Values formatted per block (whole rows, at least one). Against 4096, blocks
# of 2048 wrote the two outputs of a q = 300 estimate about 20% slower, and
# blocks of 8192 or 16384 about 10% faster but raised the peak RSS of the
# whole `blockcov estimate` run by 2.7 MB.
_BLOCK_VALUES = 4096
# 10**p for p = 0..20, each exact, and its Veltkamp split into 26-bit halves
_POW10 = np.array([float(10 ** p) for p in range(21)])
_SPLIT = 134217729.0  # 2**27 + 1
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# A value's slot is three little-endian 8-byte words of text padded with
# NUL bytes, which are dropped at the end:
#   byte 0      the separator before the value: ',' inside a row and '\r',
#               written as "\r\n", before the first value of each row but the first
#   byte 1      '-' for a negative value
#   bytes 2-6   "0." and up to three zeros before the digits of a value below 1;
#               a value of at least 1 with a fraction has its digit at byte 6
#   bytes 7-23  the 17 digits, without the trailing zeros of a fraction, or the
#               point and the 16 digits after the one at byte 6
# A fallback text fills bytes 1-23, padded with spaces that become NUL; a
# block with a 24-byte one gets a fourth word.
_FALLBACK, _FALLBACK_WIDE = "%-23.17g", "%-31.17g"
_STRIPPED = 10000  # offset of the chunks that drop their trailing zeros


def _words(byte_values):
    """The last axis of a byte array (..., 8m) as m little-endian words."""
    return byte_values.astype(np.uint8).view("<u8").astype(np.uint64)


@functools.cache
def _chunk_words():
    """Chunk c of four digits as ASCII in the low half of a word, and in the high half.

    At c + _STRIPPED the chunk comes without its trailing zeros. Built on
    first use, so a process that writes no CSV does not hold the 320 KB.
    """
    c = np.arange(_STRIPPED, dtype=np.uint16)[:, None]
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    ascii_digits = (c // places % 10).astype(np.uint8) + np.uint8(ord("0"))
    trailing_zeros = (c % (10 * places[::-1]) == 0).sum(axis=1, keepdims=True)
    kept = np.arange(4) < 4 - trailing_zeros
    words = np.zeros((2 * _STRIPPED, 8), dtype=np.uint8)
    words[:_STRIPPED, :4] = ascii_digits
    words[_STRIPPED:, :4] = ascii_digits * kept
    low = _words(words)[:, 0]
    return low, low << np.uint64(32)


# the sign and lead digit, at 10 * sign + digit; at 20 + 10 * sign + digit
# the digit of a value of at least 1 with a fraction, followed by the point
_LEAD = _words(np.array([[0, ord("-") * sign, 0, 0, 0, 0]
                         + ([ord("0") + d, ord(".")] if point else [0, ord("0") + d])
                         for point in (0, 1) for sign in (0, 1) for d in range(10)]))[:, 0]
# the prefix of a value below 1, at decimal exponent k + 4 (k = -4..0)
_PREFIX = np.array([int.from_bytes(b"\0\0" + (b"0." + b"0" * (-k - 1) if k < 0 else b""), "little")
                    for k in range(-4, 1)], dtype=np.uint64)


def _format_rows(M):
    """The bytes of whole rows ``M``, each value in ``%.17g`` with ',' and '\\r\\n'."""
    x = M.ravel()
    k, D, fixed = _round17(x)
    slots = np.empty((x.size, 3), dtype="<u8")
    _write_fixed_point(slots, x, k, D)
    slow = np.flatnonzero(~fixed)
    if slow.size:
        values = tuple(x[slow].tolist())
        fallback = (_FALLBACK * slow.size) % values
        if len(fallback) > 23 * slow.size:  # a 24-byte text: the block gets a fourth word
            fallback = (_FALLBACK_WIDE * slow.size) % values
            slots = np.concatenate([slots, np.zeros((x.size, 1), slots.dtype)], axis=1)
        b = np.frombuffer(fallback.encode("ascii"), np.uint8).reshape(slow.size, -1)
        slots.view(np.uint8)[slow, 1:] = b * (b != ord(" "))
    text = slots.view(np.uint8)
    text[:, 0] = ord(",")
    text.reshape(M.shape[0], M.shape[1], -1)[1:, 0, 0] = ord("\r")
    text[0, 0] = 0
    return slots.tobytes().translate(None, b"\0").replace(b"\r", b"\r\n") + b"\r\n"


def _round17(x):
    """Decimal exponent k and 17-digit significand D of each |x|, exactly rounded.

    ``fixed`` marks the values whose ``%.17g`` text is fixed-point with at
    most one integer digit (-4 <= k <= 0, that is 1e-4 <= |x| < 10), zeros
    included (D = k = 0). The others are left to the fallback; their D and
    k are only valid table indices.
    """
    a = np.abs(x)
    k = _decimal_exponent(a)
    zero = a == 0.0
    fixed = zero | ((k >= -4) & (k <= 0))  # NaN fails both comparisons
    one = zero | ~fixed
    a[one] = 1.0
    k[one] = 0.0
    k = k.astype(np.int64)
    p = 16 - k
    # Dekker's two-product: hi + lo == a * 10**p exactly
    hi = a * _POW10[p]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    # hi >= 2**53 is an even integer, so this is the half-to-even rounding of hi + lo
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # log10 can be one off. hi + lo < 1e16 is D < 1e16, or D == 1e16 with hi
    # == 1e16 and lo < 0 (hi > 1e16 is hi >= 1e16 + 2 with |lo| <= 1); those
    # go to the fallback. D == 1e17 carries to the next exponent, whether
    # hi + lo is below 1e17 or not, and D > 1e17 goes to the fallback, as
    # does a carry past k = 0.
    fixed &= (D - (lo < 0) >= 10 ** 16) & (D <= 10 ** 17)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    fixed &= k <= 0
    D[~fixed] = 10 ** 16
    k[~fixed] = 0
    D[zero] = 0
    return k, D, fixed


def _decimal_exponent(a):
    """floor(log10(a)), which can be one off; -inf at 0 and NaN or inf where a is."""
    with np.errstate(divide="ignore"):
        return np.floor(np.log10(a))


def _divmod(a, b):
    # numpy's divmod does not use the fast division by a scalar that // does
    q = a // b
    return q, a - q * b


def _write_fixed_point(slots, x, k, D):
    """Fill each slot with the fixed-point text of sign(x) * D * 10**(k - 16), k <= 0."""
    lead, rest = _divmod(D, 10 ** 16)
    upper, lower = _divmod(rest, 10 ** 8)
    chunks = [*_divmod(upper, 10 ** 4), *_divmod(lower, 10 ** 4)]
    # a chunk followed by zero chunks only loses its trailing zeros
    chunks[3] += _STRIPPED
    for i in (2, 1, 0):
        chunks[i][chunks[i + 1] == _STRIPPED] += _STRIPPED
    low, high = _chunk_words()
    point = (k == 0) & (rest != 0)
    slots[:, 0] = _PREFIX[k + 4] | _LEAD[lead + 10 * np.signbit(x) + 20 * point]
    slots[:, 1] = low[chunks[0]] | high[chunks[1]]
    slots[:, 2] = low[chunks[2]] | high[chunks[3]]
