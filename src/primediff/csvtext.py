"""CSV text for the `sieve` and `spectrum` tables, rendered in numpy.

Formatting one `%.12g` in Python costs several hundred ns, so a table is
rendered a chunk of CHUNK_ROWS rows at a time from its column arrays.  Each
column becomes a frame: a uint8 array of character positions by rows
(column-major), whose unused positions hold NUL.  A chunk stacks its frames
with rows of separators, transposes once, and drops every NUL with one
`bytes.translate`.  What is left is the text `fmt % row` gives for each row.

- `%d`: a sign slot, then the four-digit groups of |v|, read from a digit
  table with `np.take(..., axis=1)`; leading zeros are NUL.
- `%.12g` of a positive finite x: X = floor(log10 x) and the 12-digit
  integer D = round(x 10^(11-X)) give the digits (trailing zeros NUL).
  They are laid out in fixed notation for -4 <= X <= 11, behind a "0.000"
  prefix when X < 0, and in exponent notation otherwise, with a dot slot
  after each digit.  +0.0 is "0".  A value whose float estimate cannot
  decide its rounding (x 10^(11-X) within 1e-3 of a half-integer, or
  10^(11-X) not finite), a value whose D falls outside [10^11, 10^12)
  (its X is off by one), and every negative, -0.0, nan or inf, is
  formatted by `'%.12g' % x` itself, so the text equals printf's by
  construction.
- `%s` of a sequence of str: each word, NUL-padded to the longest.

A field may also be indexed, `(fmt, table)`: its column holds indices into
the table, and its text is that of table[index] in fmt.  The table's frame
is rendered once per table, not once per chunk, and each chunk gathers its
rows from it with `np.take`, so the bytes are those of the gathered values
by construction.  The spectrum's `class` words and its per-(class, q)
`bound` values are indexed fields.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["CHUNK_ROWS", "column_range", "csv_blocks"]

CHUNK_ROWS = 1 << 14  # rows rendered, and written, at a time

# digit table: column g < 10^4 holds g's four digits, column _LEAD + g the
# same with leading zeros NUL (0 all NUL), _TRAIL + g with trailing zeros NUL
# (0 all NUL), and column _ZERO holds "0"
_LEAD, _TRAIL, _ZERO = 10_000, 20_000, 30_000
_g = np.arange(10_000)
_place = 10 ** np.arange(3, -1, -1)[:, None]
_digits = (_g // _place % 10 + 48).astype(np.uint8)
_DIGITS = np.concatenate(
    [
        _digits,
        np.where(_g >= _place, _digits, 0),
        np.where(_g % (10 * _place) != 0, _digits, 0),
        np.array([[0], [0], [0], [48]], dtype=np.uint8),
    ],
    axis=1,
).astype(np.uint8)
del _g, _place, _digits

# %.12g frame rows: "0.000" prefix, 12 digits with a dot slot after each of
# the first 11, then "e", the exponent's sign and its three digit slots
_G_WIDTH = 5 + 23 + 5
_PREFIX = np.array([48, 46, 48, 48, 48], dtype=np.uint8)[:, None]
_PREFIX_UPTO = np.array([-1, -1, -2, -3, -4])[:, None]  # shown in fixed notation iff X <= this
_DIGIT_AT = np.arange(12)[:, None]
_DOT_AFTER = _DIGIT_AT[:11]
# exponent digits of |X| < 400: at least two, hundreds NUL below 100
_EXPONENT = np.array(
    [f"{e:02d}".rjust(3, "\0").encode() for e in range(400)], dtype="S3"
).view(np.uint8).reshape(400, 3).T.copy()
# 10^k for the 11 - X, -298..336, that a positive double can need; inf past 1e308
_P10_LO = -310
with np.errstate(over="ignore"):
    _P10 = 10.0 ** np.arange(_P10_LO, 340, dtype=np.float64)
_F10 = 10.0 ** np.arange(12)


def _int_frame(v: np.ndarray) -> np.ndarray:
    """`%d` of each value of an integer column (int64 values)."""
    v = v.astype(np.int64, copy=False)
    u = v.astype(np.uint64)
    neg = v < 0
    mag = np.where(neg, -u, u)  # uint64 negation wraps: exact at -2^63 too
    groups = -(-len(str(int(mag.max(initial=0)))) // 4)  # four-digit groups of the widest
    sign = int(neg.any())
    frame = np.empty((sign + 4 * groups, len(v)), dtype=np.uint8)
    if sign:
        frame[0] = neg * np.uint8(45)
    for j in range(groups):  # j = 0 is the lowest group
        idx = (mag // 10 ** (4 * j) % 10_000).astype(np.intp)
        if j < groups - 1:
            idx += _LEAD * (mag < 10 ** (4 * (j + 1)))
        else:
            idx += _LEAD
        if j == 0:
            idx[mag == 0] = _ZERO
        top = sign + 4 * (groups - 1 - j)
        np.take(_DIGITS, idx, axis=1, out=frame[top : top + 4], mode="clip")
    return frame


def _g12_frame(x: np.ndarray) -> np.ndarray:
    """`%.12g` of each value of a float column."""
    x = x.astype(np.float64, copy=False)
    zero = (x == 0) & ~np.signbit(x)
    native = (x > 0) & (x < np.inf)
    xs = np.where(native, x, 1.0)
    X = np.floor(np.log10(xs)).astype(np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        y = xs * _P10[11 - X - _P10_LO]
        D = np.rint(y)
        # a rounding the estimate cannot decide, or an X the estimate got wrong
        undecided = np.abs(y - np.floor(y) - 0.5) < 1e-3
        fallback = undecided | (D < 1e11) | (D >= 1e12) | ~(native | zero)
    rows = np.flatnonzero(fallback)
    X[rows], D[rows] = 0, 1e11  # placeholders, overwritten below

    # D's digits in float arithmetic, exact below 2^53: g2 g1 g0, four each
    frame = np.empty((_G_WIDTH, len(x)), dtype=np.uint8)
    g2 = np.floor(D / 1e8)
    rest = D - g2 * 1e8
    g1 = np.floor(rest / 1e4)
    g0 = rest - g1 * 1e4
    for top, idx in (
        (5, g2 + _TRAIL * (rest == 0)),
        (13, g1 + _TRAIL * (g0 == 0)),
        (21, g0 + _TRAIL),
    ):
        frame[top : top + 8 : 2] = np.take(_DIGITS, idx.astype(np.intp), axis=1, mode="clip")
    frame[5, np.flatnonzero(zero)] = 48

    fixed = (X >= -4) & (X <= 11)
    np.multiply(fixed & (X <= _PREFIX_UPTO), _PREFIX, out=frame[:5])
    # the dot follows digit X in fixed notation and digit 0 in exponent
    # notation; digits up to it keep the zeros the trailing strip took, and
    # it is NUL when only zeros follow it, that is when 10^(11-dot) divides D
    dot = np.where(fixed, X, 0)
    digits = frame[5:28:2]
    np.maximum(digits, (_DIGIT_AT <= dot) * np.uint8(48), out=digits)
    tail = D / _F10[np.clip(11 - dot, 0, 11)]
    dot[(dot < 0) | (tail == np.floor(tail))] = -1
    np.multiply(_DOT_AFTER == dot, np.uint8(46), out=frame[6:28:2])
    expo = ~fixed
    if expo.any():
        frame[28] = expo * np.uint8(101)
        frame[29] = np.where(X < 0, np.uint8(45), np.uint8(43)) * expo
        frame[30:] = np.take(_EXPONENT, np.abs(X), axis=1, mode="clip") * expo
    else:
        frame[28:] = 0

    if rows.size:
        text = [("%.12g" % value).encode() for value in x[rows].tolist()]
        text = np.array(text, dtype=f"S{_G_WIDTH}").view(np.uint8)
        frame[:, rows] = text.reshape(-1, _G_WIDTH).T
    return frame


def _word_frame(words) -> np.ndarray:
    """Each word of a sequence of str."""
    width = max(map(len, words))
    table = np.array([w.encode() for w in words], dtype=f"S{width}")
    return table.view(np.uint8).reshape(len(words), width).T


_FRAMES = {"%d": _int_frame, "%.12g": _g12_frame, "%s": _word_frame}


def _formatter(spec):
    """The function from a column of the field `spec` to its frame: a
    format of _FRAMES, or an indexed field (fmt, table), whose table is
    rendered here, once."""
    if isinstance(spec, str):
        return _FRAMES[spec]
    fmt, table = spec
    frame = _FRAMES[fmt](table)
    return lambda index: np.take(frame, np.asarray(index, dtype=np.intp), axis=1)


def _render(formatters, columns) -> bytes:
    n = len(columns[0])
    frames = []
    for formatter, column in zip(formatters, columns):
        frames.append(formatter(np.asarray(column)))
        frames.append(np.full((1, n), 44, dtype=np.uint8))
    frames[-1][:] = 10
    frame = np.concatenate(frames)
    frame = frame[frame.any(axis=1)]  # rows NUL throughout add nothing
    return frame.T.tobytes().translate(None, b"\0")


def csv_blocks(header: str, fields: tuple, n_rows: int, columns, trailer: str) -> Iterator[str]:
    """A CSV table as text blocks, each to be written newline-terminated:
    the header, the rows CHUNK_ROWS at a time, then the trailer line.
    `columns(rows)` builds the columns of a slice of rows, so no full-length
    column is made here.  The tables of indexed fields are rendered once,
    before the first chunk."""
    yield header
    formatters = [_formatter(spec) for spec in fields]
    for lo in range(0, n_rows, CHUNK_ROWS):
        chunk = columns(slice(lo, min(lo + CHUNK_ROWS, n_rows)))
        yield _render(formatters, chunk)[:-1].decode("ascii")
    yield trailer


def column_range(rows: slice) -> np.ndarray:
    """rows.start, ..., rows.stop - 1 as an integer column, for the
    `columns(rows)` of csv_blocks' callers, which import no numpy."""
    return np.arange(rows.start, rows.stop)
