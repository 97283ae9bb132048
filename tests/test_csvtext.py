"""The numpy CSV renderer against printf itself: every `%.12g` and `%d`
value it writes is the text `'%.12g' % v` or `'%d' % v` would give.  Rows
are rendered through csv_blocks, the path the sieve and spectrum tables
take."""

import numpy as np

from primediff.csvtext import CHUNK_ROWS, csv_blocks


def _ulps(values, k):
    """values and their neighbours up to k ulps away on both sides."""
    out = [values]
    up = down = values
    for _ in range(k):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _printf(fmt, values):
    return "".join(fmt % v + "\n" for v in values.tolist())


def _csv(fields, columns):
    """The rows' text from csv_blocks, each line newline-terminated, without
    its header and trailer."""
    blocks = csv_blocks("", fields, len(columns[0]), lambda rows: [c[rows] for c in columns], "")
    return "".join(block + "\n" for block in list(blocks)[1:-1])


def _rendered(spec, values):
    return _csv((spec,), [values])


def test_g12_matches_printf_on_adversarial_doubles():
    rng = np.random.default_rng(20071002)
    with np.errstate(over="ignore", under="ignore"):
        # ties of the 12th digit, (D + 1/2) 10^k, across the exponent range
        d = rng.integers(10**11, 10**12, 6000).astype(np.float64)
        k = rng.integers(-335, 297, 6000).astype(np.float64)
        ties = (d + 0.5) * 10.0**k
        ties = np.concatenate([ties, (1e12 - 0.5) * 10.0 ** np.arange(-335.0, 297.0)])
        powers = 10.0 ** np.arange(-324.0, 309.0)
        tiny = rng.random(3000) * 10.0 ** rng.integers(-324, -296, 3000).astype(np.float64)
        huge = rng.random(2000) * 10.0 ** rng.integers(290, 309, 2000).astype(np.float64)
    plain = rng.random(5000) * 10.0 ** rng.integers(-8, 16, 5000).astype(np.float64)
    bits = rng.integers(0, 2**63, 10_000, dtype=np.int64).view(np.float64)  # any double
    special = np.array([0.0, -0.0, 5e-324, 1e-297, 1e308, np.nan, np.inf, -np.inf])
    values = np.concatenate([_ulps(ties, 2), _ulps(powers, 3), tiny, huge, plain, bits, special])
    values = np.concatenate([values, -values[::7]])
    assert values.size > 50_000
    assert _rendered("%.12g", values) == _printf("%.12g", values)


def test_d_matches_printf_at_digit_boundaries():
    tens = [10**k + e for k in range(19) for e in (-1, 0, 1)]
    widest = [np.iinfo(np.int64).max, np.iinfo(np.int64).min]
    values = np.array([0, 1, -1, *tens, *(-t for t in tens), *widest], dtype=np.int64)
    assert _rendered("%d", values) == _printf("%d", values)
    # a column without negatives, and one of zeros, get no sign slot
    for column in (np.abs(values[:-1]), np.zeros(5, dtype=np.int8), np.arange(10**4 + 3)):
        assert _rendered("%d", column) == _printf("%d", column)


def test_mixed_rows_match_fmt_per_row():
    """A spectrum-shaped table: each rendered line is `fmt % row`.  The
    class and bound columns are indexed fields, read from their tables."""
    rng = np.random.default_rng(7)
    n = 3000
    theta = np.arange(n) / n
    a, q = rng.integers(0, 300, n), rng.integers(1, 300, n)
    major = rng.random(n) < 0.3
    table = rng.random(600) * 4000
    table[::89] = 0.0  # 0/0 and x/0: nan and inf ratios
    index = rng.integers(0, len(table), n)
    actual, bound = rng.random(n) * 4000, table[index]
    actual[::97] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = actual / bound
    fields = ("%.12g", "%d", "%d", ("%s", ("minor", "major")), "%.12g", ("%.12g", table), "%.12g")
    text = _csv(fields, [theta, a, q, major, actual, index, ratio])
    kind = np.where(major, "major", "minor")
    rows = zip(*(c.tolist() for c in (theta, a, q, kind, actual, bound, ratio)))
    assert text == "".join("%.12g,%d,%d,%s,%.12g,%.12g,%.12g\n" % row for row in rows)


def test_blocks_split_rows_at_the_chunk_size():
    n = 2 * CHUNK_ROWS + 1
    calls = []

    def columns(rows):
        calls.append((rows.start, rows.stop))
        return [np.arange(rows.start, rows.stop)]

    blocks = list(csv_blocks("n", ("%d",), n, columns, "# end"))
    assert calls == [(0, CHUNK_ROWS), (CHUNK_ROWS, 2 * CHUNK_ROWS), (2 * CHUNK_ROWS, n)]
    assert blocks[-2] == str(n - 1)
    assert "".join(b + "\n" for b in blocks) == "n\n" + _printf("%d", np.arange(n)) + "# end\n"
