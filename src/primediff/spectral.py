"""Signals on [1, N], their transforms on the torus, rational
approximation, and Farey arc membership on a grid: arc_ranges gives the
arcs of levels 1..Q' as integer ranges of grid points, listing no point,
with the star mask gcd(a, q) = 1, the package's one definition of a star
arc.  Its arc geometry (q, a, star) depends on Q' alone: read-only
prefixes of one cached entry, grown to the most levels asked for.

A signal is a one-dimensional array f with f(x) = f[x - 1] on [1, N].
grid_power, the one grid spectrum, gives the power |f_hat(k/M)|^2 of a
real signal on the M-point grid from one real FFT: M // 2 + 1 values,
k = 0..M//2, since a real signal has |f_hat(-theta)| = |f_hat(theta)|.
Every energy and magnitude in the package reads it, grid point k at index
min(k, M - k); transform_at gives f_hat, phase included, at any one point.
grid_power transforms exactly the M it is given.  fft_size(m), the least
2^a 3^b 5^c >= m, is the size rule for a caller free to pick any M >= m:
the real FFT at a 5-smooth length uses only fast radices, while numpy's
pocketfft runs 15 to 20 times slower at a length with a large prime
factor (M = 8 * 997 against 8,000).

Sign convention, used everywhere in this package:

    f_hat(theta) = sum_x f(x) e(-x theta),      e(t) = exp(2 pi i t).

Rational points theta = a/q + kappa evaluate the rational part by exact
integer reduction mod q, so transforms at arc centers keep full precision
even when the support is large.  A TorusPoint is a namedtuple that checks
its fields in its constructor, which _replace goes through too.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .arith import check_budget
from .errors import DomainError, ResourceError

__all__ = [
    "TorusPoint",
    "arc_ranges",
    "dirichlet_approx_grid",
    "fft_size",
    "grid_power",
    "transform_at",
    "unfold",
]

_GRID_BLOCK = 1 << 16  # grid points dirichlet_approx_grid works on at a time
_INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# torus points


class TorusPoint(namedtuple("TorusPoint", "a q kappa")):
    """theta = a/q + kappa with gcd(a, q) = 1, 0 <= a <= q, |kappa| <= 1/2.

    Plain reals enter through from_float, which uses the trivial rational
    part 0/1.  Exact rationals get kappa = 0.  The constructor checks the
    fields, and _make, so _replace too, goes through it.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __new__(cls, a: int, q: int, kappa: float = 0.0):
        if not 1 <= q <= _INT64_MAX:  # transforms reduce x mod q in int64
            raise DomainError(f"denominator must lie in [1, 2^63 - 1], got {q}")
        if not (0 <= a <= q):
            raise DomainError(f"need 0 <= a <= q, got a={a}, q={q}")
        if math.gcd(a, q) != 1 and a != 0:
            raise DomainError(f"a/q must be reduced, got {a}/{q}")
        if abs(kappa) > 0.5 + 1e-15:
            raise DomainError(f"|kappa| must be <= 1/2, got {kappa}")
        return super().__new__(cls, a, q, kappa)

    @classmethod
    def rational(cls, a: int, q: int) -> "TorusPoint":
        if q < 1:  # the constructor refuses it
            return cls(a, q)
        g = math.gcd(a % q, q)
        return cls(a % q // g, q // g)

    @classmethod
    def from_float(cls, theta: float) -> "TorusPoint":
        t = theta % 1.0
        if t > 0.5:
            return cls(1, 1, t - 1.0)
        return cls(0, 1, t)


# ---------------------------------------------------------------------------
# pointwise transform


def transform_at(f: np.ndarray, point: TorusPoint) -> complex:
    """f_hat at a TorusPoint of the signal f on [1, len(f)], with e(-x theta)
    phases."""
    idx = np.arange(1, len(f) + 1, dtype=np.int64)
    x = idx % point.q
    if int(x.max(initial=0)) * point.a <= _INT64_MAX:
        rational_phase = x * point.a % point.q
    else:  # x a would wrap in int64: reduce in Python ints
        rational_phase = np.array([v * point.a % point.q for v in x.tolist()], dtype=np.int64)
    phase = np.exp(-2j * np.pi * rational_phase / point.q)
    if point.kappa != 0.0:
        phase = phase * np.exp(-2j * np.pi * point.kappa * idx)
    return complex(np.dot(f, phase))


# ---------------------------------------------------------------------------
# grid power


def grid_power(f: np.ndarray, m: int) -> np.ndarray:
    """The power |f_hat(k/M)|^2 for k = 0..M//2 on the grid of M = m
    points, of the real signal f on [1, len(f)], from one real FFT; grid
    point k reads index min(k, M - k).

    Requires m >= len(f); below that the grid aliases and the Parseval
    identity (1/M) sum |f_hat(k/M)|^2 = sum |f|^2 fails.  Grids past
    TABLE_CAP points are refused before anything is allocated.
    """
    if np.iscomplexobj(f):
        raise DomainError("grid_power needs a real-valued signal")
    check_budget(m, "spectrum grid limited to M")
    if m < len(f):
        raise ResourceError(f"grid size {m} below support length {len(f)}")
    spec = np.fft.rfft(f, n=m)
    power = spec.real**2
    power += spec.imag**2
    return power


def fft_size(m: int) -> int:
    """The least 2^a 3^b 5^c >= m, by bisection in the ascending table of
    5-smooth sizes.  Past TABLE_CAP it refuses m, as grid_power does,
    before searching; TABLE_CAP = 2^8 5^6 is 5-smooth, so every m up to it
    gets a size up to it."""
    check_budget(m, "spectrum grid limited to M")
    # a power of two >= m bounds the answer; the table reaches at least 2^22
    sizes = _smooth_sizes(max(22, max(m - 1, 0).bit_length()))
    return sizes[bisect_left(sizes, m)]


@lru_cache(maxsize=1)
def _smooth_sizes(bits: int) -> list[int]:
    """Every 2^a 3^b 5^c <= 2^bits, ascending: 660 sizes at bits = 22, the
    one table fft_size reads, built once, while TABLE_CAP stays below 2^22
    (a raised cap replaces it with a longer one)."""
    top = 1 << bits
    sizes = []
    p5 = 1
    while p5 <= top:
        p35 = p5
        while p35 <= top:
            sizes.extend(p35 << a for a in range((top // p35).bit_length()))
            p35 *= 3
        p5 *= 5
    return sorted(sizes)


def unfold(half: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """Fill out with an even function of the M-point grid, given at
    k = 0..M//2 by half (as grid_power's power): out[k] is its value at
    k mod M, for every k < len(out).  Returns out."""
    out[: len(half)] = half
    out[len(half) : m] = half[(m + 1) // 2 - 1 : 0 : -1]
    out[m:] = np.take(out[:m], np.arange(m, len(out)), mode="wrap")
    return out


# ---------------------------------------------------------------------------
# rational approximation


def dirichlet_approx_grid(m: int, big_q: int) -> tuple[np.ndarray, np.ndarray]:
    """The last continued-fraction convergent a/q with q <= big_q of each
    grid point k/M, k in [0, M), as arrays (a, q): reduced, 1/1 read as 0/1,
    and |k/M - a/q| < 1/(q big_q) on the circle.  The recurrence runs on the
    exact fractions k/M for k <= M/2 only, _GRID_BLOCK values of k at a time,
    so its working arrays stay small at any M.  The convergents of 1 - x are
    1 minus those of x, so the label of M - k is (q - a)/q, with 0/1 kept.
    """
    if m < 1:
        raise DomainError(f"grid size must be >= 1, got {m}")
    if big_q < 1:
        raise DomainError(f"cutoff must be >= 1, got {big_q}")
    big_q = min(big_q, m)  # no convergent of k/M has a denominator above M
    h_all, q_all = np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)
    half = m // 2 + 1  # k = 0..M//2
    for lo in range(0, half, _GRID_BLOCK):
        # k/M = [0; c_1, c_2, ...]: h/q starts at 0/1, num/den holds the remainder
        hi = min(lo + _GRID_BLOCK, half)
        h, q = h_all[lo:hi], q_all[lo:hi]  # views
        den = np.arange(lo, lo + len(h), dtype=np.int64)
        num, h_prev, q_prev = np.full_like(den, m), np.ones_like(den), np.zeros_like(den)
        live = np.flatnonzero(den)
        while live.size:
            c = num[live] // den[live]
            q_next = c * q[live] + q_prev[live]
            keep = q_next <= big_q
            live, c, q_next = live[keep], c[keep], q_next[keep]
            h_prev[live], h[live] = h[live], c * h[live] + h_prev[live]
            q_prev[live], q[live] = q[live], q_next
            num[live], den[live] = den[live], num[live] - c * den[live]
            live = live[den[live] != 0]
        h[h == q] = 0  # 1/1 is the arc of 0/1
    # k = M//2 + 1..M - 1 from M - k = M - M//2 - 1..1, read as reversed views
    h, q = h_all[half:], q_all[half:]
    q[:] = q_all[m - half : 0 : -1]
    np.subtract(q, h_all[m - half : 0 : -1], out=h)
    h[h == q] = 0  # q - 0 over q = 1 is 1/1 again
    return h_all, q_all


# ---------------------------------------------------------------------------
# Farey arcs


def arc_ranges(m: int, q_prime: int, big_q: int) -> tuple[np.ndarray, ...]:
    """Level-q arcs |theta - a/q| <= 1/(qQ) on the M-point grid, for the
    levels q = 1..Q', as integer ranges (q, a, lo, hi) and the star mask
    gcd(a, q) = 1: one row per arc, in level order and ascending a, level
    q's arcs at rows q(q - 1)/2 to q(q + 1)/2 - 1, holding k = lo..hi (none
    when hi = lo - 1).  lo = ceil((aM - w)/q) and hi = floor((aM + w)/q)
    with w = floor(M/Q) are exact, so closed arcs keep their boundary
    points.  Only the a = q arc runs past M, by at most w; k there reads
    k - M.  Arcs of a level touch only when 2w >= M (Q = 2, M even), at
    one point, kept by the reduced arc if just one of the two is, else by
    the arc below (a = q is below a = 1), so the star arcs hold exactly
    the points some reduced arc holds.  The Q'(Q' + 1)/2 arcs are held to
    the table budget before any array is built.  q, a and the star mask
    depend on Q' alone: they are read-only prefixes of one grow-only
    geometry (_arc_geometry)."""
    global _arc_top
    rows = q_prime * (q_prime + 1) // 2
    check_budget(rows, "Farey arcs limited to a sum of levels q")
    if m < 1 or big_q < 2 or q_prime < 1:
        raise DomainError(f"need M >= 1, Q >= 2 and Q' >= 1, got M={m}, Q={big_q}, Q'={q_prime}")
    top = _arc_top = max(_arc_top, q_prime)
    q, a, star = (column[:rows] for column in _arc_geometry(top))
    w = m // big_q
    am = a * m
    lo = -((w - am) // q)  # ceil((aM - w) / q)
    hi = (am + w) // q
    if 2 * w >= m:  # each arc meets the next around the circle at one point
        up = np.arange(1, rows + 1) - q * (a == q)  # row of the arc above: a + 1, or 1 after q
        shared = hi == lo[up] + m * (a == q)
        cede = shared & star[up] & ~star
        hi[cede] -= 1
        lo[up[shared & ~cede]] += 1
    return q, a, lo, hi, star


_arc_top = 0  # the most levels any arc_ranges call has asked for


@lru_cache(maxsize=1)
def _arc_geometry(top: int) -> tuple[np.ndarray, ...]:
    """(q, a, gcd(a, q) == 1) over the arcs of levels 1..top, read-only.
    One entry, grown to the most levels asked for: its first Q'(Q' + 1)/2
    rows serve every Q' <= top, so the driver, which asks for levels
    1..Q' at every step with Q' up to q_cap, builds it once."""
    levels = np.arange(1, top + 1, dtype=np.int64)
    q = np.repeat(levels, levels)
    a = np.arange(1, len(q) + 1, dtype=np.int64) - np.repeat(np.cumsum(levels) - levels, levels)
    star = np.gcd(a, q) == 1
    for array in (q, a, star):
        array.flags.writeable = False
    return q, a, star
