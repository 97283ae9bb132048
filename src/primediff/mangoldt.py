"""Exponential sums over von Mangoldt weights along d x + 1.

The weight is Lambda_{N,d}(x) = mangoldt(d x + 1) on x in [1, N].  Its
transform at a rational a/q collapses, via the substitution h = m d + 1, to
a combination of Chebyshev partial sums in progressions:

    Lambda_hat_{N,d}(a/q) = sum_{m=0}^{q-1} e(-m a / q) psi(dN + 1; d q, m d + 1)

(the minus sign matches the package-wide transform convention).  Major-arc
predictions carry the tau factor evaluated at -a for the same reason; the
magnitudes reported downstream are unaffected.

MangoldtWeight and Prediction are namedtuples and SpectrumReport a plain
class, the package's one record idiom, which loads no dataclasses.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .arith import check_budget, euler_phi, psi
from .errors import DomainError, PreconditionError
from .spectral import arc_ranges, dirichlet_approx_grid, grid_power
from .spectral import transform_at, unfold
from .tables import ExceptionalDatum, _mangoldt_column, tau

__all__ = [
    "MangoldtWeight",
    "Prediction",
    "SpectrumReport",
    "lambda_hat_rational",
    "major_prediction",
    "major_sup_ratio",
    "spectrum_report",
    "vinogradov_bound",
]


class MangoldtWeight(namedtuple("MangoldtWeight", "n d values")):
    """Lambda(d x + 1) on x in [1, n]: values[x - 1], the Lambda column
    of d + 1, 2d + 1, ..., d n + 1 read from the prime bitmap."""

    __slots__ = ()

    @classmethod
    def build(cls, n: int, d: int) -> "MangoldtWeight":
        if n < 1 or d < 1:
            raise DomainError(f"need n, d >= 1, got n={n}, d={d}")
        check_budget(d * n + 1, "tables limited to n_max")
        return cls(n, d, _mangoldt_column(n, d, d + 1))

    def hat(self, point) -> complex:
        return transform_at(self.values, point)

    def hat_zero(self) -> float:
        return float(self.values.sum())


def lambda_hat_rational(n: int, d: int, a: int, q: int) -> complex:
    """Transform of the weight at a/q through progression partial sums,
    an independent route from direct summation over the support: psi
    sums log p over each progression's primes, not the weight's values."""
    if n < 1 or d < 1 or q < 1:
        raise DomainError(f"need n, d, q >= 1, got n={n}, d={d}, q={q}")
    x = d * n + 1
    total = 0.0 + 0.0j
    for m in range(q):
        total += np.exp(-2j * np.pi * ((m * (a % q)) % q) / q) * psi(x, d * q, m * d + 1)
    return complex(total)


class Prediction(namedtuple("Prediction", "main_term exceptional_term sup_bound")):
    """Major-arc prediction at a/q: leading term, optional synthetic
    exceptional term, and the arc sup bound Lambda_hat(0)/phi(q)."""

    __slots__ = ()


def _check_exceptional(d: int, exceptional: ExceptionalDatum | None) -> None:
    """An exceptional datum applies only to a modulus dividing d."""
    if exceptional is not None and d % exceptional.modulus != 0:
        raise PreconditionError(
            f"exceptional modulus {exceptional.modulus} must divide d={d}"
        )


def _leading_terms(
    n: int, d: int, a: int, q: int, exceptional: ExceptionalDatum | None
) -> tuple[complex, complex]:
    """(main, exceptional) terms of the major-arc prediction at a/q: the
    exceptional term is 0 without a datum."""
    tau_factor = tau(-a, d, q)
    denom = euler_phi(d) * euler_phi(q)
    main = d * n * tau_factor / denom
    exc = 0.0 + 0.0j
    if exceptional is not None:
        beta = exceptional.beta
        exc = -((d * n) ** beta) * tau_factor / (denom * beta)
    return complex(main), complex(exc)


def major_prediction(
    n: int,
    d: int,
    a: int,
    q: int,
    exceptional: ExceptionalDatum | None = None,
) -> Prediction:
    if n < 1 or d < 1 or q < 1:
        raise DomainError(f"need n, d, q >= 1, got n={n}, d={d}, q={q}")
    _check_exceptional(d, exceptional)
    sup = psi(d * n + 1, d, 1) / euler_phi(q)
    return Prediction(*_leading_terms(n, d, a, q, exceptional), float(sup))


def vinogradov_bound(n: int, d: int, q: int, big_q: int) -> float:
    """Minor-arc shape d (log N)^4 (N q^{-1/2} + N^{4/5} + (N Q)^{1/2});
    implied constant taken as 1, reported but never asserted."""
    if q < 1:
        raise DomainError("need n >= 2 and positive d, q, Q")
    return _minor_shape(n, d, q, big_q, math.sqrt)


def _minor_shape(n: int, d: int, q, big_q: int, sqrt):
    """vinogradov_bound at q, one modulus with sqrt = math.sqrt or an array
    of them with np.sqrt: the same checks, and at each q the same float
    operations in the same order (both roots are correctly rounded)."""
    if n < 2 or d < 1 or big_q < 1:
        raise DomainError("need n >= 2 and positive d, q, Q")
    try:
        root = math.sqrt(n * big_q)
    except OverflowError:
        raise DomainError(f"N Q past the float range at N={n}") from None
    logn4 = math.log(n) ** 4
    return d * logn4 * (n / sqrt(q) + n ** 0.8 + root)


# ---------------------------------------------------------------------------
# spectrum report


class SpectrumReport:
    """One entry per grid point k/M, k in [0, M), in columns: the label a/q,
    whether k/M is major, and the measured |Lambda_hat(k/M)|.  Class bounds
    depend on (class, q) alone, so they are kept as a table: bounds[c, j]
    is the bound of class c (0 minor, 1 major) at the j-th q present among
    the labels, and bound_column[q] is that j.  A plain class, not a
    namedtuple: its length is the number of points."""

    __slots__ = ("a", "q", "major", "actual", "bounds", "bound_column")

    def __init__(self, a, q, major, actual, bounds, bound_column):
        self.a, self.q, self.major, self.actual = a, q, major, actual
        self.bounds, self.bound_column = bounds, bound_column

    def __len__(self) -> int:
        return len(self.actual)

    def bound_index(self, rows: slice) -> np.ndarray:
        """Each point of rows' position in bounds.ravel()."""
        return self.major[rows] * self.bounds.shape[1] + self.bound_column[self.q[rows]]

    @property
    def bound(self) -> np.ndarray:
        """The class bound of every point."""
        return self.bounds.ravel()[self.bound_index(slice(None))]


def _check_dissection(q_prime: int, big_q: int) -> None:
    """Major arcs of half-width 1/(qQ) around a/q, q <= Q', are disjoint
    only when Q > 2 Q'."""
    if q_prime < 1:
        raise DomainError(f"Q' must be >= 1, got {q_prime}")
    if big_q <= 2 * q_prime:
        raise PreconditionError(
            f"need Q > 2 Q' for disjoint major arcs, got Q={big_q}, Q'={q_prime}"
        )


def _weight_mass(
    n: int, d: int, q_prime: int, big_q: int, m: int
) -> tuple[MangoldtWeight, float]:
    """The weight and its mass Lambda_hat(0), after the checks that refuse
    an input before its power grid is built, in this order: the grid budget
    (grid_power's own), the dissection (Q > 2 Q') and a positive mass."""
    weight = MangoldtWeight.build(n, d)
    check_budget(m, "spectrum grid limited to M")
    _check_dissection(q_prime, big_q)
    hat_zero = weight.hat_zero()
    if hat_zero <= 0:
        raise PreconditionError(f"weight mass vanished at n={n}, d={d}")
    return weight, hat_zero


def spectrum_report(
    n: int,
    d: int,
    q_prime: int,
    big_q: int,
    m: int,
    exceptional: ExceptionalDatum | None = None,
) -> SpectrumReport:
    """Measured |Lambda_hat(k/M)| at every grid point against the class
    bound (major: sup bound plus the exceptional magnitude when a datum is
    supplied, whose modulus must divide d; minor: Vinogradov shape).

    A point is major when k/M lies in a major arc |theta - a/q| <= 1/(qQ),
    q <= Q', and then carries that arc's a/q; otherwise it carries the last
    convergent of the exact fraction k/M with denominator <= Q."""
    weight, hat_zero = _weight_mass(n, d, q_prime, big_q, m)
    _check_exceptional(d, exceptional)
    try:  # the minor bound refuses n < 2 and N Q past the float range: before any grid
        vinogradov_bound(n, d, 1, big_q)
    except DomainError:
        # refused only if some point is minor: the star arcs are disjoint
        # across levels, as Q > 2 Q', so iff they hold fewer than M points
        _, _, lo, hi, star = arc_ranges(m, q_prime, big_q)
        if (hi - lo + 1)[star].sum() < m:
            raise
    power = grid_power(weight.values, m)
    del weight
    actual = unfold(np.sqrt(power), m, np.empty(m))  # |Lambda_hat| at k <= M/2, mirrored to M - k
    del power  # free the power grid before the label arrays are built
    a_col, q_col = dirichlet_approx_grid(m, big_q)
    q, a, lo, hi, star = arc_ranges(m, q_prime, big_q)
    q, a, lo, size = q[star], a[star] % q[star], lo[star], hi[star] - lo[star] + 1
    del hi  # before the points are listed: the cached q, a and star stay alive
    # each point of each star arc: disjoint across levels
    k = (np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)) % m
    major = np.zeros(m, dtype=bool)
    major[k] = True
    q_col[k], a_col[k] = np.repeat(q, size), np.repeat(a, size)  # 1/1 is the arc of 0/1
    del q, a, lo, size, k, star  # free the ranges before the bound table is built

    # one bound per (class, q), in a column per q present: a table as small
    # as the labels' distinct q, however large Q is.  The q present come
    # from bincount, as np.unique imports numpy.ma (~16 ms)
    levels = np.flatnonzero(np.bincount(q_col))
    column = np.zeros(int(levels[-1]) + 1, dtype=np.int32)
    column[levels] = np.arange(len(levels))
    bounds = np.zeros((2, len(levels)))
    for q in np.flatnonzero(np.bincount(q_col[major])).tolist():  # q <= Q'
        bound = hat_zero / euler_phi(q)
        if exceptional is not None:
            bound += abs(_leading_terms(n, d, 1, q, exceptional)[1])
        bounds[1, column[q]] = bound
    if not major.all():  # the minor bound refuses n < 2: only if some point is minor
        bounds[0] = _minor_shape(n, d, levels, big_q, np.sqrt)
    return SpectrumReport(a_col, q_col, major, actual, bounds, column)


def major_sup_ratio(
    n: int,
    d: int,
    q_prime: int,
    big_q: int,
    grid_factor: int,
) -> float:
    """max over q <= Q' and star-arc grid points of
    phi(q) |Lambda_hat(theta)| / Lambda_hat(0), on the M = grid_factor * n grid."""
    m = grid_factor * n
    weight, hat_zero = _weight_mass(n, d, q_prime, big_q, m)
    power = grid_power(weight.values, m)
    q, a, lo, hi, star = arc_ranges(m, q_prime, big_q)
    star = star & (lo <= hi)
    at = unfold(power, m, np.empty(m + m // big_q + 2))  # k = 0..M + w + 1: each hi + 1 readable
    ends = np.stack([lo[star], hi[star] + 1], axis=1).ravel()  # even slots reduce lo..hi
    peak = np.zeros(q_prime + 1)  # per level, the largest power on its star arcs
    np.maximum.at(peak, q[star], np.maximum.reduceat(at, ends)[::2])
    # sqrt is monotone and correctly rounded: the root of the peak power is the peak magnitude
    return max(euler_phi(q) * math.sqrt(peak[q]) / hat_zero for q in range(1, q_prime + 1))
