"""Energy increments: turning arc-energy excess into denser progressions.

The normalization used throughout: for A of density alpha in [1, N] with
balanced function g = 1_A - alpha 1_[1,N] (DensitySet.balanced, an array
with g(x) at index x - 1),

    E_{A,q,eta}  = (alpha |A|)^{-1} sum_{a=1}^{q} integral_{|t - a/q| <= eta} |g_hat|^2
    E*_{A,q,eta} = same sum restricted to gcd(a, q) = 1,

with integrals realized as quadrature on an M-point grid: energy_table
takes the power |g_hat(k/M)|^2, k <= M/2, from spectral.grid_power at a
size M >= 8N, by default fft_size(8N), the least 5-smooth size >= 8N (the
driver's grid_size at its default grid_factor), so no transform runs at a
length with a large prime factor.  energy_table gives E and E* of every
level from one prefix sum of the power, read at the ends of
spectral.arc_ranges' arcs, with the star arcs from its cached star mask
(a run of steps computes no gcd after its first).  It holds E and E* as
two float64 columns over levels 1..Q', level q at index q - 1; row(q)
reads one level as an EnergyStats (q, eta, E, E*), and rows, built on
first read, lists every level in order.  Summed over the whole torus the
normalized energy is exactly (1 - alpha)/alpha, which pins the
normalization in tests.  Extraction reads E from energy_table's row(q),
measuring no arcs of its own, and converts it into a step-q progression
on which A beats alpha by the factor (1 + E/4); the driver, not
extraction, decides whether E is large enough to try.  The averaging
projection keeps half of alpha on a step-d progression.  Both take the
best window inside [1, N], its count recounted exactly from prefix sums
along each residue class (_best_inside), never inferred from the
transform side.

A DensitySet holds its elements as an ascending tuple of Python ints, so
building one, and the driver's steps that stop before the energy step,
load no numpy.  The code that does array work (balanced, _best_inside,
energy_table, rescale, Progression.points) imports numpy, and spectral,
where it uses them, and reads the set through one cached int64 view,
DensitySet.array; energy_table calls spectral's grid_power and arc_ranges
as that module holds them at call time.

The records are namedtuples, not dataclasses, which load inspect on
import.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cached_property

from .arith import check_integers
from .errors import DomainError, PreconditionError

__all__ = [
    "DensitySet",
    "EnergyStats",
    "EnergyTable",
    "IncrementOutcome",
    "Progression",
    "averaging_projection",
    "energy_table",
    "extract_progression",
    "rescale",
]


# ---------------------------------------------------------------------------
# carriers


class DensitySet(namedtuple("DensitySet", "n elements")):
    """A nonempty subset of [1, n] with its ambient interval.  elements is
    an ascending tuple of distinct Python ints (the constructor reads any
    sequence of integers, numpy's too, and refuses every other element);
    array is the same elements as one read-only int64 array, built on first
    read, the view each numpy reader of the set takes, cached in the
    instance dict.  _make, so _replace too, goes through the constructor's
    checks."""

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __new__(cls, n: int, elements):
        if n < 1:
            raise DomainError(f"ambient length must be >= 1, got {n}")
        e = check_integers(elements)
        if not e:
            raise DomainError("elements must be nonempty")
        if e[0] < 1 or e[-1] > n:
            raise DomainError(f"elements must lie in [1, {n}]")
        if not all(map(operator.lt, e, e[1:])):
            raise DomainError("elements must be strictly increasing")
        return super().__new__(cls, n, e)

    @classmethod
    def from_iterable(cls, n: int, points) -> "DensitySet":
        return cls(n, sorted(set(check_integers(points))))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def alpha(self) -> float:
        return self.size / self.n

    @cached_property
    def array(self) -> np.ndarray:
        """The elements as a read-only int64 array."""
        import numpy as np

        array = np.array(self.elements, dtype=np.int64)
        array.flags.writeable = False
        return array

    def balanced(self) -> np.ndarray:
        """g = 1_A - alpha 1_[1,N] as an array, g(x) at index x - 1."""
        import numpy as np

        vals = np.full(self.n, -self.alpha, dtype=np.float64)
        vals[self.array - 1] += 1.0
        return vals


class Progression(namedtuple("Progression", "first step length")):
    """{first + j step : 0 <= j < length}.  _make, so _replace too, goes
    through the constructor's check."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __new__(cls, first: int, step: int, length: int):
        if step < 1 or length < 1:
            raise DomainError(f"need step, length >= 1, got step={step}, length={length}")
        return super().__new__(cls, first, step, length)

    def last(self) -> int:
        return self.first + (self.length - 1) * self.step

    def points(self) -> np.ndarray:
        import numpy as np

        return self.first + self.step * np.arange(self.length, dtype=np.int64)

    def within(self, n: int) -> bool:
        return self.first >= 1 and self.last() <= n


class IncrementOutcome(
    namedtuple(
        "IncrementOutcome", "progression intersection_count new_alpha met_guarantee detail"
    )
):
    """Result of one extraction attempt.  met_guarantee refers to the
    operation's own inequality, checked on the recounted intersection.
    detail defaults to a new empty dict per outcome."""

    __slots__ = ()

    def __new__(cls, progression, intersection_count, new_alpha, met_guarantee, detail=None):
        detail = {} if detail is None else detail
        return super().__new__(
            cls, progression, intersection_count, new_alpha, met_guarantee, detail
        )


EnergyStats = namedtuple("EnergyStats", "q eta energy star_energy")


class EnergyTable(namedtuple("EnergyTable", "energy star_energy total big_q")):
    """E and E* of levels 1..Q' as read-only float64 columns, level q at
    index q - 1, with the normalized energy of the whole torus and the Q
    of each level's eta = 1/(qQ); row(q) is one level as EnergyStats, rows
    all of them, cached in the instance dict."""

    def row(self, q: int) -> EnergyStats:
        if not 1 <= q <= len(self.energy):
            raise DomainError(f"level {q} outside 1..{len(self.energy)}")
        return EnergyStats(
            q, 1.0 / (q * self.big_q), float(self.energy[q - 1]), float(self.star_energy[q - 1])
        )

    @cached_property
    def rows(self) -> tuple[EnergyStats, ...]:
        """Every level's row in order, level q at rows[q - 1], built on
        first read."""
        return tuple(map(self.row, range(1, len(self.energy) + 1)))


# ---------------------------------------------------------------------------
# window counting


def _best_inside(A: DensitySet, step: int, length: int) -> tuple[int, int]:
    """(first, count) of the window {f, f + step, ..., f + (length - 1) step}
    inside [1, N] that holds the most of A, the leftmost among ties.

    Exact integers from prefix sums along each residue class mod step.
    Callers keep (length - 1) step < N, so some window fits."""
    import numpy as np

    reach = (length - 1) * step
    # one zero row, then [1, N]
    rows = -(-(step + A.n) // step)
    padded = np.zeros(rows * step, dtype=np.int64)
    padded[step - 1 + A.array] = 1
    prefix = padded.reshape(rows, step).cumsum(axis=0).ravel()
    # prefix[i] - prefix[i - length step] counts the window ending at i
    inside = prefix[step + reach : step + A.n] - prefix[: A.n - reach]
    best = int(np.argmax(inside))
    return 1 + best, int(inside[best])


# ---------------------------------------------------------------------------
# arc energy: energy_table measures every level from one arc_ranges call
# (driver.certify recounts a recorded level's E with neither arc_ranges nor
# the power grid)


def _level_energies(m: int, power: np.ndarray, norm: float, q_prime: int, big_q: int) -> tuple:
    """(E, E*) arrays over levels 1..Q': with C the running sum of the
    power at k = 0..M + w, each arc's power is C[hi + 1] - C[lo], within
    2 (M + w + 2) eps C[-1] of its exact sum; one bincount adds a level's
    arcs, one its star arcs, so a row does not depend on the other
    levels."""
    import numpy as np

    from .spectral import arc_ranges, unfold

    q, _, lo, hi, star = arc_ranges(m, q_prime, big_q)
    c = np.zeros(m + m // big_q + 2)  # C[0] = 0, then C[k + 1] = C[k] + power at k
    np.cumsum(unfold(power, m, c[1:]), out=c[1:])
    arc = c[1:][hi] - c[lo]
    e = np.bincount(q, weights=arc, minlength=q_prime + 1)[1:]
    e_star = np.bincount(q, weights=arc * star, minlength=q_prime + 1)[1:]
    return e * norm, e_star * norm


# ---------------------------------------------------------------------------
# operations


def energy_table(
    A: DensitySet, q_prime: int, big_q: int, m: int | None = None
) -> EnergyTable:
    """Normalized arc energies E and E* for every level q <= q_prime at
    half-width eta = 1/(q big_q), on the power of A.balanced() that
    grid_power gives on m points (m >= 8N, default fft_size(8N))."""
    from .spectral import fft_size, grid_power

    if q_prime < 1:
        raise DomainError(f"need Q' >= 1, got {q_prime}")
    if big_q < 2:
        raise DomainError(f"need Q >= 2 so same-level arcs stay disjoint, got {big_q}")
    m = fft_size(8 * A.n) if m is None else m
    if m < 8 * A.n:
        raise PreconditionError(f"grid {m} below 8x support {A.n}")
    power = grid_power(A.balanced(), m)
    norm = 1.0 / (A.alpha * A.size * m)
    e, e_star = _level_energies(m, power, norm, q_prime, big_q)
    e.flags.writeable = e_star.flags.writeable = False  # rows, once read, stay equal to them
    # the half grid holds k = 0 and, for even M, k = M/2 once; every other k twice
    total = 2 * power.sum() - power[0] - (power[-1] if m % 2 == 0 else 0.0)
    return EnergyTable(e, e_star, total=float(total * norm), big_q=big_q)


def extract_progression(
    A: DensitySet, row: EnergyStats, c_len: float = 0.25
) -> IncrementOutcome:
    """Turn the level-q arc energy E of A's energy_table row (q, eta, E)
    into a step-q progression where A beats its density by (1 + E/4).

    The progression length respects both |P| q eta <= 1/2 and
    |P| <= c_len min(eta^{-1}, E |A|) / q, then the best translate fully
    inside [1, N] is recounted.  Whether E is enough to try is the
    caller's test (the driver's is E >= 4 gain_threshold)."""
    q, eta, energy = row.q, row.eta, row.energy

    big_q = round(1.0 / (q * eta))  # exact: energy_table's eta is 1/(q Q)
    cap_eta = big_q // 2
    span = (A.n - 1) // q + 1  # the longest step-q progression in [1, N]
    mass = c_len * min(q * big_q, energy * A.size) / q
    cap_mass = math.floor(mass) if mass < math.inf else span  # inf: c_len past the float range
    length = max(1, min(cap_eta, cap_mass, span))

    first, count = _best_inside(A, q, length)
    alpha = A.alpha
    new_alpha = count / length
    met = count >= alpha * (1.0 + energy / 4.0) * length - 1e-9
    return IncrementOutcome(
        progression=Progression(first, q, length),
        intersection_count=count,
        new_alpha=new_alpha,
        met_guarantee=bool(met),
        detail={"energy": energy, "cap_eta": cap_eta, "cap_mass": cap_mass},
    )


def averaging_projection(A: DensitySet, step: int) -> IncrementOutcome:
    """Density-preserving fallback: a step-d window of length about
    alpha N / (8 d) on which A keeps at least half its density.  The bound
    count >= alpha L / 2 holds for every input (interior elements of A lie
    in L windows each; the window span eats at most a quarter of them)."""
    if step < 1:
        raise DomainError(f"need step >= 1, got {step}")
    alpha = A.alpha
    length = max(1, math.ceil(A.size / (8 * step)))
    first, count = _best_inside(A, step, length)
    new_alpha = count / length
    met = count >= alpha * length / 2.0 - 1e-9
    return IncrementOutcome(
        progression=Progression(first, step, length),
        intersection_count=count,
        new_alpha=new_alpha,
        met_guarantee=bool(met),
    )


def rescale(A: DensitySet, P: Progression) -> DensitySet:
    """Pull A ∩ P back to [1, |P|] along j -> first + j step.  Differences
    rescale exactly: x - y in the new set corresponds to step (x - y) in the
    old, so avoidance transfers to the step-adjusted forbidden set."""
    if not P.within(A.n):
        raise PreconditionError(
            f"progression [{P.first}, {P.last()}] not inside [1, {A.n}]"
        )
    offset = A.array - P.first
    j = offset[(offset >= 0) & (offset % P.step == 0)] // P.step
    j = j[j < P.length]
    if not j.size:
        raise PreconditionError("progression misses A entirely; nothing to rescale")
    return DensitySet(P.length, (j + 1).tolist())
