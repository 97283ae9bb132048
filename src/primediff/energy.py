"""Energy increments: turning arc-energy excess into denser progressions,
the driver's energy step, and certify's recount of it.

For A of density alpha in [1, N] with balanced function
g = 1_A - alpha 1_[1,N] (DensitySet.balanced, g(x) at index x - 1),

    E_{A,q,eta}  = (alpha |A|)^{-1} sum_{a=1}^{q} integral_{|t - a/q| <= eta} |g_hat|^2
    E*_{A,q,eta} = same sum restricted to gcd(a, q) = 1,

with integrals realized as quadrature on an M-point grid, M >= 8N, by
default fft_size(8N), the least 5-smooth size >= 8N.  Summed over the
whole torus the normalized energy is exactly (1 - alpha)/alpha, which
pins the normalization in tests.  Extraction turns a level's E into a
step-q progression on which A beats alpha by the factor (1 + E/4); the
energy step (_energy_step), not extraction, decides whether E is large
enough to try.  Window counts are recounted exactly (_best_inside), never
inferred from the transform side.  increment's carriers build their
arrays here (see arith for the numpy rule).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from . import _EXPORTS
from .arith import euler_phi
from .errors import DomainError, PreconditionError
from .increment import DensitySet, EnergyStats, IncrementOutcome, Progression
from .spectral import arc_ranges, fft_size, grid_power, unfold

__all__ = list(_EXPORTS["energy"])


def _frozen_array(elements: tuple) -> np.ndarray:
    """DensitySet.array: the elements as a read-only int64 array."""
    array = np.array(elements, dtype=np.int64)
    array.flags.writeable = False
    return array


def _balanced(A: DensitySet) -> np.ndarray:
    """DensitySet.balanced: g = 1_A - alpha 1_[1,N], g(x) at index x - 1."""
    vals = np.full(A.n, -A.alpha, dtype=np.float64)
    vals[A.array - 1] += 1.0
    return vals


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
# (certify's recount, below, reads neither arc_ranges nor the power grid)


def _level_energies(m: int, power: np.ndarray, norm: float, q_prime: int, big_q: int) -> tuple:
    """(E, E*) arrays over levels 1..Q': with C the running sum of the
    power at k = 0..M + w, each arc's power is C[hi + 1] - C[lo], within
    2 (M + w + 2) eps C[-1] of its exact sum; one bincount adds a level's
    arcs, one its star arcs, so a row does not depend on the other
    levels."""
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


# ---------------------------------------------------------------------------
# the driver's energy step


def _energy_step(A: DensitySet, d: int, config):
    """iterate_once past the pair search and the d ceiling: the energy
    table of A at levels 1..max(Q', Q''), the admissible level with the
    highest E*/phi(q), and the extraction there.  Returns (outcome,
    diagnostics dict)."""
    from .driver import DensityIncrement, LargeDOrSmallAlpha, SmallN

    n = A.n
    alpha = A.alpha
    n_prime = config.n_prime(n, alpha)
    if n_prime < 1:
        return SmallN(n), {"n_prime": n_prime}
    q_prime = config.level_cutoff(n, d, alpha)
    big_q = config.dissection_q(n_prime, q_prime)
    q_double = config.extraction_cap(alpha)
    q_top = max(q_prime, q_double)

    table = energy_table(A, q_top, big_q, config.grid_size(n))
    star = table.star_energy  # levels 1..q_top: level q at index q - 1
    ratio = star / _phi_column(q_top)
    trigger = sum(ratio[:q_prime].tolist())  # in level order, as a Python sum
    diagnostics = {
        "n_prime": n_prime,
        "q_prime": q_prime,
        "big_q": big_q,
        "q_double": q_double,
        "trigger": trigger,
        "energy_table": table,
    }

    # levels q <= Q'' with E* > 0: the highest E*/phi(q), the lowest q among ties
    admissible = star[:q_double] > 0
    if admissible.any():
        best = table.row(1 + int(np.argmax(np.where(admissible, ratio[:q_double], -np.inf))))
        target = 4.0 * config.gain_threshold
        if best.energy < target:
            return (
                LargeDOrSmallAlpha(
                    reason=f"energy {best.energy:.4g} below {target:.4g} at level q={best.q}"
                ),
                diagnostics,
            )
        out = extract_progression(A, best, c_len=config.c_len)
        if out.met_guarantee and out.new_alpha >= alpha * (1.0 + config.gain_threshold):
            new_set = rescale(A, out.progression)
            return (
                DensityIncrement(
                    q=best.q, outcome=out, new_set=new_set, new_d=d * best.q
                ),
                diagnostics,
            )
        return (
            LargeDOrSmallAlpha(
                reason=f"extraction at q={best.q} reached alpha ratio "
                f"{out.new_alpha / alpha:.4g}, below guarantee"
            ),
            diagnostics,
        )
    return LargeDOrSmallAlpha(reason="no positive star energy at admissible levels"), diagnostics


_phi = ()  # phi(1..len(_phi)), a read-only array once grown


def _phi_column(top: int) -> np.ndarray:
    """phi(1..top), level q at index q - 1: a read-only prefix of _phi,
    grown to the most levels a step asks for, one euler_phi call per level
    added."""
    global _phi
    if len(_phi) < top:
        _phi = np.append(_phi, [euler_phi(q) for q in range(len(_phi) + 1, top + 1)])
        _phi.flags.writeable = False
    return _phi[:top]


# ---------------------------------------------------------------------------
# certify's recount


_PAIR_BLOCK = 1 << 18  # most pair differences _correlations holds at once


def _correlations(A: DensitySet) -> tuple[np.ndarray, ...]:
    """(r_AA, r_AI, r_IA, r_II) at every x = 0..N - 1 with I = [1, N]: the
    pairs (u, v) with u - v = x from A x A, A x I, I x A and I x I.  r_AA
    counts the differences a - b > 0 of the ascending elements exactly, as
    int64, a block of rows at a time: O(|A|^2) time and O(N + _PAIR_BLOCK)
    memory.  The other three are closed forms (set-interval by suffix
    counts), as floats."""
    e = A.array
    r_aa = np.zeros(A.n, dtype=np.int64)
    rows = max(1, _PAIR_BLOCK // A.size)
    for lo in range(0, A.size, rows):
        diff = e[lo : lo + rows, None] - e[: lo + rows]  # b up to a's own place in the order
        r_aa += np.bincount(diff[diff > 0], minlength=A.n)
    r_aa[0] = A.size
    x = np.arange(A.n, dtype=np.int64)
    r_ai = (A.size - np.searchsorted(e, x, side="right")).astype(np.float64)
    r_ia = np.searchsorted(e, A.n - x, side="right").astype(np.float64)
    r_ii = (A.n - x).astype(np.float64)
    return r_aa, r_ai, r_ia, r_ii


def _recount_energy(A: DensitySet, q: int, m: int, big_q: int) -> float:
    """E of A at level q on the M-point grid, recounted in physical space:
    no grid transform, and arc ends of its own.  On a finite grid

        sum_{k in S} |g_hat(k/M)|^2 = sum_{|h| < N} r_g(h) K_S(h),

    r_g the autocorrelation of g = 1_A - alpha 1_[1,N] (_correlations, from
    A's pair differences) and K_S(h) the sum over the level's arcs of

        sum_{k=lo}^{hi} cos(2 pi h k / M)
            = sin(pi h L / M) cos(pi h (lo + hi) / M) / sin(pi h / M),

    L = hi - lo + 1, with lo = ceil((aM - w)/q), hi = floor((aM + w)/q),
    w = floor(M/Q).  When 2w >= M each arc meets the next at one point
    (the a = q arc meets a = 1 past M), counted once.  Works arc by arc:
    O(qN + |A|^2) time, O(N) memory."""
    alpha = A.alpha
    r_aa, r, r_ia, r_ii = _correlations(A)
    r += r_ia  # r_g = r_AA - alpha (r_AI + r_IA) + alpha^2 r_II, in place
    r *= alpha
    np.subtract(r_aa, r, out=r)
    r_ii *= alpha * alpha
    r += r_ii
    w = m // big_q
    lo = [-((w - a * m) // q) for a in range(1, q + 1)]  # ceil((aM - w) / q)
    hi = [(a * m + w) // q for a in range(1, q + 1)]
    hi = [b - (b == c) for b, c in zip(hi, lo[1:] + [lo[0] + m])]
    h = np.arange(1, A.n, dtype=np.int64)
    kernel = np.zeros(A.n - 1)
    for first, last in zip(lo, hi):
        # both angles reduced mod 2M in int64 before the float multiply
        kernel += np.sin(np.pi / m * (h * (last - first + 1) % (2 * m))) * np.cos(
            np.pi / m * (h * (first + last) % (2 * m))
        )
    kernel /= np.sin(np.pi / m * h)
    total = float(r[0]) * (sum(hi) - sum(lo) + q) + 2.0 * float(np.dot(r[1:], kernel))
    return total / (alpha * A.size * m)
