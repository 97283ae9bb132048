"""Independent reference implementations for the test suite.

Everything here is deliberately naive: trial division, double loops, plain
DFT sums, exhaustive enumeration.  None of it shares code with the package
under test, so agreement is evidence rather than tautology.  Frozen; edit
only to add new oracles.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


def trial_division_factor(n: int) -> dict[int, int]:
    n = int(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime_naive(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def mangoldt_naive(n: int) -> float:
    if n < 2:
        return 0.0
    f = trial_division_factor(n)
    if len(f) != 1:
        return 0.0
    (p,) = f
    return math.log(p)


def mobius_naive(n: int) -> int:
    f = trial_division_factor(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def phi_naive(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def psi_naive(x: float, q: int, a: int) -> float:
    top = int(math.floor(x))
    return sum(mangoldt_naive(n) for n in range(1, top + 1) if n % q == a % q)


def psi_chi_naive(x: float, values) -> complex:
    """Sum of values[n mod q] * Lambda(n) over 1 <= n <= x, q = len(values)."""
    q = len(values)
    return sum(values[n % q] * mangoldt_naive(n) for n in range(1, int(math.floor(x)) + 1))


def ramanujan_closed_form(q: int, a: int) -> float:
    """c_q(a) = mu(q/g) phi(q) / phi(q/g) with g = gcd(a, q)."""
    g = math.gcd(a % q, q)
    return mobius_naive(q // g) * phi_naive(q) / phi_naive(q // g)


def tau_naive(a: int, d: int, q: int) -> complex:
    total = 0.0 + 0.0j
    for m in range(q):
        if math.gcd(m * d + 1, q) == 1:
            total += cmath.exp(2j * cmath.pi * m * a / q)
    return total


def dft_naive(values, offset: int, theta: float) -> complex:
    total = 0.0 + 0.0j
    for i, v in enumerate(values):
        total += v * cmath.exp(-2j * cmath.pi * (offset + i) * theta)
    return total


def forbidden_diffs_naive(n: int, d: int) -> set[int]:
    return {s for s in range(1, n) if is_prime_naive(d * s + 1)}


def first_fit_naive(n: int, d: int) -> list[int]:
    """Ascending scan of [1, n] keeping each x whose difference to every
    element kept so far is allowed."""
    bad = forbidden_diffs_naive(n, d)
    kept = []
    for x in range(1, n + 1):
        if all(x - y not in bad for y in kept):
            kept.append(x)
    return kept


def random_local_naive(n: int, d: int, seed: int) -> list[int]:
    """The random_local heuristic with a conflict count per point: the
    ascending first-fit set, then three orders drawn by
    default_rng(seed).permutation, each replacing the best only when
    strictly larger; then up to four sweeps, each shuffling the sorted set
    with the same generator and trying every removal r in that order: free
    r, add the two lowest points of [1, n] outside the set minus r that
    fit, ascending, and accept the first removal that finds two."""
    import numpy as np

    bad = forbidden_diffs_naive(n, d)

    def toggle(conflicts, x, step):
        for y in range(1, n + 1):
            if abs(x - y) in bad:
                conflicts[y] += step

    def take(order, conflicts, limit=0):
        taken = []
        for x in order:
            if conflicts[x] == 0:
                taken.append(x)
                toggle(conflicts, x, 1)
                if len(taken) == limit:
                    break
        return taken

    rng = np.random.default_rng(seed)
    best = take(range(1, n + 1), [0] * (n + 1))
    for _ in range(3):
        order = rng.permutation(np.arange(1, n + 1)).tolist()
        cand = sorted(take(order, [0] * (n + 1)))
        if len(cand) > len(best):
            best = cand

    current = set(best)
    conflicts = [0] * (n + 1)
    for x in best:
        toggle(conflicts, x, 1)
    for _ in range(4):
        removals = sorted(current)
        rng.shuffle(removals)
        for r in removals:
            toggle(conflicts, r, -1)
            outside = [x for x in range(1, n + 1) if x == r or x not in current]
            adds = take(outside, conflicts, limit=2)
            if len(adds) == 2:
                current = (current - {r}) | set(adds)
                break
            for x in adds:
                toggle(conflicts, x, -1)
            toggle(conflicts, r, 1)
        else:
            break
    return sorted(current)


def avoiding_prefix_optima(n: int, d: int) -> list[int]:
    """optima[k] = max size of a subset of [1, k] with no difference s such
    that d s + 1 is prime, for every k <= n.  Exhaustive depth-first
    enumeration of all avoiding sets; no bounding, no clever ordering."""
    bad = forbidden_diffs_naive(n, d)
    best_at_max = [0] * (n + 1)  # best size over sets whose largest element is k

    def extend(chosen: list[int], start: int) -> None:
        for v in range(start, n + 1):
            if all(v - u not in bad for u in chosen):
                chosen.append(v)
                if len(chosen) > best_at_max[v]:
                    best_at_max[v] = len(chosen)
                extend(chosen, v + 1)
                chosen.pop()

    extend([], 1)
    optima = [0] * (n + 1)
    for k in range(1, n + 1):
        optima[k] = max(optima[k - 1], best_at_max[k])
    return optima


def window_count_naive(elements, first: int, step: int, length: int) -> int:
    points = {first + i * step for i in range(length)}
    return len(points & set(elements))


def inner_products_naive(elements, n: int):
    """r(x) = #{(a, b) in A^2 : a - b = x} for x in [1, n - 1], plus the
    interval and cross counts, all by double loops."""
    elems = sorted(elements)
    r_aa = [0] * n
    for a in elems:
        for b in elems:
            if 0 < a - b < n:
                r_aa[a - b] += 1
    r_ii = [0] * n
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if 0 < a - b < n:
                r_ii[a - b] += 1
    r_ai = [0] * n
    for a in elems:
        for b in range(1, n + 1):
            if 0 < a - b < n:
                r_ai[a - b] += 1
    r_ia = [0] * n
    for a in range(1, n + 1):
        for b in elems:
            if 0 < a - b < n:
                r_ia[a - b] += 1
    return r_aa, r_ii, r_ai, r_ia


def arc_numerators_naive(m: int, q: int, big_q: int) -> dict[int, list[int]]:
    """{k: [a, ...]} over grid indices k in some closed arc
    |k/M - a/q| <= 1/(qQ), a in 1..q, by Fractions."""
    width = Fraction(1, q * big_q)
    owners: dict[int, list[int]] = {}
    for k in range(m):
        for a in range(1, q + 1):
            dist = abs(Fraction(k, m) - Fraction(a, q)) % 1
            if min(dist, 1 - dist) <= width:
                owners.setdefault(k, []).append(a)
    return owners
