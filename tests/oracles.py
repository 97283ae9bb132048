"""Independent reference implementations for the test suite.

Everything here is deliberately naive: trial division, double loops, plain
DFT sums, exhaustive enumeration.  None of it shares code with the package
under test, so agreement is evidence rather than tautology.  Frozen; edit
only to add new oracles, or to remove one that no test reads.
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


def five_smooth_naive(n: int) -> bool:
    """n >= 1 has no prime factor above 5."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


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


def dirichlet_approx(theta: float, big_q: int) -> tuple[int, int]:
    """Best continued-fraction approximation a/q with q <= big_q.

    Returns reduced (a, q) with |theta - a/q| < 1/(q * big_q), theta taken
    mod 1.  Exact integer arithmetic on the binary value of theta.
    """
    if big_q < 1:
        raise ValueError(f"cutoff must be >= 1, got {big_q}")
    num, den = float(theta).as_integer_ratio()  # den is a power of 2, so num % den
    num %= den  # keeps the fraction in lowest terms
    h_prev, h = 1, num // den
    k_prev, k = 0, 1
    num, den = den, num - (num // den) * den
    while den != 0:
        a_i = num // den
        h_next = a_i * h + h_prev
        k_next = a_i * k + k_prev
        if k_next > big_q:
            break
        h_prev, h, k_prev, k = h, h_next, k, k_next
        num, den = den, num - a_i * den
    if h == k:  # theta rounded up to 1: same arc as 0
        return 0, 1
    return h, k


def convergents_exact(k: int, m: int) -> list[tuple[int, int]]:
    """Every continued-fraction convergent p/q of the exact fraction
    (k mod M)/M, in order from 0/1, by Euclid's algorithm on (k mod M, M)
    in integers.  The last convergent with q <= Q, read mod 1 (1/1 as 0/1),
    is k/M's label at cutoff Q."""
    num, den = k % m, m
    p_prev, p, q_prev, q = 1, 0, 0, 1
    out = [(p, q)]
    while num:
        c = den // num  # the next partial quotient of num/den < 1
        p_prev, p = p, c * p + p_prev
        q_prev, q = q, c * q + q_prev
        out.append((p, q))
        den, num = num, den - c * num
    return out


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


def random_local_sampled_naive(n: int, d: int, seed: int) -> list[int]:
    """The random_local heuristic drawn from random.Random(seed), with a
    conflict count per point: the ascending first-fit set, then three
    random fills, each replacing the best only when strictly larger; a fill
    lists the points of [1, n] not taken and in conflict with none taken,
    ascending, takes the one at index randrange(len(list)), and repeats
    until the list is empty.  Then up to four sweeps, each shuffling the
    sorted set with the same generator and trying every removal r in that
    order: free r, add the two lowest points of [1, n] outside the set
    minus r that fit, ascending, and accept the first removal that finds
    two."""
    import random

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

    def fill():
        conflicts, taken = [0] * (n + 1), []
        while True:
            free = [x for x in range(1, n + 1) if conflicts[x] == 0 and x not in taken]
            if not free:
                return taken
            x = free[rng.randrange(len(free))]
            taken.append(x)
            toggle(conflicts, x, 1)

    rng = random.Random(seed)
    best = take(range(1, n + 1), [0] * (n + 1))
    for _ in range(3):
        cand = sorted(fill())
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


def forbidden_pair_scan(elements, bits) -> tuple[int, int, int] | None:
    """find_forbidden_pair as a scan of the forbidden s ascending (bits[s]
    true): the first s realized in the set, with the least smaller element
    b of a pair b, b + s, as (s, b, b + s); None when no s is realized."""
    mask = 0
    for x in set(elements):
        mask |= 1 << x
    for s in range(1, len(bits)):
        if bits[s]:
            hit = mask & (mask >> s)
            if hit:
                b = (hit & -hit).bit_length() - 1
                return s, b, b + s
    return None


def branch_and_bound_rows(n: int, d: int, budget: int | None):
    """Branch-and-bound in static-order space, as (elements, size, optimal,
    nodes).  The order sorts [1, n] stably by the count of successors u > v
    at an allowed distance; row i holds the order positions j != i whose
    vertex is at an allowed distance from order[i].  From the first-fit
    incumbent, pop a node (candidates, chosen, size), count it, stop past
    the budget, keep a larger chosen set, drop the node when
    size + #candidates cannot beat the incumbent, else push the branch
    without the lowest candidate position i, then the one with it (so the
    latter is explored first)."""
    bad = forbidden_diffs_naive(n, d)
    succ = {v: sum(1 for u in range(v + 1, n + 1) if u - v not in bad) for v in range(1, n + 1)}
    order = sorted(range(1, n + 1), key=lambda v: succ[v])
    rows = []
    for i, v in enumerate(order):
        row = 0
        for j, u in enumerate(order):
            if j != i and abs(u - v) not in bad:
                row |= 1 << j
        rows.append(row)
    incumbent = first_fit_naive(n, d)
    best_size = len(incumbent)
    best = sum(1 << order.index(v) for v in incumbent)
    nodes = 0
    optimal = True
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        cand, chosen, size = stack.pop()
        nodes += 1
        if budget is not None and nodes > budget:
            optimal = False
            break
        if size > best_size:
            best_size, best = size, chosen
        if not cand or size + bin(cand).count("1") <= best_size:
            continue
        i = (cand & -cand).bit_length() - 1
        stack.append((cand & ~(1 << i), chosen, size))
        stack.append((cand & rows[i], chosen | 1 << i, size + 1))
    elements = tuple(sorted(order[i] for i in range(n) if best >> i & 1))
    return elements, best_size, optimal, nodes


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
