"""Extremal sets avoiding forbidden differences s with d s + 1 prime.

Sets live in [1, n]; the forbidden differences are one bool array,
`ForbiddenSet.bits`.  The exact solver is Russian-doll search: it proves
the optima f(1), ..., f(n) in ascending order and bounds each subtree by
the optimum already known for its candidates' span, since the conflict
graph is translation-invariant.  When its node budget runs out, a
branch-and-bound over a most-constrained-first static vertex order with
the popcount bound runs with the same budget, and `nodes` counts both.
Candidate sets and `find_forbidden_pair`'s set are int bitsets packed from
bool arrays.  The greedy strategies take a point when no chosen element
sits at a forbidden distance from it, read off int bitsets: with F the
bitset of the forbidden s, the points near x are F << x and the reversed
F shifted down, and local search keeps the points blocked once and twice.
Primality comes from tables covering d(n-1)+1 when they are supplied, else
from a sieve of the values d s + 1 by the primes up to sqrt(d(n-1)+1)
(from arith._primes_upto), or from deterministic Miller-Rabin when that
root exceeds TABLE_CAP; the routes agree (tested), keeping the search
independent of the tables.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import arith
from .arith import ArithTables, _primes_upto, check_budget, is_prime
from .errors import DomainError, PreconditionError, ResourceError

__all__ = [
    "ForbiddenSet",
    "SearchResult",
    "greedy_avoiding",
    "is_avoiding",
    "max_avoiding_exact",
]

EXACT_CAP = 64  # largest n exact search takes without a node budget
ROW_BYTES_CAP = 32 * arith.TABLE_CAP  # exact search rows' n^2/8 bytes: 128 MB, as tables
LOCAL_PASSES = 4  # remove-1/add-2 sweeps of random_local


@dataclass(frozen=True)
class ForbiddenSet:
    """Differences s in [1, n-1] with d s + 1 prime: bits[s] is True iff s
    is forbidden (bits[0] is False).  n is at most TABLE_CAP.  build reads
    the tables when they cover d (n - 1) + 1, else sieves the values d s + 1
    (_shifted_primes) when sqrt(d (n - 1) + 1) is at most TABLE_CAP, else
    runs Miller-Rabin on each."""

    n: int
    d: int
    bits: np.ndarray

    @classmethod
    def build(cls, n: int, d: int, tables: ArithTables | None = None) -> "ForbiddenSet":
        if n < 1 or d < 1:
            raise DomainError(f"need n, d >= 1, got n={n}, d={d}")
        check_budget(n, "forbidden set limited to n")
        top = d * (n - 1) + 1
        bits = np.zeros(n, dtype=bool)
        if tables is not None and top <= tables.n_max:
            s = np.arange(1, n, dtype=np.int64)
            vals = d * s + 1
            bits[1:] = tables.spf[vals] == vals
        elif n > 1 and math.isqrt(top) <= arith.TABLE_CAP:  # at n = 1, d may pass int64
            bits = _shifted_primes(n, d)
        else:
            bits[1:] = [is_prime(d * s + 1) for s in range(1, n)]
        return cls(n=n, d=d, bits=bits)

    def forbidden(self, s: int) -> bool:
        return 0 < s < self.n and bool(self.bits[s])

    def count(self) -> int:
        return int(self.bits.sum())


def _shifted_primes(n: int, d: int) -> np.ndarray:
    """flags[s] iff d s + 1 is prime, for s in [0, n) (flags[0] is False).

    Sieves the progression d s + 1 by the primes p <= sqrt(d (n - 1) + 1)
    that do not divide d: p strikes s_p, s_p + p, ... from s_p = -1/d mod p,
    the first s >= 1 with p | d s + 1.  A prime p = d s + 1 strikes its own
    s, which is set back.  Needs n >= 2 and d (n - 1) + 1 below 2^63."""
    flags = np.ones(n, dtype=bool)
    flags[0] = False
    p = _primes_upto(math.isqrt(d * (n - 1) + 1))
    p = p[d % p != 0]
    # 1/d = d^(p - 2) mod p, square-and-multiply on every p at once (p^2 < 2^63)
    inv, base, e = np.ones_like(p), d % p, p - 2
    while e.any():
        inv = np.where(e & 1, inv * base % p, inv)
        base, e = base * base % p, e >> 1
    first = p - inv
    flags[first[first < n]] = False
    again = first + p < n  # p strikes more than once: p < n
    for step, s in zip(p[again].tolist(), (first + p)[again].tolist()):
        flags[s::step] = False
    own = p[(p - 1) % d == 0]
    flags[(own - 1) // d] = True
    return flags


def _bitset(flags: np.ndarray) -> int:
    """The int with bit i set iff flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def is_avoiding(elements, fs: ForbiddenSet) -> bool:
    """True iff no pair of elements differs by a forbidden s."""
    return find_forbidden_pair(elements, fs) is None


def find_forbidden_pair(elements, fs: ForbiddenSet):
    """Smallest forbidden difference realized in the set, as
    (s, smaller, larger), or None.  Scans s ascending, then position."""
    mask = _bitset(np.bincount(np.asarray(elements, dtype=np.int64)) > 0)
    for s in np.flatnonzero(fs.bits).tolist():
        hit = mask & (mask >> s)
        if hit:
            b = (hit & -hit).bit_length() - 1
            return s, b, b + s
    return None


@dataclass(frozen=True)
class SearchResult:
    elements: tuple
    size: int
    optimal: bool
    nodes: int
    seconds: float
    strategy: str


# ---------------------------------------------------------------------------
# exact search


def max_avoiding_exact(fs: ForbiddenSet, node_budget: int | None = None) -> SearchResult:
    """Maximum avoiding subset of [1, n] by Russian-doll search.

    The conflict graph is translation-invariant, so the optimum on any
    interval [lo, hi] is f(hi - lo + 1).  Stage m = 1, ..., n decides
    whether [1, m] holds a set of size f(m - 1) + 1 containing m, branching
    on the largest open position first and pruning a node when
    size + f(hi - lo + 1) < target for its candidates' span [lo, hi].  With
    no budget the answer is optimal.  When the budget runs out first,
    `_branch_and_bound` runs with the same budget and its incumbent is
    returned with optimal=False; `nodes` counts both phases.  Past
    EXACT_CAP a node budget is required, and past n^2/8 > ROW_BYTES_CAP
    the search is refused before anything is built."""
    n = fs.n
    if node_budget is not None and node_budget < 1:
        raise DomainError(f"node budget must be >= 1, got {node_budget}")
    if node_budget is None and n > EXACT_CAP:
        raise ResourceError(
            f"exact search beyond n={EXACT_CAP} needs an explicit node budget, got n={n}"
        )
    if n * n > 8 * ROW_BYTES_CAP:
        raise ResourceError(
            f"exact search limited to n <= {math.isqrt(8 * ROW_BYTES_CAP)}"
            f" (n^2/8 bytes of rows), got n={n}"
        )
    t0 = time.perf_counter()
    budget = math.inf if node_budget is None else node_budget
    # bit n - s of rev is set iff s in [1, n - 1] is allowed, so bit j of
    # rev >> (n - x) is set iff x - j is allowed
    allowed = ~fs.bits
    allowed[0] = False
    rev = _bitset(allowed[::-1]) << 1
    f = [0] * (n + 1)  # f[k]: optimum on any interval of k positions
    best = 0  # bitset of the last set found, of size f[m]
    nodes = 0
    for m in range(1, n + 1):
        target = f[m - 1] + 1
        stack = [((rev >> (n - m)) & ((1 << m) - 2), 1, 1 << m)]  # cand, size, chosen
        while stack:
            cand, size, chosen = stack.pop()
            nodes += 1
            if nodes > budget:
                seconds = time.perf_counter() - t0
                res = _branch_and_bound(fs, node_budget)
                return replace(res, nodes=nodes + res.nodes, seconds=seconds + res.seconds)
            if size == target:
                best = chosen
                break
            if not cand:
                continue
            hi = cand.bit_length() - 1
            if size + f[hi - (cand & -cand).bit_length() + 2] < target:
                continue
            top = 1 << hi
            # exclude branch first so the include branch is explored first (LIFO)
            stack.append((cand ^ top, size, chosen))
            stack.append((cand & (rev >> (n - hi)), size + 1, chosen | top))
        f[m] = target if best >> m & 1 else f[m - 1]

    elements = tuple(x for x in range(1, n + 1) if best >> x & 1)
    if elements and not is_avoiding(elements, fs):
        raise PreconditionError("search produced a non-avoiding set; invariant broken")
    return SearchResult(
        elements=elements,
        size=f[n],
        optimal=True,
        nodes=nodes,
        seconds=time.perf_counter() - t0,
        strategy="exact",
    )


def _branch_and_bound(fs: ForbiddenSet, node_budget: int | None) -> SearchResult:
    """Branch-and-bound from the first-fit incumbent over a static
    most-constrained-first order (fewest compatible successors, index as
    tie-break): branch on the lowest-order open vertex, and a subtree dies
    when size + popcount(candidates) cannot beat the incumbent.  An
    exhausted budget returns the incumbent with optimal=False."""
    n = fs.n
    # v has n - v successors u > v, of which those at a forbidden u - v clash
    verts = np.arange(1, n + 1)
    succ_count = (n - verts) - np.cumsum(fs.bits)[n - verts]
    order = np.argsort(succ_count, kind="stable") + 1

    # row i: the positions j != i whose vertex is at an allowed distance
    compat = []
    for i, v in enumerate(order.tolist()):
        flags = ~fs.bits[np.abs(order - v)]
        flags[i] = False
        compat.append(_bitset(flags))

    # greedy incumbent for early pruning
    seed = greedy_avoiding(fs, strategy="first_fit")
    best_size = seed.size
    best_mask = _bitset(np.isin(order, seed.elements))
    order = order.tolist()

    t0 = time.perf_counter()
    nodes = 0
    truncated = False
    full = (1 << n) - 1
    stack = [(full, 0, 0)]  # candidates, chosen_mask, chosen_size
    while stack:
        cand, chosen, size = stack.pop()
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            truncated = True
            break
        if size > best_size:
            best_size, best_mask = size, chosen
        if not cand or size + bin(cand).count("1") <= best_size:
            continue
        low = cand & -cand
        i = low.bit_length() - 1
        # exclude branch first so the include branch is explored first (LIFO)
        stack.append((cand & ~low, chosen, size))
        stack.append((cand & compat[i], chosen | low, size + 1))

    elements = tuple(sorted(order[i] for i in range(n) if best_mask >> i & 1))
    if elements and not is_avoiding(elements, fs):
        raise PreconditionError("search produced a non-avoiding set; invariant broken")
    return SearchResult(
        elements=elements,
        size=best_size,
        optimal=not truncated,
        nodes=nodes,
        seconds=time.perf_counter() - t0,
        strategy="exact",
    )


# ---------------------------------------------------------------------------
# greedy strategies


def _neighbours(fs: ForbiddenSet):
    """(forward, full, near): forward has bit s set iff s is forbidden,
    full has bits 1..n set, and near(x) is the bitset of the y in [1, n]
    at a forbidden distance from x.  backward has bit n - s set iff s is
    forbidden, so forward << x holds the x + s and backward >> (n - x)
    the x - s."""
    n = fs.n
    forward = _bitset(fs.bits)
    backward = _bitset(fs.bits[::-1]) << 1
    full = (1 << (n + 1)) - 2

    def near(x: int) -> int:
        return ((forward << x) | (backward >> (n - x))) & full

    return forward, full, near


def _first_fit(full: int, forward: int) -> list:
    """Ascending scan of the points of full: take the lowest free point x,
    then block x and every x + s with s forbidden.  free is kept shifted
    down by x, so it shrinks as the scan goes."""
    taken = []
    free, x = full, 0
    block = ~(forward | 1)
    while free:
        t = (free & -free).bit_length() - 1
        free >>= t
        x += t
        taken.append(x)
        free &= block
    return taken


def _fill(order, near, n: int) -> list:
    """Take each x of `order` at no forbidden distance from a point taken
    before it.  Each test reads a bytes snapshot of the blocked bitset,
    refreshed after each take, so a test is O(1), not an O(n) shift."""
    size = n // 8 + 1
    taken = []
    blocked = 0
    snap = bytes(size)
    for x in order:
        if not snap[x >> 3] >> (x & 7) & 1:
            taken.append(x)
            blocked |= near(x)
            snap = blocked.to_bytes(size, "little")
    return taken


def _cover(chosen, near) -> tuple[int, int, int]:
    """(members, once, twice): the bitset of `chosen` and of the points at
    a forbidden distance from at least one and at least two of them."""
    members = once = twice = 0
    for c in chosen:
        b = near(c)
        members |= 1 << c
        twice |= once & b
        once |= b
    return members, once, twice


def greedy_avoiding(
    fs: ForbiddenSet, strategy: str = "first_fit", seed: int = 0
) -> SearchResult:
    """Heuristic avoiding set.

    first_fit: ascending scan, keep what fits.  random_local: best of a few
    random insertion orders, then remove-1/add-2 first-improvement local
    search, capped at LOCAL_PASSES sweeps.  Never claims optimality.
    Both run on int bitsets: a point is free when no chosen element sits
    at a forbidden distance from it, read off shifts of the bitset of the
    forbidden s (see _neighbours).  Removing r from the set C frees the
    points in once but neither in near(r) nor in twice; the two adds are
    the lowest free points outside C minus r, in ascending order."""
    n = fs.n
    t0 = time.perf_counter()
    forward, full, near = _neighbours(fs)

    if strategy == "first_fit":
        chosen = _first_fit(full, forward)
        return SearchResult(
            tuple(chosen), len(chosen), False, 0, time.perf_counter() - t0, strategy
        )
    if strategy != "random_local":
        raise DomainError(f"unknown strategy {strategy!r}")

    rng = np.random.default_rng(seed)
    best = _first_fit(full, forward)
    for _ in range(3):
        order = rng.permutation(np.arange(1, n + 1)).tolist()
        cand = sorted(_fill(order, near, n))
        if len(cand) > len(best):
            best = cand

    current = set(best)
    members, once, twice = _cover(current, near)
    for _ in range(LOCAL_PASSES):
        improved = False
        removal_order = sorted(current)
        rng.shuffle(removal_order)
        for r in removal_order:
            free = full & ~(members | (once & (~near(r) | twice))) | 1 << r
            low = free & -free  # never empty: r is free
            rest = (free ^ low) & ~(forward << (low.bit_length() - 1))
            if rest:
                adds = {low.bit_length() - 1, (rest & -rest).bit_length() - 1}
                current = (current - {r}) | adds
                members, once, twice = _cover(current, near)
                improved = True
                break
        if not improved:
            break

    elements = tuple(sorted(current))
    if elements and not is_avoiding(elements, fs):
        raise PreconditionError("greedy produced a non-avoiding set; invariant broken")
    return SearchResult(
        elements, len(elements), False, 0, time.perf_counter() - t0, strategy
    )
