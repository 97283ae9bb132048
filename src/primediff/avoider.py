"""Extremal sets avoiding forbidden differences s with d s + 1 prime.

Sets live in [1, n]; the forbidden differences are one bytes object of
0/1 flags, `ForbiddenSet.bits`.  Every search runs on int bitsets with
bit x for point x: with F the bitset of the forbidden s, `_bitset(bits)`,
the points at a forbidden distance from x are F << x and the reversed F
shifted down, and the complement of F gives the compatible points the
same way.  The exact solver is Russian-doll search: it proves the optima
f(1), ..., f(n) in ascending order and bounds each subtree by the optimum
already known for its candidates' span, since the conflict graph is
translation-invariant.  When its node budget runs out, branch-and-bound
with the popcount bound runs with the same budget, and `nodes` counts
both.  Primality comes from arith's one immutable bitmap of the primes,
which psi reads too, while d(n-1)+1 is at most TABLE_CAP (every n at
d = 1), else from a sieve of the values d s + 1 by the primes up to
sqrt(d(n-1)+1), each starting at -1/d mod p from one vectorized Fermat
power, or from deterministic Miller-Rabin when that root exceeds
TABLE_CAP.  This module imports no numpy (see arith): the sieve of
d s + 1 is tables._shifted_primes, which build imports on that route
alone.  random_local draws from random.Random (see greedy_avoiding).
"""

from __future__ import annotations

import math
import operator
import random
import time
from collections import namedtuple
from itertools import accumulate, chain

from . import arith
from .arith import _prime_bitmap, check_budget, check_integers, is_prime
from .errors import DomainError, PreconditionError, ResourceError

__all__ = [
    "ForbiddenSet",
    "SearchResult",
    "greedy_avoiding",
    "is_avoiding",
    "max_avoiding_exact",
]

EXACT_CAP = 64  # largest n exact search takes without a node budget
LOCAL_PASSES = 4  # remove-1/add-2 sweeps of random_local
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # 0/1 flags to binary digits


class ForbiddenSet(namedtuple("ForbiddenSet", "n d bits")):
    """Differences s in [1, n-1] with d s + 1 prime: bits holds n bytes,
    bits[s] = 1 iff s is forbidden, else 0 (bits[0] = 0); numpy reads it as
    np.frombuffer(bits, dtype=bool).  n is at most TABLE_CAP.  build reads
    the values d s + 1 in arith's _prime_bitmap, grown to the largest top
    asked for and never shrunk, as a strided slice of it, when
    d (n - 1) + 1 is at most TABLE_CAP; past it it sieves them
    (tables._shifted_primes: each prime's first s from a Fermat power) when
    sqrt(d (n - 1) + 1) is at most TABLE_CAP, else runs Miller-Rabin on
    each."""

    __slots__ = ()

    @classmethod
    def build(cls, n: int, d: int) -> "ForbiddenSet":
        if n < 1 or d < 1:
            raise DomainError(f"need n, d >= 1, got n={n}, d={d}")
        check_budget(n, "forbidden set limited to n")
        top = d * (n - 1) + 1
        if top <= arith.TABLE_CAP:  # the flags of 1, d + 1, ..., top (any d at n = 1)
            bits = _prime_bitmap(top)[1 : top + 1 : d]
        elif math.isqrt(top) <= arith.TABLE_CAP:
            from .tables import _shifted_primes

            bits = _shifted_primes(n, d).tobytes()
        else:
            bits = bytes(1) + bytes(is_prime(d * s + 1) for s in range(1, n))
        return cls(n=n, d=d, bits=bits)

    def count(self) -> int:
        return self.bits.count(1)


def _bitset(flags: bytes) -> int:
    """The int with bit i set iff flags[i] (0/1 bytes, at least one)."""
    return int(flags.translate(_DIGITS)[::-1], 2)


def _members(bits: int) -> tuple:
    """The set bits of `bits`, ascending, found in its binary digits."""
    digits = format(bits, "b")[::-1]
    out, i = [], digits.find("1")
    while i != -1:
        out.append(i)
        i = digits.find("1", i + 1)
    return tuple(out)


def _backward(fs: ForbiddenSet) -> int:
    """The backward conflict bitset: bit n - s is set iff s is forbidden,
    so backward >> (n - x) holds the x - s, as _bitset(fs.bits) << x holds
    the x + s.  Each XOR (1 << n) - 2 is the same for the allowed s in
    [1, n - 1]."""
    return _bitset(fs.bits[::-1]) << 1


def is_avoiding(elements, fs: ForbiddenSet) -> bool:
    """True iff no pair of elements differs by a forbidden s."""
    return find_forbidden_pair(elements, fs) is None


def find_forbidden_pair(elements, fs: ForbiddenSet):
    """Smallest forbidden difference realized in the set, as
    (s, smaller, larger), or None: the least s, then the least smaller.
    The elements are integers >= 0 (numpy's too), in any order and with
    repeats; the first that is not an integer, or the least when one is
    negative, is refused with DomainError.  Sorted and distinct, they
    become a bitset (_mask), and _pair_in_mask searches it."""
    members = sorted(set(check_integers(elements)))
    if not members:
        return None
    if members[0] < 0:
        raise DomainError(f"element {members[0]} is negative")
    return _pair_in_mask(_mask(members), members, fs)


def _mask(members) -> int:
    """The bitset of `members`, nonnegative ints in ascending order (at
    least one): a plain loop sets their 0/1 flags, and _bitset reads them."""
    flags = bytearray(members[-1] + 1)
    for x in members:
        flags[x] = 1
    return _bitset(flags)


def _pair_in_mask(mask: int, members, fs: ForbiddenSet):
    """find_forbidden_pair for the set with bitset `mask` and elements
    `members`, ascending.  Loops over the shorter side: the forbidden s
    ascending, or the elements a ascending, keeping the least forbidden s
    with a + s in the set when it beats the best so far (forward then
    holds only the s below it, and the loop stops once none is left)."""
    if len(members) < fs.count():
        best, forward = None, _bitset(fs.bits)
        for a in members:
            hit = (mask >> a) & forward
            if hit:
                s = (hit & -hit).bit_length() - 1
                best, forward = (s, a, a + s), forward & ((1 << s) - 1)
                if not forward:
                    break
        return best
    s = fs.bits.find(1)
    while s != -1:
        hit = mask & (mask >> s)
        if hit:
            b = (hit & -hit).bit_length() - 1
            return s, b, b + s
        s = fs.bits.find(1, s + 1)
    return None


class SearchResult(
    namedtuple("SearchResult", "elements size optimal nodes seconds strategy")
):
    """A search's set (ascending tuple), its size, whether it is proven
    optimal, the nodes searched (0 for the heuristics), its seconds and
    the strategy ("exact", "first_fit" or "random_local")."""

    __slots__ = ()


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
    EXACT_CAP a node budget is required."""
    n = fs.n
    if node_budget is not None and node_budget < 1:
        raise DomainError(f"node budget must be >= 1, got {node_budget}")
    if node_budget is None and n > EXACT_CAP:
        raise ResourceError(
            f"exact search beyond n={EXACT_CAP} needs an explicit node budget, got n={n}"
        )
    t0 = time.perf_counter()
    budget = math.inf if node_budget is None else node_budget
    # bit n - s of rev is set iff s in [1, n - 1] is allowed, so bit j of
    # rev >> (n - x) is set iff x - j is allowed
    rev = _backward(fs) ^ ((1 << n) - 2)
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
                return res._replace(nodes=nodes + res.nodes, seconds=seconds + res.seconds)
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

    elements = _members(best)
    if _pair_in_mask(best, elements, fs) is not None:
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
    """Branch-and-bound from the first-fit incumbent: branch on the first
    open vertex of the static order by fewest allowed successors, smaller
    vertex on ties, and a subtree dies when size + popcount(candidates)
    cannot beat the incumbent.  An exhausted budget returns the incumbent
    with optimal=False.  v's count #{allowed s <= n - v} never grows with
    v, and v - 1 and v tie iff n - v + 1 is forbidden, so the first open
    vertex is the lowest candidate >= run_lo[h], h the highest candidate."""
    n = fs.n
    above, below = (b ^ ((1 << n) - 2) for b in (_bitset(fs.bits), _backward(fs)))
    # ties[v - 2] = bits[n - v + 1]: v - 1 and v tie, for v = 2..n; run_lo[v]
    # is the first vertex of v's run of ties
    ties = fs.bits[n - 1 : 0 : -1]
    starts = chain((0, 1), (0 if tie else v for v, tie in enumerate(ties, 2)))
    run_lo = list(accumulate(starts, max))

    # greedy incumbent for early pruning
    seed = greedy_avoiding(fs, strategy="first_fit")
    best_size = seed.size
    best_mask = _mask(seed.elements)

    t0 = time.perf_counter()
    nodes = 0
    truncated = False
    stack = [((1 << (n + 1)) - 2, 0, 0)]  # candidates, chosen_mask, chosen_size
    while stack:
        cand, chosen, size = stack.pop()
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            truncated = True
            break
        if size > best_size:
            best_size, best_mask = size, chosen
        if not cand or size + cand.bit_count() <= best_size:
            continue
        lo = run_lo[cand.bit_length() - 1]
        rest = cand >> lo
        x = lo + (rest & -rest).bit_length() - 1
        top = 1 << x
        # exclude branch first so the include branch is explored first (LIFO)
        stack.append((cand ^ top, chosen, size))
        stack.append((cand & ((below >> (n - x)) | (above << x)), chosen | top, size + 1))

    elements = _members(best_mask)
    if _pair_in_mask(best_mask, elements, fs) is not None:
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


def _near(fs: ForbiddenSet, forward: int, full: int):
    """near(x): the bitset of the y in [1, n] (full) at a forbidden
    distance from x, read off forward, _bitset(fs.bits), and _backward."""
    n, backward = fs.n, _backward(fs)

    def near(x: int) -> int:
        return ((forward << x) | (backward >> (n - x))) & full

    return near


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


def _select(bits: int, rank: int) -> int:
    """The position of the set bit of the given rank (0 for the lowest) in
    bits, 0 <= rank < bits.bit_count(): the window halves on the popcount
    of its low half until it fits in 64 bits, so each probe reads only the
    window, and then the rank lowest set bits are cleared."""
    pos = 0
    while (width := bits.bit_length()) > 64:
        half = width >> 1
        low = bits & ((1 << half) - 1)
        below = low.bit_count()
        if rank < below:
            bits = low
        else:
            bits >>= half
            pos += half
            rank -= below
    for _ in range(rank):
        bits &= bits - 1
    return pos + (bits & -bits).bit_length() - 1


def _random_fill(full: int, near, rng) -> list:
    """Until no point of full is free, take the free point of rank
    rng.randrange(#free), ascending, and block it and every point at a
    forbidden distance from it.  Each take is uniform over the free
    points, so the set has the law of taking each point of a uniformly
    random order of full that fits."""
    taken, free = [], full
    while free:
        x = _select(free, rng.randrange(free.bit_count()))
        taken.append(x)
        free &= ~(near(x) | 1 << x)
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

    first_fit: ascending scan, keep what fits.  random_local: the larger
    of first fit and three random fills (a larger fill replaces the best),
    then remove-1/add-2 first-improvement local search, capped at
    LOCAL_PASSES sweeps.  Never claims optimality.  Its draws come from
    random.Random(seed), for a seed >= 0 (a negative one is refused with
    DomainError before any draw): each fill takes the free point of rank
    randrange(#free points), ascending, until none is free, which has the
    law of taking each point of a uniformly random order that fits, and
    each sweep shuffles the ascending set.  Both run on int bitsets: a
    point is free when no chosen element sits at a forbidden distance from
    it, read off shifts of the bitset of the forbidden s (see _near).
    First fit reads only its upward shifts, so only random_local builds
    the backward bitset.  Removing r from the set C frees the points in
    once but neither in near(r) nor in twice; the two adds are the lowest
    free points outside C minus r, in ascending order."""
    n = fs.n
    t0 = time.perf_counter()
    forward, full = _bitset(fs.bits), (1 << (n + 1)) - 2

    if strategy == "first_fit":
        chosen = _first_fit(full, forward)
        return SearchResult(
            tuple(chosen), len(chosen), False, 0, time.perf_counter() - t0, strategy
        )
    if strategy != "random_local":
        raise DomainError(f"unknown strategy {strategy!r}")

    seed = operator.index(seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    near = _near(fs, forward, full)
    rng = random.Random(seed)
    best = _first_fit(full, forward)
    for _ in range(3):
        cand = sorted(_random_fill(full, near, rng))
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
    if _pair_in_mask(members, elements, fs) is not None:
        raise PreconditionError("greedy produced a non-avoiding set; invariant broken")
    return SearchResult(
        elements, len(elements), False, 0, time.perf_counter() - t0, strategy
    )
