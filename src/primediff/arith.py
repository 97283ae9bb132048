"""The arithmetic core: the one size budget, the one sieve and its prime
bitmap, Euler's phi, Miller-Rabin primality and Chebyshev's psi(x; q, a).

The package keeps numpy behind module boundaries.  A module imports it at
the top (tables, energy, spectral, mangoldt, csvtext) or not at all (this
one, avoider, increment, driver, cli, errors); a numpy-free module reaches
numpy code only by a lazy import of one of the others, inside the function
that needs it, and tests/test_exports.py names each such hop.  The sieve
tables, exponential sums and Dirichlet characters live in tables, whose
public names this module answers too (PEP 562): `arith.build_tables`
loads tables on first access.  Primality to a bound comes from the one
grow-only bitmap of the sieve (_prime_bitmap), which every reader shares.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import chain, compress

from . import _EXPORTS
from .errors import DomainError, ResourceError

__all__ = [
    "TABLE_CAP",
    "check_budget",
    "check_integers",
    "euler_phi",
    "is_prime",
    "psi",
]


# the one size budget (check_budget): most entries any table, grid, or set
# of arcs may hold.  Tables to n_max = TABLE_CAP take 32 MB for mangoldt
# (float64); the first read of spf (int32) adds 16 MB, and the first read of
# mobius or phi adds mobius (int8) and phi (int64), 36 MB more
TABLE_CAP = 4_000_000


def check_budget(entries: int, what: str, got=None) -> None:
    """Refuse more than TABLE_CAP entries with the ResourceError
    "{what} <= TABLE_CAP, got {got, by default entries}".  The cap is read
    at call time, so every table, grid, and set of arcs answers to one value."""
    if entries > TABLE_CAP:
        raise ResourceError(f"{what} <= {TABLE_CAP}, got {entries if got is None else got}")


def check_integers(values) -> tuple:
    """values as a tuple of Python ints, in their order.  operator.index
    decides what is an integer: Python and numpy integers pass, and the
    first value it refuses (2.5, 2.0, an array) is named in the DomainError
    "element {value!r} is not an integer"."""
    values = tuple(values)
    ints = []
    try:
        ints.extend(map(operator.index, values))
    except TypeError:  # extend keeps what map gave before the refusal
        raise DomainError(f"element {values[len(ints)]!r} is not an integer") from None
    return tuple(ints)


_bitmap = b""  # _prime_bitmap's flags, grown to the largest top asked for


def _prime_bitmap(top: int) -> bytes:
    """flags[v] = 1 iff v is prime, else 0, for v = 0..top at least
    (top >= 1), by a plain sieve in a bytearray: the package's one sieve,
    which imports no numpy.  One grow-only entry: a call past its end
    sieves it again to the new top, and every call up to its end reads
    the same object."""
    global _bitmap
    if len(_bitmap) <= top:
        flags = bytearray(b"\x01") * (top + 1)
        flags[:2] = b"\x00\x00"
        zeros = memoryview(bytes(top // 2))  # the longest run struck, p = 2
        for p in range(2, math.isqrt(top) + 1):
            if flags[p]:
                flags[p * p :: p] = zeros[: (top - p * p) // p + 1]
        _bitmap = bytes(flags)
    return _bitmap


def _prime_powers(top: int):
    """(p, p^k) for each prime p and k >= 2 with p^k <= top, in order of
    p, then k: so p <= sqrt(top), read from the bitmap."""
    root = math.isqrt(top)
    for p in compress(range(root + 1), _prime_bitmap(root)[: root + 1]):
        power = p * p
        while power <= top:
            yield p, power
            power *= p


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division; fine for the moduli
    we touch."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=1 << 12, typed=True)
def euler_phi(n: int) -> int:
    """phi(n) by trial division, memoized: the spectrum bounds ask for
    the same small moduli again and again."""
    if n < 1:
        raise DomainError(f"phi undefined for {n}")
    out = n
    for p, _ in _factorize(n):
        out -= out // p
    return out


# ---------------------------------------------------------------------------
# primality

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster, Math. Comp. 2017): the bases decide every n below it
_MR_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the twelve prime bases 2..37, exact for
    every n below psi_12 = 318665857834031151167461 (all 64-bit inputs
    among them).  Raises DomainError for n >= psi_12, where those bases
    no longer decide primality."""
    if n >= _MR_LIMIT:
        raise DomainError(f"is_prime is exact below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Chebyshev partial sums


def psi(x: float, q: int, a: int) -> float:
    """psi(x; q, a) = sum of Lambda(n) over n <= x, n ≡ a (mod q), from the
    prime bitmap alone: the math.fsum, so the correctly rounded sum, of
    log p over the primes p of the class, a strided slice of the bitmap
    (for odd q, of its odd members only, 2q apart, and 2 when it is of
    the class), and of log p over each p^k of the class with k >= 2, so
    p <= sqrt(x).
    x past TABLE_CAP is refused first, then q < 1, then x < 0."""
    top = math.floor(x)
    # refused as x, before n_max, which can run to 300 digits, is printed
    check_budget(top, "tables limited to n_max", f"x = {x:.12g}")
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if x < 0:
        raise DomainError(f"need x >= 0, got {x}")
    a0 = a % q
    start = a0 or q
    if start > top:
        return 0.0
    bitmap = _prime_bitmap(top)
    if q % 2:  # the class alternates parity: 2, and its odd members 2q apart
        two = (2,) if (2 - a0) % q == 0 and top >= 2 else ()
        start, step = (start if start % 2 else start + q), 2 * q
    else:
        two, step = (), q
    primes = chain(two, compress(range(start, top + 1, step), bitmap[start : top + 1 : step]))
    powers = [math.log(p) for p, power in _prime_powers(top) if power % q == a0]
    return math.fsum(chain(map(math.log, primes), powers))


def __getattr__(name: str):
    """The public names of tables, bound here on first access (PEP 562)."""
    if name not in _EXPORTS["tables"]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tables

    value = globals()[name] = getattr(tables, name)
    return value
