"""Sieved arithmetic tables, Ramanujan-type sums, Dirichlet characters,
and Chebyshev partial sums.

The dense tables downstream reads (exponential sums, arc energy) come from
one ArithTables instance, built once per run by a sieve.  Primality alone
comes from one grow-only bitmap of that sieve (_prime_bitmap), which psi
and the forbidden sets of avoider read.  The exponential-sum primitives
(ramanujan, tau) are normatively DIRECT sums; closed forms are exposed
separately so consistency between the two routes stays a checkable
statement rather than a tautology.  Each function that uses numpy imports
it itself, so the sieve (_prime_flags), the bitmap, psi, is_prime and
euler_phi run without it.  ArithTables is a plain class and
DirichletCharacter and ExceptionalDatum are namedtuples, not
dataclasses: importing dataclasses, which loads inspect, took longer than
a small psi runs, and this module is loaded by every psi and extremal
process.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import chain, compress, product

from .errors import DomainError, PreconditionError, ResourceError

__all__ = [
    "TABLE_CAP",
    "ArithTables",
    "build_tables",
    "check_budget",
    "check_integers",
    "DirichletCharacter",
    "characters_mod",
    "ExceptionalDatum",
    "euler_phi",
    "is_prime",
    "psi",
    "psi_chi",
    "ramanujan",
    "tau",
    "tau_closed_form",
    "verify_inversion",
]


# ---------------------------------------------------------------------------
# tables

# the one size budget (check_budget): most entries any table, grid, or set
# of arcs may hold.  Tables to n_max = TABLE_CAP take 32 MB for mangoldt
# (float64); the first read of spf (int32) adds 16 MB, and the first read of
# mobius or phi adds mobius (int8) and phi (int64), 36 MB more
TABLE_CAP = 4_000_000

# longest block the mobius/phi recurrence fills in one numpy pass, and most
# primes build_tables takes Lambda(p) of at a time; bounds their temporaries
_SIEVE_BLOCK = 1 << 16

# most angle entries _character_table computes in one pass; bounds its
# temporaries
_CHAR_BLOCK = 1 << 18


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


class ArithTables:
    """Dense arithmetic tables on [0, n_max].

    mangoldt[n] = log p if n = p^k, else 0.  mobius and phi are the usual
    multiplicative functions; spf[n] is the smallest prime factor (spf[p] = p
    for primes, spf[0] = spf[1] = 0).  mangoldt is float64, spf int32,
    mobius int8 and phi int64.  build_tables fills mangoldt only; the first
    read of spf sieves and stores it, and the first read of mobius or phi
    computes and stores both (_mobius_phi, from spf), so a caller that never
    reads them never pays for them.  A plain class: cached_property stores
    each table in the instance __dict__, which vars() reads.
    """

    def __init__(self, n_max: int, mangoldt: np.ndarray):
        self.n_max = n_max
        self.mangoldt = mangoldt

    @cached_property
    def spf(self) -> np.ndarray:
        return _smallest_prime_factors(self.n_max)

    @cached_property
    def mobius(self) -> np.ndarray:
        # store the partner table as cached_property stores its own
        mobius, self.__dict__["phi"] = _mobius_phi(self.spf)
        return mobius

    @cached_property
    def phi(self) -> np.ndarray:
        self.__dict__["mobius"], phi = _mobius_phi(self.spf)
        return phi

    def check_range(self, n: int) -> None:
        if n > self.n_max:
            raise ResourceError(
                f"tables built to {self.n_max}, need {n}; rebuild larger"
            )


def _mobius_phi(spf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mobius and phi from one recurrence on n = p m, p = spf[n]: if
    spf[m] = p, mu(n) = 0 and phi(n) = phi(m) p, else mu(n) = -mu(m) and
    phi(n) = phi(m) (p - 1).  As m <= n/2, blocks [lo, hi) with hi <= 2 lo,
    at most _SIEVE_BLOCK long, read only entries below lo: each is one
    numpy pass."""
    import numpy as np

    size = spf.size
    mobius = np.zeros(size, dtype=np.int8)
    phi = np.zeros(size, dtype=np.int64)
    mobius[1] = phi[1] = 1
    lo = 2
    while lo < size:
        hi = min(2 * lo, lo + _SIEVE_BLOCK, size)
        p = spf[lo:hi]
        m = np.arange(lo, hi) // p
        same = spf[m] == p
        mobius[lo:hi] = np.where(same, 0, -mobius[m])
        phi[lo:hi] = phi[m] * np.where(same, p, p - 1)
        lo = hi
    return mobius, phi


def _prime_flags(n: int) -> bytearray:
    """flags[k] = 1 iff k is prime, else 0, for k = 0..n (n >= 1), by a
    plain sieve in a bytearray: the package's one sieve, which imports no
    numpy."""
    flags = bytearray(b"\x01") * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes((n - p * p) // p + 1)
    return flags


_bitmap = b""  # _prime_bitmap's flags, grown to the largest top asked for


def _prime_bitmap(top: int) -> bytes:
    """flags[v] = 1 iff v is prime, else 0, for v = 0..top at least
    (top >= 1): _prime_flags as bytes.  One grow-only entry: a call past
    its end sieves it again to the new top, and every call up to its end
    reads the same object."""
    global _bitmap
    if len(_bitmap) <= top:
        _bitmap = bytes(_prime_flags(top))
    return _bitmap


def _primes_upto(n: int) -> np.ndarray:
    """The primes <= n, ascending, read from _prime_flags through
    np.frombuffer."""
    import numpy as np

    return np.flatnonzero(np.frombuffer(_prime_flags(n), dtype=bool))


def _smallest_prime_factors(n_max: int) -> np.ndarray:
    """spf on [0, n_max], int32: spf[p p::p] = p for the primes p <=
    sqrt(n_max) in descending order, as the smallest prime factor p of a
    composite n has p^2 <= n and is written last; then spf[p] = p for the
    entries left 0 past 1."""
    import numpy as np

    spf = np.zeros(n_max + 1, dtype=np.int32)
    for p in _primes_upto(math.isqrt(n_max))[::-1].tolist():
        spf[p * p :: p] = p
    primes = np.flatnonzero(spf == 0)[2:]  # spf[0] = spf[1] = 0 stay
    spf[primes] = primes
    return spf


def build_tables(n_max: int) -> ArithTables:
    """Lambda from the primes of one boolean sieve (_primes_upto).

    Lambda(p) = log p by math.log (np.log is 1 ulp off at some primes),
    _SIEVE_BLOCK primes at a time, then Lambda(p^k) = Lambda(p) for
    k >= 2, one numpy pass per exponent over the primes p <= sqrt(n_max)
    with p^k <= n_max.
    spf, mobius and phi are left to their first read (see ArithTables)."""
    import numpy as np

    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    check_budget(n_max, "tables limited to n_max")
    primes = _primes_upto(n_max)
    small = primes[: np.searchsorted(primes, math.isqrt(n_max), side="right")]

    mangoldt = np.zeros(n_max + 1, dtype=np.float64)
    for lo in range(0, primes.size, _SIEVE_BLOCK):
        block = primes[lo : lo + _SIEVE_BLOCK]
        mangoldt[block] = np.fromiter(map(math.log, block.tolist()), np.float64, len(block))
    base, power = small, small * small
    while power.size:
        mangoldt[power] = mangoldt[base]
        power *= base
        keep = power <= n_max
        base, power = base[keep], power[keep]

    return ArithTables(n_max=n_max, mangoldt=mangoldt)


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
# exponential sums over residues


def ramanujan(q: int, a: int) -> complex:
    """c_q(a) = sum over units u mod q of e(au/q).  Direct sum, normative."""
    import numpy as np

    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    u = np.arange(q, dtype=np.int64)
    units = np.gcd(u, q) == 1
    if q == 1:
        units = np.array([True])
    phases = (a % q) * u[units] % q
    return complex(np.exp(2j * np.pi * phases / q).sum())


def tau(a: int, d: int, q: int) -> complex:
    """Direct sum over m in [0, q) with gcd(md+1, q) = 1 of e(ma/q).

    This enumeration is the normative definition; tau_closed_form is the
    independent route used to cross-check it.
    """
    import numpy as np

    if q < 1 or d < 1:
        raise DomainError(f"need q, d >= 1, got q={q}, d={d}")
    m = np.arange(q, dtype=np.int64)
    keep = np.gcd(m * d + 1, q) == 1
    phases = (a % q) * m[keep] % q
    return complex(np.exp(2j * np.pi * phases / q).sum())


def tau_closed_form(a: int, d: int, q: int) -> complex:
    """Closed form for tau.

    For gcd(d, q) = 1:  c_q(a) * e(+ m_dq * a / q)  with  m_dq = -d^{-1} mod q.
    (The sign of the phase is the plus sign; the substitution h = md+1,
    m = (h-1) d^{-1} makes the direct sum a unit sum with that phase.)

    For g = gcd(d, q) > 1 the qualifying-m indicator is periodic mod q/g, so
    the sum vanishes unless g | a; when g | a it reduces to g times a sum over
    t mod q/g restricted by t != -g^{-1} mod p for each prime p | q, p not
    dividing g, evaluated here by inclusion-exclusion over those primes.
    """
    import numpy as np

    if q < 1 or d < 1:
        raise DomainError(f"need q, d >= 1, got q={q}, d={d}")
    g = math.gcd(d, q)
    if g == 1:
        m_dq = (-pow(d, -1, q)) % q
        return ramanujan(q, a) * complex(np.exp(2j * np.pi * ((m_dq * (a % q)) % q) / q))
    if a % g != 0:
        return 0.0 + 0.0j
    h = q // g
    if h == 1:
        return complex(g)
    a2 = (a // g) * pow(d // g, -1, h) % h
    outer = [p for p, _ in _factorize(q) if g % p != 0]
    total = 0.0 + 0.0j
    for bits in range(1 << len(outer)):
        e_div = 1
        sign = 1
        for i, p in enumerate(outer):
            if bits >> i & 1:
                e_div *= p
                sign = -sign
        width = h // e_div
        if a2 % width != 0:
            continue
        t_e = (-pow(g, -1, e_div)) % e_div if e_div > 1 else 0
        total += sign * width * complex(np.exp(2j * np.pi * ((a2 * t_e) % h) / h))
    return g * total


# ---------------------------------------------------------------------------
# Dirichlet characters


class DirichletCharacter(
    namedtuple("DirichletCharacter", "modulus values is_principal label", defaults=((),))
):
    """Dense value table of one character mod q (0 on non-units), whether
    it is principal, and its exponent label (see _character_table)."""

    __slots__ = ()

    def __call__(self, n: int) -> complex:
        return complex(self.values[n % self.modulus])


def _unit_group_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z / p^e Z)^* for a prime power p^e."""
    pe = p**e
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(pe - 1, 2), (3, pe // 4)]
    # odd p: the group is cyclic; a primitive root mod p^2 works for every e
    phi_p = p - 1
    fac = [f for f, _ in _factorize(phi_p)]
    # every odd prime has a primitive root in 2..p - 1
    root = next(c for c in range(2, p) if all(pow(c, phi_p // f, p) != 1 for f in fac))
    if e > 1 and pow(root, p - 1, p * p) == 1:
        root += p
    return [(root % pe, euler_phi(pe))]


def _powers(g: int, n: int, q: int) -> np.ndarray:
    """g^0, ..., g^(n-1) mod q, doubling the filled prefix each pass."""
    import numpy as np

    out = np.ones(n, dtype=np.int64)
    filled = 1
    while filled < n:
        step = min(filled, n - filled)
        out[filled : filled + step] = out[:step] * pow(g, filled, q) % q
        filled += step
    return out


@lru_cache(maxsize=1)
def _character_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, exps): the phi(q) x q complex value table of the characters
    mod q and their phi(q) x r exponent labels, both read-only.  Row i is
    chi_i, the principal character first.

    Generators g_j of order n_j are picked for each (Z/p^e)^* (two for the
    2-part when 8 | q).  Exponent tuple k_i, in lexicographic order, is both
    the discrete log of unit u_i and the label of chi_i: chi_i(u_r) =
    e(sum_j k_ij k_rj / n_j).  Only the latest modulus's table is kept:
    at most TABLE_CAP entries, 64 MB."""
    import numpy as np

    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    phi_q = euler_phi(q)
    check_budget(phi_q * q, f"characters mod {q} limited to phi(q) q")

    gens: list[tuple[int, int]] = []  # (generator lifted mod q, order)
    for p, e in _factorize(q):
        pe = p**e
        for g, order in _unit_group_generators(p, e):
            # lift to a unit mod q that is g mod p^e and 1 mod q/p^e
            rest = q // pe
            lifted = (g * rest * pow(rest, -1, pe) + pe * pow(pe, -1, rest) if rest > 1 else g) % q
            gens.append((lifted, order))

    exps = np.array(list(product(*(range(n) for _, n in gens))), dtype=np.int64)
    # q <= 2 has no generator: one empty label, and the unit 1 % q
    units = np.full(phi_q, 1 % q, dtype=np.int64)
    for j, (g, n) in enumerate(gens):
        units = units * _powers(g, n, q)[exps[:, j]] % q
    if (np.bincount(units) > 1).any():  # phi_q values: a repeat means a unit is missed
        raise PreconditionError(f"generator set for q={q} does not span the units")

    # a block of rows at a time; each angle still adds its generator terms in
    # order, so every value is bit-identical to the one-matrix computation
    values = np.zeros((phi_q, q), dtype=np.complex128)
    rows = max(1, _CHAR_BLOCK // phi_q)
    for lo in range(0, phi_q, rows):
        angle = np.zeros((min(rows, phi_q - lo), phi_q), dtype=np.float64)
        for j, (_, n) in enumerate(gens):
            angle += np.multiply.outer(exps[lo : lo + rows, j], exps[:, j]) / n
        values[lo : lo + rows, units] = np.exp(2j * np.pi * angle)
    values.flags.writeable = exps.flags.writeable = False
    return values, exps


def characters_mod(q: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q, the principal character first:
    read-only rows of one phi(q) x q value table of at most TABLE_CAP
    entries, labelled by their exponent tuples (see _character_table).  The
    table of the latest modulus asked for is cached, one entry, so asking
    again for it builds nothing."""
    values, exps = _character_table(q)
    labels = map(tuple, exps.tolist())
    return [DirichletCharacter(q, row, not any(k), k) for row, k in zip(values, labels)]


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
    root = math.isqrt(top)
    powers = []  # log p for each p^k ≡ a (mod q), k >= 2
    for p in compress(range(root + 1), bitmap[: root + 1]):
        power = p * p
        while power <= top:
            if power % q == a0:
                powers.append(math.log(p))
            power *= p
    return math.fsum(chain(map(math.log, primes), powers))


def _residue_mass(x: float, q: int, tables: ArithTables) -> np.ndarray:
    """mass[r] = sum of mangoldt(n) over n <= x with n ≡ r (mod q)."""
    import numpy as np

    if x < 0:
        raise DomainError(f"need x >= 0, got {x}")
    top = int(math.floor(x))
    if top < 1:
        return np.zeros(q)
    tables.check_range(top)
    lam = tables.mangoldt[: top + 1]
    if q == 1:  # a one-column sum would be pairwise; this one adds in order
        return np.cumsum(lam)[-1:]
    # rows of q residues, summed down each column in order, then the short
    # last row: the order, and so the bits, of bincount's n % q accumulation
    whole = (top + 1) // q * q
    mass = lam[:whole].reshape(-1, q).sum(axis=0)
    mass[: top + 1 - whole] += lam[whole:]
    return mass


def psi_chi(x: float, chi: DirichletCharacter, tables: ArithTables) -> complex:
    """psi(x, chi) = sum of chi(n) mangoldt(n) over n <= x."""
    import numpy as np

    return complex(np.dot(chi.values, _residue_mass(x, chi.modulus, tables)))


def verify_inversion(x: float, q: int, a: int, tables: ArithTables) -> float:
    """|psi(x; q, a) - (1/phi(q)) sum_chi conj(chi(a)) psi(x, chi)|.

    The two routes share no Lambda: psi reads the prime bitmap, and the
    psi(x, chi) read tables.mangoldt.  For gcd(a, q) = 1 orthogonality
    makes this vanish up to rounding.  For non-unit a every chi(a) is 0,
    so the discrepancy equals the direct class mass itself; callers that
    want the identity should stay on units.
    """
    import numpy as np

    direct = psi(x, q, a)
    values, _ = _character_table(q)
    # one pass over Lambda serves every psi(x, chi) = values @ mass
    psi_chis = values @ _residue_mass(x, q, tables)
    acc = np.conj(values[:, a % q]) @ psi_chis
    return float(abs(direct - acc / len(values)))


# ---------------------------------------------------------------------------
# synthetic exceptional datum


class ExceptionalDatum(namedtuple("ExceptionalDatum", "modulus beta")):
    """Synthetic (modulus, zero-location) pair for exercising the
    exceptional-term branch of major-arc predictions.  Not derived from any
    actual zero computation.  The constructor checks both fields, and
    _make, so _replace too, goes through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __new__(cls, modulus: int, beta: float):
        if modulus < 2:
            raise DomainError(f"exceptional modulus must be >= 2, got {modulus}")
        if not (0.5 < beta < 1.0):
            raise DomainError(f"beta must lie in (1/2, 1), got {beta}")
        return super().__new__(cls, modulus, beta)
