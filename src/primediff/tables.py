"""Sieve tables, exponential sums over residues, Dirichlet characters and
character sums: arith's arithmetic on numpy arrays.

One builder on arith's prime bitmap, _mangoldt_column, makes every Lambda
array.  ramanujan and tau are normatively DIRECT sums; tau_closed_form
is a separate route, so their agreement stays a checkable statement.
_shifted_primes is avoider's sieve of the values d s + 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from . import _EXPORTS
from .arith import _factorize, _prime_bitmap, _prime_powers, check_budget, euler_phi, psi
from .errors import DomainError, PreconditionError, ResourceError

__all__ = list(_EXPORTS["tables"])


# ---------------------------------------------------------------------------
# tables

# longest block the mobius/phi recurrence fills in one numpy pass, and
# _mangoldt_column scans for primes at once; bounds their temporaries
_SIEVE_BLOCK = 1 << 16

# most angle entries _character_table computes in one pass; bounds its
# temporaries
_CHAR_BLOCK = 1 << 18


class ArithTables:
    """Dense arithmetic tables on [0, n_max].

    mangoldt[n] = log p if n = p^k, else 0.  mobius and phi are the usual
    multiplicative functions; spf[n] is the smallest prime factor (spf[p] = p
    for primes, spf[0] = spf[1] = 0).  mangoldt is float64, spf int32,
    mobius int8 and phi int64.  build_tables fills mangoldt only; the first
    read of spf sieves and stores it, and the first read of mobius or phi
    computes and stores both (_mobius_phi, from spf), so a caller that never
    reads them never pays for them.  It serves sieve, the character route
    and library callers only.  A plain class: cached_property stores
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


def _primes_upto(n: int) -> np.ndarray:
    """The primes <= n, ascending, read from the prime bitmap through
    np.frombuffer."""
    return np.flatnonzero(np.frombuffer(_prime_bitmap(n), dtype=bool)[: n + 1])


def _mangoldt_column(count: int, d: int, b: int) -> np.ndarray:
    """Lambda(d j + b) for j in [0, count), 0 <= b <= d + 1, float64, from
    the prime bitmap: log p by math.log (np.log is 1 ulp off at some
    primes) at the primes of the column, _SIEVE_BLOCK entries at a time,
    then log p at each p^k of the column with k >= 2 (_prime_powers),
    which as p^k >= 4 lies at j >= 0."""
    top = d * (count - 1) + b
    flags = np.frombuffer(_prime_bitmap(top), dtype=bool)[b : top + 1 : d]
    column = np.zeros(count, dtype=np.float64)
    for lo in range(0, count, _SIEVE_BLOCK):
        at = np.flatnonzero(flags[lo : lo + _SIEVE_BLOCK]) + lo
        primes = (at * d + b).tolist()
        column[at] = np.fromiter(map(math.log, primes), np.float64, len(primes))
    for p, power in _prime_powers(top):
        if (power - b) % d == 0:
            column[(power - b) // d] = math.log(p)
    return column


def _shifted_primes(n: int, d: int) -> np.ndarray:
    """flags[s] iff d s + 1 is prime, for s in [0, n) (flags[0] is False).

    Sieves the progression d s + 1 by the primes p <= sqrt(d (n - 1) + 1)
    that do not divide d: p strikes s_p, s_p + p, ... from s_p = -1/d mod p,
    the first s >= 1 with p | d s + 1, where 1/d mod p comes from one
    vectorized Fermat power for every p at once.  A prime p = d s + 1
    strikes its own s, which is set back.  Needs n >= 2 and d (n - 1) + 1
    below 2^63."""
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
    second = first + p
    again = second < n  # p strikes more than once: p < n
    for step, s in zip(p[again].tolist(), second[again].tolist()):
        flags[s::step] = False
    own, rest = np.divmod(p - 1, d)  # p = d s + 1 at s = own when rest = 0
    flags[own[rest == 0]] = True
    return flags


def _smallest_prime_factors(n_max: int) -> np.ndarray:
    """spf on [0, n_max], int32: spf[p p::p] = p for the primes p <=
    sqrt(n_max) in descending order, as the smallest prime factor p of a
    composite n has p^2 <= n and is written last; then spf[p] = p for the
    primes p <= n_max (spf[0] = spf[1] = 0 stay)."""
    spf = np.zeros(n_max + 1, dtype=np.int32)
    for p in _primes_upto(math.isqrt(n_max))[::-1].tolist():
        spf[p * p :: p] = p
    primes = _primes_upto(n_max)
    spf[primes] = primes
    return spf


def build_tables(n_max: int) -> ArithTables:
    """Lambda on [0, n_max] from the prime bitmap (_mangoldt_column).
    spf, mobius and phi are left to their first read (see ArithTables)."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    check_budget(n_max, "tables limited to n_max")
    return ArithTables(n_max=n_max, mangoldt=_mangoldt_column(n_max + 1, 1, 0))


# ---------------------------------------------------------------------------
# exponential sums over residues


def ramanujan(q: int, a: int) -> complex:
    """c_q(a) = sum over units u mod q of e(au/q).  Direct sum, normative."""
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


def _residue_mass(x: float, q: int, tables: ArithTables) -> np.ndarray:
    """mass[r] = sum of mangoldt(n) over n <= x with n ≡ r (mod q)."""
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
    return complex(np.dot(chi.values, _residue_mass(x, chi.modulus, tables)))


def verify_inversion(x: float, q: int, a: int, tables: ArithTables) -> float:
    """|psi(x; q, a) - (1/phi(q)) sum_chi conj(chi(a)) psi(x, chi)|.

    Both routes read Lambda from the prime bitmap, and the identity holds
    for any weight, so this checks the characters; Lambda itself is held
    against a trial-division oracle.  For gcd(a, q) = 1 orthogonality
    makes this vanish up to rounding.  For non-unit a every chi(a) is 0,
    so the discrepancy equals the direct class mass itself; callers that
    want the identity should stay on units.
    """
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
