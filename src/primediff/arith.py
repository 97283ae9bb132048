"""Sieved arithmetic tables, Ramanujan-type sums, Dirichlet characters,
and Chebyshev partial sums.

Everything downstream (exponential sums, arc energy, the iteration driver)
pulls its arithmetic from one ArithTables instance, built once per run by a
sieve. The exponential-sum primitives (ramanujan, tau) are
normatively DIRECT sums; closed forms are exposed separately so consistency
between the two routes stays a checkable statement rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import DomainError, PreconditionError, ResourceError

__all__ = [
    "TABLE_CAP",
    "ArithTables",
    "build_tables",
    "check_budget",
    "DirichletCharacter",
    "characters_mod",
    "ExceptionalDatum",
    "euler_phi",
    "is_prime",
    "mobius_of",
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
# of arcs may hold.  Tables to n_max = TABLE_CAP take 48 MB for spf (int32) and
# mangoldt (float64), and the first read of mobius or phi adds mobius (int8)
# and phi (int64), 36 MB more
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


@dataclass(frozen=True)
class ArithTables:
    """Dense arithmetic tables on [0, n_max].

    mangoldt[n] = log p if n = p^k, else 0.  mobius and phi are the usual
    multiplicative functions; spf[n] is the smallest prime factor (spf[p] = p
    for primes, spf[0] = spf[1] = 0).  spf is int32, mangoldt float64,
    mobius int8 and phi int64.  build_tables fills spf and mangoldt; the
    first read of mobius or phi computes and stores both (_mobius_phi), so
    a caller that never reads them never pays for them.
    """

    n_max: int
    spf: np.ndarray
    mangoldt: np.ndarray

    @cached_property
    def mobius(self) -> np.ndarray:
        # frozen: store the partner table past __setattr__, as cached_property does
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
    """The primes <= n, ascending, by a plain boolean sieve."""
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)


def build_tables(n_max: int) -> ArithTables:
    """Sieve smallest prime factors, then Lambda from the prime powers.

    spf[p p::p] = p for the primes p <= sqrt(n_max) in descending order:
    the smallest prime factor p of a composite n has p^2 <= n and is
    written last.  Lambda(p) = log p by math.log (np.log is 1 ulp off at
    some primes), _SIEVE_BLOCK primes at a time, then Lambda(p^k) =
    Lambda(p) for k >= 2, one numpy pass per exponent over the primes
    p <= sqrt(n_max) with p^k <= n_max.
    mobius and phi are left to their first read (see ArithTables)."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    check_budget(n_max, "tables limited to n_max")
    size = n_max + 1
    spf = np.zeros(size, dtype=np.int32)
    small = _primes_upto(math.isqrt(n_max))
    for p in small[::-1].tolist():
        spf[p * p :: p] = p
    primes = np.flatnonzero(spf == 0)[2:]  # spf[0] = spf[1] = 0 stay
    spf[primes] = primes

    mangoldt = np.zeros(size, dtype=np.float64)
    for lo in range(0, primes.size, _SIEVE_BLOCK):
        block = primes[lo : lo + _SIEVE_BLOCK]
        mangoldt[block] = np.fromiter(map(math.log, block.tolist()), np.float64, len(block))
    base, power = small, small * small
    while power.size:
        mangoldt[power] = mangoldt[base]
        power *= base
        keep = power <= n_max
        base, power = base[keep], power[keep]

    return ArithTables(n_max=n_max, spf=spf, mangoldt=mangoldt)


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division; fine for the moduli we touch."""
    if n < 1:
        raise DomainError(f"cannot factor {n}")
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
    """phi(n) by trial division, memoized: the driver and the spectrum
    bounds ask for the same small moduli at every step."""
    if n < 1:
        raise DomainError(f"phi undefined for {n}")
    out = n
    for p, _ in _factorize(n):
        out -= out // p
    return out


def mobius_of(n: int) -> int:
    if n < 1:
        raise DomainError(f"mu undefined for {n}")
    out = 1
    for _, e in _factorize(n):
        if e > 1:
            return 0
        out = -out
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
        if h % e_div != 0:
            continue
        width = h // e_div
        if a2 % width != 0:
            continue
        t_e = (-pow(g, -1, e_div)) % e_div if e_div > 1 else 0
        total += sign * width * complex(np.exp(2j * np.pi * ((a2 * t_e) % h) / h))
    return g * total


# ---------------------------------------------------------------------------
# Dirichlet characters


@dataclass(frozen=True)
class DirichletCharacter:
    """Dense value table of one character mod q (0 on non-units)."""

    modulus: int
    values: np.ndarray
    is_principal: bool
    label: tuple[int, ...] = field(default=())

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
    root = None
    for cand in range(2, p):
        if all(pow(cand, phi_p // f, p) != 1 for f in fac):
            root = cand
            break
    if root is None:  # p = 2 handled above, p = 3 gives root 2; unreachable
        raise DomainError(f"no primitive root found mod {p}")
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


# ---------------------------------------------------------------------------
# Chebyshev partial sums


def psi(x: float, q: int, a: int, tables: ArithTables) -> float:
    """psi(x; q, a) = sum of mangoldt(n) over n <= x, n ≡ a (mod q)."""
    if q < 1:
        raise DomainError(f"modulus must be >= 1, got {q}")
    if x < 0:
        raise DomainError(f"need x >= 0, got {x}")
    top = int(math.floor(x))
    if top < 1:
        return 0.0
    tables.check_range(top)
    a0 = a % q
    start = a0 if a0 >= 1 else q
    if start > top:
        return 0.0
    return float(tables.mangoldt[start : top + 1 : q].sum())


def _residue_mass(x: float, q: int, tables: ArithTables) -> np.ndarray:
    """mass[r] = sum of mangoldt(n) over n <= x with n ≡ r (mod q)."""
    if x < 0:
        raise DomainError(f"need x >= 0, got {x}")
    top = int(math.floor(x))
    if top < 1:
        return np.zeros(q)
    tables.check_range(top)
    return np.bincount(np.arange(top + 1) % q, weights=tables.mangoldt[: top + 1], minlength=q)


def psi_chi(x: float, chi: DirichletCharacter, tables: ArithTables) -> complex:
    """psi(x, chi) = sum of chi(n) mangoldt(n) over n <= x."""
    return complex(np.dot(chi.values, _residue_mass(x, chi.modulus, tables)))


def verify_inversion(x: float, q: int, a: int, tables: ArithTables) -> float:
    """|psi(x; q, a) - (1/phi(q)) sum_chi conj(chi(a)) psi(x, chi)|.

    For gcd(a, q) = 1 orthogonality makes this vanish up to rounding.  For
    non-unit a every chi(a) is 0, so the discrepancy equals the direct class
    mass itself; callers that want the identity should stay on units.
    """
    direct = psi(x, q, a, tables)
    values, _ = _character_table(q)
    # one pass over Lambda serves every psi(x, chi) = values @ mass
    psi_chis = values @ _residue_mass(x, q, tables)
    acc = np.conj(values[:, a % q]) @ psi_chis
    return float(abs(direct - acc / len(values)))


# ---------------------------------------------------------------------------
# synthetic exceptional datum


@dataclass(frozen=True)
class ExceptionalDatum:
    """Synthetic (modulus, zero-location) pair for exercising the
    exceptional-term branch of major-arc predictions.  Not derived from any
    actual zero computation; provenance is always "synthetic"."""

    modulus: int
    beta: float
    provenance: str = "synthetic"

    def __post_init__(self):
        if self.modulus < 2:
            raise DomainError(f"exceptional modulus must be >= 2, got {self.modulus}")
        if not (0.5 < self.beta < 1.0):
            raise DomainError(f"beta must lie in (1/2, 1), got {self.beta}")
        if self.provenance != "synthetic":
            raise DomainError("only synthetic exceptional data are supported")
