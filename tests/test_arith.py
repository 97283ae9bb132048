"""Tests for sieve tables, primality, Ramanujan/Gauss-type sums,
Dirichlet characters, and Chebyshev partial sums."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from primediff import arith, tables
from primediff.arith import TABLE_CAP, euler_phi, is_prime, psi
from primediff.tables import (
    _SIEVE_BLOCK,
    _character_table,
    ExceptionalDatum,
    build_tables,
    characters_mod,
    psi_chi,
    ramanujan,
    tau,
    tau_closed_form,
    verify_inversion,
)
from primediff.errors import DomainError, ResourceError

from oracles import (
    is_prime_naive,
    mangoldt_naive,
    mobius_naive,
    phi_naive,
    psi_chi_naive,
    psi_naive,
    ramanujan_closed_form,
    tau_naive,
    trial_division_factor,
)


class TestTables:
    def test_against_trial_division(self, tables_small):
        """Sieve arrays agree with trial division on an initial segment."""
        for n in range(1, 2001):
            assert abs(tables_small.mangoldt[n] - mangoldt_naive(n)) < 1e-12
            assert tables_small.mobius[n] == mobius_naive(n)
            assert tables_small.phi[n] == phi_naive(n)

    def test_smallest_prime_factor(self, tables_small):
        for n in range(2, 500):
            d = 2
            while n % d:
                d += 1
            assert tables_small.spf[n] == d

    def test_check_range(self, tables_small):
        tables_small.check_range(20_000)
        with pytest.raises(ResourceError):
            tables_small.check_range(20_001)

    def test_minimum_size(self):
        t = build_tables(1)
        assert t.phi[1] == 1 and t.mangoldt[1] == 0.0
        with pytest.raises(DomainError):
            build_tables(0)

    def test_size_cap(self):
        with pytest.raises(ResourceError):
            build_tables(TABLE_CAP + 1)

    def test_sampled_against_oracles(self, tables_million):
        """Block edges, powers of two and the top of a 10^6 table agree with
        trial division (phi from the oracle's factorization: phi_naive's
        gcd scan is too slow at this size)."""
        t = tables_million
        rng = np.random.default_rng(5)
        samples = {t.n_max - 2, t.n_max - 1, t.n_max}
        for k in range(1, t.n_max.bit_length()):
            samples.update((2**k - 1, 2**k, 2**k + 1))
        for j in range(1, t.n_max // _SIEVE_BLOCK + 1):
            samples.update((j * _SIEVE_BLOCK - 1, j * _SIEVE_BLOCK + 1))
        samples.update(rng.integers(2, t.n_max + 1, size=200).tolist())
        for n in sorted(s for s in samples if s <= t.n_max):
            f = trial_division_factor(n)
            phi = n
            for p in f:
                phi = phi // p * (p - 1)
            assert t.spf[n] == (min(f) if f else 0), n
            assert t.mangoldt[n] == mangoldt_naive(n), n
            assert t.mobius[n] == mobius_naive(n), n
            assert t.phi[n] == phi, n

    def test_small_tables_are_prefixes(self, tables_million):
        """A table to n equals the first n + 1 entries of a larger one, with
        the same dtypes, including sizes that end inside or just past a
        block."""
        big = tables_million
        for n in (1, 2, 3, 4, 65536, 65537, 131073):
            t = build_tables(n)
            assert t.n_max == n
            for name in ("spf", "mangoldt", "mobius", "phi"):
                small, full = getattr(t, name), getattr(big, name)
                assert small.dtype == full.dtype, (n, name)
                assert np.array_equal(small, full[: n + 1]), (n, name)


def _oracle_row(n: int) -> tuple[int, float, int, int]:
    """(spf, Lambda, mu, phi) of n >= 1 from trial division."""
    f = trial_division_factor(n)
    phi = n
    for p in f:
        phi = phi // p * (p - 1)
    return (min(f) if f else 0), mangoldt_naive(n), mobius_naive(n), phi


# n_max at prime-power edges: p^k - 1, p^k, p^k + 1 for p = 2 (2^16 is also
# the _SIEVE_BLOCK edge), p = 3, and primes p whose square is the top, the
# largest prime the spf sieve and the power walk use
_EDGE_BASES = [2**12, 2**16, 3**8, 251**2, 1999**2]


def test_one_budget_bounds_every_size(monkeypatch):
    """Tables, character tables, FFT grids, forbidden sets and arc ranges
    all answer to arith.TABLE_CAP, read at call time: under a cap of 100
    each takes 100 entries (91 arcs for levels 1..13) and refuses more."""
    from primediff.avoider import ForbiddenSet
    from primediff.spectral import arc_ranges, grid_power

    monkeypatch.setattr(arith, "TABLE_CAP", 100)
    _character_table.cache_clear()  # a cached modulus skips its check
    f = np.ones(10)
    assert build_tables(100).n_max == 100
    assert len(grid_power(f, 100)) == 51  # k = 0..M//2 of M = 100
    assert len(characters_mod(10)) == 4  # a 4 x 10 table
    assert ForbiddenSet.build(100, 1).n == 100
    assert arc_ranges(100, 13, 30)[0][-1] == 13
    refusals = [
        lambda: build_tables(101),
        lambda: grid_power(f, 101),
        lambda: characters_mod(11),  # 10 x 11
        lambda: ForbiddenSet.build(101, 1),
        lambda: arc_ranges(100, 14, 30),  # 105 arcs
    ]
    for refuse in refusals:
        with pytest.raises(ResourceError, match=r"<= 100, got 1\d\d$"):
            refuse()


class TestLeanTables:
    @pytest.mark.parametrize("n_max", [b + e for b in _EDGE_BASES for e in (-1, 0, 1)])
    def test_prime_power_edges(self, n_max):
        """All four tables agree with trial division on their first 2,000
        entries, their last 300 and every prime power."""
        t = build_tables(n_max)
        samples = set(range(1, min(n_max, 2000) + 1)) | set(range(n_max - 299, n_max + 1))
        for p in range(2, math.isqrt(n_max) + 1):
            if is_prime_naive(p):
                pk = p
                while pk <= n_max:
                    samples.update((pk - 1, pk, pk + 1))
                    pk *= p
        for n in sorted(s for s in samples if 1 <= s <= n_max):
            got = (t.spf[n], t.mangoldt[n], t.mobius[n], t.phi[n])
            assert got == _oracle_row(n), (n_max, n)

    @pytest.mark.parametrize("n_max", [*range(1, 18), 1000])
    def test_whole_tables_against_oracles(self, n_max):
        t = build_tables(n_max)
        assert t.spf[0] == t.spf[1] == 0 and t.mangoldt[0] == 0.0
        rows = np.array([_oracle_row(n) for n in range(1, n_max + 1)])
        assert np.array_equal(t.spf[1:], rows[:, 0]), n_max
        assert np.array_equal(t.mangoldt[1:], rows[:, 1]), n_max
        assert np.array_equal(t.mobius[1:], rows[:, 2]), n_max
        assert np.array_equal(t.phi[1:], rows[:, 3]), n_max

    def test_spf_built_on_first_read(self):
        """build_tables fills mangoldt only; the first read of spf sieves
        and stores it, and later reads return the stored array."""
        t = build_tables(1000)
        assert "spf" not in vars(t)
        spf = t.spf
        assert "spf" in vars(t) and t.spf is spf
        assert "mobius" not in vars(t) and "phi" not in vars(t)
        assert spf.dtype == np.int32
        assert np.array_equal(spf[:13], [0, 0, 2, 3, 2, 5, 2, 7, 2, 3, 2, 11, 2])

    @pytest.mark.parametrize("first", ["mobius", "phi"])
    def test_mobius_and_phi_built_on_first_read(self, first):
        """build_tables leaves mobius and phi out; reading either one
        stores both, and later reads return the stored arrays."""
        t = build_tables(1000)
        assert "mobius" not in vars(t) and "phi" not in vars(t)
        table = getattr(t, first)
        assert "mobius" in vars(t) and "phi" in vars(t)
        assert getattr(t, first) is table
        assert t.mobius.dtype == np.int8 and t.phi.dtype == np.int64
        assert np.array_equal(t.phi[1:13], [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4])
        assert np.array_equal(t.mobius[1:13], [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0])

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
    def test_lambda_is_filled_in_blocks(self):
        """build_tables(TABLE_CAP) takes log p of the primes of
        _SIEVE_BLOCK column entries at a time: a fresh interpreter building
        the tables peaks below 70 MB resident (65.6 MB measured, the prime
        bitmap of 4 MB kept; 91 MB when one Python list held all 283,146
        primes' logs, and 79 MB in blocks while spf was built too).  The
        child reads the peak of its own address space (VmHWM)."""
        child = (
            "import re\n"
            "from primediff.arith import TABLE_CAP, build_tables\n"
            "t = build_tables(TABLE_CAP)\n"
            "status = open('/proc/self/status').read()\n"
            "print(int((t.mangoldt > 0).sum()), re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))\n"
        )
        src = str(pathlib.Path(build_tables.__code__.co_filename).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), check=True,
        )
        prime_powers, peak_kb = map(int, proc.stdout.split())
        assert prime_powers == 283_146 + 393  # primes, then p^k for k >= 2
        assert peak_kb < 70 * 1024, f"peak {peak_kb // 1024} MB"


class TestIsPrime:
    def test_small_sweep(self):
        for n in range(-3, 2000):
            assert is_prime(n) == is_prime_naive(n)

    def test_carmichael_numbers(self):
        # Fermat pseudoprimes to many bases; a weak test would pass these
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not is_prime(n)

    def test_large_known(self):
        assert is_prime(2**31 - 1)
        assert is_prime(10**18 + 9)
        assert not is_prime(2**31 + 1)

    def test_refuses_from_psi12(self):
        """psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to
        all twelve bases 2..37, so from it on they decide nothing and
        is_prime refuses; below it they decide, as at the largest 64-bit
        prime 2^64 - 59."""
        psi12 = 318_665_857_834_031_151_167_461
        assert psi12 == 399_165_290_221 * 798_330_580_441
        for n in (psi12, psi12 + 2, 10**40):
            with pytest.raises(DomainError, match="318665857834031151167461"):
                is_prime(n)
        assert not is_prime(psi12 - 2)  # 137 divides it
        assert is_prime(2**64 - 59)

    def test_fuzz_against_trial_division(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            n = int(rng.integers(2, 1_000_000))
            assert is_prime(n) == is_prime_naive(n)


class TestRamanujan:
    def test_mobius_identity(self):
        """c_q(1) = mu(q)."""
        for q in range(1, 301):
            assert abs(ramanujan(q, 1) - mobius_naive(q)) < 1e-10

    def test_at_zero(self):
        """c_q(0) = phi(q)."""
        for q in range(1, 60):
            assert abs(ramanujan(q, 0) - euler_phi(q)) < 1e-10

    def test_closed_form_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            q = int(rng.integers(1, 200))
            a = int(rng.integers(0, 3 * q))
            assert abs(ramanujan(q, a) - ramanujan_closed_form(q, a)) < 1e-9

    def test_multiplicative(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            q1 = int(rng.integers(1, 40))
            q2 = int(rng.integers(1, 40))
            if math.gcd(q1, q2) != 1:
                continue
            a = int(rng.integers(0, q1 * q2))
            assert abs(ramanujan(q1 * q2, a) - ramanujan(q1, a) * ramanujan(q2, a)) < 1e-9

    def test_validation(self):
        with pytest.raises(DomainError, match="modulus must be >= 1, got 0"):
            ramanujan(0, 1)


class TestTau:
    def test_naive_small_sweep(self):
        for q in range(1, 13):
            for d in range(1, 13):
                for a in range(q + 1):
                    assert abs(tau(a, d, q) - tau_naive(a, d, q)) < 1e-10

    def test_closed_form_fuzz(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            q = int(rng.integers(1, 41))
            d = int(rng.integers(1, 41))
            a = int(rng.integers(-q, 2 * q + 1))
            assert abs(tau(a, d, q) - tau_closed_form(a, d, q)) < 1e-9

    def test_shared_factor_cases(self):
        # gcd(d, q) = 2 does not divide odd a: the sum cancels exactly
        assert abs(tau(1, 2, 4)) < 1e-12
        assert abs(tau_closed_form(1, 2, 4)) < 1e-12
        # but it divides a = 4, where all four phases align
        assert abs(tau(4, 2, 4) - 4) < 1e-12
        assert abs(tau_closed_form(4, 2, 4) - 4) < 1e-12

    def test_coprime_case_is_twisted_ramanujan(self):
        """For gcd(d, q) = 1 the sum is c_q(a) times a unit phase."""
        for q in (5, 7, 9, 16):
            for d in (1, 3):
                if math.gcd(d, q) != 1:
                    continue
                for a in range(q):
                    assert abs(abs(tau(a, d, q)) - abs(ramanujan(q, a))) < 1e-9

    @pytest.mark.parametrize("route", [tau, tau_closed_form])
    def test_validation(self, route):
        with pytest.raises(DomainError, match="need q, d >= 1, got q=0, d=1"):
            route(1, 1, 0)


class TestCharacters:
    def test_group_size(self):
        for q in (1, 2, 3, 8, 12, 45, 64):
            assert len(characters_mod(q)) == euler_phi(q)

    def test_validation(self):
        """Modulus 0 has no unit group: phi and the characters refuse it."""
        with pytest.raises(DomainError, match="phi undefined for 0"):
            euler_phi(0)
        with pytest.raises(DomainError, match="modulus must be >= 1, got 0"):
            characters_mod(0)

    def test_principal_first(self):
        chars = characters_mod(12)
        assert chars[0].is_principal
        assert all(not c.is_principal for c in chars[1:])

    def test_column_orthogonality(self):
        """Sum over x of chi(x) vanishes unless chi is principal."""
        for q in (5, 8, 12):
            for chi in characters_mod(q):
                s = sum(chi(x) for x in range(q))
                expected = euler_phi(q) if chi.is_principal else 0.0
                assert abs(s - expected) < 1e-9

    def test_row_orthogonality(self):
        """Sum over chi of chi(a) conj(chi(b)) detects a = b on units."""
        q = 15
        chars = characters_mod(q)
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            for b in range(1, q):
                if math.gcd(b, q) != 1:
                    continue
                s = sum(chi(a) * np.conj(chi(b)) for chi in chars)
                expected = euler_phi(q) if a == b else 0.0
                assert abs(s - expected) < 1e-9

    def test_multiplicative_fuzz(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            q = int(rng.integers(2, 50))
            chars = characters_mod(q)
            chi = chars[int(rng.integers(0, len(chars)))]
            a = int(rng.integers(0, 4 * q))
            b = int(rng.integers(0, 4 * q))
            assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-9

    def test_zero_off_units(self):
        chi = characters_mod(12)[0]
        for x in (0, 2, 3, 4, 6, 8, 9, 10):
            assert chi(x) == 0

    def test_group_of_homomorphisms(self):
        """phi(q) distinct homomorphisms from the units to the unit circle,
        0 off the units, labels strictly increasing from the principal one."""
        for q in (*range(1, 201), 997):
            chars = characters_mod(q)
            phi_q = euler_phi(q)
            assert len(chars) == phi_q, q
            table = np.array([chi.values for chi in chars])
            assert table.shape == (phi_q, q), q
            is_unit = np.array([math.gcd(x, q) == 1 for x in range(q)])
            units = np.flatnonzero(is_unit)
            assert np.all(table[:, ~is_unit] == 0), q
            assert np.allclose(np.abs(table[:, units]), 1.0, atol=1e-12), q
            rng = np.random.default_rng(q)
            for b in rng.choice(units, size=min(4, units.size), replace=False):
                assert np.allclose(
                    table[:, units * b % q], table[:, units] * table[:, [b]], atol=1e-9
                ), (q, b)
            assert np.unique(np.round(table, 6), axis=0).shape[0] == phi_q, q
            labels = [chi.label for chi in chars]
            assert all(x < y for x, y in zip(labels, labels[1:])), q
            assert chars[0].is_principal and not any(chars[0].label), q
            assert np.allclose(table[0, units], 1.0, atol=1e-12), q
            assert not any(chi.is_principal for chi in chars[1:]), q

    def test_table_budget(self):
        """The first modulus whose phi(q) x q value table passes TABLE_CAP is
        refused before anything is allocated; the one below it is not."""
        q = next(q for q in range(1, 10_000) if euler_phi(q) * q > TABLE_CAP)
        assert euler_phi(q - 1) * (q - 1) <= TABLE_CAP
        with pytest.raises(ResourceError):
            characters_mod(q)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
    def test_table_is_filled_in_blocks(self):
        """characters_mod(1999) holds a 64 MB value table; a fresh
        interpreter building it peaks below 120 MB resident (183 MB when the
        whole angle matrix and its two complex temporaries were alive at
        once).  The child reads the peak of its own address space (VmHWM)."""
        child = (
            "import re\n"
            "from primediff.arith import characters_mod\n"
            "chars = characters_mod(1999)\n"
            "status = open('/proc/self/status').read()\n"
            "print(len(chars), re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))\n"
        )
        src = str(pathlib.Path(characters_mod.__code__.co_filename).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), check=True,
        )
        count, peak_kb = map(int, proc.stdout.split())
        assert count == euler_phi(1999)
        assert peak_kb < 120 * 1024, f"peak {peak_kb // 1024} MB"


    def test_values_are_read_only(self):
        """Every call shares the cached table, so no caller may write it."""
        for chi in characters_mod(12):
            with pytest.raises(ValueError):
                chi.values[1] = 0.0

    def test_one_table_is_cached(self):
        """Asking for q1, q2, q1 evicts q1's table and rebuilds it equal."""
        q1, q2 = 15, 16
        _character_table.cache_clear()
        first = [chi.values.copy() for chi in characters_mod(q1)]
        assert _character_table.cache_info().currsize == 1
        other = characters_mod(q2)
        assert len(other) == euler_phi(q2) and other[0].values.shape == (q2,)
        assert _character_table.cache_info().currsize == 1
        again = characters_mod(q1)
        assert _character_table.cache_info().misses == 3
        assert [chi.modulus for chi in again] == [q1] * euler_phi(q1)
        assert all(np.array_equal(a, chi.values) for a, chi in zip(first, again))


class TestPsi:
    def test_against_naive(self):
        for x in (0.0, 1.0, 10.0, 100.0, 997.5):
            for q in range(1, 8):
                for a in range(q):
                    assert abs(psi(x, q, a) - psi_naive(x, q, a)) < 1e-9

    def test_example_values(self):
        assert abs(psi(10, 1, 0) - 7.832014180505) < 1e-9
        assert psi(0, 3, 1) == 0.0

    def test_is_the_correctly_rounded_sum(self):
        """psi(x, q, a) == math.fsum of Lambda(n) over n <= x, n ≡ a
        (mod q), exactly: every x to 200 and the x below, q = 1..12 and
        30, every a in [-q, 2q).  Among them a ≡ 0, negative a, q > x,
        and p^k ≡ a with k >= 2 and p not dividing q (9 ≡ 1 mod 8,
        27 ≡ 3 mod 8, 9 ≡ 49 ≡ 4 mod 5)."""
        top = 2000
        lam = [mangoldt_naive(n) for n in range(top + 1)]
        xs = [*range(201), 0.5, 96.99, 997.5, 1024.0, top]
        for q in (*range(1, 13), 30):
            for x in xs:
                for a in range(-q, 2 * q):
                    want = math.fsum(lam[n] for n in range(1, int(x) + 1) if n % q == a % q)
                    assert psi(x, q, a) == want, (x, q, a)
        assert psi(9, 8, 1) == math.log(3)  # 1 has no weight
        assert psi(27, 8, 3) == math.fsum([math.log(3), math.log(3), math.log(11), math.log(19)])
        assert psi(49, 5, 4) == math.fsum(map(math.log, [2, 3, 19, 29, 7]))  # 2^2, 3^2, 7^2
        assert psi(5, 7, -4) == math.log(3) and psi(5, 7, 6) == 0.0

    def test_classes_partition(self):
        """Summing psi over all classes mod q recovers psi mod 1."""
        x = 5000.0
        total = psi(x, 1, 0)
        for q in (2, 3, 10):
            parts = sum(psi(x, q, a) for a in range(q))
            assert abs(parts - total) < 1e-9

    def test_out_of_range(self, tables_small):
        with pytest.raises(ResourceError, match=f"n_max <= {TABLE_CAP}, got x = 4000001$"):
            psi(TABLE_CAP + 1, 1, 0)
        with pytest.raises(DomainError):
            psi(-1.0, 1, 0)
        with pytest.raises(DomainError):
            psi(10.0, 0, 0)
        with pytest.raises(DomainError, match="need x >= 0, got -1"):
            psi_chi(-1, characters_mod(3)[0], tables_small)


class TestInversion:
    def test_principal_character_sum(self, tables_small):
        """psi(x, chi_0) sums Lambda over n coprime to q."""
        q, x = 12, 800.0
        chi0 = characters_mod(q)[0]
        direct = sum(
            psi_naive(x, q, a) for a in range(q) if math.gcd(a, q) == 1
        )
        assert abs(psi_chi(x, chi0, tables_small) - direct) < 1e-9

    def test_psi_chi_against_naive(self, tables_small):
        for q in (1, 5, 8, 12):
            for chi in characters_mod(q):
                values = chi.values.tolist()
                for x in (0.0, 1.0, 10.5, 97.0, 800.0):
                    got = psi_chi(x, chi, tables_small)
                    assert abs(got - psi_chi_naive(x, values)) < 1e-9, (q, chi.label, x)

    def test_units_identity(self, tables_small):
        for q in range(2, 21):
            for a in range(1, q):
                if math.gcd(a, q) != 1:
                    continue
                disc = verify_inversion(500.0, q, a, tables_small)
                assert disc < 1e-9

    def test_matches_character_sum(self, tables_small):
        """verify_inversion equals |psi(x; q, a) - sum over characters_mod(q)
        of conj(chi(a)) psi_chi(x, chi) / phi(q)| to 1e-12 max(1, psi), on
        every class a mod q, units or not."""
        for q in range(1, 31):
            chars = characters_mod(q)
            for x in (0.0, 1.0, 97.5, 5000.0):
                for a in range(q):
                    direct = psi(x, q, a)
                    acc = sum(np.conj(chi(a)) * psi_chi(x, chi, tables_small) for chi in chars)
                    want = abs(direct - acc / len(chars))
                    got = verify_inversion(x, q, a, tables_small)
                    assert abs(got - want) <= 1e-12 * max(1.0, direct), (q, x, a)

    def test_residue_mass_bits_match_bincount(self, tables_small):
        """_residue_mass sums Lambda by rows of q residues; its bits equal
        the bincount of n % q weighted by Lambda(n), for q = 1..60 and
        seeded x in [0, 10^4], q > x included."""
        rng = np.random.default_rng(2007)
        xs = [0.0, 0.5, 1.0, 2.0, 59.0, 60.0, 61.0, 1e4, *rng.uniform(0, 1e4, 24)]
        for q in range(1, 61):
            for x in xs:
                top = int(x)
                want = np.bincount(
                    np.arange(top + 1) % q, weights=tables_small.mangoldt[: top + 1], minlength=q
                )
                got = tables._residue_mass(x, q, tables_small)
                assert got.tobytes() == want.tobytes(), (q, x)

    def test_non_unit_discrepancy_is_class_mass(self, tables_small):
        # off units every character vanishes, so the inversion side is 0
        # and the reported discrepancy equals the direct class sum
        disc = verify_inversion(100.0, 4, 2, tables_small)
        assert abs(disc - psi_naive(100.0, 4, 2)) < 1e-9


class TestExceptionalDatum:
    def test_accepts_valid(self):
        d = ExceptionalDatum(3, 0.75)
        assert (d.modulus, d.beta) == (3, 0.75)

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            ExceptionalDatum(1, 0.75)
        with pytest.raises(DomainError):
            ExceptionalDatum(3, 0.5)
        with pytest.raises(DomainError):
            ExceptionalDatum(3, 1.0)
        with pytest.raises(DomainError):  # _replace checks as the constructor does
            ExceptionalDatum(3, 0.75)._replace(beta=1.0)
        assert ExceptionalDatum(3, 0.75)._replace(modulus=5) == (5, 0.75)
