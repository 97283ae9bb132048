"""Tests for sieve tables, primality, Ramanujan/Gauss-type sums,
Dirichlet characters, and Chebyshev partial sums."""

import math

import numpy as np
import pytest

from primediff.arith import (
    _SIEVE_BLOCK,
    TABLE_CAP,
    ArithTables,
    ExceptionalDatum,
    build_tables,
    characters_mod,
    euler_phi,
    is_prime,
    mobius_of,
    psi,
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

    def test_prime_power_flags(self, tables_small):
        assert tables_small.is_prime_power(8)
        assert tables_small.is_prime_power(7)
        assert not tables_small.is_prime_power(6)
        assert not tables_small.is_prime_power(1)
        assert tables_small.is_proper_prime_power(9)
        assert not tables_small.is_proper_prime_power(3)

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

    def test_fuzz_against_trial_division(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            n = int(rng.integers(2, 1_000_000))
            assert is_prime(n) == is_prime_naive(n)


class TestRamanujan:
    def test_mobius_identity(self):
        """c_q(1) = mu(q)."""
        for q in range(1, 301):
            assert abs(ramanujan(q, 1) - mobius_of(q)) < 1e-10

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


class TestCharacters:
    def test_group_size(self):
        for q in (1, 2, 3, 8, 12, 45, 64):
            assert len(characters_mod(q)) == euler_phi(q)

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


class TestPsi:
    def test_against_naive(self, tables_small):
        for x in (0.0, 1.0, 10.0, 100.0, 997.5):
            for q in range(1, 8):
                for a in range(q):
                    assert abs(psi(x, q, a, tables_small) - psi_naive(x, q, a)) < 1e-9

    def test_example_values(self, tables_small):
        assert abs(psi(10, 1, 0, tables_small) - 7.832014180505) < 1e-9
        assert psi(0, 3, 1, tables_small) == 0.0

    def test_classes_partition(self, tables_small):
        """Summing psi over all classes mod q recovers psi mod 1."""
        x = 5000.0
        total = psi(x, 1, 0, tables_small)
        for q in (2, 3, 10):
            parts = sum(psi(x, q, a, tables_small) for a in range(q))
            assert abs(parts - total) < 1e-9

    def test_out_of_range(self, tables_small):
        with pytest.raises(ResourceError):
            psi(30_000, 1, 0, tables_small)
        with pytest.raises(DomainError):
            psi(-1.0, 1, 0, tables_small)
        with pytest.raises(DomainError):
            psi(10.0, 0, 0, tables_small)


class TestInversion:
    def test_principal_character_sum(self, tables_small):
        """psi(x, chi_0) sums Lambda over n coprime to q."""
        q, x = 12, 800.0
        chi0 = characters_mod(q)[0]
        direct = sum(
            psi_naive(x, q, a) for a in range(q) if math.gcd(a, q) == 1
        )
        assert abs(psi_chi(x, chi0, tables_small) - direct) < 1e-9

    def test_units_identity(self, tables_small):
        for q in range(2, 21):
            for a in range(1, q):
                if math.gcd(a, q) != 1:
                    continue
                disc = verify_inversion(500.0, q, a, tables_small)
                assert disc < 1e-9

    def test_non_unit_discrepancy_is_class_mass(self, tables_small):
        # off units every character vanishes, so the inversion side is 0
        # and the reported discrepancy equals the direct class sum
        disc = verify_inversion(100.0, 4, 2, tables_small)
        assert abs(disc - psi_naive(100.0, 4, 2)) < 1e-9


class TestExceptionalDatum:
    def test_accepts_valid(self):
        d = ExceptionalDatum(3, 0.75)
        assert d.provenance == "synthetic"

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            ExceptionalDatum(1, 0.75)
        with pytest.raises(DomainError):
            ExceptionalDatum(3, 0.5)
        with pytest.raises(DomainError):
            ExceptionalDatum(3, 1.0)
        with pytest.raises(DomainError):
            ExceptionalDatum(3, 0.75, provenance="computed")
