"""Tests for signals, torus points, grid power and its size rule, rational
approximation, and Farey arc membership."""

import cmath
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from primediff import arith, spectral
from primediff.spectral import (
    TorusPoint,
    arc_ranges,
    dirichlet_approx_grid,
    fft_size,
    grid_power,
    transform_at,
)
from primediff.arith import TABLE_CAP
from primediff.errors import DomainError, ResourceError

from oracles import (
    arc_numerators_naive,
    convergents_exact,
    dft_naive,
    dirichlet_approx,
    five_smooth_naive,
)


class TestTorusPoint:
    def test_rational_reduces(self):
        p = TorusPoint.rational(4, 6)
        assert (p.a, p.q, p.kappa) == (2, 3, 0.0)
        p = TorusPoint.rational(7, 3)
        assert (p.a, p.q) == (1, 3)
        for a in (-2, 1, 3):  # q = 1 is reduced too: every integer is 0/1
            assert TorusPoint.rational(a, 1) == TorusPoint(0, 1)

    def test_rational_refuses_a_denominator_below_one(self):
        for a, q in ((1, 0), (1, -3), (0, 0)):
            message = f"denominator must lie in [1, 2^63 - 1], got {q}"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                TorusPoint.rational(a, q)

    def test_from_float_wraps(self):
        p = TorusPoint.from_float(0.8)
        assert (p.a, p.q) == (1, 1)
        assert abs(p.kappa + 0.2) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            TorusPoint(2, 6, 0.0)
        with pytest.raises(DomainError):
            TorusPoint(0, 1, 0.7)
        with pytest.raises(DomainError):
            TorusPoint(1, 0, 0.0)
        with pytest.raises(DomainError, match="need 0 <= a <= q, got a=5, q=3"):
            TorusPoint(5, 3)

    def test_replace_runs_the_checks(self):
        p = TorusPoint(1, 3)
        for bad in ({"q": 0}, {"a": 4}, {"q": 6, "a": 2}, {"kappa": 0.7}):
            with pytest.raises(DomainError):
                p._replace(**bad)
        assert p._replace(kappa=0.25) == TorusPoint(1, 3, 0.25)

    def test_denominator_fits_int64(self):
        assert TorusPoint(1, 2**63 - 1).q == 2**63 - 1
        with pytest.raises(DomainError, match="2\\^63"):
            TorusPoint(1, 2**63)
        with pytest.raises(DomainError):
            TorusPoint.rational(1, 10**23)
        assert TorusPoint.rational(10**23, 2 * 10**23).q == 2  # reduced first


class TestTransforms:
    def test_pointwise_against_naive(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            f = rng.normal(size=int(rng.integers(1, 20)))
            theta = float(rng.uniform())
            got = transform_at(f, TorusPoint.from_float(theta))
            want = dft_naive(f.tolist(), 1, theta)
            assert abs(got - want) < 1e-9

    def test_rational_phase_past_int64_products(self):
        """x a mod q is exact where x a passes int64: at a/q = (10^16 - 1) /
        10^16 every phase of 1..2000 is e(x / 10^16), so the sum is near 2000."""
        q = 10**16
        z = transform_at(np.ones(2000), TorusPoint(q - 1, q))
        want = sum(cmath.exp(-2j * math.pi * (x * (q - 1) % q) / q) for x in range(1, 2001))
        assert abs(z - want) < 1e-6 and abs(z - 2000) < 1e-3

    def test_power_matches_pointwise(self):
        """grid_power holds |f_hat(k/M)|^2 for k <= M/2, and grid point k
        reads index min(k, M - k), on even and odd grids; on the 32-point
        grid the support's last point x = 32 wraps to 0."""
        rng = np.random.default_rng(32)
        f = rng.normal(size=32)
        for m in (32, 33):
            power = grid_power(f, m)
            assert len(power) == m // 2 + 1
            for k in range(m):
                want = abs(transform_at(f, TorusPoint.rational(k, m))) ** 2
                assert abs(power[min(k, m - k)] - want) < 1e-9

    def test_power_refusals(self):
        """Grids below the support length or past TABLE_CAP points, and
        complex signals, whose power is not symmetric."""
        f = np.ones(10)
        with pytest.raises(ResourceError):
            grid_power(f, 9)
        with pytest.raises(ResourceError, match="grid limited"):
            grid_power(f, TABLE_CAP + 1)
        with pytest.raises(DomainError):
            grid_power(np.ones(4, dtype=complex), 8)

    def test_parseval(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            f = rng.normal(size=int(rng.integers(1, 200)))
            m = len(f) + int(rng.integers(0, 50))
            half = grid_power(f, m)
            # the half grid holds k = 0 and, for even M, k = M/2 once
            total = (2 * half.sum() - half[0] - (half[-1] if m % 2 == 0 else 0.0)) / m
            energy = float(np.sum(f**2))
            assert abs(total - energy) <= 1e-9 * energy


class TestFftSize:
    def test_against_brute_force(self):
        """The least 5-smooth number >= m, for every m <= 20,000 and at the
        cap: TABLE_CAP = 2^8 5^6 is its own size, so no m the cap accepts
        gets a size past it."""
        least = 20_000
        while not five_smooth_naive(least):
            least += 1
        for m in range(20_000, 0, -1):
            if five_smooth_naive(m):
                least = m
            assert fft_size(m) == least, m
        for m in (TABLE_CAP - 1, TABLE_CAP):
            least = m
            while not five_smooth_naive(least):
                least += 1
            assert fft_size(m) == least == TABLE_CAP

    def test_identity_on_smooth_sizes(self):
        smooth = [
            2**a * 3**b * 5**c
            for a in range(22) for b in range(14) for c in range(10)
            if 2**a * 3**b * 5**c <= TABLE_CAP
        ]
        assert [fft_size(m) for m in smooth] == smooth

    def test_one_table_serves_every_size(self, monkeypatch):
        """Sizes up to TABLE_CAP read one table, built once whatever m is asked
        for; a cap raised past 2^22 gets a longer table, and sizes past
        2^22 still come out least."""
        spectral._smooth_sizes.cache_clear()
        for m in (1, 997, 7_976, 8_000, TABLE_CAP):
            fft_size(m)
        assert spectral._smooth_sizes.cache_info().misses == 1
        monkeypatch.setattr(arith, "TABLE_CAP", 2**24)
        for m in (2**22 + 1, 2**23 + 1):
            least = m
            while not five_smooth_naive(least):
                least += 1
            assert fft_size(m) == least, m
        spectral._smooth_sizes.cache_clear()

    @pytest.mark.parametrize("m", [TABLE_CAP + 1, 10**300], ids=["cap_plus_1", "1e300"])
    def test_refuses_past_the_cap(self, m):
        """Refused as grid_power refuses, before any size is searched."""
        with pytest.raises(ResourceError, match="spectrum grid limited"):
            fft_size(m)


class TestDirichletApprox:
    @staticmethod
    def at(m, k, big_q):
        a, q = dirichlet_approx_grid(m, big_q)
        return int(a[k]), int(q[k])

    def test_golden_cases(self):
        assert self.at(3, 1, 10) == (1, 3)
        assert self.at(2, 1, 10) == (1, 2)
        assert self.at(2, 0, 10) == (0, 1)
        assert self.at(113, 16, 10) == (1, 7)  # 355/113 less 3, then 22/7 less 3

    def test_wraps_to_zero(self):
        assert self.at(1000, 999, 50) == (0, 1)

    def test_validation(self):
        with pytest.raises(DomainError, match="grid size must be >= 1, got 0"):
            dirichlet_approx_grid(0, 10)
        with pytest.raises(DomainError, match="cutoff must be >= 1, got 0"):
            dirichlet_approx_grid(10, 0)

    def test_approximation_property(self):
        """|k/M - a/q| < 1/(q Q) on the circle, with q <= Q and
        gcd(a, q) = 1, in exact integers: |kq - aM| mod qM, read both ways
        round, times Q stays below M."""
        rng = np.random.default_rng(41)
        for _ in range(40):
            m = int(rng.integers(1, 3000))
            big_q = int(rng.integers(1, 500))
            a, q = dirichlet_approx_grid(m, big_q)
            k = np.arange(m, dtype=np.int64)
            assert ((1 <= q) & (q <= big_q)).all()
            assert (np.gcd(a, q) == 1).all()
            gap = (k * q - a * m) % (q * m)
            assert (np.minimum(gap, q * m - gap) * big_q < m).all()

    def test_grid_matches_scalar(self):
        """The array version agrees with the scalar oracle wherever k/M is
        exact in binary, that is for M a power of two."""
        for m in (1, 2, 1024, 4096):
            for big_q in (1, 3, 40, 500, 10**6):
                a, q = dirichlet_approx_grid(m, big_q)
                want = [dirichlet_approx(k / m, big_q) for k in range(m)]
                assert list(zip(a.tolist(), q.tolist())) == want

    def test_grid_matches_the_exact_oracle(self):
        """Every k/M against the convergents of the exact fraction, for
        every M <= 300 and a few larger M, odd and even, at cutoffs from 1
        to past M: the labels above M/2, mirrored from M - k, included."""
        for m in [*range(1, 301), 997, 40_000, 65_537]:
            expansions = [convergents_exact(k, m) for k in range(m)]
            cutoffs = {1, 2, 3, m // 3, m // 2, m - 1, m, m + 1, 10**6} - {0}
            for big_q in sorted(cutoffs):
                a, q = dirichlet_approx_grid(m, big_q)
                want = [
                    next((p % c, c) for p, c in reversed(cs) if c <= big_q) for cs in expansions
                ]
                assert list(zip(a.tolist(), q.tolist())) == want, (m, big_q)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_grid_approximation_runs_in_blocks():
    """dirichlet_approx_grid at M = 4e6 holds 64 MB of output but runs its
    recurrence a block at a time: a fresh interpreter peaks below 150 MB
    resident (381 MB when all M points were in flight at once)."""
    child = (
        "import re\n"
        "from primediff.spectral import dirichlet_approx_grid\n"
        "a, q = dirichlet_approx_grid(4_000_000, 10)\n"
        "status = open('/proc/self/status').read()\n"
        "print(int(q.max()), re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))\n"
    )
    src = str(pathlib.Path(dirichlet_approx_grid.__code__.co_filename).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True
    )
    q_max, peak_kb = map(int, proc.stdout.split())
    assert q_max == 10
    assert peak_kb < 150 * 1024, f"peak {peak_kb // 1024} MB"


def level_rows(m, levels, big_q):
    """The rows of the given levels, read out of one prefix call
    arc_ranges(M, max(levels), Q): level q's arcs are rows q(q - 1)/2 to
    q(q + 1)/2 - 1."""
    rows = np.concatenate([np.arange(lv * (lv - 1) // 2, lv * (lv + 1) // 2) for lv in levels])
    return tuple(column[rows] for column in arc_ranges(m, max(levels), big_q))


def expand(m, levels, big_q):
    """The rows of the ascending levels (level_rows) as columns (q, k, a),
    one entry per grid point k of each arc, k read mod M, sorted by
    (q, k).  Checks the rows' shape on the way: one per arc, level after
    level with a = 1..q, hi >= lo - 1, and only the a = q arcs past M, by
    at most w = floor(M/Q), and the star mask gcd(a, q) = 1."""
    q, a, lo, hi, star = level_rows(m, levels, big_q)
    assert (star == (np.gcd(a, q) == 1)).all()
    assert q.tolist() == [lv for lv in levels for _ in range(lv)]
    assert a.tolist() == [b for lv in levels for b in range(1, lv + 1)]
    assert (lo >= 0).all() and (hi >= lo - 1).all()
    assert (hi[a < q] < m).all() and (hi <= m + m // big_q).all()
    points = sorted(
        (lv, k % m, b)
        for lv, b, first, last in zip(q.tolist(), a.tolist(), lo.tolist(), hi.tolist())
        for k in range(first, last + 1)
    )
    return [np.array(col, dtype=np.int64) for col in zip(*points)] or [np.zeros(0, np.int64)] * 3


def check_arcs(m, q, big_q):
    """arc_ranges against the oracle: the same points, each in one arc of
    the level that holds it, a reduced one whenever any reduced arc does.
    Returns the number of points more than one arc holds."""
    levels, k, a = expand(m, [q], big_q)
    assert (levels == q).all()
    owners = arc_numerators_naive(m, q, big_q)
    assert k.tolist() == sorted(owners), (m, q, big_q)
    for point, label in zip(k.tolist(), a.tolist()):
        held_by = owners[point]
        assert label in held_by, (m, q, big_q, point)
        if any(math.gcd(b, q) == 1 for b in held_by):
            assert math.gcd(label, q) == 1, (m, q, big_q, point)
    return sum(len(held_by) > 1 for held_by in owners.values())


class TestArcIndices:
    """The integer ranges arc_ranges gives, point by point."""

    def test_against_fractions(self):
        rng = np.random.default_rng(44)
        shared = 0
        for _ in range(300):
            m = int(rng.integers(1, 200))
            q = int(rng.integers(1, 13))
            big_q = int(rng.integers(2, 40))
            shared += check_arcs(m, q, big_q)
        for q in (1, 2, 6, 7):  # arcs touch only at Q = 2
            shared += check_arcs(60, q, 2)
        assert shared > 0

    def test_many_levels_against_fractions(self):
        """The rows of random, non-contiguous ascending levels, read out of
        one prefix call, give the per-level oracle's points, level after
        level, each labelled as check_arcs demands; at Q = 2 arcs share
        points, and the a = q arc wraps past M onto small k."""
        rng = np.random.default_rng(45)
        shared = wrapped = 0
        for trial in range(60):
            m = int(rng.integers(1, 120))
            big_q = 2 if trial % 3 == 0 else int(rng.integers(2, 40))
            levels = sorted(rng.choice(10, size=int(rng.integers(1, 5)), replace=False) + 1)
            q, k, a = expand(m, levels, big_q)
            owners = {lv: arc_numerators_naive(m, lv, big_q) for lv in levels}
            want = [(lv, point) for lv in levels for point in sorted(owners[lv])]
            assert list(zip(q.tolist(), k.tolist())) == want, (m, levels, big_q)
            for lv, point, label in zip(q.tolist(), k.tolist(), a.tolist()):
                held_by = owners[lv][point]
                assert label in held_by, (m, levels, big_q, point)
                if any(math.gcd(b, lv) == 1 for b in held_by):
                    assert math.gcd(label, lv) == 1, (m, levels, big_q, point)
                shared += len(held_by) > 1
                wrapped += label == lv and 0 < point < m / 2
        assert shared > 0 and wrapped > 0

    def test_touching_ends_are_clipped(self):
        """At Q = 2 on 60 points the six arcs of level 6 each touch the
        next at one point: a reduced arc (a = 1, 5) keeps a point it
        shares with an unreduced one, else the arc below keeps it, and the
        a = 6 arc past M gives 65 = 60 + 5 to the a = 1 arc."""
        q, a, lo, hi, star = level_rows(60, [6], 2)
        assert lo.tolist() == [5, 16, 26, 36, 45, 56]
        assert hi.tolist() == [15, 25, 35, 44, 55, 64]
        assert (star == (np.gcd(a, q) == 1)).all()
        lo, hi = arc_ranges(60, 1, 2)[2:4]  # level 1's one arc meets itself
        assert (lo.tolist(), hi.tolist()) == ([31], [90])

    def test_closed_boundary(self):
        """35/7000 = 1/200 lies on the boundary of the arc around 2/2 at
        Q = 100, which rounding the arc ends in floats can drop."""
        q, a, lo, hi, star = level_rows(7000, [2], 100)
        assert (star == (np.gcd(a, q) == 1)).all()
        assert (lo[1], hi[1]) == (6965, 7000 + 35)
        _, k, a = expand(7000, [2], 100)
        assert 35 in k and 6965 in k
        assert a[np.searchsorted(k, [35, 6965])].tolist() == [2, 2]
        check_arcs(7000, 2, 100)

    def test_validation(self):
        with pytest.raises(DomainError):
            arc_ranges(0, 1, 2)
        with pytest.raises(DomainError):
            arc_ranges(10, 0, 2)
        with pytest.raises(DomainError):
            arc_ranges(10, 1, 0)
        with pytest.raises(DomainError):  # arcs at Q = 1 overlap: no consumer asks
            arc_ranges(10, 1, 1)

    def test_geometry_is_cached_read_only(self, monkeypatch):
        """q, a and the star mask are read-only prefixes of one geometry
        entry, whatever M and Q: Q' = 2 reads the first 3 rows, Q' = 7
        grows the entry to 28 rows, and Q' = 2 then reads its prefix, with
        no rebuild."""
        monkeypatch.setattr(spectral, "_arc_top", 0)
        spectral._arc_geometry.cache_clear()
        q, a, _, _, star = arc_ranges(100, 2, 7)
        for array in (q, a, star):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]
        assert (q.tolist(), a.tolist(), star.tolist()) == ([1, 2, 2], [1, 1, 2], [1, 1, 0])
        other = arc_ranges(60, 7, 2)
        assert other[0].tolist() == [lv for lv in range(1, 8) for _ in range(lv)]
        assert other[4].tolist() == (np.gcd(other[1], other[0]) == 1).tolist()
        again = arc_ranges(100, 2, 7)
        for x, y, z in zip((q, a, star), (again[0], again[1], again[4]), (other[0], other[1], other[4])):
            assert (x == y).all() and np.shares_memory(y, z)  # the grown entry, read again
        assert spectral._arc_geometry.cache_info().misses == 2


class TestLevelRuns:
    """The levels 1..Q' one arc_ranges call takes."""

    def test_validation(self, monkeypatch):
        """The Q'(Q' + 1)/2 arcs are held to TABLE_CAP, read at call time,
        before any array is built: levels 1..10^12 are refused at once,
        and under a cap of 55, levels 1..10 (55 arcs) pass while 1..11
        do not."""
        with pytest.raises(ResourceError, match="got 500000000000500000000000$"):
            arc_ranges(100, 10**12, 3 * 10**12)
        monkeypatch.setattr(arith, "TABLE_CAP", 55)
        assert len(arc_ranges(100, 10, 30)[0]) == 55
        with pytest.raises(ResourceError, match="got 66$"):
            arc_ranges(100, 11, 30)
