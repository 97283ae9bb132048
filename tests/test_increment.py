"""Tests for density sets, window counting, arc energy tables, and the
two increment operations."""

import math
import tracemalloc

import numpy as np
import pytest

from primediff import energy, increment, spectral
from primediff.errors import DomainError, PreconditionError
from primediff.energy import (
    _best_inside,
    _level_energies,
    averaging_projection,
    energy_table,
    extract_progression,
    rescale,
)
from primediff.increment import DensitySet, EnergyStats, Progression
from primediff.spectral import grid_power

from oracles import arc_numerators_naive, window_count_naive


def random_set(rng, n_lo=40, n_hi=400):
    n = int(rng.integers(n_lo, n_hi))
    k = int(rng.integers(1, n + 1))
    elements = rng.choice(np.arange(1, n + 1), size=k, replace=False)
    return DensitySet.from_iterable(n, elements)


class TestDensitySet:
    def test_basic_fields(self):
        A = DensitySet.from_iterable(10, [7, 2, 5])
        assert A.elements == (2, 5, 7)
        assert A.size == 3
        assert A.alpha == 0.3
        assert 5 in A.elements and 3 not in A.elements

    def test_indicator_and_balanced(self):
        A = DensitySet.from_iterable(4, [1, 3])
        g = A.balanced()
        assert abs(g.sum()) < 1e-12
        assert g.tolist() == [0.5, -0.5, 0.5, -0.5]

    def test_validation(self):
        with pytest.raises(DomainError, match="ambient length must be >= 1, got 0"):
            DensitySet(0, np.array([1], dtype=np.int64))
        with pytest.raises(DomainError):
            DensitySet.from_iterable(5, [])
        with pytest.raises(DomainError):
            DensitySet.from_iterable(5, [0, 2])
        with pytest.raises(DomainError):
            DensitySet.from_iterable(5, [2, 6])
        # the constructor itself, past from_iterable's sort and dedup
        for elements in ([3, 2], [2, 2], [1, 4, 4], [[1, 2], [3, 4]]):
            with pytest.raises(DomainError):
                DensitySet(5, np.array(elements, dtype=np.int64))
        assert DensitySet(5, np.array([4], dtype=np.int64)).size == 1

    def test_replace_runs_the_checks(self):
        """_replace refuses what the constructor refuses, and reads its
        elements as the constructor does."""
        A = DensitySet(5, (1, 3))
        for bad in ({"n": 0}, {"n": 2}, {"elements": ()}, {"elements": (3, 1)},
                    {"elements": (2.5,)}):
            with pytest.raises(DomainError):
                A._replace(**bad)
        assert A._replace(elements=np.array([2, 4])) == DensitySet(5, (2, 4))

    def test_non_integral_element_is_refused(self):
        """2.5 is refused by name, not held as 2; so is 2.0, by the
        constructor as by from_iterable."""
        with pytest.raises(DomainError, match="^element 2.5 is not an integer$"):
            DensitySet.from_iterable(10, [2.5, 7])
        with pytest.raises(DomainError, match="^element 2.0 is not an integer$"):
            DensitySet(10, (2.0, 7))

    def test_elements_are_an_ascending_tuple_of_ints(self):
        """numpy integers are read as Python ints; array is the same
        elements, int64 and read-only, built once."""
        A = DensitySet(10, np.array([2, 5, 7], dtype=np.int64))
        assert A.elements == (2, 5, 7) and all(type(x) is int for x in A.elements)
        assert A.array.dtype == np.int64 and A.array.tolist() == [2, 5, 7]
        assert not A.array.flags.writeable and A.array is A.array


class TestProgression:
    def test_points(self):
        P = Progression(3, 4, 3)
        assert list(range(P.first, P.last() + 1, P.step)) == [3, 7, 11]
        assert P.last() == 11
        assert P.within(11) and not P.within(10)

    def test_validation(self):
        with pytest.raises(DomainError):
            Progression(1, 0, 3)
        with pytest.raises(DomainError):
            Progression(1, 2, 0)

    def test_replace_runs_the_checks(self):
        P = Progression(1, 2, 3)
        for bad in ({"step": 0}, {"length": 0}):
            with pytest.raises(DomainError):
                P._replace(**bad)
        assert P._replace(first=5) == Progression(5, 2, 3)


def best_window_naive(A, step, length):
    """(first, count) maximizing window_count_naive over the translates
    inside [1, N], the leftmost among ties."""
    firsts = range(1, A.n - (length - 1) * step + 1)
    counts = [window_count_naive(list(A.elements), f, step, length) for f in firsts]
    best = max(counts)
    return firsts[counts.index(best)], best


class TestWindowCounts:
    def test_reported_count_is_the_maximum(self):
        rng = np.random.default_rng(83)
        draws = []
        for _ in range(40):
            A = random_set(rng, 20, 200)
            step = int(rng.integers(1, 6))
            draws.append((A, step, int(rng.integers(1, max(2, A.n // step)))))
        # (A, step, length) whose best windows sit at either end of [1, N]
        draws += [
            (DensitySet.from_iterable(30, [30]), 1, 1),
            (DensitySet.from_iterable(30, [1]), 2, 3),
            (DensitySet.from_iterable(30, [*range(1, 26, 3), 29, 30]), 1, 2),
        ]
        # steps past N, where every window is one point
        draws += [
            (DensitySet.from_iterable(5, [2, 4]), 7, 1),
            (DensitySet.from_iterable(1, [1]), 3, 1),
        ]
        # reach (length - 1) step = N - 1: the one window inside is [1, N]
        draws += [
            (DensitySet.from_iterable(31, [1, 11, 21, 31]), 10, 4),
            (DensitySet.from_iterable(28, [4, 7, 8, 28]), 3, 10),
            (DensitySet.from_iterable(30, [2, 5, 30]), 1, 30),
        ]
        for A, step, length in draws:
            assert _best_inside(A, step, length) == best_window_naive(A, step, length)
            q = int(rng.integers(1, 6))
            outs = [
                averaging_projection(A, step),
                extract_progression(A, energy_table(A, q, int(rng.integers(2, 40))).rows[-1]),
            ]
            for out in outs:
                P = out.progression
                want = best_window_naive(A, P.step, P.length)
                assert (P.first, out.intersection_count) == want, P


class TestEnergyTable:
    def test_total_closed_form(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            A = random_set(rng, 50, 300)
            table = energy_table(A, 5, max(12, A.n // 8))
            alpha = A.alpha
            want = (1 - alpha) / alpha
            assert abs(table.total - want) <= 1e-9 * max(1.0, want)

    def test_star_below_full(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            A = random_set(rng, 50, 300)
            table = energy_table(A, 8, max(18, A.n // 8))
            for r in table.rows:
                assert 0 <= r.star_energy <= r.energy + 1e-12
                assert r.energy <= table.total + 1e-12
                assert r.eta == 1 / (r.q * table.big_q)

    def test_rows_read_the_columns(self):
        """rows[q - 1] and row(q) are (q, 1/(qQ), energy[q - 1],
        star_energy[q - 1]) for every level; the columns are read-only, so
        rows, built on first read, stay equal to them."""
        rng = np.random.default_rng(59)
        A = random_set(rng, 50, 300)
        table = energy_table(A, 9, 23)
        assert table.energy.shape == table.star_energy.shape == (9,)
        assert len(table.rows) == 9
        for q in range(1, 10):
            want = (q, 1.0 / (q * 23), table.energy[q - 1], table.star_energy[q - 1])
            assert table.rows[q - 1] == table.row(q) == want
            assert type(table.row(q).energy) is float
        for column in (table.energy, table.star_energy):
            with pytest.raises(ValueError):
                column[0] = 1.0
        for q in (0, 10):
            with pytest.raises(DomainError):
                table.row(q)

    def test_structured_set_concentrates(self):
        """A residue class mod 7 piles its energy on the level-7 arcs."""
        n = 700
        A = DensitySet.from_iterable(n, range(1, n + 1, 7))
        table = energy_table(A, 8, n // 8)
        star7 = table.rows[6].star_energy
        assert star7 > 0.5 * table.total
        assert star7 > 10 * table.rows[4].star_energy

    def test_rows_are_oracle_sums(self):
        """Every row equals grid_power's |g_hat|^2 summed exactly (fsum)
        over the level's oracle points, then over those a reduced arc
        holds, times 1/(alpha |A| M), within the prefix-sum error bound.
        With S the sum of the power at k = 0..M + w, each running sum C[j]
        adds j non-negative terms, so an arc's C[hi + 1] - C[lo] is off by
        at most 2 (M + w + 2) eps S; adding a level's q arcs and scaling
        add at most (q + 1) eps S more, so a row is within
        2 (q + 1) (M + w + 2) eps S norm.  Q = 2, where arcs touch, is
        among the random Q."""
        rng = np.random.default_rng(71)
        for _ in range(6):
            A = random_set(rng, 20, 60)
            big_q = int(rng.integers(2, 12))
            m = 8 * A.n
            power = grid_power(A.balanced(), m)
            table = energy_table(A, 6, big_q, m)
            w = m // big_q
            at = [float(power[min(k % m, m - k % m)]) for k in range(m + w + 1)]
            norm = 1.0 / (A.alpha * A.size * m)
            for r in table.rows:
                owners = arc_numerators_naive(m, r.q, big_q)
                star = [k for k in owners if any(math.gcd(a, r.q) == 1 for a in owners[k])]
                bound = 2 * (r.q + 1) * (m + w + 2) * np.finfo(float).eps * math.fsum(at) * norm
                assert abs(r.energy - math.fsum(at[k] for k in owners) * norm) <= bound
                assert abs(r.star_energy - math.fsum(at[k] for k in star) * norm) <= bound

    def test_walk_memory_is_bounded(self):
        """50 levels at Q = 100 on a 2^21-point grid put about 2.1M points
        on their arcs, but the energies read only the arcs' ends: one
        running sum of M + w + 2 floats, about 16 MB, where listing the
        points took about 62 MB."""
        power = np.ones((1 << 20) + 1)
        tracemalloc.start()
        try:
            _level_energies(1 << 21, power, 1.0, 50, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.0f} MB"

    def test_star_mask_is_built_once_per_level_list(self, monkeypatch):
        """20 tables at levels 1..50, each on its own set, grid and Q, call
        np.gcd at most once between them: the star mask gcd(a, q) = 1
        comes with the arc geometry, built once."""
        calls, gcd = [], np.gcd

        def counted(*args, **kwargs):
            calls.append(args)
            return gcd(*args, **kwargs)

        monkeypatch.setattr(np, "gcd", counted)
        rng = np.random.default_rng(73)
        for i in range(20):
            energy_table(random_set(rng, 40, 300), 50, 100 + i)
        assert len(calls) <= 1

    def test_fewer_levels_read_the_grown_geometry(self, monkeypatch):
        """Tables at Q' = 50, then 49, then 50 build the arc geometry once:
        levels 1..49 read a prefix of the entry for 1..50."""
        monkeypatch.setattr(spectral, "_arc_top", 0)
        spectral._arc_geometry.cache_clear()
        A = random_set(np.random.default_rng(74), 40, 300)
        tables = [energy_table(A, q_prime, 120) for q_prime in (50, 49, 50)]
        assert spectral._arc_geometry.cache_info().misses == 1
        assert tables[1].energy.tolist() == tables[0].energy[:49].tolist()

    def test_validation(self):
        A = DensitySet.from_iterable(40, [1, 5, 9])
        # energy_table's own refusals, ahead of arc_ranges' broader one
        with pytest.raises(DomainError, match="need Q' >= 1, got 0"):
            energy_table(A, 0, 10)
        with pytest.raises(DomainError, match="need Q >= 2 so same-level arcs stay disjoint, got 1"):
            energy_table(A, 3, 1)
        with pytest.raises(PreconditionError):  # M = 100 below 8N = 320
            energy_table(A, 3, 10, 100)

    def test_grid_sets_m(self, monkeypatch):
        """The size given fixes M: a 400-point grid, not the default 320."""
        sizes, real = [], spectral.grid_power

        def recorded(f, m):
            sizes.append(m)
            return real(f, m)

        monkeypatch.setattr(energy, "grid_power", recorded)
        A = DensitySet.from_iterable(40, [1, 5, 9])
        table = energy_table(A, 3, 10, 400)
        assert sizes == [400]
        assert abs(table.total - (1 - A.alpha) / A.alpha) <= 1e-9 * table.total


class TestExtractProgression:
    def test_structured_class(self):
        n = 700
        A = DensitySet.from_iterable(n, range(1, n + 1, 7))
        row = energy_table(A, 7, n // 8).rows[6]
        out = extract_progression(A, row)
        assert out.met_guarantee
        assert out.progression.step == 7
        assert out.new_alpha == 1.0
        assert out.progression.within(n)
        P = out.progression
        assert out.intersection_count == window_count_naive(
            A.elements, P.first, P.step, P.length
        )

    def test_length_caps(self):
        n = 700
        A = DensitySet.from_iterable(n, range(1, n + 1, 7))
        row = energy_table(A, 7, n // 8).rows[6]
        out = extract_progression(A, row, c_len=0.25)
        L = out.progression.length
        assert L <= 1 / (2 * 7 * row.eta)
        assert L <= 0.25 * min(1 / row.eta, out.detail["energy"] * A.size) / 7
        assert L >= 1

    def test_caps_are_exact_integers(self):
        """energy_table's eta is 1/(q Q), so the caps are Q // 2 and, with
        c_len = 1/4 and the mass side above the eta side, Q // 4 exactly;
        1/(2 q eta) and 1/eta fell just below an integer on some pairs (at
        q = 1, Q = 186 gave 92 for the first and Q = 372 gave 92 for the
        second)."""
        A = DensitySet.from_iterable(40, range(1, 41))
        for q in range(1, 51):
            for big_q in (186, 372, *range(2, 400, 3)):
                row = EnergyStats(q, 1.0 / (q * big_q), 1e9, 0.0)
                detail = extract_progression(A, row, c_len=0.25).detail
                assert (detail["cap_eta"], detail["cap_mass"]) == (big_q // 2, big_q // 4), (q, big_q)


class TestAveragingProjection:
    def test_fuzz_guarantee(self):
        """count >= alpha L / 2 with L >= |A|/(8 step), on every draw."""
        rng = np.random.default_rng(73)
        for _ in range(100):
            A = random_set(rng, 30, 500)
            step = int(rng.integers(1, 9))
            out = averaging_projection(A, step)
            L = out.progression.length
            assert L == max(1, math.ceil(A.size / (8 * step)))
            assert out.met_guarantee
            assert out.intersection_count >= A.alpha * L / 2 - 1e-9
            assert out.progression.within(A.n)
            P = out.progression
            assert out.intersection_count == window_count_naive(
                A.elements, P.first, P.step, P.length
            )

    def test_validation(self):
        A = DensitySet.from_iterable(10, [1, 2])
        with pytest.raises(DomainError):
            averaging_projection(A, 0)


class TestRescale:
    def test_small_example(self):
        A = DensitySet.from_iterable(20, [3, 7, 11, 12, 19])
        P = Progression(3, 4, 5)  # 3, 7, 11, 15, 19
        B = rescale(A, P)
        assert B.n == 5
        assert B.elements == (1, 2, 3, 5)

    def test_differences_scale_by_step(self):
        rng = np.random.default_rng(79)
        A = random_set(rng, 100, 200)
        out = averaging_projection(A, 3)
        B = rescale(A, out.progression)
        P = out.progression
        for x in B.elements:
            assert P.first + (x - 1) * P.step in A.elements
        assert B.size == out.intersection_count

    def test_preconditions(self):
        A = DensitySet.from_iterable(10, [1, 5])
        with pytest.raises(PreconditionError, match=r"\[8, 12\] not inside \[1, 10\]"):
            rescale(A, Progression(8, 2, 3))
        with pytest.raises(PreconditionError, match="misses A entirely"):
            rescale(A, Progression(2, 2, 3))

    def test_matches_membership_formula(self):
        """rescale keeps the j with first + j step in A, as np.isin of the
        progression's points against A finds them, on seeded sets and
        progressions; a progression that misses A is refused."""
        rng = np.random.default_rng(83)
        misses = 0
        for _ in range(300):
            A = random_set(rng, 10, 120)
            step = int(rng.integers(1, 12))
            length = int(rng.integers(1, (A.n - 1) // step + 2))
            first = int(rng.integers(1, A.n - (length - 1) * step + 1))
            P = Progression(first, step, length)
            hits = np.flatnonzero(np.isin(np.arange(P.first, P.last() + 1, P.step), A.elements)) + 1
            if hits.size == 0:
                misses += 1
                with pytest.raises(PreconditionError, match="misses A"):
                    rescale(A, P)
                continue
            B = rescale(A, P)
            assert B.n == length
            assert list(B.elements) == hits.tolist()
        assert misses > 0
