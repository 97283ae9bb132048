"""Tests for forbidden difference sets, avoidance checks, exact
Russian-doll and branch-and-bound search, and greedy heuristics."""

import math

import numpy as np
import pytest

from primediff import avoider
from primediff.arith import TABLE_CAP, build_tables, is_prime
from primediff.avoider import (
    ForbiddenSet,
    find_forbidden_pair,
    greedy_avoiding,
    is_avoiding,
    max_avoiding_exact,
)
from primediff.errors import DomainError, ResourceError

from oracles import (
    avoiding_prefix_optima,
    branch_and_bound_rows,
    first_fit_naive,
    forbidden_diffs_naive,
    forbidden_pair_scan,
    is_prime_naive,
    random_local_naive,
)


class TestForbiddenSet:
    def test_matches_naive_primality(self, tables_small):
        for d in (1, 2, 3):
            fs = ForbiddenSet.build(300, d, tables_small)
            want = forbidden_diffs_naive(300, d)
            assert np.flatnonzero(fs.bits).tolist() == sorted(want)
            assert fs.count() == len(want)

    def test_table_and_direct_paths_agree(self, tables_small):
        # no table: the sieve of the values d s + 1
        tiny = ForbiddenSet.build(300, 7, None)
        fast = ForbiddenSet.build(300, 7, tables_small)
        assert np.array_equal(tiny.bits, fast.bits)

    def test_sieve_matches_miller_rabin(self):
        """Past the tables' reach the values d s + 1 are sieved: the bits
        equal is_prime's for d = 1..6 at sizes on both sides of the largest
        n a 2,000-entry table covers, down to n = 1, and on the
        Miller-Rabin route, where sqrt(d (n - 1) + 1) exceeds TABLE_CAP."""
        tables = build_tables(2000)
        cases = [(2, 10**14), (3, 10**14)]  # roots 10^7 and 1.4 10^7
        for d in range(1, 7):
            edge = (tables.n_max - 1) // d + 1  # d (edge - 1) + 1 <= n_max
            cases += [(n, d) for n in (1, 2, 3, 4, 11, edge, edge + 1, edge + 37)]
        for n, d in cases:
            want = [s > 0 and is_prime(d * s + 1) for s in range(n)]
            assert ForbiddenSet.build(n, d, tables).bits.tolist() == want, (n, d)
            assert ForbiddenSet.build(n, d, None).bits.tolist() == want, (n, d)

    def test_sieve_routes_meet_at_the_prime_count(self):
        """Without tables the sieve finds each -1/d mod p from a table of
        the inverses mod d while d is at most the number of sieving primes
        (p <= sqrt(d (n - 1) + 1), p not dividing d), and by a Fermat power
        past it.  On both sides of that boundary at several n, and at d in
        {1, 2, 6, 30, 210}, its bits equal the tables route's and
        is_prime's; both routes are met."""

        def sieving_primes(n, d):
            return sum(d % p != 0 for p in range(2, math.isqrt(d * (n - 1) + 1) + 1)
                       if is_prime(p))

        cases, routes = [], set()
        for n in (10, 100, 1000, 3000):
            past = next(d for d in range(1, 10**4) if d > sieving_primes(n, d))
            cases += [(n, d) for d in (1, 2, 6, 30, 210, past - 2, past - 1, past, past + 1) if d]
        tables = build_tables(max(d * (n - 1) + 1 for n, d in cases))
        for n, d in cases:
            routes.add(d <= sieving_primes(n, d))
            want = [s > 0 and is_prime(d * s + 1) for s in range(n)]
            assert ForbiddenSet.build(n, d).bits.tolist() == want, (n, d)
            assert ForbiddenSet.build(n, d, tables).bits.tolist() == want, (n, d)
        assert routes == {True, False}

    def test_table_budget(self):
        """Past TABLE_CAP the difference array is refused before it is built."""
        with pytest.raises(ResourceError, match="forbidden set limited"):
            ForbiddenSet.build(TABLE_CAP + 1, 1)

    def test_small_universe(self):
        fs = ForbiddenSet.build(1, 1, None)
        assert fs.count() == 0


class TestAvoidanceChecks:
    def test_pair_is_genuine(self, tables_small):
        rng = np.random.default_rng(83)
        for _ in range(100):
            n = int(rng.integers(5, 200))
            d = int(rng.integers(1, 4))
            fs = ForbiddenSet.build(n, d, tables_small)
            k = int(rng.integers(2, n + 1))
            elements = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
            pair = find_forbidden_pair(elements, fs)
            if pair is None:
                assert is_avoiding(elements, fs)
            else:
                s, lower, upper = pair
                assert upper - lower == s
                assert lower in elements and upper in elements
                assert is_prime_naive(d * s + 1)
                assert not is_avoiding(elements, fs)

    def test_smallest_difference_reported(self, tables_small):
        fs = ForbiddenSet.build(30, 1, tables_small)
        # differences 1 (-> 2 prime) and 4 (-> 5 prime) both present
        s, lower, upper = find_forbidden_pair([3, 4, 8], fs)
        assert s == 1

    def test_element_scan_matches_difference_scan(self, tables_small):
        """Whichever side find_forbidden_pair loops over, it gives the
        frozen s-ascending scan's pair: on seeded sets sparser and denser
        than the forbidden differences, at n = 1, and with no forbidden s."""
        rng = np.random.default_rng(1807)
        cases = [([1], ForbiddenSet.build(1, 1, None)), ([1, 2, 3], ForbiddenSet.build(3, 7, None))]
        for _ in range(60):
            n, d = int(rng.integers(2, 400)), int(rng.integers(1, 5))
            fs = ForbiddenSet.build(n, d, tables_small)
            for k in {2, 5, fs.count() // 2 + 1, fs.count() + 1, n // 2 + 1, n}:
                k = min(k, n)
                cases.append((rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist(), fs))
        sides = set()
        for elements, fs in cases:
            assert find_forbidden_pair(elements, fs) == forbidden_pair_scan(elements, fs.bits)
            sides.add(len(set(elements)) < fs.count())
        assert sides == {True, False}
        assert ForbiddenSet.build(3, 7, None).count() == 0

    def test_empty_and_singleton(self, tables_small):
        fs = ForbiddenSet.build(50, 1, tables_small)
        assert is_avoiding([], fs)
        assert is_avoiding([17], fs)


class TestExactSearch:
    def test_matches_enumeration_oracle(self, tables_small):
        for d in (1, 2, 3):
            optima = avoiding_prefix_optima(16, d)
            for n in range(1, 17):
                fs = ForbiddenSet.build(n, d, tables_small)
                res = max_avoiding_exact(fs)
                assert res.optimal
                assert res.size == optima[n]
                assert is_avoiding(res.elements, fs)
                assert len(res.elements) == res.size

    def test_node_budget_truncates(self, tables_small):
        fs = ForbiddenSet.build(60, 1, tables_small)
        full = max_avoiding_exact(fs)
        cut = max_avoiding_exact(fs, node_budget=3)
        assert full.optimal and not cut.optimal
        assert cut.size <= full.size
        assert is_avoiding(cut.elements, fs)

    def test_requires_budget_past_cap(self, tables_small):
        fs = ForbiddenSet.build(65, 1, tables_small)
        with pytest.raises(ResourceError):
            max_avoiding_exact(fs)
        res = max_avoiding_exact(fs, node_budget=100_000)
        assert is_avoiding(res.elements, fs)

    @pytest.mark.parametrize(
        "n, d, budget, nodes, elements",
        [
            (40, 1, None, 1031, (1, 4, 25, 28, 33, 36)),
            (88, 1, 2000, 4002, (1, 4, 9, 12, 33, 36, 57, 60, 65, 68)),
            (150, 2, 500, 1002, (26, 39, 43, 71, 81, 88, 98, 105, 130, 143, 147)),
            (300, 4, 50, 102, (1, 3, 9, 15, 17, 47, 53, 55, 173, 179, 181, 187, 225)),
        ],
    )
    def test_pinned_search(self, tables_small, n, d, budget, nodes, elements):
        """Node counts and sets pin the doll's branching order; a truncated
        run's set pins the fallback's vertex order, its include branch and
        its greedy incumbent."""
        res = max_avoiding_exact(ForbiddenSet.build(n, d, tables_small), node_budget=budget)
        assert (res.nodes, res.elements) == (nodes, elements)
        assert res.optimal == (budget is None)

    def test_doll_agrees_with_branch_and_bound(self, tables_small):
        for d in (1, 2, 3, 4):
            for n in range(1, 65):
                fs = ForbiddenSet.build(n, d, tables_small)
                doll = max_avoiding_exact(fs)
                bnb = avoider._branch_and_bound(fs, None)
                assert doll.optimal and bnb.optimal
                assert doll.size == bnb.size == len(doll.elements), (n, d)
                assert is_avoiding(doll.elements, fs)

    def test_branch_and_bound_walks_the_rows_tree(self):
        """The positional fallback walks the tree of the static-order search
        with compatibility rows: the same (elements, size, optimal, nodes)
        on seeded (n, d, budget), unbudgeted up to n = 48, and at n = 1."""
        rng = np.random.default_rng(2020)
        cases = [(1, 1, None), (1, 3, 1), (2, 1, None)]
        for _ in range(150):
            n, d = int(rng.integers(1, 161)), int(rng.integers(1, 5))
            cases.append((n, d, None if n <= 48 else int(rng.integers(1, 3000))))
        for n, d, budget in cases:
            res = avoider._branch_and_bound(ForbiddenSet.build(n, d, None), budget)
            got = (res.elements, res.size, res.optimal, res.nodes)
            assert got == branch_and_bound_rows(n, d, budget), (n, d, budget)

    @pytest.mark.parametrize("n, d, optimum", [(128, 1, 12), (200, 2, 12), (160, 4, 15)])
    def test_frontier_proven(self, tables_small, n, d, optimum):
        """Optima branch-and-bound alone does not prove within 3M nodes."""
        res = max_avoiding_exact(ForbiddenSet.build(n, d, tables_small), node_budget=3_000_000)
        assert res.optimal and res.size == optimum

    def test_node_guard(self, tables_small):
        """The benchmark's exact case: the doll proves it in under 10,000
        nodes, branch-and-bound alone in 442,089."""
        fs = ForbiddenSet.build(88, 1, tables_small)
        res = max_avoiding_exact(fs, node_budget=3_000_000)
        assert res.optimal and res.size == 10
        assert res.nodes <= 10_000
        assert avoider._branch_and_bound(fs, None).nodes == 442_089

    def test_truncated_run_is_the_fallback(self, tables_small):
        """An exhausted budget spends budget + 1 nodes in the doll, then
        returns branch-and-bound's set under the same budget."""
        fs = ForbiddenSet.build(120, 3, tables_small)
        res = max_avoiding_exact(fs, node_budget=300)
        bnb = avoider._branch_and_bound(fs, 300)
        assert not res.optimal and not bnb.optimal
        assert res.elements == bnb.elements and res.size == bnb.size
        assert res.nodes == 301 + bnb.nodes

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one(self, tables_small, budget):
        with pytest.raises(DomainError, match="node budget"):
            max_avoiding_exact(ForbiddenSet.build(20, 1, tables_small), node_budget=budget)


class TestGreedy:
    def test_first_fit_small_case(self, tables_small):
        # forbidden diffs for d=1 start 1, 2, 4, 6, 10, 12; the ascending
        # scan keeps 1, then the next allowed gaps
        fs = ForbiddenSet.build(12, 1, tables_small)
        res = greedy_avoiding(fs, strategy="first_fit")
        assert res.elements[0] == 1
        assert is_avoiding(res.elements, fs)
        assert not res.optimal

    def test_first_fit_matches_naive_scan(self, tables_small):
        rng = np.random.default_rng(404)
        for _ in range(12):
            n = int(rng.integers(1, 401))
            d = int(rng.integers(1, 5))
            want = tuple(first_fit_naive(n, d))
            for tables in (tables_small, None):  # sieve and Miller-Rabin paths
                fs = ForbiddenSet.build(n, d, tables)
                assert greedy_avoiding(fs, strategy="first_fit").elements == want

    def test_first_fit_deterministic(self, tables_small):
        fs = ForbiddenSet.build(500, 2, tables_small)
        a = greedy_avoiding(fs, strategy="first_fit")
        b = greedy_avoiding(fs, strategy="first_fit")
        assert a.elements == b.elements

    def test_random_local_improves_or_matches(self, tables_small):
        fs = ForbiddenSet.build(400, 1, tables_small)
        base = greedy_avoiding(fs, strategy="first_fit")
        better = greedy_avoiding(fs, strategy="random_local", seed=5)
        assert is_avoiding(better.elements, fs)
        assert better.size >= base.size

    def test_random_local_seed_determinism(self, tables_small):
        fs = ForbiddenSet.build(300, 1, tables_small)
        a = greedy_avoiding(fs, strategy="random_local", seed=11)
        b = greedy_avoiding(fs, strategy="random_local", seed=11)
        assert a.elements == b.elements

    @pytest.mark.parametrize(
        "n, d, seed, elements",
        [
            (200, 2, 3, (19, 29, 36, 74, 96, 106, 123, 151, 168, 178, 200)),
            (300, 3, 5, (5, 13, 43, 61, 62, 90, 118, 143, 146, 161, 190, 191, 199,
                         218, 239, 246, 274)),
            (180, 4, 1, (6, 27, 48, 53, 69, 74, 95, 107, 109, 128, 130, 149, 151,
                         170, 172)),
            (400, 1, 5, (20, 40, 45, 65, 89, 96, 130, 139, 180, 214, 229, 253, 264,
                         298, 343, 348, 363, 382, 387, 396)),
        ],
    )
    def test_pinned_random_local(self, tables_small, n, d, seed, elements):
        """Pinned outputs: the random orders and, on the last three, the
        remove-1/add-2 step decide them, so any change in RNG use fails."""
        fs = ForbiddenSet.build(n, d, tables_small)
        assert greedy_avoiding(fs, strategy="random_local", seed=seed).elements == elements

    @staticmethod
    def _oracle_cases():
        """(n, d, seed): 36 seeded draws, n = 1 and 2, an empty forbidden
        set (n = 3, d = 7: 8 and 15 are composite) and a sparse d."""
        rng = np.random.default_rng(1818)
        cases = [(1, 1, 0), (2, 1, 4), (2, 2, 9), (3, 7, 2), (90, 10**9 + 1, 6)]
        for _ in range(36):
            cases.append(
                (int(rng.integers(1, 301)), int(rng.integers(1, 7)), int(rng.integers(0, 1000)))
            )
        return cases

    def test_bitset_search_matches_conflict_counts(self):
        """first_fit and random_local on bitsets equal the per-point
        conflict-count oracles, the seeded draws included."""
        for n, d, seed in self._oracle_cases():
            fs = ForbiddenSet.build(n, d, None)
            assert fs.count() == len(forbidden_diffs_naive(n, d)), (n, d)
            first = greedy_avoiding(fs, strategy="first_fit")
            assert first.elements == tuple(first_fit_naive(n, d)), (n, d)
            local = greedy_avoiding(fs, strategy="random_local", seed=seed)
            assert local.elements == tuple(random_local_naive(n, d, seed)), (n, d, seed)

    def test_unknown_strategy(self, tables_small):
        fs = ForbiddenSet.build(30, 1, tables_small)
        with pytest.raises(DomainError):
            greedy_avoiding(fs, strategy="simulated_annealing")
