"""Tests for forbidden difference sets, avoidance checks, exact
Russian-doll and branch-and-bound search, and greedy heuristics."""

import math

import numpy as np
import pytest

from primediff import arith, avoider, tables
from primediff.arith import TABLE_CAP, is_prime
from primediff.avoider import (
    ForbiddenSet,
    find_forbidden_pair,
    greedy_avoiding,
    is_avoiding,
    max_avoiding_exact,
)
from primediff.errors import DomainError, PreconditionError, ResourceError

from oracles import (
    avoiding_prefix_optima,
    branch_and_bound_rows,
    first_fit_naive,
    forbidden_diffs_naive,
    forbidden_pair_scan,
    is_prime_naive,
    random_local_sampled_naive,
)


def flags(fs):
    """fs.bits, one 0/1 byte per s, as a bool array."""
    return np.frombuffer(fs.bits, dtype=bool)


def bitmap_edge(d, cap=TABLE_CAP):
    """The least n with d (n - 1) + 1 > cap: under the table cap `cap`, the
    first forbidden set past the prime bitmap (at d = 1, past the cap)."""
    return (cap - 1) // d + 2


# a table cap under which the routes cross at sizes a trial-division or
# Miller-Rabin oracle covers in full: the bitmap's bound is then 2^16
SMALL_CAP = 2**16


@pytest.fixture
def small_cap(monkeypatch):
    monkeypatch.setattr(arith, "TABLE_CAP", SMALL_CAP)


class TestForbiddenSet:
    def test_matches_naive_primality(self):
        for d in (1, 2, 3):
            fs = ForbiddenSet.build(300, d)
            want = forbidden_diffs_naive(300, d)
            assert np.flatnonzero(flags(fs)).tolist() == sorted(want)
            assert fs.count() == len(want)

    def test_table_and_direct_paths_agree(self, monkeypatch):
        """The bitmap route and the sieve of the values d s + 1
        (_shifted_primes) give the same immutable bits at n = 2, 3 and on
        both sides of the bitmap's bound, where ForbiddenSet.build passes
        from the first to the second (n = bitmap_edge(d)): the tops
        TABLE_CAP (d = 3 and, at n = TABLE_CAP, d = 1) and TABLE_CAP + 1
        (d = 2) among them.  A top of TABLE_CAP grows the bitmap to it, and
        TABLE_CAP + 1 leaves it as it is."""
        cases = [(TABLE_CAP, 1)]
        for d in (2, 3, 7, 200, 30_000):
            edge = bitmap_edge(d)
            cases += [(n, d) for n in sorted({2, 3, edge - 2, edge - 1, edge, edge + 1})]
        tops = {d * (n - 1) + 1 for n, d in cases}
        assert {TABLE_CAP, TABLE_CAP + 1} <= tops
        for n, d in cases:
            fs = ForbiddenSet.build(n, d)
            assert np.array_equal(flags(fs), tables._shifted_primes(n, d)), (n, d)
            assert type(fs.bits) is bytes
        monkeypatch.setattr(arith, "_bitmap", b"")
        ForbiddenSet.build(bitmap_edge(3) - 1, 3)  # top TABLE_CAP: the bitmap route
        grown = arith._bitmap
        assert len(grown) == TABLE_CAP + 1
        ForbiddenSet.build(bitmap_edge(2), 2)  # top TABLE_CAP + 1: the sieve
        assert arith._bitmap is grown

    def test_prime_bitmap_matches_miller_rabin(self, monkeypatch):
        """The bitmap that psi, producer and certify share grows on demand to
        TABLE_CAP: its first 2^16 entries and the last 2^12 of the grown one
        against is_prime (Miller-Rabin, no sieve), and its prime count
        against pi(4 10^6) = 283,146.  It is immutable bytes, sieved again
        only past its end, and once grown by a large call it serves a later
        small call as it is, forbidden sets included."""
        monkeypatch.setattr(arith, "_bitmap", b"")
        small = arith._prime_bitmap(2**16 - 1)
        assert type(small) is bytes and len(small) == 2**16
        assert np.frombuffer(small, dtype=bool).tolist() == [is_prime(v) for v in range(2**16)]
        assert arith._prime_bitmap(100) is small
        assert len(arith._prime_bitmap(2**16)) == 2**16 + 1  # one past its end: sieved again
        big = arith._prime_bitmap(TABLE_CAP)
        assert type(big) is bytes and len(big) == TABLE_CAP + 1
        assert big[: 2**16] == small
        tail = range(TABLE_CAP + 1 - 2**12, TABLE_CAP + 1)
        assert [big[v] for v in tail] == [is_prime(v) for v in tail]
        assert TABLE_CAP == 4_000_000 and big.count(1) == 283_146
        assert arith._prime_bitmap(2**16) is big
        fs = ForbiddenSet.build(300, 2)
        assert arith._bitmap is big
        assert np.flatnonzero(flags(fs)).tolist() == sorted(forbidden_diffs_naive(300, 2))

    def test_bitmap_bound_matches_the_oracle(self, small_cap):
        """bits against trial division where d (n - 1) + 1 crosses the
        bitmap's bound, at the last n inside it and the first two past it
        for d = 2..5, under a table cap of 2^16 (the tops 2^16 and 2^16 + 1
        wherever d reaches them), at n = 2^16 and d = 1, and at the
        post-increment shape (25, 200) and at (2, 65534)."""
        cases = [(n, d, forbidden_diffs_naive(n, d)) for n, d in ((25, 200), (2, 65534))]
        cases.append((SMALL_CAP, 1, forbidden_diffs_naive(SMALL_CAP, 1)))
        for d in range(2, 6):
            edge = bitmap_edge(d, SMALL_CAP)
            oracle = forbidden_diffs_naive(edge + 1, d)
            cases += [(n, d, {s for s in oracle if s < n}) for n in (edge - 1, edge, edge + 1)]
        for n, d, want in cases:
            assert np.flatnonzero(flags(ForbiddenSet.build(n, d))).tolist() == sorted(want), (n, d)

    def test_sieve_matches_miller_rabin(self, small_cap, monkeypatch):
        """Past the bitmap's bound the values d s + 1 are sieved: under a
        table cap of 2^16 the bits equal is_prime's for d = 2..6 at sizes
        on both sides of the largest n the bitmap covers, down to n = 1, and
        on the Miller-Rabin route, where sqrt(d (n - 1) + 1) exceeds the
        cap.  The sieve runs exactly where the top passes the cap and its
        root does not."""
        # roots 10^7, 1.4 10^7, and the cap + 1 and the cap (the last one sieved)
        cases = [(2, 10**14), (3, 10**14), (2, (SMALL_CAP + 1) ** 2 - 1), (2, (SMALL_CAP + 1) ** 2 - 2)]
        for d in range(2, 7):
            edge = bitmap_edge(d, SMALL_CAP)
            cases += [(n, d) for n in (1, 2, 3, 4, 11, edge - 1, edge, edge + 37)]
        sieved, shifted_primes = [], tables._shifted_primes

        def recorded(n, d):
            sieved.append((n, d))
            return shifted_primes(n, d)

        monkeypatch.setattr(tables, "_shifted_primes", recorded)
        small = [is_prime(v) for v in range(2**17 + 512)]  # each value once, not once per n
        for n, d in cases:
            want = [s > 0 and (small[v] if v < len(small) else is_prime(v))
                    for s, v in enumerate(range(1, d * n + 1, d))]
            assert flags(ForbiddenSet.build(n, d)).tolist() == want, (n, d)
        tops = [(n, d, d * (n - 1) + 1) for n, d in cases]
        assert sieved == [(n, d) for n, d, top in tops
                          if top > SMALL_CAP and math.isqrt(top) <= SMALL_CAP]
        assert (2, (SMALL_CAP + 1) ** 2 - 2) in sieved

    def test_sieve_routes_meet_at_the_prime_count(self):
        """The sieve of the values d s + 1 starts each prime p at -1/d mod p
        from a Fermat power.  At several n, for d in {1, 2, 6, 30, 210} and
        for d on both sides of the number of sieving primes (p <=
        sqrt(d (n - 1) + 1), p not dividing d), _shifted_primes's bits equal
        is_prime's and ForbiddenSet.build's.  At the tops TABLE_CAP and
        TABLE_CAP + 1, where build passes from the bitmap to the sieve, the
        two agree in full and with is_prime on their last 2^10 s."""

        def sieving_primes(n, d):
            return sum(d % p != 0 for p in range(2, math.isqrt(d * (n - 1) + 1) + 1)
                       if is_prime(p))

        cases = []
        for n in (10, 100, 1000, 3000):
            past = next(d for d in range(1, 10**4) if d > sieving_primes(n, d))
            cases += [(n, d) for d in (1, 2, 6, 30, 210, past - 2, past - 1, past, past + 1) if d]
        for n, d in cases:
            want = [s > 0 and is_prime(d * s + 1) for s in range(n)]
            assert tables._shifted_primes(n, d).tolist() == want, (n, d)
            assert flags(ForbiddenSet.build(n, d)).tolist() == want, (n, d)
        for n, d in ((bitmap_edge(3) - 1, 3), (bitmap_edge(2), 2)):  # TABLE_CAP, TABLE_CAP + 1
            sieved = tables._shifted_primes(n, d)
            assert np.array_equal(flags(ForbiddenSet.build(n, d)), sieved), (n, d)
            tail = range(n - 2**10, n)
            assert sieved[tail.start :].tolist() == [is_prime(d * s + 1) for s in tail], (n, d)

    def test_table_budget(self):
        """Past TABLE_CAP the difference array is refused before it is built."""
        with pytest.raises(ResourceError, match="forbidden set limited"):
            ForbiddenSet.build(TABLE_CAP + 1, 1)

    def test_small_universe(self):
        fs = ForbiddenSet.build(1, 1)
        assert fs.count() == 0

    @pytest.mark.parametrize("n, d", [(0, 1), (5, 0), (5, -1)])
    def test_n_or_d_below_one_is_refused(self, n, d):
        with pytest.raises(DomainError, match=f"^need n, d >= 1, got n={n}, d={d}$"):
            ForbiddenSet.build(n, d)


class TestAvoidanceChecks:
    def test_pair_is_genuine(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            n = int(rng.integers(5, 200))
            d = int(rng.integers(1, 4))
            fs = ForbiddenSet.build(n, d)
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

    def test_smallest_difference_reported(self):
        fs = ForbiddenSet.build(30, 1)
        # differences 1 (-> 2 prime) and 4 (-> 5 prime) both present
        s, lower, upper = find_forbidden_pair([3, 4, 8], fs)
        assert s == 1

    def test_element_scan_matches_difference_scan(self):
        """Whichever side find_forbidden_pair loops over, it gives the
        frozen s-ascending scan's pair: on seeded sets sparser and denser
        than the forbidden differences, at n = 1, and with no forbidden s."""
        rng = np.random.default_rng(1807)
        cases = [([1], ForbiddenSet.build(1, 1)), ([1, 2, 3], ForbiddenSet.build(3, 7))]
        for _ in range(60):
            n, d = int(rng.integers(2, 400)), int(rng.integers(1, 5))
            fs = ForbiddenSet.build(n, d)
            for k in {2, 5, fs.count() // 2 + 1, fs.count() + 1, n // 2 + 1, n}:
                k = min(k, n)
                cases.append((rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist(), fs))
        sides = set()
        for elements, fs in cases:
            assert find_forbidden_pair(elements, fs) == forbidden_pair_scan(elements, fs.bits)
            sides.add(len(set(elements)) < fs.count())
        assert sides == {True, False}
        assert ForbiddenSet.build(3, 7).count() == 0

    def test_empty_and_singleton(self):
        fs = ForbiddenSet.build(50, 1)
        assert is_avoiding([], fs)
        assert is_avoiding([17], fs)

    def test_non_integral_element_is_refused(self):
        """2.5 is refused by name, not truncated to a "pair" (2, 2, 4)
        whose smaller end is not in the set; 2.0 is no integer either."""
        fs = ForbiddenSet.build(10, 1)
        for elements, bad in (([2.5, 4], "2.5"), ([4, 2.0], "2.0")):
            with pytest.raises(DomainError, match=f"^element {bad} is not an integer$"):
                find_forbidden_pair(elements, fs)

    def test_negative_element_is_refused(self):
        """-1 is refused by name, not left to a failing bitset; 0 is an
        element like any other."""
        fs = ForbiddenSet.build(10, 1)
        with pytest.raises(DomainError, match="^element -1 is negative$"):
            find_forbidden_pair([-1, 3], fs)
        assert find_forbidden_pair([0, 1], fs) == (1, 0, 1)

    def test_numpy_integers_pass(self):
        """numpy integers, unsorted and repeated, give the pair their
        Python ints give, as Python ints."""
        fs = ForbiddenSet.build(10, 1)
        pair = find_forbidden_pair(np.array([7, 4, 4, 3], dtype=np.int64), fs)
        assert pair == find_forbidden_pair([3, 4, 7], fs) == (1, 3, 4)
        assert all(type(v) is int for v in pair)


class TestExactSearch:
    def test_matches_enumeration_oracle(self):
        for d in (1, 2, 3):
            optima = avoiding_prefix_optima(16, d)
            for n in range(1, 17):
                fs = ForbiddenSet.build(n, d)
                res = max_avoiding_exact(fs)
                assert res.optimal
                assert res.size == optima[n]
                assert is_avoiding(res.elements, fs)
                assert len(res.elements) == res.size

    def test_node_budget_truncates(self):
        fs = ForbiddenSet.build(60, 1)
        full = max_avoiding_exact(fs)
        cut = max_avoiding_exact(fs, node_budget=3)
        assert full.optimal and not cut.optimal
        assert cut.size <= full.size
        assert is_avoiding(cut.elements, fs)

    def test_requires_budget_past_cap(self):
        fs = ForbiddenSet.build(65, 1)
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
    def test_pinned_search(self, n, d, budget, nodes, elements):
        """Node counts and sets pin the doll's branching order; a truncated
        run's set pins the fallback's vertex order, its include branch and
        its greedy incumbent."""
        res = max_avoiding_exact(ForbiddenSet.build(n, d), node_budget=budget)
        assert (res.nodes, res.elements) == (nodes, elements)
        assert res.optimal == (budget is None)

    def test_doll_agrees_with_branch_and_bound(self):
        for d in (1, 2, 3, 4):
            for n in range(1, 65):
                fs = ForbiddenSet.build(n, d)
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
            res = avoider._branch_and_bound(ForbiddenSet.build(n, d), budget)
            got = (res.elements, res.size, res.optimal, res.nodes)
            assert got == branch_and_bound_rows(n, d, budget), (n, d, budget)

    @pytest.mark.parametrize("n, d, optimum", [(128, 1, 12), (200, 2, 12), (160, 4, 15)])
    def test_frontier_proven(self, n, d, optimum):
        """Optima branch-and-bound alone does not prove within 3M nodes."""
        res = max_avoiding_exact(ForbiddenSet.build(n, d), node_budget=3_000_000)
        assert res.optimal and res.size == optimum

    def test_node_guard(self):
        """The benchmark's exact case: the doll proves it in under 10,000
        nodes, branch-and-bound alone in 442,089."""
        fs = ForbiddenSet.build(88, 1)
        res = max_avoiding_exact(fs, node_budget=3_000_000)
        assert res.optimal and res.size == 10
        assert res.nodes <= 10_000
        assert avoider._branch_and_bound(fs, None).nodes == 442_089

    def test_truncated_run_is_the_fallback(self):
        """An exhausted budget spends budget + 1 nodes in the doll, then
        returns branch-and-bound's set under the same budget."""
        fs = ForbiddenSet.build(120, 3)
        res = max_avoiding_exact(fs, node_budget=300)
        bnb = avoider._branch_and_bound(fs, 300)
        assert not res.optimal and not bnb.optimal
        assert res.elements == bnb.elements and res.size == bnb.size
        assert res.nodes == 301 + bnb.nodes

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one(self, budget):
        with pytest.raises(DomainError, match="node budget"):
            max_avoiding_exact(ForbiddenSet.build(20, 1), node_budget=budget)

    def test_budget_of_one_is_accepted(self):
        fs = ForbiddenSet.build(20, 1)
        res = max_avoiding_exact(fs, node_budget=1)
        assert not res.optimal and is_avoiding(res.elements, fs)


class TestGreedy:
    def test_first_fit_small_case(self):
        # forbidden diffs for d=1 start 1, 2, 4, 6, 10, 12; the ascending
        # scan keeps 1, then the next allowed gaps
        fs = ForbiddenSet.build(12, 1)
        res = greedy_avoiding(fs, strategy="first_fit")
        assert res.elements[0] == 1
        assert is_avoiding(res.elements, fs)
        assert not res.optimal

    def test_first_fit_matches_naive_scan(self):
        rng = np.random.default_rng(404)
        for _ in range(12):
            n = int(rng.integers(1, 401))
            d = int(rng.integers(1, 5))
            want = tuple(first_fit_naive(n, d))
            fs = ForbiddenSet.build(n, d)
            assert greedy_avoiding(fs, strategy="first_fit").elements == want

    def test_first_fit_deterministic(self):
        fs = ForbiddenSet.build(500, 2)
        a = greedy_avoiding(fs, strategy="first_fit")
        b = greedy_avoiding(fs, strategy="first_fit")
        assert a.elements == b.elements

    def test_random_local_improves_or_matches(self):
        fs = ForbiddenSet.build(400, 1)
        base = greedy_avoiding(fs, strategy="first_fit")
        better = greedy_avoiding(fs, strategy="random_local", seed=5)
        assert is_avoiding(better.elements, fs)
        assert better.size >= base.size

    def test_random_local_seed_determinism(self):
        fs = ForbiddenSet.build(300, 1)
        a = greedy_avoiding(fs, strategy="random_local", seed=11)
        b = greedy_avoiding(fs, strategy="random_local", seed=11)
        assert a.elements == b.elements

    @pytest.mark.parametrize(
        "n, d, seed, elements",
        [
            (200, 2, 3, (4, 17, 49, 62, 104, 111, 121, 149, 153, 166)),
            (300, 3, 5, (1, 2, 9, 10, 17, 18, 57, 58, 115, 116, 177, 178, 235, 236)),
            (180, 4, 1, (10, 15, 21, 29, 50, 71, 76, 92, 106, 111, 132, 153, 167, 172)),
            (400, 1, 5, (4, 9, 29, 48, 72, 77, 80, 85, 161, 164, 169, 212, 245, 253,
                         256, 329, 332, 337, 346, 363, 366, 380)),
            (300, 3, 9, (4, 51, 52, 59, 82, 89, 100, 107, 182, 189, 200, 207, 230, 237,
                         238, 245, 268, 285)),
        ],
    )
    def test_pinned_random_local(self, n, d, seed, elements):
        """Pinned outputs, which random_local_sampled_naive gives too: a
        random fill beats first fit and the remove-1/add-2 step then grows
        it, except at (300, 3, 5), where no fill beats first fit and no
        removal frees two points, so any change in RNG use fails."""
        fs = ForbiddenSet.build(n, d)
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
        conflict-count oracles, the seeded draws of random.Random included."""
        for n, d, seed in self._oracle_cases():
            fs = ForbiddenSet.build(n, d)
            assert fs.count() == len(forbidden_diffs_naive(n, d)), (n, d)
            first = greedy_avoiding(fs, strategy="first_fit")
            assert first.elements == tuple(first_fit_naive(n, d)), (n, d)
            local = greedy_avoiding(fs, strategy="random_local", seed=seed)
            assert local.elements == tuple(random_local_sampled_naive(n, d, seed)), (n, d, seed)

    def test_negative_seed_is_refused(self):
        """random.Random would read a negative seed as its absolute value:
        greedy_avoiding refuses it before any draw."""
        fs = ForbiddenSet.build(50, 1)
        with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
            greedy_avoiding(fs, strategy="random_local", seed=-1)
        with pytest.raises(TypeError):
            greedy_avoiding(fs, strategy="random_local", seed=1.5)
        big = greedy_avoiding(fs, strategy="random_local", seed=np.uint64(2**64 - 1))
        assert big.elements == tuple(random_local_sampled_naive(50, 1, 2**64 - 1))

    def test_select_matches_the_set_bits(self):
        """_select(bits, r) is the r-th set bit, ascending, as a list of the
        set bits read off bin() gives it: for single bits, bits at the
        edges of CPython's 30-bit digits and of the 64-bit window, and
        seeded random ints of up to 10^5 bits, sparse to dense."""
        cases = [1 << k for k in (0, 1, 29, 30, 31, 59, 60, 63, 64, 65, 1000)]
        edges = sum(1 << (30 * k + j) for k in range(1, 9) for j in (-1, 0))
        cases += [edges, edges | 1, (1 << 129) - 1, (1 << 64) | 1, (1 << 65) - 2]
        rng = np.random.default_rng(2107)
        for density in (0.001, 0.05, 0.5, 0.99) * 10:
            flags = rng.random(int(rng.integers(1, 100_001))) < density
            cases.append(int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little"))
        for bits in filter(None, cases):
            members = [i for i, c in enumerate(bin(bits)[:1:-1]) if c == "1"]
            ranks = {0, len(members) - 1, *rng.integers(0, len(members), 100).tolist()}
            for r in sorted(ranks) if len(members) > 200 else range(len(members)):
                assert avoider._select(bits, r) == members[r], (bits.bit_length(), r)

    def test_unknown_strategy(self):
        fs = ForbiddenSet.build(30, 1)
        with pytest.raises(DomainError):
            greedy_avoiding(fs, strategy="simulated_annealing")


class TestNonAvoidingInvariant:
    """Fault injection: with avoider._pair_in_mask, the pair search each
    search runs on the bitset of its own result, made to find a pair in
    every set, each search raises rather than return it."""

    @pytest.fixture(autouse=True)
    def refuse_every_set(self, monkeypatch):
        monkeypatch.setattr(avoider, "_pair_in_mask", lambda mask, members, fs: (1, 1, 2))

    def test_exact_doll(self):
        """Unbudgeted, the doll finishes and branch-and-bound never runs."""
        with pytest.raises(PreconditionError, match="^search produced a non-avoiding set"):
            max_avoiding_exact(ForbiddenSet.build(20, 1))

    def test_branch_and_bound_after_an_exhausted_budget(self):
        """Three nodes exhaust the doll's budget, so the set checked is
        branch-and-bound's."""
        with pytest.raises(PreconditionError, match="^search produced a non-avoiding set"):
            max_avoiding_exact(ForbiddenSet.build(60, 1), node_budget=3)

    def test_random_local(self):
        fs = ForbiddenSet.build(100, 1)
        with pytest.raises(PreconditionError, match="^greedy produced a non-avoiding set"):
            greedy_avoiding(fs, strategy="random_local", seed=1)
