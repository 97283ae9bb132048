"""Acceptance suite: thirteen pinned criteria covering arithmetic
identities, oracle equivalences, energy properties, driver soundness, and
output determinism.  Each test prints one ACCEPTANCE line with its measured
numbers; run with -s to see them."""

import json
import math
import time

import numpy as np

from primediff import (
    DensityIncrement,
    DensitySet,
    ForbiddenSet,
    IterationConfig,
    MangoldtWeight,
    StructureFound,
    TorusPoint,
    averaging_projection,
    build_tables,
    certify,
    cli,
    energy_table,
    extract_progression,
    greedy_avoiding,
    is_avoiding,
    lambda_hat_rational,
    major_sup_ratio,
    max_avoiding_exact,
    psi,
    ramanujan,
    run,
    tau,
    tau_closed_form,
    verify_inversion,
)
from primediff.spectral import grid_power

from oracles import (
    avoiding_prefix_optima,
    is_prime_naive,
    mobius_naive,
    window_count_naive,
)

TAGS = {
    "structure_found",
    "small_n",
    "small_alpha",
    "large_d_or_small_alpha",
    "density_increment",
    "budget",
}


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {k} failed: {detail}"


class TestAcceptance:
    def test_01_ramanujan_identity(self):
        """ramanujan(q, 1) equals the Mobius function for every q to 5000."""
        t0 = time.perf_counter()
        worst = max(abs(ramanujan(q, 1) - mobius_naive(q)) for q in range(1, 5001))
        elapsed = time.perf_counter() - t0
        _report(
            1,
            worst <= 1e-9 and elapsed < 5.0,
            f"worst error {worst:.3e}, {elapsed:.2f}s",
        )

    def test_02_tau_dual_route(self):
        """Direct unit sums match the closed form tau = c_q(a) e(m a / q)
        with m = -d^{-1} mod q, across 113400 (a, d, q) triples."""
        worst = 0.0
        cases = 0
        for q in range(1, 61):
            for d in range(1, 61):
                for a in range(0, q + 1):
                    worst = max(worst, abs(tau(a, d, q) - tau_closed_form(a, d, q)))
                    cases += 1
        _report(2, worst <= 1e-9, f"worst error {worst:.3e} over {cases} cases")

    def test_03_character_inversion(self, tables_million):
        """Orthogonality rebuilds every unit class of psi(x; q, a) from the
        character sums, q in 2..50, x in 1e3 and 1e4."""
        t0 = time.perf_counter()
        worst = 0.0
        for q in range(2, 51):
            for x in (1e3, 1e4):
                for a in range(1, q):
                    if math.gcd(a, q) != 1:
                        continue
                    disc = verify_inversion(x, q, a, tables_million)
                    rel = disc / max(1.0, psi(x, q, a))
                    worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        _report(
            3,
            worst <= 1e-6 and elapsed < 30.0,
            f"worst relative discrepancy {worst:.3e}, {elapsed:.2f}s",
        )

    def test_04_transform_identity(self):
        """Character-route rational transforms equal direct evaluation for
        n = 2000, d in {1, 2, 6}, all a/q with q <= 20."""
        n = 2000
        worst = 0.0
        for d in (1, 2, 6):
            weight = MangoldtWeight.build(n, d)
            for q in range(1, 21):
                for a in range(q):
                    direct = weight.hat(TorusPoint.rational(a, q))
                    routed = lambda_hat_rational(n, d, a, q)
                    rel = abs(routed - direct) / max(1.0, abs(direct))
                    worst = max(worst, rel)
        _report(4, worst <= 1e-6, f"worst relative error {worst:.3e}")

    def test_05_pnt_sanity(self):
        """psi(1e6) stays within two percent of 1e6."""
        t0 = time.perf_counter()
        value = psi(1e6, 1, 0)
        elapsed = time.perf_counter() - t0
        err = abs(value / 1e6 - 1.0)
        _report(
            5,
            err <= 0.02 and elapsed < 10.0,
            f"psi(1e6)/1e6 = {value / 1e6:.6f}, {elapsed:.2f}s",
        )

    def test_06_parseval(self):
        """Grid energy equals signal energy on 100 random signals."""
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            length = int(rng.integers(1, 10_001))
            f = rng.normal(size=length)
            rng.integers(1, 50)  # kept: the draws after it are the pinned inputs
            m = length + int(rng.integers(0, length + 8))
            half = grid_power(f, m)
            # the half grid holds k = 0 and, for even M, k = M/2 once
            total = (2 * half.sum() - half[0] - (half[-1] if m % 2 == 0 else 0.0)) / m
            energy = float(np.sum(np.abs(f) ** 2))
            rel = abs(total - energy) / max(1.0, energy)
            worst = max(worst, rel)
        _report(6, worst <= 1e-9, f"worst relative error {worst:.3e}")

    def test_07_major_arc_concentration(self):
        """Normalized major-arc sup of the weight transform is grid-stable
        and stays under the frozen regression bound."""
        # Calibration pre-run (frozen): n = 1e5, d = 1, Q' = 50,
        # Q = 2000 = n / Q' gave 1.197146 at grid factor 8 and 1.199250 at
        # 16; the bound 1.26 leaves five percent headroom over the larger.
        r8 = major_sup_ratio(100_000, 1, 50, 2000, 8)
        r16 = major_sup_ratio(100_000, 1, 50, 2000, 16)
        gap = abs(r8 - r16) / min(r8, r16)
        _report(
            7,
            gap <= 0.10 and max(r8, r16) <= 1.26,
            f"r8 = {r8:.6f}, r16 = {r16:.6f}, gap {gap:.4f}",
        )

    def test_08_energy_closed_form(self):
        """Total normalized balanced energy is (1 - alpha) / alpha."""
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(40, 401))
            k = int(rng.integers(1, n + 1))
            elements = rng.choice(np.arange(1, n + 1), size=k, replace=False)
            A = DensitySet.from_iterable(n, elements)
            table = energy_table(A, 5, max(12, n // 8))
            want = (1 - A.alpha) / A.alpha
            worst = max(worst, abs(table.total - want) / max(1.0, want))
        _report(8, worst <= 1e-6, f"worst relative error {worst:.3e}")

    def test_09_energy_increment(self):
        """Structured sets give a progression beating the density by the
        promised (1 + E/4) factor, recounted independently."""
        rng = np.random.default_rng(9)
        n = 3000
        big_q = n // 8
        met = 0
        for _ in range(20):
            m = int(rng.integers(3, 13))
            k = int(rng.integers(1, 4))
            residues = rng.choice(m, size=k, replace=False)
            elements = [x for x in range(1, n + 1) if x % m in residues]
            A = DensitySet.from_iterable(n, elements)
            table = energy_table(A, 12, big_q)
            best = max(table.rows, key=lambda r: r.energy)
            out = extract_progression(A, best)
            P = out.progression
            count = window_count_naive(A.elements, P.first, P.step, P.length)
            assert count == out.intersection_count
            bound = A.alpha * (1 + out.detail["energy"] / 4.0) * P.length
            assert out.met_guarantee and count >= bound - 1e-9
            met += 1
        _report(9, met == 20, f"{met}/20 structured sets met the guarantee")

    def test_10_averaging_projection(self):
        """Fallback windows keep half the density at length alpha n / (8d),
        on 100 random sets with zero failures."""
        rng = np.random.default_rng(10)
        failures = 0
        for _ in range(100):
            n = int(rng.integers(50, 1001))
            k = int(rng.integers(1, n + 1))
            d = int(rng.integers(1, 7))
            elements = rng.choice(np.arange(1, n + 1), size=k, replace=False)
            A = DensitySet.from_iterable(n, elements)
            out = averaging_projection(A, d)
            P = out.progression
            count = window_count_naive(A.elements, P.first, P.step, P.length)
            ok = (
                out.met_guarantee
                and count == out.intersection_count
                and count >= A.alpha * P.length / 2.0 - 1e-9
                and P.length >= A.alpha * n / (8 * d) - 1e-9
                and P.within(n)
            )
            failures += 0 if ok else 1
        _report(10, failures == 0, f"{failures} failures in 100 cases")

    def test_11_extremal_oracle_equivalence(self):
        """Branch-and-bound equals exhaustive enumeration for every n <= 22
        and d in {1, 2, 3}, and only emits avoiding sets."""
        checked = 0
        for d in (1, 2, 3):
            prefix = avoiding_prefix_optima(22, d)
            for n in range(1, 23):
                fs = ForbiddenSet.build(n, d)
                res = max_avoiding_exact(fs)
                assert res.optimal
                assert res.size == prefix[n], (n, d, res.size, prefix[n])
                assert is_avoiding(res.elements, fs)
                checked += 1
        _report(11, checked == 66, f"{checked} (n, d) pairs match enumeration")

    def test_12_driver_soundness(self):
        """Fuzzed runs stay inside the declared outcome tags, witnesses and
        increments re-verify, and every trace certifies."""
        tables = build_tables(4000)
        config = IterationConfig()
        rng = np.random.default_rng(12)
        witnesses = increments = 0
        for trial in range(1000):
            n = int(rng.integers(32, 1001))
            d = int(rng.integers(1, 5))
            kind = trial % 3
            if kind == 0:
                k = int(rng.integers(1, n + 1))
                elements = rng.choice(np.arange(1, n + 1), size=k, replace=False)
            elif kind == 1:
                m = int(rng.integers(3, 13))
                residues = rng.choice(m, size=int(rng.integers(1, 4)), replace=False)
                elements = [x for x in range(1, n + 1) if x % m in residues] or [1]
            else:
                fs = ForbiddenSet.build(n, d)
                elements = greedy_avoiding(fs, strategy="first_fit").elements or [1]
            trace = run(DensitySet.from_iterable(n, elements), d, config, tables)
            assert trace.terminal in TAGS
            for step in trace.steps:
                assert step.outcome.tag in TAGS
                if isinstance(step.outcome, StructureFound):
                    w = step.outcome
                    assert is_prime_naive(w.p) and w.p == step.d * w.x + 1
                    assert w.lower in step.set_snapshot and w.upper in step.set_snapshot
                    assert w.upper - w.lower == w.x
                    witnesses += 1
                if isinstance(step.outcome, DensityIncrement):
                    inc = step.outcome
                    P = inc.outcome.progression
                    pts = P.first + P.step * np.arange(P.length)
                    count = int(np.isin(pts, np.array(step.set_snapshot)).sum())
                    assert count == inc.new_set.size == inc.outcome.intersection_count
                    increments += 1
            certify(trace, tables)

        # the full interval contains 1 and 2, so step 1 finds p = 2 at once
        trace = run(DensitySet.from_iterable(100, range(1, 101)), 1, config, tables)
        first = trace.steps[0].outcome
        assert first == StructureFound(x=1, p=2, lower=1, upper=2)
        assert trace.terminal == "structure_found"
        _report(
            12,
            True,
            f"1000 runs, {witnesses} witnesses, {increments} increments certified",
        )

    def test_13_determinism(self, tmp_path, capsys):
        """Pinned manifests give byte-identical outputs at 1 and 4 workers."""
        spec_files = [tmp_path / "s1.csv", tmp_path / "s4.csv"]
        base = [
            "spectrum", "--n", "300", "--d", "1", "--q-prime", "5", "--big-q", "20",
            "--timestamp", "T",
        ]
        for path, workers in zip(spec_files, ("1", "4")):
            assert cli.main(base + ["--workers", workers, "--out", str(path)]) == 0
        iter_files = [tmp_path / "t1.jsonl", tmp_path / "t4.jsonl"]
        base = ["iterate", "--greedy", "--n", "400", "--timestamp", "T"]
        for path, workers in zip(iter_files, ("1", "4")):
            assert cli.main(base + ["--workers", workers, "--out", str(path)]) == 0
        capsys.readouterr()
        same_csv = spec_files[0].read_bytes() == spec_files[1].read_bytes()
        same_jsonl = iter_files[0].read_bytes() == iter_files[1].read_bytes()
        manifest_line = spec_files[0].read_text().splitlines()[-1]
        assert json.loads(manifest_line[len("# manifest: ") :])["command"] == "spectrum"
        _report(
            13,
            same_csv and same_jsonl,
            f"csv identical: {same_csv}, jsonl identical: {same_jsonl}",
        )
