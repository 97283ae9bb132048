"""Tests for the iteration driver: config plumbing, case analysis,
traces, independent certification and its difference counts."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from primediff import driver, energy, increment, spectral
from primediff.driver import (
    Budget,
    DensityIncrement,
    IterationConfig,
    LargeDOrSmallAlpha,
    SmallAlpha,
    SmallN,
    StructureFound,
    Trace,
    TraceStep,
    certify,
    iterate_once,
    run,
    trace_to_jsonl,
)
from primediff.avoider import ForbiddenSet, greedy_avoiding
from primediff.errors import CertificationError, DomainError, ResourceError
from primediff.energy import EnergyTable, _correlations, _recount_energy, energy_table
from primediff.increment import DensitySet

from oracles import inner_products_naive, is_prime_naive


def avoiding_set(n, d):
    fs = ForbiddenSet.build(n, d)
    res = greedy_avoiding(fs, strategy="first_fit")
    return DensitySet.from_iterable(n, res.elements)


def class_avoiding_set(n):
    """First fit over 1, 4, 7, ... in [1, n] against the differences s with
    s + 1 prime: sparse, and structured mod 3."""
    fs = ForbiddenSet.build(n, 1)
    taken, blocked = [], np.zeros(2 * n + 1, dtype=bool)
    diffs = np.flatnonzero(np.frombuffer(fs.bits, dtype=bool))
    for x in range(1, n + 1, 3):
        if not blocked[x]:
            taken.append(x)
            blocked[x + diffs] = True
    return DensitySet.from_iterable(n, taken)


class TestIterationConfig:
    def test_defaults_valid(self):
        cfg = IterationConfig()
        assert cfg.c == 0.25

    def test_validation(self):
        with pytest.raises(DomainError):
            IterationConfig(c=-1.0)
        with pytest.raises(DomainError):
            IterationConfig(grid_factor=4)
        with pytest.raises(DomainError):
            IterationConfig(d_ceiling_exponent=1.5)
        for bad in ({"max_steps": 0}, {"n_floor": 1}, {"q_cap": 0}):
            with pytest.raises(DomainError, match="max_steps, n_floor, q_cap out of range"):
                IterationConfig(**bad)
        for name in ("c", "alpha_floor", "d_ceiling_exponent"):
            for value in (math.nan, math.inf):
                with pytest.raises(DomainError):
                    IterationConfig(**{name: value})

    def test_replace_runs_the_checks(self):
        """_replace refuses what the constructor refuses, and keeps the
        other fields."""
        for bad in ({"grid_factor": 4}, {"c": math.nan}, {"max_steps": 0},
                    {"d_ceiling_exponent": 1.5}):
            with pytest.raises(DomainError):
                IterationConfig()._replace(**bad)
        assert IterationConfig()._replace(max_steps=5) == IterationConfig(max_steps=5)

    def test_derived_quantities(self):
        cfg = IterationConfig(c=0.25, c_prime=2000.0, q_cap=50)
        assert cfg.n_prime(3000, 0.006) == 4
        assert cfg.level_cutoff(3000, 1, 0.006) == max(
            1, min(50, int(math.log(3000) ** 8 / (2000.0**2 * 0.006**2)))
        )
        assert cfg.dissection_q(4, 3) == max(math.ceil(4 / 3), 6)
        assert 1 <= cfg.extraction_cap(0.5) <= 50
        assert cfg.d_ceiling(10_000) == 10.0
        # the least 5-smooth size >= grid_factor N: 8 N at N = 1000, and
        # 8 * 499,979 = 3,999,832 rounds up to the cap, 2^8 5^6
        assert cfg.grid_size(1000) == 8000
        assert IterationConfig().grid_size(499_979) == 4_000_000

    def test_tag_set(self):
        tags = {
            StructureFound.tag,
            SmallN.tag,
            SmallAlpha.tag,
            LargeDOrSmallAlpha.tag,
            DensityIncrement.tag,
            Budget.tag,
        }
        assert tags == {
            "structure_found",
            "small_n",
            "small_alpha",
            "large_d_or_small_alpha",
            "density_increment",
            "budget",
        }


class TestIterateOnce:
    def test_interval_structure(self):
        A = DensitySet.from_iterable(100, range(1, 101))
        out, _ = iterate_once(A, 1, IterationConfig())
        assert isinstance(out, StructureFound)
        assert (out.x, out.p) == (1, 2)
        assert out.upper - out.lower == out.x

    def test_witness_is_genuine(self):
        rng = np.random.default_rng(89)
        cfg = IterationConfig()
        for _ in range(60):
            n = int(rng.integers(cfg.n_floor, 400))
            k = int(rng.integers(max(2, n // 4), n + 1))
            A = DensitySet.from_iterable(
                n, rng.choice(np.arange(1, n + 1), size=k, replace=False)
            )
            d = int(rng.integers(1, 4))
            out, _ = iterate_once(A, d, cfg)
            if isinstance(out, StructureFound):
                assert is_prime_naive(out.p)
                assert out.p == d * out.x + 1
                assert out.lower in A.elements and out.upper in A.elements

    def test_small_universe(self):
        A = DensitySet.from_iterable(10, [1, 2])
        out, _ = iterate_once(A, 1, IterationConfig())
        assert isinstance(out, SmallN)

    def test_small_alpha(self):
        A = DensitySet.from_iterable(5000, [1, 3000])
        out, _ = iterate_once(A, 1, IterationConfig())
        assert isinstance(out, SmallAlpha)

    def test_window_collapse(self):
        # alpha above floor but floor(c alpha N) = 0: nothing to correlate on
        A = DensitySet.from_iterable(100, [1, 50])
        out, diag = iterate_once(A, 1, IterationConfig())
        assert isinstance(out, SmallN)
        assert diag["n_prime"] == 0

    def test_d_ceiling(self):
        # the pair scan precedes the ceiling check, so the set must avoid
        # the forbidden differences for this d
        A = avoiding_set(100, 50)
        out, _ = iterate_once(A, 50, IterationConfig())
        assert isinstance(out, LargeDOrSmallAlpha)
        assert "d=50" in out.reason

    def test_avoiding_class_increments(self):
        """A sparse avoiding set still yields a recounted density jump."""
        A = class_avoiding_set(3000)
        out, diag = iterate_once(A, 1, IterationConfig())
        assert isinstance(out, DensityIncrement)
        inc = out.outcome
        assert inc.met_guarantee
        assert inc.new_alpha >= A.alpha * 1.02
        assert out.new_d == out.q
        P = inc.progression
        got = np.isin(np.arange(P.first, P.last() + 1, P.step), A.elements).sum()
        assert got == inc.intersection_count
        assert out.new_set.size == inc.intersection_count

    def test_one_arc_range_pass_per_step(self, monkeypatch):
        """A step that reaches extraction computes the arc ranges once, in
        energy_table: extraction reads its level's E from the table row."""
        calls, arc_ranges = [], spectral.arc_ranges

        def counted(*args):
            calls.append(args)
            return arc_ranges(*args)

        monkeypatch.setattr(energy, "arc_ranges", counted)
        A = class_avoiding_set(3000)
        out, diag = iterate_once(A, 1, IterationConfig())
        assert isinstance(out, DensityIncrement)
        assert len(calls) == 1
        row = diag["energy_table"].rows[out.q - 1]
        assert out.outcome.detail["energy"] == row.energy

    def test_a_refused_level_cutoff_reads_no_phi(self, monkeypatch):
        """Q' is clamped to q_cap, which a config may set to 10^9: the arc
        budget refuses such a Q' before any phi is read."""

        def boom(q):
            raise AssertionError("euler_phi ran")

        monkeypatch.setattr(energy, "_phi", np.zeros(0))
        monkeypatch.setattr(energy, "euler_phi", boom)
        config = IterationConfig(c_prime=1e-300, q_cap=10**9)
        with pytest.raises(ResourceError, match="^Farey arcs limited to a sum of levels q"):
            iterate_once(class_avoiding_set(3000), 1, config)


class TestLevelSelection:
    """iterate_once picks its level from energy_table's columns; a stub
    table fixes the energies, so each rule is seen on its own.  Unless a
    test sets it, every E is 0, below the 0.08 an extraction needs, so the
    step ends naming the level it chose."""

    @staticmethod
    def stubbed(monkeypatch, star_at: dict, energy_at: dict | None = None):
        """Stub energy.energy_table with E* from {q: E*} and E from
        {q: E}, 0 at every other level; returns the tables it built."""
        built = []

        def stub(A, q_top, big_q, m):
            energy, star = np.zeros(q_top), np.zeros(q_top)
            for column, values in ((energy, energy_at or {}), (star, star_at)):
                for q, value in values.items():
                    column[q - 1] = value
            built.append(EnergyTable(energy, star, 0.0, big_q))
            return built[-1]

        monkeypatch.setattr(energy, "energy_table", stub)
        return built

    @pytest.fixture
    def sparse_set(self):
        A = class_avoiding_set(600)
        _, diag = iterate_once(A, 1, IterationConfig())
        assert diag["q_prime"] == diag["q_double"] == 50  # every level is admissible
        return A

    def test_tied_ratios_pick_the_lower_level(self, sparse_set, monkeypatch):
        """E*/phi(q) ties between q = 3 (phi 2) and q = 2 (phi 1), and at a
        higher value between q = 7 (phi 6) and q = 4 (phi 2): q = 4 wins."""
        self.stubbed(monkeypatch, {2: 0.5, 3: 1.0, 4: 3.0, 7: 9.0})
        out, diag = iterate_once(sparse_set, 1, IterationConfig())
        assert out.reason == "energy 0 below 0.08 at level q=4"
        assert diag["trigger"] == 0.5 + 0.5 + 1.5 + 1.5
        self.stubbed(monkeypatch, {2: 0.5, 3: 1.0})
        out, _ = iterate_once(sparse_set, 1, IterationConfig())
        assert out.reason == "energy 0 below 0.08 at level q=2"

    def test_no_positive_star_energy(self, sparse_set, monkeypatch):
        self.stubbed(monkeypatch, {1: -1.0, 5: -1e-300, 50: -0.0})
        out, diag = iterate_once(sparse_set, 1, IterationConfig())
        assert out == LargeDOrSmallAlpha("no positive star energy at admissible levels")
        assert "energy_table" in diag

    def test_energy_top_keeps_ascending_q_among_ties(self, sparse_set, tables_small, monkeypatch):
        self.stubbed(monkeypatch, {9: 0.5, 2: 0.5, 40: 0.9, 4: 0.5})
        trace = run(sparse_set, 1, IterationConfig(), tables_small)
        assert trace.steps[0].energy_top == ((40, 0.9), (2, 0.5), (4, 0.5))
        self.stubbed(monkeypatch, {})
        trace = run(sparse_set, 1, IterationConfig(), tables_small)
        assert trace.steps[0].energy_top == ((1, 0.0), (2, 0.0), (3, 0.0))

    def test_shortfall_ends_the_step_before_extraction(self, sparse_set, monkeypatch):
        """E below 4 gain_threshold at the chosen level ends the step with
        the measured E, the required 0.08 and the level, and extraction
        never runs; the next float below 0.08 is enough to stop."""

        def boom(*args, **kwargs):
            raise AssertionError("extraction ran on a shortfall")

        monkeypatch.setattr(energy, "extract_progression", boom)
        self.stubbed(monkeypatch, {6: 1.0}, {6: math.nextafter(0.08, 0.0)})
        out, diag = iterate_once(sparse_set, 1, IterationConfig())
        assert out == LargeDOrSmallAlpha("energy 0.08 below 0.08 at level q=6")
        assert "energy_table" in diag

    def test_weak_extraction_ends_the_step(self, sparse_set, monkeypatch):
        """An extraction that misses its guarantee, or meets it short of the
        gain threshold, ends the step naming the level and the alpha ratio
        it reached.  No measured input reaches this stop, so a stub
        extract_progression returns the outcome.  E sits exactly on the
        0.08 an extraction needs, which is enough to try."""
        self.stubbed(monkeypatch, {6: 1.0}, {6: 0.08})
        alpha = sparse_set.alpha
        for met, new_alpha in [(False, 2 * alpha), (True, alpha)]:
            seen = []

            def weak(A, row, c_len):
                seen.append((row.q, row.energy, c_len))
                return increment.IncrementOutcome(
                    increment.Progression(1, row.q, 10), 1, new_alpha, met
                )

            monkeypatch.setattr(energy, "extract_progression", weak)
            out, diag = iterate_once(sparse_set, 1, IterationConfig())
            assert seen == [(6, 0.08, IterationConfig().c_len)]
            assert out.tag == "large_d_or_small_alpha"
            assert out.reason == (
                f"extraction at q=6 reached alpha ratio {new_alpha / alpha:.4g}, below guarantee"
            )
            assert sorted(diag) == sorted(
                ["n_prime", "q_prime", "big_q", "q_double", "trigger", "energy_table"]
            )

    def test_rows_of_the_stub_table(self, sparse_set, monkeypatch):
        built = self.stubbed(monkeypatch, {3: 0.25, 8: 2.0})
        iterate_once(sparse_set, 1, IterationConfig())
        (table,) = built
        for q in range(1, 51):
            want = (q, 1 / (q * table.big_q), table.energy[q - 1], table.star_energy[q - 1])
            assert table.rows[q - 1] == want
        assert table.rows[7] == (8, 1 / (8 * table.big_q), 0.0, 2.0)


class TestRun:
    def test_interval_one_step(self, tables_small):
        A = DensitySet.from_iterable(100, range(1, 101))
        trace = run(A, 1, IterationConfig(), tables_small)
        assert trace.terminal == "structure_found"
        assert len(trace.steps) == 1
        assert trace.steps[0].step == 1

    def test_avoiding_chain_terminates(self, tables_small):
        A = avoiding_set(400, 1)
        trace = run(A, 1, IterationConfig(), tables_small)
        assert trace.terminal in {
            "structure_found",
            "small_n",
            "small_alpha",
            "large_d_or_small_alpha",
            "budget",
        }
        for i, s in enumerate(trace.steps):
            assert s.step == i + 1
        # d multiplies by q at each increment step
        for prev, nxt in zip(trace.steps, trace.steps[1:]):
            if prev.outcome.tag == "density_increment":
                assert nxt.d == prev.d * prev.outcome.q

    def test_budget_terminal(self, tables_small):
        A = avoiding_set(600, 1)
        cfg = IterationConfig(max_steps=1)
        trace = run(A, 1, cfg, tables_small)
        if trace.steps[0].outcome.tag == "density_increment":
            assert trace.terminal == "budget"


class TestTraceJsonl:
    def test_records_parse(self, tables_small):
        A = avoiding_set(400, 1)
        trace = run(A, 1, IterationConfig(), tables_small)
        lines = trace_to_jsonl(trace, manifest={"command": "t"})
        header = json.loads(lines[0])
        assert header["record"] == "header"
        assert header["manifest"] == {"command": "t"}
        assert header["config"]["c"] == 0.25
        assert len(lines) == len(trace.steps) + 1
        for line, step in zip(lines[1:], trace.steps):
            rec = json.loads(line)
            assert rec["step"] == step.step
            assert rec["outcome"] == step.outcome.tag

    def test_header_is_one_sorted_encoding(self, tables_small):
        """The header line, whose config is encoded once per config, equals
        json.dumps of the whole header with sorted keys, for a config other
        than the default and a manifest, and again without the manifest."""
        cfg = IterationConfig(c=0.3, c_prime=1500.0, max_steps=5, q_cap=40)
        trace = run(avoiding_set(400, 1), 1, cfg, tables_small)
        manifest = {"command": "iterate", "parameters": {"n": 400, "z": [1.5, None]}}
        header = {
            "record": "header",
            "initial_n": 400,
            "initial_d": 1,
            "terminal": trace.terminal,
            "config": cfg._asdict(),
        }
        assert trace_to_jsonl(trace)[0] == json.dumps(header, sort_keys=True)
        header["manifest"] = manifest
        assert trace_to_jsonl(trace, manifest)[0] == json.dumps(header, sort_keys=True)

    def test_witness_fields(self, tables_small):
        A = DensitySet.from_iterable(100, range(1, 101))
        trace = run(A, 1, IterationConfig(), tables_small)
        rec = json.loads(trace_to_jsonl(trace)[1])
        assert rec["witness"] == {"x": 1, "p": 2, "lower": 1, "upper": 2}


def _driver_inputs(count=60, seed=2026):
    """(n, d, elements) with n in [32, 400], d in [1, 4]: random subsets,
    unions of residue classes and first-fit avoiding sets in turn."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, d = int(rng.integers(32, 401)), int(rng.integers(1, 5))
        if i % 3 == 0:
            elements = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) + 1
        elif i % 3 == 1:
            m = int(rng.integers(3, 13))
            residues = rng.choice(m, size=int(rng.integers(1, 4)), replace=False)
            elements = [x for x in range(1, n + 1) if x % m in residues] or [1]
        else:
            elements = greedy_avoiding(ForbiddenSet.build(n, d)).elements
        yield n, d, elements


def test_trace_digest_is_pinned(tables_small):
    """SHA-256 of the traces and certification lines of 60 seeded inputs:
    energies, chosen levels and progressions stay bit-for-bit the same.
    Re-pinned when the driver grid became the least 5-smooth size >= 8N
    (IterationConfig.grid_size): at the N whose 8N has a prime factor
    above 5 the quadrature grid moved, and the energies with it."""
    h = hashlib.sha256()
    for n, d, elements in _driver_inputs():
        trace = run(DensitySet.from_iterable(n, elements), d, IterationConfig(), tables_small)
        for line in trace_to_jsonl(trace) + certify(trace, tables_small):
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == "a55f9d3eee2fa8c0453e5baf4b19ac62e81146154b194b39640313114a829a4a"


def test_phi_is_computed_once_per_level(monkeypatch):
    """Steps read phi(1..Q') from one column that grows to the most levels
    a step asks for: over the 60 seeded inputs euler_phi runs at most once
    per level of the largest energy table, not once per level per step."""
    phis, tops = [], []
    phi, table = energy.euler_phi, energy.energy_table

    def counted_phi(q):
        phis.append(q)
        return phi(q)

    def counted_table(A, q_top, *args):
        tops.append(q_top)
        return table(A, q_top, *args)

    monkeypatch.setattr(energy, "_phi", np.zeros(0))
    monkeypatch.setattr(energy, "euler_phi", counted_phi)
    monkeypatch.setattr(energy, "energy_table", counted_table)
    for n, d, elements in _driver_inputs():
        run(DensitySet.from_iterable(n, elements), d, IterationConfig())
    assert len(tops) > 1 and len(phis) <= max(tops)
    column = energy._phi
    energy._phi_column(max(tops))
    assert energy._phi is column  # long enough: read, not rebuilt


class TestCertify:
    def _tampered(self, trace, **changes):
        step = trace.steps[0]
        bad_step = step._replace(**changes)
        return trace._replace(steps=[bad_step] + trace.steps[1:])

    def test_passes_on_real_traces(self, tables_small):
        for build in (
            lambda: DensitySet.from_iterable(100, range(1, 101)),
            lambda: avoiding_set(400, 1),
            lambda: DensitySet.from_iterable(20, [1, 5]),
        ):
            trace = run(build(), 1, IterationConfig(), tables_small)
            lines = certify(trace, tables_small)
            assert lines[-1].startswith("terminal:")

    def test_detects_alpha_tampering(self, tables_small):
        trace = run(DensitySet.from_iterable(100, range(1, 101)), 1, IterationConfig(), tables_small)
        bad = self._tampered(trace, alpha=0.5)
        with pytest.raises(CertificationError):
            certify(bad, tables_small)

    def test_detects_witness_tampering(self, tables_small):
        trace = run(DensitySet.from_iterable(100, range(1, 101)), 1, IterationConfig(), tables_small)
        fake = StructureFound(x=3, p=4, lower=1, upper=4)
        bad = self._tampered(trace, outcome=fake)
        with pytest.raises(CertificationError):
            certify(bad, tables_small)

    def test_detects_count_tampering(self, tables_small):
        A = avoiding_set(400, 1)
        trace = run(A, 1, IterationConfig(), tables_small)
        for i, s in enumerate(trace.steps):
            if s.outcome.tag != "density_increment":
                continue
            inc = s.outcome.outcome._replace(
                intersection_count=s.outcome.outcome.intersection_count + 1,
            )
            bad_out = s.outcome._replace(outcome=inc)
            bad_step = s._replace(outcome=bad_out)
            bad = trace._replace(steps=trace.steps[:i] + [bad_step] + trace.steps[i + 1 :])
            with pytest.raises(CertificationError):
                certify(bad, tables_small)
            return
        pytest.skip("no increment step in this trace")

    def _first_increment(self, trace):
        return next(i for i, s in enumerate(trace.steps) if s.outcome.tag == "density_increment")

    @pytest.mark.parametrize("shift", [1e-6, -1e-6, 0.5])
    def test_detects_energy_tampering(self, shift, tables_small):
        """An increment step whose recorded E moves past the tolerance
        1e-9 max(1, E) fails the recount."""
        trace = run(class_avoiding_set(3000), 1, IterationConfig(), tables_small)
        i = self._first_increment(trace)
        s = trace.steps[i]
        energy = s.outcome.outcome.detail["energy"]
        detail = {**s.outcome.outcome.detail, "energy": energy + shift * max(1.0, energy)}
        inc = s.outcome.outcome._replace(detail=detail)
        bad_step = s._replace(outcome=s.outcome._replace(outcome=inc))
        bad = trace._replace(steps=trace.steps[:i] + [bad_step] + trace.steps[i + 1 :])
        with pytest.raises(CertificationError, match=f"step {s.step}: energy recount"):
            certify(bad, tables_small)

    @pytest.mark.parametrize(
        "build",
        [lambda: class_avoiding_set(3000), lambda: avoiding_set(400, 1)],
        ids=["class_avoiding_3000", "avoiding_400"],
    )
    def test_rejects_a_wrong_grid_power(self, build, tables_small, monkeypatch):
        """A producer whose grid power is 1.5 times too large records wrong
        energies; the recount reads no power grid, so it rejects them."""
        real = spectral.grid_power

        def inflated(f, m):
            return 1.5 * real(f, m)

        monkeypatch.setattr(energy, "grid_power", inflated)
        trace = run(build(), 1, IterationConfig(), tables_small)
        assert any(s.outcome.tag == "density_increment" for s in trace.steps)
        with pytest.raises(CertificationError, match="energy recount"):
            certify(trace, tables_small)

    def test_recount_shares_no_spectral_primitive(self, tables_small, monkeypatch):
        """certify passes a good trace with the producer's grid transform,
        arc ranges and level sums all made to raise; the producer reads
        them from energy at call time, so the same patches stop a run."""
        A = class_avoiding_set(3000)
        trace = run(A, 1, IterationConfig(), tables_small)

        def boom(*args, **kwargs):
            raise AssertionError("certify called a producer primitive")

        for name in ("grid_power", "arc_ranges", "_level_energies"):
            for module in (spectral, energy):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, boom)
        with pytest.raises(AssertionError, match="producer primitive"):
            run(A, 1, IterationConfig(), tables_small)
        lines = certify(trace, tables_small)
        assert any("density_increment ok" in line for line in lines)
        assert lines[-1] == f"terminal: {trace.terminal} ok"

    @pytest.mark.parametrize(
        "n, d, tag", [(423, 1, "density_increment"), (100, 4, "large_d_or_small_alpha")]
    )
    def test_rejects_a_set_that_does_not_avoid(self, n, d, tag, tables_small, monkeypatch):
        """A producer whose pair search finds nothing (stubbed here) goes on
        past it with a set that realizes a forbidden difference; certify
        searches the snapshot itself, on a forbidden set built without the
        producer's tables, and rejects the step."""
        rng = np.random.default_rng(0)
        A = DensitySet.from_iterable(n, rng.choice(n, size=n // 3, replace=False) + 1)
        with monkeypatch.context() as patched:
            patched.setattr(driver, "_pair_in_mask", lambda mask, members, fs: None)
            trace = run(A, d, IterationConfig(), tables_small)
        assert trace.steps[0].outcome.tag == tag
        with pytest.raises(CertificationError, match=f"step 1: {tag} but .* is forbidden"):
            certify(trace, tables_small)

    def test_rejects_a_level_above_the_extraction_cap(self, tables_small):
        """An increment at q = 4 certifies under the config that chose it,
        and fails under one whose extraction cap Q'' = 1/(c''^2 alpha^2)
        clamps to 1: no run of that config could pick level 4.  (N = 120,
        so the grid is 8N = 960 = 2^6 3 5 itself.)"""
        trace = run(avoiding_set(120, 2), 2, IterationConfig(), tables_small)
        assert trace.steps[0].q == 4
        certify(trace, tables_small)
        capped = trace.config._replace(c_double_prime=1000.0)
        assert capped.extraction_cap(trace.steps[0].alpha) == 1
        with pytest.raises(CertificationError, match="step 1: level q=4 above extraction cap 1"):
            certify(trace._replace(config=capped), tables_small)

    def test_rejects_a_d_ceiling_that_does_not_hold(self, tables_small):
        """{1} in [1, 100] at d = 4 > 100^(1/4) = 3.16 stops at the d
        ceiling and certifies.  With d tampered to 3, or the exponent to
        1/2 (ceiling 10), d no longer passes the ceiling the step states,
        and certify rejects it."""
        trace = run(DensitySet.from_iterable(100, [1]), 4, IterationConfig(), tables_small)
        assert trace.steps[0].outcome.reason == "d=4 above N^0.25 = 3.16"
        assert certify(trace, tables_small)[0] == (
            "step 1: large_d_or_small_alpha ok (d=4 above N^0.25 = 3.16)"
        )
        lowered = trace.config._replace(d_ceiling_exponent=0.5)
        for bad in (self._tampered(trace, d=3), trace._replace(config=lowered)):
            with pytest.raises(CertificationError, match="step 1: reason 'd=4 above"):
                certify(bad, tables_small)

    def test_rejects_a_reason_that_is_not_text(self, tables_small):
        """The d-ceiling step of {1} in [1, 100] at d = 4 with its reason
        replaced by the int 7 is refused as a certification failure, not
        by an AttributeError from reading the reason as text."""
        trace = run(DensitySet.from_iterable(100, [1]), 4, IterationConfig(), tables_small)
        bad = self._tampered(trace, outcome=LargeDOrSmallAlpha(7))
        with pytest.raises(CertificationError, match="^step 1: reason 7 is not text$"):
            certify(bad, tables_small)

    @pytest.mark.parametrize("d", [0, -1])
    def test_rejects_a_step_with_d_below_1(self, d, tables_small):
        trace = run(avoiding_set(120, 2), 2, IterationConfig(), tables_small)
        bad = self._tampered(trace, d=d)
        with pytest.raises(CertificationError, match="step 1: need n, d >= 1"):
            certify(bad, tables_small)

    def test_increment_at_a_prime_n_certifies(self, tables_small, monkeypatch):
        """At N = 997 the producer transforms on fft_size(8 * 997) = 8,000
        = 2^6 5^3 points, not on 7,976 = 8 * 997, and certify recounts on
        the same grid: the step certifies, and its energy is not the 7,976-
        point one."""
        sizes, real = [], spectral.grid_power

        def recorded(f, m):
            sizes.append(m)
            return real(f, m)

        monkeypatch.setattr(energy, "grid_power", recorded)
        A = class_avoiding_set(997)
        trace = run(A, 1, IterationConfig(), tables_small)
        assert sizes == [8000]
        assert certify(trace, tables_small)[0].startswith("step 1: density_increment ok")
        step = trace.steps[0]
        cfg = trace.config
        big_q = cfg.dissection_q(cfg.n_prime(997, A.alpha), cfg.level_cutoff(997, 1, A.alpha))
        e = step.outcome.outcome.detail["energy"]
        assert abs(_recount_energy(A, step.q, 8 * 997, big_q) - e) > 1e-9 * max(1.0, e)

    def test_detects_fabricated_small_n(self, tables_small):
        A = DensitySet.from_iterable(3000, range(1, 3000, 3))
        step = TraceStep(
            step=1,
            n=3000,
            d=1,
            alpha=A.alpha,
            outcome=SmallN(n=3000),
            set_snapshot=tuple(int(x) for x in A.elements),
            energy_top=(),
            q=None,
        )
        bad = Trace(
            steps=[step], terminal="small_n", config=IterationConfig(), initial_n=3000, initial_d=1
        )
        with pytest.raises(CertificationError):
            certify(bad, tables_small)

    @pytest.mark.parametrize(
        "snapshot",
        [(), (1, 1, 2), (1, 2, 3, 3), (2, 1, 3), (0, 1, 2), (1, 2, 101), (1, 2**70)],
        ids=["empty", "duplicate", "duplicate_last", "unsorted", "below_1", "above_n",
             "overflow"],
    )
    def test_rejects_malformed_snapshot(self, snapshot, tables_small):
        """A snapshot that is not a strictly increasing subset of [1, n]
        fails certification; none of it is repaired or escapes as another
        error."""
        trace = run(DensitySet.from_iterable(100, range(1, 101)), 1, IterationConfig(), tables_small)
        bad = self._tampered(trace, set_snapshot=snapshot)
        with pytest.raises(CertificationError, match="step 1: bad snapshot"):
            certify(bad, tables_small)

    def test_detects_step_gap(self, tables_small):
        trace = run(DensitySet.from_iterable(100, range(1, 101)), 1, IterationConfig(), tables_small)
        bad = self._tampered(trace, step=2)
        with pytest.raises(CertificationError):
            certify(bad, tables_small)


class TestCertifyIncrement:
    """One fault per density_increment check, on step 1 of a two-step
    trace (an increment at q = 1 on [1, 3000], then small_n on 25
    points): each tampered field fails that check's own message."""

    @pytest.fixture(scope="class")
    def trace(self):
        trace = run(class_avoiding_set(3000), 1, IterationConfig())
        assert [s.outcome.tag for s in trace.steps] == ["density_increment", "small_n"]
        certify(trace)
        return trace

    @staticmethod
    def with_increment(trace, **changes):
        """trace with step 1's IncrementOutcome fields changed."""
        step = trace.steps[0]
        inc = step.outcome.outcome._replace(**changes)
        out = step.outcome._replace(outcome=inc)
        return trace._replace(steps=[step._replace(outcome=out), trace.steps[1]])

    @staticmethod
    def with_outcome(trace, **changes):
        """trace with step 1's DensityIncrement fields changed."""
        step = trace.steps[0]
        out = step.outcome._replace(**changes)
        return trace._replace(steps=[step._replace(outcome=out), trace.steps[1]])

    @staticmethod
    def with_next(trace, **changes):
        """trace with step 2's fields changed."""
        return trace._replace(steps=[trace.steps[0], trace.steps[1]._replace(**changes)])

    def test_progression_leaves_the_universe(self, trace):
        P = trace.steps[0].outcome.outcome.progression
        bad = self.with_increment(trace, progression=P._replace(first=P.first + 3000))
        with pytest.raises(CertificationError, match=r"step 1: progression leaves \[1, 3000\]"):
            certify(bad)

    def test_progression_step_is_not_the_level(self, trace):
        bad = self.with_outcome(trace, q=2)
        with pytest.raises(CertificationError, match="step 1: progression step != chosen q"):
            certify(bad)

    def test_new_alpha_is_not_the_recount(self, trace):
        new_alpha = trace.steps[0].outcome.outcome.new_alpha
        bad = self.with_increment(trace, new_alpha=new_alpha + 1e-3)
        with pytest.raises(CertificationError, match="step 1: new_alpha inconsistent"):
            certify(bad)

    def test_gain_below_the_threshold(self, trace):
        """A threshold the recorded gain new_alpha / alpha - 1 falls short of."""
        step = trace.steps[0]
        ratio = step.outcome.outcome.new_alpha / step.alpha
        higher = trace.config._replace(gain_threshold=ratio)
        bad = trace._replace(config=higher)
        with pytest.raises(CertificationError, match="step 1: gain below configured threshold"):
            certify(bad)

    def test_d_chain_broken(self, trace):
        bad = self.with_outcome(trace, new_d=2)
        with pytest.raises(CertificationError, match="step 1: d chain broken"):
            certify(bad)

    @pytest.mark.parametrize("field", ["n", "d"])
    def test_next_step_does_not_start_on_the_progression(self, trace, field):
        bad = self.with_next(trace, **{field: getattr(trace.steps[1], field) + 1})
        with pytest.raises(CertificationError, match=r"step 1: next step \(n, d\) mismatch"):
            certify(bad)

    def test_next_snapshot_is_not_the_rescaled_set(self, trace):
        bad = self.with_next(trace, set_snapshot=trace.steps[1].set_snapshot[:-1])
        with pytest.raises(CertificationError, match="step 1: rescaled snapshot mismatch"):
            certify(bad)

    def test_a_faulty_rescale_does_not_certify_itself(self, monkeypatch):
        """A producer whose rescale drops the last element of every rescaled
        set with two or more elements writes a wrong next snapshot.  The
        fault is patched where the producer reads rescale, and stays in
        place while certify runs: certify pulls the snapshot back by its own
        arithmetic, so it rejects the step."""
        real = energy.rescale

        def faulty(A, P):
            rescaled = real(A, P)
            if rescaled.size < 2:
                return rescaled
            return DensitySet(rescaled.n, rescaled.elements[:-1])

        monkeypatch.setattr(energy, "rescale", faulty)
        trace = run(class_avoiding_set(3000), 1, IterationConfig())
        assert trace.steps[0].outcome.tag == "density_increment"
        with pytest.raises(CertificationError, match="step 1: rescaled snapshot mismatch"):
            certify(trace)

    @pytest.mark.parametrize(
        "index, q, message",
        [
            (0, 7, "step 1: recorded q=7, but density_increment chose q=1"),
            (1, 3, "step 2: recorded q=3, but small_n chose no level"),
        ],
        ids=["increment_step", "small_n_step"],
    )
    def test_recorded_q_is_the_increments_level(self, trace, index, q, message):
        """A step's q is its increment's level, and None on any other step."""
        steps = list(trace.steps)
        steps[index] = steps[index]._replace(q=q)
        with pytest.raises(CertificationError, match=f"^{message}$"):
            certify(trace._replace(steps=steps))

    def test_a_trace_ending_on_an_increment_certifies(self):
        """With max_steps = 1 the run stops on its increment: there is no
        next step to compare, and the terminal is budget."""
        trace = run(class_avoiding_set(3000), 1, IterationConfig(max_steps=1))
        assert [s.outcome.tag for s in trace.steps] == ["density_increment"]
        assert trace.terminal == "budget"
        lines = certify(trace)
        assert lines[0].startswith("step 1: density_increment ok")
        assert lines[-1] == "terminal: budget ok"


class TestCertifyOutcome:
    """One fault per check of a structure_found or small_alpha step, each
    failing that check's own message and no check before it."""

    @pytest.fixture(scope="class")
    def found(self):
        """One structure_found step on [1, 100] at d = 1."""
        trace = run(DensitySet.from_iterable(100, range(1, 101)), 1, IterationConfig())
        assert [s.outcome.tag for s in trace.steps] == ["structure_found"]
        return trace

    @pytest.fixture(scope="class")
    def small(self):
        """One small_alpha step: 3 of 10,000 points."""
        trace = run(DensitySet.from_iterable(10_000, [1, 4, 9]), 1, IterationConfig())
        assert [s.outcome.tag for s in trace.steps] == ["small_alpha"]
        return trace

    @pytest.mark.parametrize(
        "witness, message",
        [
            # upper - lower = 3, not x; p = 1 * 2 + 1 is prime and 1, 4 are in the set
            (StructureFound(x=2, p=3, lower=1, upper=4), "witness difference mismatch"),
            # 101 - 99 = x and p = 3 is prime, but 101 lies past [1, 100]
            (StructureFound(x=2, p=3, lower=99, upper=101), "witness endpoints not in set"),
        ],
        ids=["difference", "endpoints"],
    )
    def test_witness_checks(self, found, witness, message):
        bad = found._replace(steps=[found.steps[0]._replace(outcome=witness)])
        with pytest.raises(CertificationError, match=f"^step 1: {message}$"):
            certify(bad)

    @pytest.mark.parametrize("scale", [0.5, 1.0], ids=["above_the_floor", "at_the_floor"])
    def test_small_alpha_below_the_floor(self, small, scale):
        """A floor the step's alpha = 3e-4 reaches or passes: alpha_floor is
        the least density the run goes on at."""
        certify(small)
        floor = small.config._replace(alpha_floor=small.steps[0].alpha * scale)
        with pytest.raises(CertificationError, match="^step 1: SmallAlpha but alpha=0.0003$"):
            certify(small._replace(config=floor))


class TestCertifyRun:
    """The checks on the run as a whole, one fault each."""

    @pytest.fixture(scope="class")
    def found(self):
        """One structure_found step on [1, 100]."""
        return run(DensitySet.from_iterable(100, range(1, 101)), 1, IterationConfig())

    @pytest.fixture(scope="class")
    def increment(self):
        """An increment at q = 4 on 120 points at d = 2, then small_n."""
        trace = run(avoiding_set(120, 2), 2, IterationConfig())
        assert [s.outcome.tag for s in trace.steps] == ["density_increment", "small_n"]
        return trace

    @pytest.mark.parametrize(
        "fixture, kind",
        [("increment", Budget), ("increment", SmallAlpha), ("found", DensityIncrement)],
        ids=["small_n_as_budget", "small_n_as_small_alpha", "structure_as_increment"],
    )
    def test_an_equal_outcome_of_another_kind_is_refused(self, fixture, kind, request):
        """Outcomes are tuples, so SmallN(n) == Budget(n): the last step's
        outcome replaced by one of another kind with the same values
        compares equal to it, and certify refuses it all the same."""
        trace = request.getfixturevalue(fixture)
        last = trace.steps[-1]
        swapped = kind(*last.outcome)
        assert swapped == last.outcome and type(swapped) is not type(last.outcome)
        bad = trace._replace(steps=[*trace.steps[:-1], last._replace(outcome=swapped)])
        with pytest.raises(CertificationError):
            certify(bad)

    def test_refuses_an_empty_trace(self, found):
        with pytest.raises(CertificationError, match="^empty trace$"):
            certify(found._replace(steps=[]))

    def test_no_more_steps_than_max_steps(self, increment):
        """Two steps, the second small_n, certify under max_steps 32 and
        not under 1, where the run would have stopped after its increment."""
        one = increment.config._replace(max_steps=1)
        with pytest.raises(CertificationError, match="^2 steps, past max_steps 1$"):
            certify(increment._replace(config=one))

    @pytest.mark.parametrize("field", ["initial_n", "initial_d"])
    def test_step_1_starts_at_the_initial_n_and_d(self, found, field):
        bad = found._replace(**{field: getattr(found, field) + 1})
        with pytest.raises(CertificationError, match=r"step 1: \(n, d\) = \(100, 1\) != initial"):
            certify(bad)

    def test_only_an_increment_is_followed_by_a_step(self, found):
        again = found.steps[0]._replace(step=2)
        bad = found._replace(steps=[found.steps[0], again])
        with pytest.raises(CertificationError, match="step 1: structure_found is followed by another step"):
            certify(bad)

    @pytest.mark.parametrize("terminal", ["small_alpha", "budget"])
    def test_terminal_is_the_last_steps_tag(self, found, terminal):
        bad = found._replace(terminal=terminal)
        with pytest.raises(
            CertificationError, match=f"terminal '{terminal}' != the last step's 'structure_found'"
        ):
            certify(bad)

    def test_budget_needs_max_steps_increments(self, increment):
        """A run cut after its first increment, 1 of max_steps 32 steps,
        cannot end in budget, nor end on an increment in another tag."""
        for terminal in ("budget", "density_increment"):
            bad = increment._replace(steps=increment.steps[:1], terminal=terminal)
            with pytest.raises(
                CertificationError,
                match=f"terminal '{terminal}' after 1 steps ending on an increment, max_steps 32",
            ):
                certify(bad)

    def test_increment_d_at_most_the_ceiling(self, increment):
        """The step increments at d = 2 on N = 120; under d_ceiling_exponent
        0.1 the ceiling is 120^0.1 = 1.61, so no run could have taken it."""
        certify(increment)
        lowered = increment.config._replace(d_ceiling_exponent=0.1)
        with pytest.raises(
            CertificationError, match=r"step 1: density_increment at d=2 above N\^0.1 = 1.61"
        ):
            certify(increment._replace(config=lowered))


def one_step(n, d, elements, outcome):
    """A one-step trace of outcome on elements in [1, n] at d, under the
    default config, with the terminal its tag."""
    A = DensitySet.from_iterable(n, elements)
    step = TraceStep(step=1, n=n, d=d, alpha=A.alpha, outcome=outcome,
                     set_snapshot=A.elements, energy_top=(), q=None)
    return Trace(steps=[step], terminal=outcome.tag, config=IterationConfig(),
                 initial_n=n, initial_d=d)


class TestCertifyBoundaries:
    """Each comparison in certify at its boundary, where the strict and the
    non-strict form part: the step on the accepting side certifies, the one
    on the refusing side fails that check's own message."""

    @pytest.mark.parametrize("n, size", [(32, 32), (40, 5)], ids=["n_at_the_floor", "window_of_1"])
    def test_small_n_needs_a_small_universe_or_window(self, n, size):
        """n_floor = 32 is the least n a run goes on at, and a window
        N' = floor(alpha N / 4) of 1 the least it correlates on."""
        trace = one_step(n, 1, range(1, size + 1), SmallN(n=n))
        assert trace.config.n_prime(n, trace.steps[0].alpha) >= 1
        with pytest.raises(CertificationError, match=f"^step 1: SmallN but n={n} >= floor 32$"):
            certify(trace)

    @pytest.mark.parametrize("n, size", [(31, 31), (40, 3)], ids=["n_below_the_floor", "window_of_0"])
    def test_small_n_below_the_floor_or_window_certifies(self, n, size):
        lines = certify(one_step(n, 1, range(1, size + 1), SmallN(n=n)))
        assert lines[0] == f"step 1: small_n ok (n={n})"

    def test_unknown_outcome(self):
        """A step whose outcome is no step outcome (budget only ends a run)."""
        with pytest.raises(CertificationError, match=r"^step 1: unknown outcome Budget\(steps=1\)$"):
            certify(one_step(100, 1, [1], Budget(steps=1)))

    def test_d_ceiling_must_be_passed(self):
        """256^(1/4) = 4 exactly: a step stopped at d = 5 is above the
        ceiling, and one at d = 4 is not."""
        reason = "d={} above N^0.25 = 4"
        certify(one_step(256, 5, [1], LargeDOrSmallAlpha(reason.format(5))))
        bad = one_step(256, 4, [1], LargeDOrSmallAlpha(reason.format(4)))
        message = r"^step 1: reason 'd=4 above N\^0.25 = 4', but d=4 and N\^0.25 = 4$"
        with pytest.raises(CertificationError, match=message):
            certify(bad)

    @pytest.fixture(scope="class")
    def increment(self):
        """An increment at q = 4 on 120 points at d = 2 (alpha = 1/15,
        new alpha 1), then small_n."""
        trace = run(avoiding_set(120, 2), 2, IterationConfig())
        assert [s.outcome.tag for s in trace.steps] == ["density_increment", "small_n"]
        assert trace.steps[0].q == 4
        return trace

    def test_level_at_the_extraction_cap_certifies(self, increment):
        """Q'' = 1 / (7^2 / 15^2) = 4.59 clamps to 4: level 4 is at the cap."""
        at_cap = increment.config._replace(c_double_prime=7.0)
        assert at_cap.extraction_cap(increment.steps[0].alpha) == 4
        certify(increment._replace(config=at_cap))

    def test_gain_at_the_threshold_certifies(self, increment):
        """The least float threshold g with alpha (1 + g) - 1e-12 equal to
        the new alpha certifies, and the least past it refuses."""
        step = increment.steps[0]
        alpha, new_alpha = step.alpha, step.outcome.outcome.new_alpha

        def floor(g):
            return alpha * (1.0 + g) - 1e-12

        g = (new_alpha + 1e-12) / alpha - 1.0
        for _ in range(32):
            g = math.nextafter(g, -math.inf)
        assert floor(g) < new_alpha
        while floor(g) < new_alpha:
            g = math.nextafter(g, math.inf)
        assert floor(g) == new_alpha
        past = g
        while floor(past) == new_alpha:
            past = math.nextafter(past, math.inf)
        config = increment.config
        certify(increment._replace(config=config._replace(gain_threshold=g)))
        bad = increment._replace(config=config._replace(gain_threshold=past))
        with pytest.raises(CertificationError, match="^step 1: gain below configured threshold$"):
            certify(bad)

    def test_energy_tolerance_is_inclusive(self, increment, monkeypatch):
        """A recount 1e-9 = 1e-9 max(1, E) from a recorded E = 0 certifies,
        and one float more fails.  No set recounts to exactly that, so the
        recount is stubbed."""
        step = increment.steps[0]
        inc = step.outcome.outcome
        inc = inc._replace(detail={**inc.detail, "energy": 0.0})
        step = step._replace(outcome=step.outcome._replace(outcome=inc))
        trace = increment._replace(steps=[step, *increment.steps[1:]])
        monkeypatch.setattr(energy, "_recount_energy", lambda *args: 1e-9)
        certify(trace)
        past = math.nextafter(1e-9, 1.0)
        monkeypatch.setattr(energy, "_recount_energy", lambda *args: past)
        with pytest.raises(CertificationError, match=f"^step 1: energy recount {past} != recorded 0.0$"):
            certify(trace)


class TestProducerBoundaries:
    """iterate_once's own comparisons at their boundaries, n = n_floor,
    alpha = alpha_floor, d = N^e and a gain of exactly gain_threshold, each
    on the side that goes on and one step past it.  certify, run on the
    same input, accepts each outcome, so producer and certifier meet
    there.  d = 0, one below the least d, is refused."""

    @staticmethod
    def produced(A, config=IterationConfig(), d=1):
        """iterate_once's outcome on A at d, after a run on A takes the
        same first step and certifies."""
        out, _ = iterate_once(A, d, config)
        trace = run(A, d, config)
        assert trace.steps[0].outcome.tag == out.tag
        certify(trace)
        return out

    @pytest.mark.parametrize(
        "n, outcome",
        [(32, StructureFound(x=1, p=2, lower=1, upper=2)), (31, SmallN(n=31))],
        ids=["n_at_the_floor", "n_below_the_floor"],
    )
    def test_n_floor(self, n, outcome):
        """n_floor = 32 is the least n a step goes on at: all of [1, 32]
        shows its pair, all of [1, 31] is too small to look."""
        assert self.produced(DensitySet.from_iterable(n, range(1, n + 1))) == outcome

    @pytest.mark.parametrize(
        "n, outcome",
        [(1000, SmallN(n=1000)), (1001, SmallAlpha(alpha=1 / 1001))],
        ids=["alpha_at_the_floor", "alpha_below_the_floor"],
    )
    def test_alpha_floor(self, n, outcome):
        """One element in [1, 1000] is alpha = 1e-3 = alpha_floor exactly:
        the step goes on, past the pair search, to a window floor(alpha N
        / 4) = 0.  In [1, 1001] it is below the floor."""
        assert self.produced(DensitySet.from_iterable(n, [1])) == outcome

    @pytest.mark.parametrize(
        "d, outcome",
        [(3, SmallN(n=81)), (4, LargeDOrSmallAlpha("d=4 above N^0.25 = 3"))],
        ids=["d_at_the_ceiling", "d_above_the_ceiling"],
    )
    def test_d_ceiling(self, d, outcome):
        """81^(1/4) = 3 exactly: {1} in [1, 81] at d = 3 goes on past the
        ceiling to a window floor(alpha N / 4) = 0, and at d = 4 stops
        there."""
        assert self.produced(DensitySet.from_iterable(81, [1]), d=d) == outcome

    def test_d_below_1_is_refused(self):
        with pytest.raises(DomainError, match="^need d >= 1, got 0$"):
            iterate_once(DensitySet.from_iterable(81, [1]), 0, IterationConfig())

    def test_gain_at_the_threshold(self, monkeypatch):
        """A stub extraction returns the progression [1, 2000] at the chosen
        level q = 1, with 16 of A's 18 elements: new alpha 0.008.  The
        least float g with alpha (1 + g) = 0.008 gives an increment, and
        the least float past it, where the new alpha falls one float short
        of alpha (1 + g), a weak extraction.  4 g = 1.33 stays below E = 7.47 at
        q = 1, so both steps try the extraction."""
        real = energy.extract_progression

        def first_2000(A, row, c_len):
            P = increment.Progression(1, row.q, 2000)
            count = int(np.isin(np.arange(P.first, P.last() + 1, P.step), A.elements).sum())
            return real(A, row, c_len)._replace(
                progression=P, intersection_count=count, new_alpha=count / P.length
            )

        monkeypatch.setattr(energy, "extract_progression", first_2000)
        A = class_avoiding_set(3000)
        alpha, new_alpha = A.alpha, 16 / 2000
        g = new_alpha / alpha - 1.0
        for _ in range(8):
            g = math.nextafter(g, -math.inf)
        while alpha * (1.0 + g) < new_alpha:
            g = math.nextafter(g, math.inf)
        assert alpha * (1.0 + g) == new_alpha
        past = g
        while alpha * (1.0 + past) == new_alpha:
            past = math.nextafter(past, math.inf)
        assert alpha * (1.0 + past) == math.nextafter(new_alpha, math.inf)

        out = self.produced(A, IterationConfig(gain_threshold=g, max_steps=1))
        assert isinstance(out, DensityIncrement)
        assert (out.q, out.outcome.new_alpha) == (1, new_alpha)
        out = self.produced(A, IterationConfig(gain_threshold=past, max_steps=1))
        assert out == LargeDOrSmallAlpha(
            f"extraction at q=1 reached alpha ratio {new_alpha / alpha:.4g}, below guarantee"
        )


class TestEnergyRecount:
    @pytest.mark.parametrize(
        "seed, n, extra, big_q",
        [
            (1, 300, 0, 2),  # even M: neighbouring arcs can share a point
            (2, 301, 1, 2),  # odd M at Q = 2: arcs do not meet
            (3, 64, 5, 2),
            (4, 512, 0, 3),
            (5, 233, 0, 37),
            (6, 600, 7, 90),
            (7, 600, 0, 400),  # w = 12: arcs of high levels hold one point or none
        ],
    )
    def test_matches_the_grid_route(self, seed, n, extra, big_q):
        """_recount_energy against energy_table's rows on the same M-point
        grid, levels 1..50, within 1e-12 max(1, E).  The a = q arc of level q runs past M
        when w = floor(M/Q) >= q: at every level but in the last case."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, n + 1))
        A = DensitySet.from_iterable(n, rng.choice(n, size=size, replace=False) + 1)
        m = 8 * n + extra
        for row in energy_table(A, 50, big_q, m).rows:
            e = row.energy
            assert abs(_recount_energy(A, row.q, m, big_q) - e) <= 1e-12 * max(1.0, e), row.q


    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
    def test_recount_memory_is_linear_in_n(self):
        """The recount at N = 200,000 with |A| = 5,000 counts its 12.5
        million pair differences a block of rows at a time: a fresh
        interpreter peaks below 100 MB resident (about 53 MB measured;
        354 MB with all |A|^2 differences held at once)."""
        child = (
            "import re\n"
            "import numpy as np\n"
            "from primediff.energy import _recount_energy\n"
            "from primediff.increment import DensitySet\n"
            "rng = np.random.default_rng(0)\n"
            "A = DensitySet(200_000, np.sort(rng.choice(200_000, size=5_000, replace=False) + 1))\n"
            "e = _recount_energy(A, 3, 1_600_000, 100)\n"
            "status = open('/proc/self/status').read()\n"
            "print(e > 0, re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))\n"
        )
        src = str(pathlib.Path(driver.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True
        )
        positive, peak_kb = proc.stdout.split()
        assert positive == "True"
        assert int(peak_kb) < 100 * 1024, f"peak {int(peak_kb) // 1024} MB"


class TestCorrelations:
    """_correlations, certify's pair-difference counts, against double loops."""

    @staticmethod
    def check(A, top):
        """The counts at x = 1..top, sliced from the full window x = 0..N - 1."""
        full = _correlations(A)
        assert [len(r) for r in full] == [A.n] * 4
        got = [r[1 : top + 1] for r in full]
        r_aa, r_ii, r_ai, r_ia = inner_products_naive(list(A.elements), A.n)
        for r, want in zip(got, (r_aa, r_ai, r_ia, r_ii)):
            assert r.tolist() == want[1 : top + 1]

    def test_against_double_loop(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            n = int(rng.integers(40, 120))
            k = int(rng.integers(1, n + 1))
            A = DensitySet.from_iterable(n, rng.choice(n, size=k, replace=False) + 1)
            self.check(A, int(rng.integers(1, n)))

    def test_window_at_n_minus_one(self):
        """top = N - 1, the whole window certify reads, on a random half
        and on all of [1, N]; at N = 1 only x = 0 is counted."""
        rng = np.random.default_rng(5)
        for n in (1, 2, 97, 100, 128):
            half = rng.choice(n, size=max(1, n // 2), replace=False) + 1
            for A in (DensitySet.from_iterable(n, half), DensitySet.from_iterable(n, range(1, n + 1))):
                self.check(A, n - 1)
                assert _correlations(A)[0][0] == A.size

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_rows_in_blocks(self, block, monkeypatch):
        """With at most `block` pair differences formed at once (one row a
        block when block < |A|), the counts are the same."""
        monkeypatch.setattr(energy, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(block)
        for _ in range(5):
            n = int(rng.integers(40, 120))
            k = int(rng.integers(2, n + 1))
            self.check(DensitySet.from_iterable(n, rng.choice(n, size=k, replace=False) + 1), n - 1)

    def test_avoiding_set_counts_no_forbidden_difference(self):
        """r_AA vanishes at every forbidden difference of an avoiding set."""
        A = avoiding_set(500, 1)
        r_aa = _correlations(A)[0]
        assert not r_aa[np.frombuffer(ForbiddenSet.build(500, 1).bits, dtype=bool)].any()


def test_tracedigest_tool_is_pinned():
    """tools/tracedigest.py at seed 7: one SHA-256 over every trace and
    certification line of the benchmark's 500 driver inputs.  A declared
    change to the trace or certify bytes updates this pin, and CHANGES.md
    logs it."""
    tool = pathlib.Path(__file__).resolve().parents[1] / "tools" / "tracedigest.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "--seeds", "7"], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "cb7afd4566cbc31661b5b2510277f12158cae33020b2dad231633d97fe7877a1\n"
