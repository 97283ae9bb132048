"""Tests for the iteration driver: config plumbing, case analysis,
inner-product diagnostics, traces, and independent certification."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from primediff import driver, increment, spectral
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
    _recount_energy,
    certify,
    inner_product_stats,
    iterate_once,
    run,
    trace_to_jsonl,
)
from primediff.avoider import ForbiddenSet, greedy_avoiding
from primediff.errors import CertificationError, DomainError, PreconditionError
from primediff.increment import DensitySet, _balanced_power, _level_energies

from oracles import inner_products_naive, is_prime_naive


def avoiding_set(n, d, tables):
    fs = ForbiddenSet.build(n, d, tables)
    res = greedy_avoiding(fs, strategy="first_fit")
    return DensitySet.from_iterable(n, res.elements)


def class_avoiding_set(n, tables):
    """First fit over 1, 4, 7, ... in [1, n] against the differences s with
    s + 1 prime: sparse, and structured mod 3."""
    fs = ForbiddenSet.build(n, 1, tables)
    taken, blocked = [], np.zeros(2 * n + 1, dtype=bool)
    diffs = np.flatnonzero(fs.bits)
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
        for name in ("c", "alpha_floor", "d_ceiling_exponent"):
            for value in (math.nan, math.inf):
                with pytest.raises(DomainError):
                    IterationConfig(**{name: value})

    def test_derived_quantities(self):
        cfg = IterationConfig(c=0.25, c_prime=2000.0, q_cap=50)
        assert cfg.n_prime(3000, 0.006) == 4
        assert cfg.level_cutoff(3000, 1, 0.006) == max(
            1, min(50, int(math.log(3000) ** 8 / (2000.0**2 * 0.006**2)))
        )
        assert cfg.dissection_q(4, 3) == max(math.ceil(4 / 3), 6)
        assert 1 <= cfg.extraction_cap(0.5) <= 50
        assert cfg.d_ceiling(10_000) == 10.0

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
    def test_interval_structure(self, tables_small):
        A = DensitySet.from_iterable(100, range(1, 101))
        out, _ = iterate_once(A, 1, IterationConfig(), tables_small)
        assert isinstance(out, StructureFound)
        assert (out.x, out.p) == (1, 2)
        assert out.upper - out.lower == out.x

    def test_witness_is_genuine(self, tables_small):
        rng = np.random.default_rng(89)
        cfg = IterationConfig()
        for _ in range(60):
            n = int(rng.integers(cfg.n_floor, 400))
            k = int(rng.integers(max(2, n // 4), n + 1))
            A = DensitySet.from_iterable(
                n, rng.choice(np.arange(1, n + 1), size=k, replace=False)
            )
            d = int(rng.integers(1, 4))
            out, _ = iterate_once(A, d, cfg, tables_small)
            if isinstance(out, StructureFound):
                assert is_prime_naive(out.p)
                assert out.p == d * out.x + 1
                assert A.contains(out.lower) and A.contains(out.upper)

    def test_small_universe(self, tables_small):
        A = DensitySet.from_iterable(10, [1, 2])
        out, _ = iterate_once(A, 1, IterationConfig(), tables_small)
        assert isinstance(out, SmallN)

    def test_small_alpha(self, tables_small):
        A = DensitySet.from_iterable(5000, [1, 3000])
        out, _ = iterate_once(A, 1, IterationConfig(), tables_small)
        assert isinstance(out, SmallAlpha)

    def test_window_collapse(self, tables_small):
        # alpha above floor but floor(c alpha N) = 0: nothing to correlate on
        A = DensitySet.from_iterable(100, [1, 50])
        out, diag = iterate_once(A, 1, IterationConfig(), tables_small)
        assert isinstance(out, SmallN)
        assert diag["n_prime"] == 0

    def test_d_ceiling(self, tables_small):
        # the pair scan precedes the ceiling check, so the set must avoid
        # the forbidden differences for this d
        A = avoiding_set(100, 50, tables_small)
        out, _ = iterate_once(A, 50, IterationConfig(), tables_small)
        assert isinstance(out, LargeDOrSmallAlpha)
        assert "d=50" in out.reason

    def test_avoiding_class_increments(self, tables_small):
        """A sparse avoiding set still yields a recounted density jump."""
        A = class_avoiding_set(3000, tables_small)
        out, diag = iterate_once(A, 1, IterationConfig(), tables_small)
        assert isinstance(out, DensityIncrement)
        inc = out.outcome
        assert inc.met_guarantee
        assert inc.new_alpha >= A.alpha * 1.02
        assert out.new_d == out.q
        got = np.isin(inc.progression.points(), A.elements).sum()
        assert got == inc.intersection_count
        assert out.new_set.size == inc.intersection_count

    def test_one_arc_range_pass_per_step(self, tables_small, monkeypatch):
        """A step that reaches extraction computes the arc ranges once, in
        energy_table: extraction reads its level's E from the table row."""
        calls, arc_ranges = [], increment.arc_ranges

        def counted(*args):
            calls.append(args)
            return arc_ranges(*args)

        monkeypatch.setattr(increment, "arc_ranges", counted)
        A = class_avoiding_set(3000, tables_small)
        out, diag = iterate_once(A, 1, IterationConfig(), tables_small)
        assert isinstance(out, DensityIncrement)
        assert len(calls) == 1
        row = diag["energy_table"].rows[out.q - 1]
        assert out.outcome.detail["energy"] == row.energy


class TestRun:
    def test_interval_one_step(self, tables_small):
        A = DensitySet.from_iterable(100, range(1, 101))
        trace = run(A, 1, IterationConfig(), tables_small)
        assert trace.terminal == "structure_found"
        assert len(trace.steps) == 1
        assert trace.steps[0].step == 1

    def test_avoiding_chain_terminates(self, tables_small):
        A = avoiding_set(400, 1, tables_small)
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
        A = avoiding_set(600, 1, tables_small)
        cfg = IterationConfig(max_steps=1)
        trace = run(A, 1, cfg, tables_small)
        if trace.steps[0].outcome.tag == "density_increment":
            assert trace.terminal == "budget"


class TestTraceJsonl:
    def test_records_parse(self, tables_small):
        A = avoiding_set(400, 1, tables_small)
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
    energies, chosen levels and progressions stay bit-for-bit the same."""
    h = hashlib.sha256()
    for n, d, elements in _driver_inputs():
        trace = run(DensitySet.from_iterable(n, elements), d, IterationConfig(), tables_small)
        for line in trace_to_jsonl(trace) + certify(trace, tables_small):
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == "4c5251f32180c99d17ed250eb4c4ac3da7f0a3c795b47e4a3764f24c13db93e3"


class TestCertify:
    def _tampered(self, trace, **changes):
        step = trace.steps[0]
        bad_step = dataclasses.replace(step, **changes)
        return dataclasses.replace(trace, steps=[bad_step] + trace.steps[1:])

    def test_passes_on_real_traces(self, tables_small):
        for build in (
            lambda: DensitySet.from_iterable(100, range(1, 101)),
            lambda: avoiding_set(400, 1, tables_small),
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
        A = avoiding_set(400, 1, tables_small)
        trace = run(A, 1, IterationConfig(), tables_small)
        for i, s in enumerate(trace.steps):
            if s.outcome.tag != "density_increment":
                continue
            inc = dataclasses.replace(
                s.outcome.outcome,
                intersection_count=s.outcome.outcome.intersection_count + 1,
            )
            bad_out = dataclasses.replace(s.outcome, outcome=inc)
            bad_step = dataclasses.replace(s, outcome=bad_out)
            bad = dataclasses.replace(
                trace, steps=trace.steps[:i] + [bad_step] + trace.steps[i + 1 :]
            )
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
        trace = run(class_avoiding_set(3000, tables_small), 1, IterationConfig(), tables_small)
        i = self._first_increment(trace)
        s = trace.steps[i]
        energy = s.outcome.outcome.detail["energy"]
        detail = {**s.outcome.outcome.detail, "energy": energy + shift * max(1.0, energy)}
        inc = dataclasses.replace(s.outcome.outcome, detail=detail)
        bad_step = dataclasses.replace(s, outcome=dataclasses.replace(s.outcome, outcome=inc))
        bad = dataclasses.replace(trace, steps=trace.steps[:i] + [bad_step] + trace.steps[i + 1 :])
        with pytest.raises(CertificationError, match=f"step {s.step}: energy recount"):
            certify(bad, tables_small)

    @pytest.mark.parametrize(
        "build",
        [lambda t: class_avoiding_set(3000, t), lambda t: avoiding_set(400, 1, t)],
        ids=["class_avoiding_3000", "avoiding_400"],
    )
    def test_rejects_a_wrong_grid_power(self, build, tables_small, monkeypatch):
        """A producer whose grid power is 1.5 times too large records wrong
        energies; the recount reads no power grid, so it rejects them."""
        real = driver.grid_power

        def inflated(f, m):
            m, power = real(f, m)
            return m, 1.5 * power

        monkeypatch.setattr(driver, "grid_power", inflated)
        trace = run(build(tables_small), 1, IterationConfig(), tables_small)
        assert any(s.outcome.tag == "density_increment" for s in trace.steps)
        with pytest.raises(CertificationError, match="energy recount"):
            certify(trace, tables_small)

    def test_recount_shares_no_spectral_primitive(self, tables_small, monkeypatch):
        """certify passes a good trace with the producer's grid transform,
        arc ranges and level sums all made to raise."""
        trace = run(class_avoiding_set(3000, tables_small), 1, IterationConfig(), tables_small)

        def boom(*args, **kwargs):
            raise AssertionError("certify called a producer primitive")

        for module, name in [
            (driver, "grid_power"),
            (increment, "grid_power"),
            (spectral, "grid_power"),
            (increment, "arc_ranges"),
            (spectral, "arc_ranges"),
            (increment, "_level_energies"),
        ]:
            monkeypatch.setattr(module, name, boom)
        lines = certify(trace, tables_small)
        assert any("density_increment ok" in line for line in lines)
        assert lines[-1] == f"terminal: {trace.terminal} ok"

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
        [(), (1, 1, 2), (2, 1, 3), (0, 1, 2), (1, 2, 101), (1, 2**70)],
        ids=["empty", "duplicate", "unsorted", "below_1", "above_n", "overflow"],
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
        """_recount_energy against _level_energies on grid_power, levels
        1..50, within 1e-12 max(1, E).  The a = q arc of level q runs past M
        when w = floor(M/Q) >= q: at every level but in the last case."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, n + 1))
        A = DensitySet.from_iterable(n, rng.choice(n, size=size, replace=False) + 1)
        m = 8 * n + extra
        levels = range(1, 51)
        _, power, norm = _balanced_power(A, spectral.grid_power(A.balanced(), m))
        grid = _level_energies(m, power, norm, levels, big_q)
        for q, (e, _) in zip(levels, grid):
            assert abs(_recount_energy(A, q, m, big_q) - e) <= 1e-12 * max(1.0, e), q


class TestInnerProducts:
    def test_against_double_loop(self, tables_small):
        rng = np.random.default_rng(97)
        cfg = IterationConfig(c=1.0)  # window = alpha N, big enough to compare
        for _ in range(10):
            n = int(rng.integers(40, 120))
            k = int(rng.integers(10, n + 1))
            A = DensitySet.from_iterable(
                n, rng.choice(np.arange(1, n + 1), size=k, replace=False)
            )
            d = int(rng.integers(1, 3))
            stats = inner_product_stats(A, d, cfg, tables_small)
            r_aa, r_ii, r_ai, r_ia = inner_products_naive(A.elements.tolist(), n)
            lam = [
                float(tables_small.mangoldt[d * x + 1]) for x in range(1, stats.n_prime + 1)
            ]
            want_aa = sum(r_aa[x] * lam[x - 1] for x in range(1, stats.n_prime + 1))
            want_ai = sum(r_ai[x] * lam[x - 1] for x in range(1, stats.n_prime + 1))
            want_ia = sum(r_ia[x] * lam[x - 1] for x in range(1, stats.n_prime + 1))
            want_ii = sum(r_ii[x] * lam[x - 1] for x in range(1, stats.n_prime + 1))
            assert abs(stats.ip_set_set - want_aa) < 1e-9
            assert abs(stats.ip_set_interval - want_ai) < 1e-9
            assert abs(stats.ip_interval_set - want_ia) < 1e-9
            assert abs(stats.ip_interval_interval - want_ii) < 1e-9

    def test_avoiding_set_has_no_violations(self, tables_small):
        A = avoiding_set(500, 1, tables_small)
        stats = inner_product_stats(A, 1, IterationConfig(c=1.0), tables_small)
        assert stats.support_violations == ()

    def test_violations_flag_prime_hits(self, tables_small):
        # difference 1 with d = 1 hits the prime 2
        A = DensitySet.from_iterable(200, range(1, 101))
        stats = inner_product_stats(A, 1, IterationConfig(c=1.0), tables_small)
        assert 1 in stats.support_violations

    def test_window_collapse_rejected(self, tables_small):
        A = DensitySet.from_iterable(100, [1, 50])
        with pytest.raises(PreconditionError):
            inner_product_stats(A, 1, IterationConfig(), tables_small)

    @pytest.mark.parametrize("c", [2.0, 3.0])
    def test_window_past_n_rejected(self, tables_small, c):
        """floor(c alpha N) = cN > N - 1 for A = [1, 100]: there are no
        differences that long to count."""
        A = DensitySet.from_iterable(100, range(1, 101))
        with pytest.raises(PreconditionError, match="exceeds N - 1"):
            inner_product_stats(A, 1, IterationConfig(c=c), tables_small)

    def test_window_at_n_minus_one(self, tables_small):
        """The largest window, N' = N - 1, still matches the double loop."""
        A = DensitySet.from_iterable(100, range(1, 101))
        stats = inner_product_stats(A, 1, IterationConfig(c=0.995), tables_small)
        assert stats.n_prime == 99
        r_aa, r_ii, r_ai, r_ia = inner_products_naive(A.elements.tolist(), 100)
        lam = [float(tables_small.mangoldt[x + 1]) for x in range(1, 100)]
        for got, r in [
            (stats.ip_set_set, r_aa),
            (stats.ip_set_interval, r_ai),
            (stats.ip_interval_set, r_ia),
            (stats.ip_interval_interval, r_ii),
        ]:
            assert abs(got - sum(r[x] * lam[x - 1] for x in range(1, 100))) < 1e-9
