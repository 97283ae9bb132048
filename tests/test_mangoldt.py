"""Tests for exponential sums over Lambda(d x + 1): dual-route transform
identity, major-arc predictions, minor-arc bound shape, and CSV reports."""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from primediff import cli, mangoldt
from primediff.arith import TABLE_CAP, euler_phi, psi
from primediff.tables import _SIEVE_BLOCK, ExceptionalDatum, build_tables, tau
from primediff.errors import DomainError, PreconditionError, ResourceError
from primediff.mangoldt import (
    MangoldtWeight,
    lambda_hat_rational,
    major_prediction,
    major_sup_ratio,
    spectrum_report,
    vinogradov_bound,
)
from primediff.spectral import TorusPoint, grid_power, transform_at

from oracles import dft_naive, mangoldt_naive


class TestMangoldtWeight:
    def test_values_against_naive(self):
        for d in (1, 2, 5):
            w = MangoldtWeight.build(40, d)
            assert len(w.values) == 40
            for x in range(1, 41):
                assert abs(w.values[x - 1] - mangoldt_naive(d * x + 1)) < 1e-12

    def test_hat_zero_is_mass(self):
        w = MangoldtWeight.build(500, 2)
        assert abs(w.hat_zero() - w.values.sum()) < 1e-12
        assert abs(w.hat(TorusPoint.rational(0, 1)) - w.hat_zero()) < 1e-9

    def test_hat_against_naive(self):
        w = MangoldtWeight.build(60, 1)
        for theta in (0.1, 1 / 3, 0.77):
            got = w.hat(TorusPoint.from_float(theta))
            want = dft_naive(w.values.tolist(), 1, theta)
            assert abs(got - want) < 1e-9

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            MangoldtWeight.build(0, 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_build_is_the_tables_column(self, d):
        """The weight holds build_tables' Lambda at d + 1, 2d + 1, ...,
        d n + 1 bit for bit, with n on both sides of the _SIEVE_BLOCK edge
        at which the column takes its primes in a second block."""
        for n in (_SIEVE_BLOCK - 1, _SIEVE_BLOCK, _SIEVE_BLOCK + 1):
            want = build_tables(d * n + 1).mangoldt[d + 1 :: d]
            assert MangoldtWeight.build(n, d).values.tobytes() == want.tobytes()


class TestTransformIdentity:
    def test_dual_route_sweep(self):
        """Progression partial sums and direct summation give the same
        transform at every rational."""
        n = 300
        for d in (1, 2, 3):
            w = MangoldtWeight.build(n, d)
            for q in range(1, 9):
                for a in range(q):
                    via_psi = lambda_hat_rational(n, d, a, q)
                    direct = w.hat(TorusPoint.rational(a, q))
                    assert abs(via_psi - direct) < 1e-9 * max(1.0, abs(direct))

    def test_at_zero_is_mass(self):
        n, d = 400, 2
        w = MangoldtWeight.build(n, d)
        assert abs(lambda_hat_rational(n, d, 0, 1) - w.hat_zero()) < 1e-9

    def test_validation(self):
        with pytest.raises(DomainError, match="need n, d, q >= 1, got n=10, d=1, q=0"):
            lambda_hat_rational(10, 1, 1, 0)


class TestMajorPrediction:
    def test_leading_term_at_zero(self):
        n = 2000
        pred = major_prediction(n, 1, 0, 1)
        assert abs(pred.main_term - n) < 1e-9
        assert pred.exceptional_term == 0
        assert abs(pred.sup_bound - psi(n + 1, 1, 1)) < 1e-9

    def test_prediction_accuracy(self):
        """The main term tracks the true transform at low rationals."""
        n = 5000
        for q in (1, 2, 3, 4):
            for a in range(q):
                if math.gcd(a, q) != 1 and a != 0:
                    continue
                actual = lambda_hat_rational(n, 1, a, q)
                pred = major_prediction(n, 1, a, q)
                assert abs(actual - pred.main_term - pred.exceptional_term) < 0.15 * n

    def test_validation(self):
        with pytest.raises(DomainError, match="need n, d, q >= 1, got n=10, d=1, q=0"):
            major_prediction(10, 1, 1, 0)

    def test_exceptional_gating(self):
        datum = ExceptionalDatum(3, 0.8)
        with pytest.raises(PreconditionError):
            major_prediction(100, 2, 1, 5, datum)
        pred = major_prediction(100, 6, 1, 5, datum)
        assert abs(pred.exceptional_term) > 0

    def test_exceptional_magnitude(self):
        n, d, a, q = 150, 2, 1, 5
        datum = ExceptionalDatum(2, 0.75)
        pred = major_prediction(n, d, a, q, datum)
        want = (d * n) ** 0.75 * abs(tau(-a, d, q)) / (euler_phi(d) * euler_phi(q) * 0.75)
        assert abs(abs(pred.exceptional_term) - want) < 1e-9
        # the synthetic zero term always pulls against the main term
        assert abs(pred.main_term + pred.exceptional_term) < abs(pred.main_term)


class TestVinogradovBound:
    def test_formula(self):
        n, d, q, big_q = 1000, 2, 9, 64
        want = d * math.log(n) ** 4 * (n / 3 + n**0.8 + math.sqrt(n * 64))
        assert abs(vinogradov_bound(n, d, q, big_q) - want) < 1e-9

    def test_decreasing_in_q(self):
        vals = [vinogradov_bound(5000, 1, q, 100) for q in (10, 40, 90)]
        assert vals[0] > vals[1] > vals[2]

    def test_validation(self):
        with pytest.raises(DomainError):
            vinogradov_bound(1, 1, 1, 1)
        with pytest.raises(DomainError, match="need n >= 2 and positive d, q, Q"):
            vinogradov_bound(1000, 1, q=0, big_q=64)


class TestSpectrumReport:
    def test_row_structure(self):
        n, m = 200, 1600
        report = spectrum_report(n, 1, 3, 25, m)
        assert len(report) == m
        for col in (report.a, report.q, report.major, report.actual, report.bound):
            assert col.shape == (m,)
        assert report.major.tolist() == (report.q <= 3).tolist()
        assert (report.bound > 0).all()

    def test_actual_is_scalar_abs(self):
        """The actual column is the root of grid_power's power at
        min(k, M - k), bit for bit, on even and odd grids of about 16,000
        points, and Python's abs() of transform_at to rounding, at k = 0 and
        a seeded sample of k with their mirrors M - k: the real FFT and the
        pointwise sum round differently.  k = 0 holds the largest value,
        the mass of the nonnegative weight, which scales the tolerance."""
        n = 2000
        signal = MangoldtWeight.build(n, 1).values
        rng = np.random.default_rng(147)
        for m in (16000, 16001):
            report = spectrum_report(n, 1, 20, 200, m)
            power = grid_power(signal, m)
            assert len(report) == m
            assert report.actual.tolist() == [math.sqrt(power[min(k, m - k)]) for k in range(m)]
            half = np.concatenate([[0], rng.choice(np.arange(1, m // 2 + 1), 64, replace=False)])
            ks = np.concatenate([half, (m - half) % m])
            points = [TorusPoint.rational(k, m) for k in ks.tolist()]
            scalar = np.array([abs(transform_at(signal, t)) for t in points])
            assert np.abs(report.actual[ks] - scalar).max() <= 1e-12 * scalar.max()

    def test_labels_follow_arc_membership(self):
        """Major iff k/M lies in a closed arc |k/M - a/q| <= 1/(qQ) with
        q <= Q', carrying that arc's a/q; minor points carry an approximation
        a/q with Q' < q <= Q and |k/M - a/q| < 1/(qQ).  All exact."""
        n, q_prime, big_q, m = 2000, 20, 200, 16000
        report = spectrum_report(n, 1, q_prime, big_q, m)
        k = np.arange(m, dtype=np.int64)
        in_major = np.zeros(m, dtype=bool)
        for q in range(1, q_prime + 1):
            a = (2 * k * q + m) // (2 * m)  # nearest numerator, any a
            in_major |= np.abs(k * q * big_q - a * m * big_q) <= m
        assert report.major.tolist() == in_major.tolist()
        rows = zip(report.a.tolist(), report.q.tolist(), report.major.tolist())
        for k, (a, q, major) in enumerate(rows):
            assert math.gcd(a, q) == 1
            dist = abs(Fraction(k, m) - Fraction(a, q))
            dist = min(dist, 1 - dist)
            if major:
                assert q <= q_prime and dist <= Fraction(1, q * big_q)
            else:
                assert q_prime < q <= big_q and dist < Fraction(1, q * big_q)

    def test_bound_is_per_class_and_q(self):
        """Every point's bound is its class's bound at its q: the sup bound
        Lambda_hat(0)/phi(q) on major points, the Vinogradov shape on minor."""
        n, big_q = 150, 30
        report = spectrum_report(n, 2, 3, big_q, 1200)
        hat_zero = MangoldtWeight.build(n, 2).hat_zero()
        rows = zip(report.q.tolist(), report.major.tolist(), report.bound.tolist())
        for q, major, bound in rows:
            want = hat_zero / euler_phi(q) if major else vinogradov_bound(n, 2, q, big_q)
            assert bound == want

    @pytest.mark.parametrize(
        "n, d, q_prime, big_q, m",
        [(2, 3, 1, 5, 200), (150, 2, 3, 30, 1200), (5000, 1, 20, 2500, 40_000),
         (1000, 1, 2, 10**6, 50_000)],
    )
    def test_minor_row_is_the_scalar_bound(self, n, d, q_prime, big_q, m):
        """The minor row holds vinogradov_bound at each q present, bit for
        bit, though the report evaluates it over the array of them."""
        report = spectrum_report(n, d, q_prime, big_q, m)
        present = np.flatnonzero(np.bincount(report.q))
        minor = report.bounds[0, report.bound_column[present]]
        want = np.array([vinogradov_bound(n, d, q, big_q) for q in present.tolist()])
        assert len(present) > 1 and minor.tobytes() == want.tobytes()

    def test_exceptional_widens_major_bounds(self):
        n, m = 150, 1200
        base = spectrum_report(n, 2, 3, 30, m)
        datum = ExceptionalDatum(2, 0.8)
        wide = spectrum_report(n, 2, 3, 30, m, exceptional=datum)
        # tau(-a, d, q) vanishes where gcd(d, q) does not divide a, so some
        # major points keep their bound; none may shrink
        assert (wide.bound[base.major] >= base.bound[base.major]).all()
        assert (wide.bound[~base.major] == base.bound[~base.major]).all()
        assert (wide.bound[base.major] > base.bound[base.major]).any()

    def test_exceptional_modulus_must_divide_d(self, monkeypatch):
        """A datum whose modulus does not divide d is refused, as
        major_prediction refuses it, before any power grid is built."""

        def boom(*args):
            raise AssertionError("grid_power ran")

        monkeypatch.setattr(mangoldt, "grid_power", boom)
        with pytest.raises(PreconditionError, match="modulus 3 must divide d=1"):
            spectrum_report(300, 1, 5, 20, 2400, ExceptionalDatum(3, 0.9))

    def test_dissection_validation(self):
        """Major arcs must be disjoint (Q > 2 Q') and their cutoff positive."""
        with pytest.raises(PreconditionError):
            spectrum_report(100, 1, 5, 10, 800)
        with pytest.raises(DomainError):
            spectrum_report(100, 1, 0, 10, 800)

    def test_csv_rendering(self, capsys):
        """The spectrum command writes the report's columns as CSV."""
        n, q_prime, big_q, m = 100, 2, 20, 800
        report = spectrum_report(n, 1, q_prime, big_q, m)
        argv = ["spectrum", "--n", str(n), "--d", "1", "--q-prime", str(q_prime),
                "--big-q", str(big_q)]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "theta,a,q,class,actual,bound,ratio"
        assert len(lines) == len(report) + 2  # header, rows, manifest
        assert lines[-1].startswith("# manifest: ")
        for k, line in enumerate(lines[1:-1]):
            theta, a, q, kind, actual, bound, ratio = line.split(",")
            assert theta == f"{k / m:.12g}"
            assert (int(a), int(q)) == (report.a[k], report.q[k])
            assert kind == ("major" if report.major[k] else "minor")
            assert actual == f"{report.actual[k]:.12g}"
            assert bound == f"{report.bound[k]:.12g}"
            assert ratio == f"{report.actual[k] / report.bound[k]:.12g}"


class TestMajorSupRatio:
    def test_contains_center_and_stays_small(self):
        """The level-1 arc contains zero, pinning the ratio at one or more;
        low levels never blow it far past one."""
        r = major_sup_ratio(2000, 1, 10, 200, 8)
        assert 1.0 - 1e-9 <= r < 3.0

    def test_arc_without_grid_points(self):
        """At Q = 10000 the level-3 star arcs hold no point of the 800-point
        grid; the level-1 arc still pins the ratio at one or more."""
        r = major_sup_ratio(100, 1, 3, 10_000, 8)
        assert r >= 1.0 - 1e-9

    def test_grid_budget(self):
        """A grid past TABLE_CAP points is refused before its FFT."""
        with pytest.raises(ResourceError, match="grid limited"):
            major_sup_ratio(100, 1, 3, 10, TABLE_CAP // 100 + 1)
        with pytest.raises(ResourceError, match="grid limited"):
            spectrum_report(100, 1, 3, 10, TABLE_CAP + 1)

    def test_grid_refinement_stable(self):
        r8 = major_sup_ratio(1000, 1, 8, 125, 8)
        r16 = major_sup_ratio(1000, 1, 8, 125, 16)
        assert abs(r8 - r16) <= 0.15 * r8


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_spectrum_stage_memory():
    """spectrum_report on a 2,000,000-point grid takes the weight's power
    from one real FFT: a fresh interpreter peaks below 125 MB resident
    (140 MB with the complex transform and its full-length phase)."""
    child = (
        "import re\n"
        "from primediff.mangoldt import spectrum_report\n"
        "report = spectrum_report(1000, 1, 2, 10, 2_000_000)\n"
        "status = open('/proc/self/status').read()\n"
        "print(len(report), re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))\n"
    )
    src = str(pathlib.Path(spectrum_report.__code__.co_filename).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True
    )
    rows, peak_kb = map(int, proc.stdout.split())
    assert rows == 2_000_000
    assert peak_kb < 125 * 1024, f"peak {peak_kb // 1024} MB"
