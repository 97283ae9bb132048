"""Tests for exponential sums over Lambda(d x + 1): dual-route transform
identity, major-arc predictions, minor-arc bound shape, and CSV reports."""

import math
from fractions import Fraction

import numpy as np
import pytest

from primediff.arith import TABLE_CAP, ExceptionalDatum, euler_phi, psi, tau
from primediff.errors import DomainError, PreconditionError, ResourceError
from primediff.mangoldt import (
    MangoldtWeight,
    lambda_hat_rational,
    major_prediction,
    major_sup_ratio,
    render_csv_rows,
    spectrum_report,
    vinogradov_bound,
)
from primediff.spectral import TorusPoint

from oracles import dft_naive, mangoldt_naive


class TestMangoldtWeight:
    def test_values_against_naive(self, tables_small):
        for d in (1, 2, 5):
            w = MangoldtWeight.from_tables(40, d, tables_small)
            assert w.signal.offset == 1
            for x in range(1, 41):
                assert abs(w.signal.values[x - 1] - mangoldt_naive(d * x + 1)) < 1e-12

    def test_hat_zero_is_mass(self, tables_small):
        w = MangoldtWeight.from_tables(500, 2, tables_small)
        assert abs(w.hat_zero() - w.signal.values.sum()) < 1e-12
        assert abs(w.hat(TorusPoint.rational(0, 1)) - w.hat_zero()) < 1e-9

    def test_hat_against_naive(self, tables_small):
        w = MangoldtWeight.from_tables(60, 1, tables_small)
        for theta in (0.1, 1 / 3, 0.77):
            got = w.hat(TorusPoint.from_float(theta))
            want = dft_naive(w.signal.values.tolist(), 1, theta)
            assert abs(got - want) < 1e-9

    def test_rejects_bad_shape(self, tables_small):
        with pytest.raises(DomainError):
            MangoldtWeight.from_tables(0, 1, tables_small)


class TestTransformIdentity:
    def test_dual_route_sweep(self, tables_small):
        """Progression partial sums and direct summation give the same
        transform at every rational."""
        n = 300
        for d in (1, 2, 3):
            w = MangoldtWeight.from_tables(n, d, tables_small)
            for q in range(1, 9):
                for a in range(q):
                    via_psi = lambda_hat_rational(n, d, a, q, tables_small)
                    direct = w.hat(TorusPoint.rational(a, q))
                    assert abs(via_psi - direct) < 1e-9 * max(1.0, abs(direct))

    def test_at_zero_is_mass(self, tables_small):
        n, d = 400, 2
        w = MangoldtWeight.from_tables(n, d, tables_small)
        assert abs(lambda_hat_rational(n, d, 0, 1, tables_small) - w.hat_zero()) < 1e-9


class TestMajorPrediction:
    def test_leading_term_at_zero(self, tables_small):
        n = 2000
        pred = major_prediction(n, 1, 0, 1, tables_small)
        assert abs(pred.main_term - n) < 1e-9
        assert pred.exceptional_term == 0
        assert abs(pred.sup_bound - psi(n + 1, 1, 1, tables_small)) < 1e-9

    def test_prediction_accuracy(self, tables_small):
        """The main term tracks the true transform at low rationals."""
        n = 5000
        for q in (1, 2, 3, 4):
            for a in range(q):
                if math.gcd(a, q) != 1 and a != 0:
                    continue
                actual = lambda_hat_rational(n, 1, a, q, tables_small)
                pred = major_prediction(n, 1, a, q, tables_small).predicted()
                assert abs(actual - pred) < 0.15 * n

    def test_exceptional_gating(self, tables_small):
        datum = ExceptionalDatum(3, 0.8)
        with pytest.raises(PreconditionError):
            major_prediction(100, 2, 1, 5, tables_small, datum)
        pred = major_prediction(100, 6, 1, 5, tables_small, datum)
        assert abs(pred.exceptional_term) > 0

    def test_exceptional_magnitude(self, tables_small):
        n, d, a, q = 150, 2, 1, 5
        datum = ExceptionalDatum(2, 0.75)
        pred = major_prediction(n, d, a, q, tables_small, datum)
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


class TestSpectrumReport:
    def test_row_structure(self, tables_small):
        n, m = 200, 1600
        rows = spectrum_report(n, 1, 3, 25, m, tables_small)
        assert len(rows) == m
        for k, r in enumerate(rows):
            assert r.theta == k / m
            assert r.kind == ("major" if r.q <= 3 else "minor")
            assert r.ratio == r.actual / r.bound
            assert r.bound > 0

    def test_labels_follow_arc_membership(self, tables_small):
        """Major iff k/M lies in a closed arc |k/M - a/q| <= 1/(qQ) with
        q <= Q', carrying that arc's a/q; minor rows carry an approximation
        a/q with Q' < q <= Q and |k/M - a/q| < 1/(qQ).  All exact."""
        n, q_prime, big_q, m = 2000, 20, 200, 16000
        rows = spectrum_report(n, 1, q_prime, big_q, m, tables_small)
        k = np.arange(m, dtype=np.int64)
        in_major = np.zeros(m, dtype=bool)
        for q in range(1, q_prime + 1):
            a = (2 * k * q + m) // (2 * m)  # nearest numerator, any a
            in_major |= np.abs(k * q * big_q - a * m * big_q) <= m
        assert [r.kind == "major" for r in rows] == in_major.tolist()
        for k, r in enumerate(rows):
            assert math.gcd(r.a, r.q) == 1
            dist = abs(Fraction(k, m) - Fraction(r.a, r.q))
            dist = min(dist, 1 - dist)
            if r.kind == "major":
                assert r.q <= q_prime and dist <= Fraction(1, r.q * big_q)
            else:
                assert q_prime < r.q <= big_q and dist < Fraction(1, r.q * big_q)

    def test_exceptional_widens_major_bounds(self, tables_small):
        n, m = 150, 1200
        base = spectrum_report(n, 2, 3, 30, m, tables_small)
        datum = ExceptionalDatum(2, 0.8)
        wide = spectrum_report(n, 2, 3, 30, m, tables_small, exceptional=datum)
        # tau(-a, d, q) vanishes where gcd(d, q) does not divide a, so some
        # major rows keep their bound; none may shrink
        for b, w in zip(base, wide):
            if b.kind == "major":
                assert w.bound >= b.bound
            else:
                assert w.bound == b.bound
        assert any(
            w.bound > b.bound for b, w in zip(base, wide) if b.kind == "major"
        )

    def test_csv_rendering(self, tables_small):
        rows = spectrum_report(100, 1, 2, 20, 800, tables_small)
        lines = render_csv_rows(rows)
        assert lines[0] == "theta,a,q,class,actual,bound,ratio"
        assert len(lines) == len(rows) + 1
        fields = lines[1].split(",")
        assert len(fields) == 7
        assert fields[3] in ("major", "minor")
        float(fields[0]); float(fields[4]); float(fields[5]); float(fields[6])


class TestMajorSupRatio:
    def test_contains_center_and_stays_small(self, tables_small):
        """The level-1 arc contains zero, pinning the ratio at one or more;
        low levels never blow it far past one."""
        r = major_sup_ratio(2000, 1, 10, 200, 8, tables_small)
        assert 1.0 - 1e-9 <= r < 3.0

    def test_arc_without_grid_points(self, tables_small):
        """At Q = 10000 the level-3 star arcs hold no point of the 800-point
        grid; the level-1 arc still pins the ratio at one or more."""
        r = major_sup_ratio(100, 1, 3, 10_000, 8, tables_small)
        assert r >= 1.0 - 1e-9

    def test_grid_budget(self, tables_small):
        """A grid past TABLE_CAP points is refused before its FFT."""
        with pytest.raises(ResourceError, match="grid limited"):
            major_sup_ratio(100, 1, 3, 10, TABLE_CAP // 100 + 1, tables_small)
        with pytest.raises(ResourceError, match="grid limited"):
            spectrum_report(100, 1, 3, 10, TABLE_CAP + 1, tables_small)

    def test_grid_refinement_stable(self, tables_small):
        r8 = major_sup_ratio(1000, 1, 8, 125, 8, tables_small)
        r16 = major_sup_ratio(1000, 1, 8, 125, 16, tables_small)
        assert abs(r8 - r16) <= 0.15 * r8
