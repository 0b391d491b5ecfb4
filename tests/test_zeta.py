"""Hurwitz zeta continuation and the numeric eta route."""

import math
from fractions import Fraction

import pytest

from flateta.core import SpinStructure, make_manifold
from flateta.invariants import eta
from flateta.zeta import eta_numeric, hurwitz_zeta

PLUS = SpinStructure.PLUS
MINUS = SpinStructure.MINUS


def direct_sum(s, a, terms=100_000):
    """Independent oracle for s > 1: long plain summation plus the integral tail.

    The truncation scale (1e5 terms) and the absent higher corrections make
    this a different computation from the continuation under test; the
    leftover error is below 1e-11 for s in [1.5, 3].
    """
    total = math.fsum((m + a) ** (-s) for m in range(terms))
    edge = terms + a
    return total + edge ** (1.0 - s) / (s - 1.0) + 0.5 * edge ** (-s)


class TestHurwitzZeta:
    @pytest.mark.parametrize("num", [1, 3, 5])
    def test_value_at_zero_sevenths(self, num):
        a = num / 7
        z = hurwitz_zeta(0.0, a)
        assert abs(z.value - (0.5 - a)) < 1e-10

    def test_value_at_zero_is_half_minus_a_on_grid(self):
        for i in range(1, 21):
            a = i / 20
            z = hurwitz_zeta(0.0, a)
            assert abs(z.value - (0.5 - a)) < 1e-10
            assert z.est_error <= 1e-10

    def test_basel_value(self):
        z = hurwitz_zeta(2.0, 1.0)
        assert abs(z.value - math.pi**2 / 6) < 1e-10
        assert abs(direct_sum(2.0, 1.0) - math.pi**2 / 6) < 1e-9

    def test_against_direct_sum_away_from_continuation(self):
        for s in (1.5, 2.5, 3.0):
            for a in (0.2, 0.7, 1.0):
                assert abs(hurwitz_zeta(s, a).value - direct_sum(s, a)) < 1e-9

    @pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("a", [0.2, 0.7])
    def test_recurrence(self, s, a):
        lhs = hurwitz_zeta(s, a).value - hurwitz_zeta(s, a + 1.0).value
        assert abs(lhs - a ** (-s)) < 1e-9

    def test_known_negative_argument(self):
        # zeta(-1, 1) = -1/12 under the same continuation
        assert abs(hurwitz_zeta(-1.0, 1.0).value + 1.0 / 12.0) < 1e-9

    def test_estimated_error_band(self):
        for s in (-1.0, 0.0, 1.5, 4.0):
            for a in (0.05, 0.5, 1.0):
                assert hurwitz_zeta(s, a).est_error <= 1e-10

    def test_estimated_error_on_the_documented_range(self):
        # the 12-term head's first omitted correction peaks at 7.9e-17,
        # at s = 1.65, a = 1e-3
        for i in range(101):
            s = -1.0 + i / 20
            if i == 40:  # the pole at s = 1
                continue
            for a in (1e-3, 0.01, 0.1, 0.5, 1.0):
                assert hurwitz_zeta(s, a).est_error <= 8e-17

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, -0.3)

    @pytest.mark.parametrize(
        "s, a",
        [(0.0, math.nan), (math.nan, 0.5), (0.0, math.inf), (math.inf, 0.5), (-math.inf, 0.5)],
    )
    def test_rejects_non_finite_input(self, s, a):
        with pytest.raises(ValueError):
            hurwitz_zeta(s, a)

    def test_rejects_pole(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 0.5)
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0 + 1e-12, 0.5)


def two_call_eta_numeric(result, s_eval):
    """``eta_numeric`` with zeta(s, q) and zeta(s, 1 - q) both evaluated for each class.

    Returns the value and its rounding scale, the sum of the terms' magnitudes
    under the same prefactor.
    """
    n = result.manifold.n
    terms = []
    for r, count in enumerate(result.table.counts):
        q = (2 * r + result.structure.half) / (2 * n)
        if count == 0 or q == 0:
            continue
        diff = hurwitz_zeta(s_eval, q).value - hurwitz_zeta(s_eval, 1.0 - q).value
        terms.append(count * diff)
    prefactor = (2.0 * math.pi * n) ** s_eval
    return math.fsum(terms) / prefactor, math.fsum(map(abs, terms)) / prefactor


class TestEtaNumeric:
    def test_n7_plus_at_zero(self):
        m = make_manifold(3)
        assert abs(eta_numeric(eta(m, PLUS), 0.0) - (-2.0)) < 1e-8

    def test_n3_both_at_zero(self):
        m = make_manifold(1)
        assert abs(eta_numeric(eta(m, PLUS), 0.0) - (-2.0 / 3.0)) < 1e-8
        assert abs(eta_numeric(eta(m, MINUS), 0.0) - (4.0 / 3.0)) < 1e-8

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_matches_exact_eta(self, k, structure):
        m = make_manifold(k)
        exact = float(eta(m, structure).value)
        assert abs(eta_numeric(eta(m, structure), 0.0) - exact) < 1e-8

    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_continuous_near_zero(self, structure):
        m = make_manifold(3)
        at_zero = eta_numeric(eta(m, structure), 0.0)
        nearby = eta_numeric(eta(m, structure), 1e-4)
        assert abs(nearby - at_zero) < 1e-2

    @pytest.mark.parametrize("n", range(3, 102, 2))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_partner_class_holds_one_minus_q(self, n, structure):
        half = structure.half
        for r in range(n):
            if 2 * r + half:
                partner = (n - r - half) % n
                assert Fraction(2 * partner + half, 2 * n) == 1 - Fraction(2 * r + half, 2 * n)

    @pytest.mark.parametrize("k", range(1, 26, 2))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_one_evaluation_per_class_matches_two_calls(self, k, structure):
        # (2r' + half)/(2n) and 1.0 - q may differ in the last bit, and the
        # counts grow as 2^k/n, so the bound is relative to the terms' scale
        result = eta(make_manifold(k), structure)
        for s in (0.0, 0.5, 1.5, 2.0):
            want, scale = two_call_eta_numeric(result, s)
            assert abs(eta_numeric(result, s) - want) <= 1e-13 * scale

    def test_rejects_even_k(self):
        with pytest.raises(ValueError):
            eta_numeric(eta(make_manifold(2), PLUS), 0.0)

    def test_rejects_out_of_range_s(self):
        m = make_manifold(1)
        for bad in (-0.1, 2.5):
            with pytest.raises(ValueError):
                eta_numeric(eta(m, PLUS), bad)
