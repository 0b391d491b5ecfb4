"""Exact eta values, harmonic dimensions, and the named checks."""

from fractions import Fraction

import pytest

from flateta.combinatorics import multiplicity_tables
from flateta.core import SpinStructure, make_manifold
from flateta.invariants import (
    IntegralityVerdict,
    ParityVerdict,
    eta,
    exact_invariants,
    harmonic_dim,
    parity_difference_check,
    positivity_threshold_report,
    prime_integrality_check,
)

PLUS = SpinStructure.PLUS
MINUS = SpinStructure.MINUS


class TestEta:
    def test_n7_plus_is_minus_two(self):
        result = eta(make_manifold(3), PLUS)
        assert result.value == Fraction(-2)
        assert result.table.counts == (2, 0, 0, 2, 0, 2, 2)

    def test_n3_plus(self):
        assert eta(make_manifold(1), PLUS).value == Fraction(-2, 3)

    def test_n3_minus(self):
        assert eta(make_manifold(1), MINUS).value == Fraction(4, 3)

    def test_n7_minus(self):
        # weights 1-(2r+1)/7 over A_1 = A_2 = A_3 = A_6 = 2 cancel exactly
        assert eta(make_manifold(3), MINUS).value == Fraction(0)

    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_even_k_vanishes(self, structure):
        for k in range(2, 61, 2):
            result = eta(make_manifold(k), structure)
            assert result.value == 0
            assert result.table.total() == 1 << k  # table still attached

    @pytest.mark.parametrize("k", range(1, 16, 2))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_denominator_divides_n(self, k, structure):
        m = make_manifold(k)
        assert m.n % eta(m, structure).value.denominator == 0

    @pytest.mark.parametrize("k", range(1, 12, 2))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_value_recomputable_from_table(self, k, structure):
        # independent resummation of the attached table
        m = make_manifold(k)
        result = eta(m, structure)
        if structure is PLUS:
            expected = sum(
                Fraction(c) * (1 - Fraction(2 * r, m.n))
                for r, c in enumerate(result.table.counts)
                if r >= 1
            )
        else:
            expected = sum(
                Fraction(c) * (1 - Fraction(2 * r + 1, m.n))
                for r, c in enumerate(result.table.counts)
            )
        assert result.value == expected


class TestSharedTables:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 12, 25, 150])
    def test_eta_pair_matches_one_result_per_structure(self, k):
        # the pair (eta+, eta-) of one exact record equals one eta call per structure
        m = make_manifold(k)
        exact = exact_invariants(m)
        assert (exact.plus, exact.minus) == (eta(m, PLUS), eta(m, MINUS))

    def test_exact_invariants_match_one_call_per_quantity(self):
        for k in range(1, 151):
            m = make_manifold(k)
            exact = exact_invariants(m)
            got = (exact.plus, exact.minus, exact.harmonic_plus)
            assert got == (eta(m, PLUS), eta(m, MINUS), harmonic_dim(m, PLUS)), k

    def test_harmonic_dim_is_the_plus_zero_entry(self):
        # h has one definition, the residue-0 entry of the plus table
        for k in range(1, 151):
            m = make_manifold(k)
            tables = multiplicity_tables(m)
            h = tables[PLUS].counts[0]
            assert harmonic_dim(m, PLUS) == h, k
            assert exact_invariants(m).harmonic_plus == h, k
            assert harmonic_dim(m, MINUS) == 0


class TestHarmonicDim:
    def test_n7_plus(self):
        assert harmonic_dim(make_manifold(3), PLUS) == 2

    def test_n3_plus(self):
        assert harmonic_dim(make_manifold(1), PLUS) == 0

    @pytest.mark.parametrize("k", range(1, 13))
    def test_minus_always_zero(self, k):
        assert harmonic_dim(make_manifold(k), MINUS) == 0

    @pytest.mark.parametrize("k", range(1, 13))
    def test_plus_matches_zero_entry_and_is_even(self, k):
        m = make_manifold(k)
        h = harmonic_dim(m, PLUS)
        assert h == multiplicity_tables(m)[PLUS].counts[0]
        assert h % 2 == 0


class TestPrimeIntegrality:
    def test_n7(self):
        m = make_manifold(3)
        assert prime_integrality_check(eta(m, PLUS)) is IntegralityVerdict.INTEGRAL
        assert prime_integrality_check(eta(m, MINUS)) is IntegralityVerdict.INTEGRAL

    def test_n11(self):
        m = make_manifold(5)
        assert prime_integrality_check(eta(m, PLUS)) is IntegralityVerdict.INTEGRAL

    def test_n9_not_prime(self):
        verdict = prime_integrality_check(eta(make_manifold(4), PLUS))
        assert verdict is IntegralityVerdict.NOT_APPLICABLE

    def test_n3_too_small(self):
        verdict = prime_integrality_check(eta(make_manifold(1), PLUS))
        assert verdict is IntegralityVerdict.NOT_APPLICABLE

    def test_n13_wrong_residue_class(self):
        # 13 is prime and > 3 but 13 + 1 = 14 is not divisible by 4
        verdict = prime_integrality_check(eta(make_manifold(6), PLUS))
        assert verdict is IntegralityVerdict.NOT_APPLICABLE


class TestParityDifference:
    def test_n3_value(self):
        m = make_manifold(1)
        assert eta(m, PLUS).value - eta(m, MINUS).value == Fraction(-2)
        verdict = parity_difference_check(eta(m, PLUS), eta(m, MINUS))
        assert verdict is ParityVerdict.EVEN_DIFFERENCE

    def test_n7(self):
        m = make_manifold(3)
        verdict = parity_difference_check(eta(m, PLUS), eta(m, MINUS))
        assert verdict is ParityVerdict.EVEN_DIFFERENCE

    def test_even_k_trivially_even(self):
        m = make_manifold(2)
        assert eta(m, PLUS).value - eta(m, MINUS).value == 0
        verdict = parity_difference_check(eta(m, PLUS), eta(m, MINUS))
        assert verdict is ParityVerdict.EVEN_DIFFERENCE

    @pytest.mark.parametrize("k", range(1, 16, 2))
    def test_even_difference_through_k15(self, k):
        m = make_manifold(k)
        verdict = parity_difference_check(eta(m, PLUS), eta(m, MINUS))
        assert verdict is ParityVerdict.EVEN_DIFFERENCE

    def test_rejects_results_that_are_not_one_plus_minus_pair(self):
        m3, m5 = make_manifold(3), make_manifold(5)
        for plus, minus in (
            (eta(m3, MINUS), eta(m3, PLUS)),
            (eta(m3, PLUS), eta(m3, PLUS)),
            (eta(m3, PLUS), eta(m5, MINUS)),
        ):
            with pytest.raises(ValueError):
                parity_difference_check(plus, minus)


class TestPositivityThreshold:
    def test_rows_through_k12(self):
        rows = positivity_threshold_report(12)
        assert [row.k for row in rows] == list(range(1, 13))
        by_k = {row.k: row for row in rows}
        assert by_k[1].harmonic_plus == 0 and by_k[1].consistent
        assert by_k[3].harmonic_plus == 2 and by_k[3].consistent

    def test_k2_discrepancy_is_surfaced_not_silenced(self):
        # |mu| <= 3 at k = 2, so no sign vector meets the residue-0 condition,
        # contradicting the claimed threshold n >= 5; the row must say so
        row = positivity_threshold_report(2)[1]
        assert row.n == 5
        assert row.harmonic_plus == 0
        assert row.expected_positive and not row.is_positive
        assert not row.consistent

    def test_only_k2_is_inconsistent_up_to_k12(self):
        rows = positivity_threshold_report(12)
        assert [row.k for row in rows if not row.consistent] == [2]

    def test_rejects_bad_kmax(self):
        with pytest.raises(ValueError):
            positivity_threshold_report(0)
