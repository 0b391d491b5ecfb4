"""Exact eta invariants, harmonic-spinor dimensions, and integrality checks.

Eta values are exact rationals: one weighted sum over the multiplicity
table at every k.  ``exact_invariants`` gives both structures' eta
results and the plus harmonic dimension from one closed-form table
count.  At even k negation keeps parity and maps residue r to -r (plus)
or n-1-r (minus); the weights are odd under that map, so the sum is
exactly 0.
Each check takes the results it judges, never a manifold, and decides
integrality that floating point could not.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import MultiplicityTable, multiplicity_tables, prime_factors
from .core import CyclicFlatManifold, SpinStructure, make_manifold


class EtaResult(NamedTuple):
    """Exact eta value together with the table it was computed from."""

    manifold: CyclicFlatManifold
    structure: SpinStructure
    value: Fraction
    table: MultiplicityTable


class ExactInvariants(NamedTuple):
    """The plus and minus eta results and the plus harmonic dimension of one manifold."""

    plus: EtaResult
    minus: EtaResult
    harmonic_plus: int


def _eta_result(m: CyclicFlatManifold, table: MultiplicityTable) -> EtaResult:
    """Eta of m for the structure of ``table``, the multiplicity table it sums.

    The sum runs over the residues r with weights 1 - (2r + half)/n,
    where half is the structure's half-offset (0 plus, 1 minus).  The
    plus structure leaves out r = 0: those eigenvalue classes are
    symmetric and cancel.
    """
    half = table.structure.half
    terms = (c * (m.n - 2 * r - half) for r, c in enumerate(table.counts) if r or half)
    value = Fraction(sum(terms), m.n)
    return EtaResult(manifold=m, structure=table.structure, value=value, table=table)


def exact_invariants(m: CyclicFlatManifold) -> ExactInvariants:
    """Both eta results and the plus harmonic dimension of m, from one table count.

    h is the doubled-count formula: the residue-0 entry of the plus table.
    """
    tables = multiplicity_tables(m)
    plus = tables[SpinStructure.PLUS]
    return ExactInvariants(
        plus=_eta_result(m, plus),
        minus=_eta_result(m, tables[SpinStructure.MINUS]),
        harmonic_plus=plus.counts[0],
    )


def eta(m: CyclicFlatManifold, structure: SpinStructure) -> EtaResult:
    """Eta invariant of the Dirac operator for the given spin structure."""
    return _eta_result(m, multiplicity_tables(m)[structure])


def harmonic_dim(m: CyclicFlatManifold, structure: SpinStructure) -> int:
    """Dimension of the space of harmonic spinors, by the doubled-count formula.

    For the plus structure this is the record's ``harmonic_plus``; for
    the minus structure the kernel is trivial (the lift has n-th power
    -1, so no constant section is invariant) and no table is built.
    """
    if structure.half:
        return 0
    return exact_invariants(m).harmonic_plus


class IntegralityVerdict(Enum):
    """Outcome of the prime-dimension integrality check."""

    NOT_APPLICABLE = "not_applicable"
    INTEGRAL = "integral"
    NON_INTEGRAL = "non_integral"


def _is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == {n: 1}


def prime_integrality_check(result: EtaResult) -> IntegralityVerdict:
    """Test eta for integrality when n is prime, n > 3 and 4 divides n+1."""
    n = result.manifold.n
    if not (n > 3 and (n + 1) % 4 == 0 and _is_prime(n)):
        return IntegralityVerdict.NOT_APPLICABLE
    return (
        IntegralityVerdict.INTEGRAL
        if result.value.denominator == 1
        else IntegralityVerdict.NON_INTEGRAL
    )


class ParityVerdict(Enum):
    """Outcome of the structure-difference parity check."""

    EVEN_DIFFERENCE = "even"
    VIOLATION = "violation"


def parity_difference_check(plus: EtaResult, minus: EtaResult) -> ParityVerdict:
    """Test whether eta(plus) - eta(minus) is an even integer.

    ``plus`` and ``minus`` must be the two results of one manifold.  For
    even k both invariants vanish, the difference is 0, and the check
    reports an even difference.
    """
    pair = (plus.manifold, plus.structure, minus.structure)
    if pair != (minus.manifold, SpinStructure.PLUS, SpinStructure.MINUS):
        raise ValueError("need the plus and minus eta results of one manifold")
    d = plus.value - minus.value
    if d.denominator == 1 and d.numerator % 2 == 0:
        return ParityVerdict.EVEN_DIFFERENCE
    return ParityVerdict.VIOLATION


class ThresholdRow(NamedTuple):
    """One row of the harmonic-positivity report."""

    k: int
    n: int
    harmonic_plus: int
    is_positive: bool
    expected_positive: bool

    @property
    def consistent(self) -> bool:
        return self.is_positive == self.expected_positive


def threshold_row(m: CyclicFlatManifold, h: int) -> ThresholdRow:
    """Plus harmonic dimension ``h`` of m against the claimed threshold n >= 5."""
    return ThresholdRow(
        k=m.k,
        n=m.n,
        harmonic_plus=h,
        is_positive=h > 0,
        expected_positive=m.n >= 5,
    )


def positivity_threshold_report(k_max: int) -> tuple[ThresholdRow, ...]:
    """Compare harmonic dimensions against the claimed threshold n >= 5.

    The claim "positive exactly when n >= 5" fails at k = 2 (n = 5), where
    direct enumeration finds no admissible sign vector: |mu| <= 3 < 5, so
    mu can never be congruent to n mod 2n.  The report surfaces the
    mismatch instead of asserting the threshold.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max}")
    manifolds = (make_manifold(k) for k in range(1, k_max + 1))
    return tuple(threshold_row(m, harmonic_dim(m, SpinStructure.PLUS)) for m in manifolds)
