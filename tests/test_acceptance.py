"""Acceptance checklist: one numbered criterion per test, exact or at stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s``)
before asserting, so the checklist reads top to bottom even on failure.

One case fails by design and is kept failing deliberately:

* A08 at k = 4: the closed-form harmonic dimension doubles the count of
  positive-parity sign vectors with residue 0.  The kernel is the fixed
  space of the lift, whose dimension counts the residue-0 sign vectors of
  both parity classes.  Negation swaps the parity classes at every odd k,
  so doubling is exact there; at even k it is exact only when the two
  classes hold equally many residue-0 vectors.  At k = 4 both residue-0
  vectors (minus signs on weights {1,4} or {2,3}) have positive parity,
  so the formula gives 4 against the oracle's 2.  The same overcount
  occurs at k = 12 (168 against 164) and k = 24 (342400 against 342394),
  beyond the oracle's reach in this checklist.

A09 checks every relation of the representation as an exact identity on
its Pauli strings, with the eigen-sign relation in its form for every k,
e_n v = i*(-1)^k*nu*v, and the stated form e_n v = -i*nu*v holding only
at odd k, where the two coincide.  The representation fixes
e_n = i*T^(x)k, so the stated form is off by the sign (-1)^k; at even k
it is a sign convention (negating e_n keeps every other relation A09
checks), not a fault, and it fails first at (-1,...,-1).
"""

import json
import time
from pathlib import Path

import pytest

from flateta.cli import main
from flateta.combinatorics import multiplicity_tables
from flateta.core import SpinStructure, make_manifold
from flateta.invariants import eta, harmonic_dim, parity_difference_check, ParityVerdict
from flateta.oracle import (
    build_rep,
    eigenbasis_check,
    folded_spectrum,
    kernel_dim_oracle,
    lift_eigenphases,
    operator_defects,
    spectrum_table_mismatches,
)
from flateta.zeta import eta_numeric, hurwitz_zeta

PLUS = SpinStructure.PLUS
MINUS = SpinStructure.MINUS
GOLDEN = Path(__file__).parent / "data" / "table_n7_plus.txt"


def report(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {status}{suffix}")
    return ok


class TestA01ExampleReproduction:
    def test_exact_value_table_and_runtime(self, capsys):
        main(["eta", "--dim", "7", "--structure", "plus", "--format", "json"])  # warm
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["eta", "--dim", "7", "--structure", "plus", "--format", "json"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        payload = json.loads(out)
        ok = (
            code == 0
            and payload["eta"] == {"numerator": -2, "denominator": 1}
            and payload["multiplicities"] == [2, 0, 0, 2, 0, 2, 2]
            and elapsed < 0.010
        )
        with capsys.disabled():
            report("A01 example reproduction (dim 7 plus)", ok, f"{elapsed * 1e3:.2f} ms")
        assert payload["eta"] == {"numerator": -2, "denominator": 1}
        assert payload["multiplicities"] == [2, 0, 0, 2, 0, 2, 2]
        assert code == 0
        assert elapsed < 0.010


class TestA02MultiplicityConservation:
    def test_sum_is_2_to_k_through_20(self):
        start = time.perf_counter()
        ok = True
        for k in range(1, 21):
            m = make_manifold(k)
            for structure in (PLUS, MINUS):
                if multiplicity_tables(m)[structure].total() != 1 << k:
                    ok = False
        elapsed = time.perf_counter() - start
        report("A02 multiplicity conservation (k <= 20)", ok and elapsed < 5.0, f"{elapsed:.2f} s")
        assert ok
        assert elapsed < 5.0


class TestA03ParityOfDifference:
    @pytest.mark.parametrize("k", range(1, 16, 2))
    def test_difference_in_two_z(self, k):
        m = make_manifold(k)
        verdict = parity_difference_check(eta(m, PLUS), eta(m, MINUS))
        ok = verdict is ParityVerdict.EVEN_DIFFERENCE
        report(f"A03 eta difference even (k={k})", ok)
        assert ok


class TestA04PrimeIntegrality:
    @pytest.mark.parametrize("n", [7, 11, 19, 23])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_eta_is_integral(self, n, structure):
        m = make_manifold((n - 1) // 2)
        value = eta(m, structure).value
        ok = value.denominator == 1
        report(f"A04 integrality (n={n}, {structure.value})", ok, f"eta={value}")
        assert ok


class TestA05DenominatorLaw:
    @pytest.mark.parametrize("k", range(1, 16, 2))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_denominator_divides_n(self, k, structure):
        m = make_manifold(k)
        den = eta(m, structure).value.denominator
        ok = m.n % den == 0
        report(f"A05 denominator divides n (k={k}, {structure.value})", ok, f"den={den}")
        assert ok


class TestA06HarmonicSpinors:
    def test_minus_vanishes_through_k12(self):
        ok = all(harmonic_dim(make_manifold(k), MINUS) == 0 for k in range(1, 13))
        report("A06 harmonic minus = 0 (k <= 12)", ok)
        assert ok

    def test_plus_landmarks(self):
        d7 = harmonic_dim(make_manifold(3), PLUS)
        d3 = harmonic_dim(make_manifold(1), PLUS)
        ok = d7 == 2 and d3 == 0
        report("A06 harmonic plus landmarks (n=7 -> 2, n=3 -> 0)", ok)
        assert ok

    def test_threshold_reported_not_asserted(self):
        # the n = 5 case contradicts the claimed threshold; the package must
        # surface it as a report row instead of asserting the claim
        from flateta.invariants import positivity_threshold_report

        rows = positivity_threshold_report(8)
        flagged = [row.k for row in rows if not row.consistent]
        ok = flagged == [2]
        report("A06 threshold discrepancy surfaced (k=2 row)", ok, f"flagged={flagged}")
        assert ok


class TestA07OracleSpectra:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_fold_equals_table(self, k, structure):
        m = make_manifold(k)
        start = time.perf_counter()
        rep = build_rep(k)
        folded = folded_spectrum(lift_eigenphases(rep)[structure], m, structure)
        mismatches = spectrum_table_mismatches(folded, multiplicity_tables(m)[structure])
        elapsed = time.perf_counter() - start
        ok = mismatches == [] and elapsed < 30.0
        report(
            f"A07 spectral fold (k={k}, {structure.value})",
            ok,
            f"{elapsed:.2f} s",
        )
        assert mismatches == []
        assert elapsed < 30.0


class TestA08OracleKernel:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_kernel_matches_formula(self, k):
        m = make_manifold(k)
        rep = build_rep(k)
        counted = kernel_dim_oracle(lift_eigenphases(rep)[PLUS])
        formula = harmonic_dim(m, PLUS)
        ok = counted == formula
        report(
            f"A08 kernel oracle vs formula (k={k})",
            ok,
            f"oracle={counted}, formula={formula}"
            + ("" if ok else "; parity classes differ in residue-0 count, see module docstring"),
        )
        assert counted == formula

    @pytest.mark.parametrize("k", range(1, 9))
    def test_minus_kernel_zero(self, k):
        counted = kernel_dim_oracle(lift_eigenphases(build_rep(k))[MINUS])
        ok = counted == 0
        report(f"A08 kernel minus = 0 (k={k})", ok)
        assert counted == 0


class TestA09RepresentationIntegrity:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_relations_hold_exactly(self, k):
        rep = build_rep(k)
        relations = {**operator_defects(rep), **eigenbasis_check(rep)}
        # the stated form e_n v = -i nu v equals the universal one at odd k only
        expected = dict.fromkeys(relations)
        if k % 2 == 0:
            expected["en_eigen_sign"] = "(" + ",".join(["-1"] * k) + ")"
        failing = {name: witness for name, witness in relations.items() if witness is not None}
        ok = relations == expected
        report(
            f"A09 representation integrity (k={k})",
            ok,
            f"{len(relations) - len(failing)} of {len(relations)} relations exact"
            + "".join(f", {name} fails at {witness}" for name, witness in failing.items()),
        )
        assert relations == expected


class TestA10ZetaRegularization:
    def test_zero_value_grid(self):
        worst = max(
            abs(hurwitz_zeta(0.0, i / 20).value - (0.5 - i / 20)) for i in range(1, 21)
        )
        ok = worst <= 1e-10
        report("A10 zeta(0, a) = 1/2 - a on 20-point grid", ok, f"worst={worst:.2e}")
        assert worst <= 1e-10

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_numeric_eta_matches_exact(self, k, structure):
        m = make_manifold(k)
        result = eta(m, structure)
        exact = float(result.value)
        numeric = eta_numeric(result, 0.0)
        ok = abs(numeric - exact) <= 1e-8
        report(
            f"A10 numeric eta at 0 (k={k}, {structure.value})",
            ok,
            f"|{numeric:.10f} - {exact:.10f}|",
        )
        assert abs(numeric - exact) <= 1e-8


class TestA11GoldenOutput:
    def test_table_matches_committed_golden_file(self, capsys):
        code = main(["table", "--dim", "7", "--structure", "plus"])
        out = capsys.readouterr().out
        golden = GOLDEN.read_text(encoding="utf-8")
        ok = code == 0 and out == golden
        with capsys.disabled():
            report("A11 golden table output (n=7 plus)", ok)
        assert code == 0
        assert out == golden
