"""Named verification suite driving the oracle against the closed forms.

The suite is three groups of checks, reported in this order:

* representation checks test the representation alone, as exact
  identities on its Pauli strings and rotation numbers: the Clifford and
  rotor relations, the lift powers and conjugation, all six from one
  ``oracle.operator_defects`` pass, then the eigenbasis relations
  (alpha e_n = e_n alpha, alpha's eigenphase and the two forms of e_n's
  eigen-sign) from ``oracle.eigenbasis_check``.  Each passes as ``exact``
  or fails with a witness: the first failing pair, plane or sign vector;
* agreement checks compare the oracle with the exact layer: each lift's
  spectrum, folded to its n eigenvalue classes, against the eta result's
  table residue by residue, and the two kernel counts against the
  harmonic dimension;
* zeta checks re-derive each exact eta along the zeta route, in floats,
  to within ``_ETA_TOL``.

The fold-versus-table and numeric-eta comparisons are valid for odd k
only and are reported as skipped on even k; the kernel comparison runs
for every k because the doubled-count formula claims all of them.  It
genuinely fails wherever the two parity classes hold different numbers
of residue-0 sign vectors: k = 4 (oracle 2, formula 4), and by the weight
congruence also k = 12 (164 against 168); the suite reports it honestly.
The stated eigen-sign form ``en_eigen_sign`` fails at every even k by
the sign (-1)^k, first at (-1,...,-1); ``en_eigen_sign_universal`` is the
form for all k.

``run_verification`` builds one representation and one
``exact_invariants`` record, both eta results and the harmonic dimension
from one closed-form table count, and runs all three groups on them; the
agreement group counts both lifts' eigenphases in one
``oracle.lift_eigenphases`` call.  A catalog sweep with the oracle runs
only the agreement group, once per k, on the record its rows already
hold, and gives the verdict to both rows.
"""

from __future__ import annotations

from typing import NamedTuple

from . import oracle
from .core import SpinStructure, manifold_for_dim
from .invariants import ExactInvariants, exact_invariants
from .zeta import eta_numeric

_ETA_TOL = 1e-8

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class CheckResult(NamedTuple):
    name: str
    status: str
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == FAIL


class VerificationReport(NamedTuple):
    n: int
    k: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return not any(r.failed for r in self.results)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.failed)


def _exact(name: str, witness: str | None) -> CheckResult:
    if witness is None:
        return CheckResult(name, PASS, "exact")
    return CheckResult(name, FAIL, f"fails at {witness}")


def _representation_checks(rep: oracle.SpinorRep) -> list[CheckResult]:
    """The representation against its defining relations; no formula enters."""
    relations = {**oracle.operator_defects(rep), **oracle.eigenbasis_check(rep)}
    return [_exact(name, witness) for name, witness in relations.items()]


def _agreement_checks(rep: oracle.SpinorRep, exact: ExactInvariants) -> list[CheckResult]:
    """The oracle's spectrum and kernels against the record's eta tables and h.

    Both lifts' eigenphases are read in one pass, and each lift's give
    both its spectrum and its kernel.
    """
    m = exact.plus.manifold
    phases = oracle.lift_eigenphases(rep)
    results: list[CheckResult] = []
    for result in (exact.plus, exact.minus):
        name = f"spectrum_vs_table_{result.structure.value}"
        if m.k % 2 == 0:
            results.append(CheckResult(name, SKIP, "fold comparison applies to odd k only"))
            continue
        folded = oracle.folded_spectrum(phases[result.structure], m, result.structure)
        mismatches = oracle.spectrum_table_mismatches(folded, result.table)
        if mismatches:
            results.append(CheckResult(name, FAIL, "; ".join(mismatches[:3])))
        else:
            results.append(CheckResult(name, PASS, f"all {m.n} residue classes match"))

    counted = oracle.kernel_dim_oracle(phases[SpinStructure.PLUS])
    results.append(
        CheckResult(
            "kernel_vs_formula_plus",
            PASS if counted == exact.harmonic_plus else FAIL,
            f"oracle {counted}, formula {exact.harmonic_plus}",
        )
    )
    counted_minus = oracle.kernel_dim_oracle(phases[SpinStructure.MINUS])
    results.append(
        CheckResult(
            "kernel_zero_minus",
            PASS if counted_minus == 0 else FAIL,
            f"oracle {counted_minus}, expected 0",
        )
    )
    return results


def _zeta_checks(exact: ExactInvariants) -> list[CheckResult]:
    """Each of the record's eta values against its re-derivation along the zeta route."""
    results = []
    for result in (exact.plus, exact.minus):
        name = f"eta_numeric_{result.structure.value}"
        if result.manifold.k % 2 == 0:
            results.append(CheckResult(name, SKIP, "zeta route applies to odd k only"))
            continue
        value = float(result.value)
        numeric = eta_numeric(result, 0.0)
        defect = abs(numeric - value)
        results.append(
            CheckResult(
                name,
                PASS if defect <= _ETA_TOL else FAIL,
                f"numeric {numeric:.10f} vs exact {value:.10f} (defect {defect:.3e})",
            )
        )
    return results


def run_verification(dim: int) -> VerificationReport:
    """Run the full named check suite for one odd dimension; ``oracle.build_rep`` owns the cap.

    One ``exact_invariants`` record gives both eta results and the harmonic dimension.
    """
    m = manifold_for_dim(dim)
    rep = oracle.build_rep(m.k)
    exact = exact_invariants(m)
    results = _representation_checks(rep) + _agreement_checks(rep, exact) + _zeta_checks(exact)
    return VerificationReport(n=m.n, k=m.k, results=tuple(results))


def oracle_agreement_verdict(exact: ExactInvariants) -> str:
    """Condensed oracle verdict for both catalog rows of one k.

    Runs the agreement checks alone on the ``exact_invariants`` record
    that the rows hold.
    """
    checks = _agreement_checks(oracle.build_rep(exact.plus.manifold.k), exact)
    return FAIL if any(c.failed for c in checks) else PASS
