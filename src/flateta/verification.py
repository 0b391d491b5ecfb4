"""Named verification suite driving the oracle against the closed forms.

The suite is three groups of checks, reported in this order:

* representation checks measure the representation alone: the Clifford and
  rotor relations, the lift powers and conjugation, all six bounded in
  one ``oracle.operator_defects`` pass, then the eigenbasis relations;
* agreement checks compare the oracle with the exact layer: the windowed
  spectrum folded against each eta result's table, the pairing of the
  residue-0 classes, and the two kernel counts against the harmonic
  dimension;
* zeta checks re-derive each exact eta along the zeta route.

The fold-versus-table and numeric-eta comparisons are valid for odd k
only and are reported as skipped on even k; the kernel comparison runs
for every k because the doubled-count formula claims all of them.  It
genuinely fails wherever the two parity classes hold different numbers
of residue-0 sign vectors: k = 4 (oracle 2, formula 4), and by the weight
congruence also k = 12 (164 against 168); the suite reports it honestly.
The stated eigen-sign form ``en_eigen_sign`` fails at every even k by
the sign (-1)^k; ``en_eigen_sign_universal`` is the form for all k.

``run_verification`` builds one representation, as slot factors, and
both eta results from one residue histogram, whose plus table also gives
the harmonic dimension, and runs all three groups on them; the
agreement group reads both lifts' eigenphases in one
``oracle.lift_eigenphases`` call.  A catalog sweep with the oracle runs
only the agreement group, once per k, on the eta results and harmonic
dimension its rows already hold, and gives the verdict to both rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .core import PHASE_TOL, CyclicFlatManifold, SpinStructure, manifold_for_dim
from .invariants import EtaResult, eta_pair, harmonic_dim
from .zeta import eta_numeric

_CLIFFORD_TOL = 1e-12
_EIGEN_TOL = 1e-10
_ETA_TOL = 1e-8

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == FAIL


@dataclass(frozen=True)
class VerificationReport:
    n: int
    k: int
    window: int
    tol: float
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return not any(r.failed for r in self.results)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.failed)


def _bounded(name: str, defect: float, tol: float, witness: str | None = None) -> CheckResult:
    passed = defect <= tol
    detail = f"defect {defect:.3e} (tol {tol:.1e})"
    if witness and not passed:
        detail += f", worst at {witness}"
    return CheckResult(name, PASS if passed else FAIL, detail)


def _representation_checks(rep: oracle.SpinorRep, tol: float) -> list[CheckResult]:
    """The representation against its defining relations; no formula enters.

    The six operator relations come from one ``oracle.operator_defects``
    pass, the Clifford and rotor pairs at the tighter tolerance.
    """
    exact = {"clifford_relations", "rotor_commutation"}
    return [
        *(
            _bounded(name, defect, _CLIFFORD_TOL if name in exact else tol)
            for name, defect in oracle.operator_defects(rep).items()
        ),
        *(
            _bounded(name, defect, _EIGEN_TOL, witness)
            for name, defect, witness in oracle.eigenbasis_check(rep)
        ),
    ]


def _agreement_checks(
    rep: oracle.SpinorRep, plus: EtaResult, minus: EtaResult, h: int, window: int, tol: float
) -> list[CheckResult]:
    """The oracle's spectrum and kernels against the eta tables and h.

    Both lifts' eigenphases are read in one pass, and each lift's give
    both its spectrum and its kernel.
    """
    m = plus.manifold
    phases = oracle.lift_eigenphases(rep, tol)
    results: list[CheckResult] = []
    for result in (plus, minus):
        name = f"spectrum_vs_table_{result.structure.value}"
        if m.k % 2 == 0:
            results.append(CheckResult(name, SKIP, "fold comparison applies to odd k only"))
            continue
        spectrum = oracle.windowed_spectrum(phases[result.structure], m, result.structure, window)
        mismatches = oracle.spectrum_table_mismatches(spectrum, result.table, window)
        if mismatches:
            results.append(CheckResult(name, FAIL, "; ".join(mismatches[:3])))
        else:
            results.append(CheckResult(name, PASS, f"window {window}, all classes match"))
        if result.structure is SpinStructure.PLUS:
            problems = oracle.zero_class_asymmetries(spectrum, m.n, window)
            results.append(
                CheckResult(
                    "zero_class_symmetry",
                    FAIL if problems else PASS,
                    "; ".join(problems[:3]) if problems else "residue-0 classes pair off",
                )
            )

    counted = oracle.kernel_dim_oracle(phases[SpinStructure.PLUS])
    results.append(
        CheckResult(
            "kernel_vs_formula_plus",
            PASS if counted == h else FAIL,
            f"oracle {counted}, formula {h}",
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


def _zeta_checks(plus: EtaResult, minus: EtaResult) -> list[CheckResult]:
    """Each exact eta against its re-derivation along the zeta route."""
    results = []
    for result in (plus, minus):
        name = f"eta_numeric_{result.structure.value}"
        if result.manifold.k % 2 == 0:
            results.append(CheckResult(name, SKIP, "zeta route applies to odd k only"))
            continue
        exact = float(result.value)
        numeric = eta_numeric(result, 0.0)
        defect = abs(numeric - exact)
        results.append(
            CheckResult(
                name,
                PASS if defect <= _ETA_TOL else FAIL,
                f"numeric {numeric:.10f} vs exact {exact:.10f} (defect {defect:.3e})",
            )
        )
    return results


def _window(m: CyclicFlatManifold, window: int | None) -> int:
    """``window``, or the suite's default Fourier window 3n when it is None."""
    return 3 * m.n if window is None else window


def run_verification(
    dim: int, window: int | None = None, tol: float = PHASE_TOL
) -> VerificationReport:
    """Run the full named check suite for one odd dimension; ``oracle.build_rep`` owns the cap.

    One residue histogram gives both eta results and the harmonic dimension.
    """
    m = manifold_for_dim(dim)
    window = _window(m, window)
    if window < m.n:
        raise ValueError(f"window must be at least n = {m.n}, got {window}")

    rep = oracle.build_rep(m.k)
    plus, minus = eta_pair(m)
    h = harmonic_dim(m, SpinStructure.PLUS, plus.table)
    results = (
        _representation_checks(rep, tol)
        + _agreement_checks(rep, plus, minus, h, window, tol)
        + _zeta_checks(plus, minus)
    )
    return VerificationReport(n=m.n, k=m.k, window=window, tol=tol, results=tuple(results))


def oracle_agreement_verdict(plus: EtaResult, minus: EtaResult, h: int) -> str:
    """Condensed oracle verdict for both catalog rows of one k.

    Runs the agreement checks alone, at the suite's default window 3n and
    tol, on the plus and minus eta results and the plus harmonic
    dimension h that the rows hold.
    """
    rep = oracle.build_rep(plus.manifold.k)
    checks = _agreement_checks(rep, plus, minus, h, _window(plus.manifold, None), PHASE_TOL)
    return FAIL if any(c.failed for c in checks) else PASS
