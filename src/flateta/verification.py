"""Named verification suite driving the oracle against the closed forms.

Each check compares an independent matrix computation with a formula
output.  The fold-versus-table and numeric-eta comparisons are valid for
odd k only and are reported as skipped on even k; the kernel comparison
runs for every k because the doubled-count formula claims all of them.
It genuinely fails wherever the two parity classes hold different numbers
of residue-0 sign vectors: k = 4 (oracle 2, formula 4), and by the weight
congruence also k = 12 (164 against 168); the suite reports it honestly.
The stated eigen-sign form ``en_eigen_sign`` fails at every even k by
the sign (-1)^k; ``en_eigen_sign_universal`` is the form for all k.

One suite run builds one representation, with its eigenbasis, and checks
both spin structures on it; one eta result per structure gives the fold
its table and the zeta route its exact value.  A catalog sweep with the
oracle runs the suite once per k and gives the verdict to both rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .core import SpinStructure, manifold_for_dim
from .invariants import eta, harmonic_dim
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


def _bounded(name: str, defect: float, tol: float) -> CheckResult:
    status = PASS if defect <= tol else FAIL
    return CheckResult(name, status, f"defect {defect:.3e} (tol {tol:.1e})")


def run_verification(dim: int, window: int | None = None, tol: float = 1e-9) -> VerificationReport:
    """Run the full named check suite for one odd dimension."""
    m = manifold_for_dim(dim)
    if m.k > oracle.MAX_K:
        raise ValueError(f"oracle cap: k = {m.k} exceeds {oracle.MAX_K}")
    if window is None:
        window = 3 * m.n
    if window < m.n:
        raise ValueError(f"window must be at least n = {m.n}, got {window}")

    rep = oracle.build_rep(m.k)
    etas = {s: eta(m, s) for s in SpinStructure}
    results: list[CheckResult] = []

    results.append(_bounded("clifford_relations", oracle.clifford_defect(rep), _CLIFFORD_TOL))
    results.append(_bounded("rotor_commutation", oracle.rotor_commutation_defect(rep), _CLIFFORD_TOL))
    results.append(_bounded("alpha_power_sign", oracle.alpha_power_defect(rep), tol))
    plus_def, minus_def = oracle.lift_power_defects(rep)
    results.append(_bounded("lift_power_plus", plus_def, tol))
    results.append(_bounded("lift_power_minus", minus_def, tol))
    results.append(_bounded("conjugation_rotation", oracle.conjugation_defect(rep), tol))

    eigen = oracle.eigenbasis_check(rep, tol=_EIGEN_TOL)
    for check in eigen.checks:
        detail = f"defect {check.defect:.3e} (tol {check.tol:.1e})"
        if check.witness and not check.passed:
            detail += f", worst at {check.witness}"
        results.append(CheckResult(check.name, PASS if check.passed else FAIL, detail))

    for structure in SpinStructure:
        name = f"spectrum_vs_table_{structure.value}"
        if m.k % 2 == 0:
            results.append(CheckResult(name, SKIP, "fold comparison applies to odd k only"))
            continue
        table = etas[structure].table
        spectrum = oracle.windowed_spectrum(rep, m, structure, window, tol=tol)
        mismatches = oracle.spectrum_table_mismatches(spectrum, table, window)
        if mismatches:
            results.append(CheckResult(name, FAIL, "; ".join(mismatches[:3])))
        else:
            results.append(CheckResult(name, PASS, f"window {window}, all classes match"))
        if structure is SpinStructure.PLUS and m.k % 2 == 1:
            problems = oracle.zero_class_asymmetries(spectrum, m.n, window)
            results.append(
                CheckResult(
                    "zero_class_symmetry",
                    FAIL if problems else PASS,
                    "; ".join(problems[:3]) if problems else "residue-0 classes pair off",
                )
            )

    formula = harmonic_dim(m, SpinStructure.PLUS)
    counted = oracle.kernel_dim_oracle(rep, m, SpinStructure.PLUS, tol=tol)
    results.append(
        CheckResult(
            "kernel_vs_formula_plus",
            PASS if counted == formula else FAIL,
            f"oracle {counted}, formula {formula}",
        )
    )
    counted_minus = oracle.kernel_dim_oracle(rep, m, SpinStructure.MINUS, tol=tol)
    results.append(
        CheckResult(
            "kernel_zero_minus",
            PASS if counted_minus == 0 else FAIL,
            f"oracle {counted_minus}, expected 0",
        )
    )

    for structure in SpinStructure:
        name = f"eta_numeric_{structure.value}"
        if m.k % 2 == 0:
            results.append(CheckResult(name, SKIP, "zeta route applies to odd k only"))
            continue
        exact = float(etas[structure].value)
        numeric = eta_numeric(m, 0.0, structure)
        defect = abs(numeric - exact)
        results.append(
            CheckResult(
                name,
                PASS if defect <= _ETA_TOL else FAIL,
                f"numeric {numeric:.10f} vs exact {exact:.10f} (defect {defect:.3e})",
            )
        )

    return VerificationReport(n=m.n, k=m.k, window=window, tol=tol, results=tuple(results))


def oracle_agreement_verdict(dim: int) -> str:
    """Condensed oracle verdict for catalog rows: spectral fold plus kernel.

    One suite run covers both spin structures, so a sweep calls this once
    per k and gives the verdict to both rows.
    """
    report = run_verification(dim)
    relevant = [
        r
        for r in report.results
        if r.name.startswith(("spectrum_vs_table", "kernel_"))
    ]
    return FAIL if any(r.failed for r in relevant) else PASS
