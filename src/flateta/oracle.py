"""Dense spinor representation and brute-force spectral checks.

Everything the combinatorial modules compute in closed form is re-derived
here from explicit 2^k-dimensional matrices: the Clifford generators, the
commuting plane rotors, the holonomy lifts, and the windowed spectrum of
the Dirac operator on the invariant Fourier modes along the rotation
axis.

The joint eigenbasis v_eps of the rotors and e_n is built once per
representation, as the columns of ``SpinorRep.basis``; every relation
that runs over the 2^k sign vectors applies its operator to the whole
basis in one matrix product and reads the per-vector defects column by
column.

Tensor-slot convention.  The generator pair (e_{2m-1}, e_{2m}) places g1
or g2 in slot m with T factors filling slots 1..m-1 and identities after;
e_n is i times T in every slot.  This is the unique slot order for which
the Clifford relations and the rotor eigenrelations hold simultaneously:
the product e_{2m-1} e_{2m} then acts on slot m alone, so the m-th rotor
rotates the m-th tensor factor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Mapping

import numpy as np

from .combinatorics import MultiplicityTable, SignVector, mu, nu
from .core import CyclicFlatManifold, SpinStructure

MAX_K = 12  # dense matrices are capped at dimension 4096

_G1 = np.array([[1j, 0.0], [0.0, -1j]])
_G2 = np.array([[0.0, 1j], [1j, 0.0]])
_T = np.array([[0.0, -1j], [1j, 0.0]])
_EYE2 = np.eye(2, dtype=complex)
_W = {+1: np.array([1.0, -1j]), -1: np.array([1.0, 1j])}


@dataclass(frozen=True)
class SpinorRep:
    """Dense spinor module data: Clifford generators, rotors, alpha, eigenbasis.

    Column b of ``basis`` is v_eps for eps = SignVector(b, k).
    """

    k: int
    e: tuple[np.ndarray, ...]
    r: tuple[np.ndarray, ...]
    alpha: np.ndarray
    basis: np.ndarray

    @property
    def n(self) -> int:
        return 2 * self.k + 1

    @property
    def dim(self) -> int:
        return 1 << self.k

    @property
    def alpha_power_sign(self) -> float:
        """The sign (-1)^(k(k+1)/2) with alpha^n = sign * I."""
        return -1.0 if (self.k * (self.k + 1) // 2) % 2 else 1.0

    def lift(self, structure: SpinStructure) -> np.ndarray:
        """Holonomy lift: +-alpha with n-th power I (plus) or -I (minus)."""
        sign = self.alpha_power_sign
        return (sign if structure is SpinStructure.PLUS else -sign) * self.alpha


def _kron_chain(factors: list[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, factors)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_rep(k: int) -> SpinorRep:
    """Construct the 2^k-dimensional representation for dimension n = 2k+1."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
    n = 2 * k + 1
    dim = 1 << k

    e = []
    for m_idx in range(1, k + 1):
        lead = [_T] * (m_idx - 1)
        tail = [_EYE2] * (k - m_idx)
        e.append(_kron_chain(lead + [_G1] + tail))
        e.append(_kron_chain(lead + [_G2] + tail))
    e.append(1j * _kron_chain([_T] * k))

    beta = math.pi / n
    rotors = []
    for j in range(1, k + 1):
        rotors.append(
            math.cos(j * beta) * np.eye(dim, dtype=complex)
            + math.sin(j * beta) * (e[2 * j - 2] @ e[2 * j - 1])
        )
    alpha = reduce(np.matmul, rotors)
    basis = np.column_stack(
        [spinor_basis_vector(SignVector(bits, k)) for bits in range(dim)]
    )

    return SpinorRep(
        k=k,
        e=tuple(_freeze(mat) for mat in e),
        r=tuple(_freeze(mat) for mat in rotors),
        alpha=_freeze(alpha),
        basis=_freeze(basis),
    )


def spinor_basis_vector(eps: SignVector) -> np.ndarray:
    """Joint eigenvector v_eps = w_{s_1} x ... x w_{s_k} of the rotors and e_n."""
    return _kron_chain([_W[s] for s in eps.signs])


def rotation_matrix(n: int) -> np.ndarray:
    """Block rotation realizing the holonomy in the orthonormal frame.

    Plane (2j-1, 2j) rotates by 2*pi*j/n for j = 1..k; the last axis is
    fixed.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    k = (n - 1) // 2
    rot = np.zeros((n, n))
    for j in range(1, k + 1):
        c = math.cos(2.0 * math.pi * j / n)
        s = math.sin(2.0 * math.pi * j / n)
        rot[2 * j - 2, 2 * j - 2] = c
        rot[2 * j - 2, 2 * j - 1] = -s
        rot[2 * j - 1, 2 * j - 2] = s
        rot[2 * j - 1, 2 * j - 1] = c
    rot[n - 1, n - 1] = 1.0
    return rot


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _column_max_abs(a: np.ndarray) -> np.ndarray:
    return np.max(np.abs(a), axis=0)


def clifford_defect(rep: SpinorRep) -> float:
    """Worst deviation from e_i e_j + e_j e_i = -2 delta_ij I."""
    n = rep.n
    eye = np.eye(rep.dim, dtype=complex)
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            anti = rep.e[i] @ rep.e[j] + rep.e[j] @ rep.e[i]
            target = -2.0 * eye if i == j else 0.0
            worst = max(worst, _max_abs(anti - target))
    return worst


def rotor_commutation_defect(rep: SpinorRep) -> float:
    """Worst deviation from r_i r_j = r_j r_i."""
    worst = 0.0
    for i in range(rep.k):
        for j in range(i + 1, rep.k):
            worst = max(worst, _max_abs(rep.r[i] @ rep.r[j] - rep.r[j] @ rep.r[i]))
    return worst


def alpha_power_defect(rep: SpinorRep) -> float:
    """Deviation of alpha^n from (-1)^(k(k+1)/2) I."""
    power = np.linalg.matrix_power(rep.alpha, rep.n)
    return _max_abs(power - rep.alpha_power_sign * np.eye(rep.dim))


def lift_power_defects(rep: SpinorRep) -> tuple[float, float]:
    """Deviations of the plus lift's n-th power from I and the minus lift's from -I."""
    eye = np.eye(rep.dim)
    plus = _max_abs(np.linalg.matrix_power(rep.lift(SpinStructure.PLUS), rep.n) - eye)
    minus = _max_abs(np.linalg.matrix_power(rep.lift(SpinStructure.MINUS), rep.n) + eye)
    return plus, minus


def conjugation_defect(rep: SpinorRep) -> float:
    """Worst deviation of alpha e_l alpha^-1 from the rotated generator."""
    rot = rotation_matrix(rep.n)
    alpha_inv = np.linalg.inv(rep.alpha)
    worst = 0.0
    for l in range(rep.n):
        lhs = rep.alpha @ rep.e[l] @ alpha_inv
        rhs = sum(rot[m, l] * rep.e[m] for m in range(rep.n))
        worst = max(worst, _max_abs(lhs - rhs))
    return worst


def eigenbasis_check(rep: SpinorRep) -> tuple[tuple[str, float, str | None], ...]:
    """Measure the eigenbasis relations on every sign vector.

    Checked relations:
      * rho1_eigenpair: the plane rotor sends w_{+1}, w_{-1} to
        e^{+i*beta} w_{+1}, e^{-i*beta} w_{-1}.
      * alpha_en_commutation: alpha commutes with e_n.
      * alpha_eigenphase: alpha v_eps = e^(i*beta*mu) v_eps.
      * en_eigen_sign: e_n v_eps = -i*nu(eps) v_eps.  This form holds for
        odd k only; each T factor contributes -sign, so the universal
        relation carries an extra (-1)^k.
      * en_eigen_sign_universal: e_n v_eps = i*(-1)^k*nu(eps) v_eps.
      * basis_rank: the 2^k vectors v_eps are linearly independent.

    Each relation is reported as (name, worst defect, witness), where the
    witness is the sign vector with the largest defect, or None when the
    relation is not per-vector or holds exactly.
    """
    k = rep.k
    n = rep.n
    beta = math.pi / n

    rho1 = math.cos(beta) * np.eye(2) + math.sin(beta) * (_G1 @ _G2)
    rho_defect = max(
        _max_abs(rho1 @ _W[+1] - np.exp(1j * beta) * _W[+1]),
        _max_abs(rho1 @ _W[-1] - np.exp(-1j * beta) * _W[-1]),
    )
    commute_defect = _max_abs(rep.alpha @ rep.e[n - 1] - rep.e[n - 1] @ rep.alpha)

    signs = [SignVector(bits, k) for bits in range(rep.dim)]
    basis = rep.basis
    mus = np.array([mu(eps) for eps in signs])
    nus = np.array([nu(eps) for eps in signs])

    def worst(name: str, defects: np.ndarray) -> tuple[str, float, str | None]:
        bits = int(np.argmax(defects))
        defect = float(defects[bits])
        return name, defect, (str(signs[bits]) if defect > 0 else None)

    en_sign = 1j * (-1.0 if k % 2 else 1.0)  # i * (-1)^k
    alpha_phases = np.exp(1j * beta * mus)
    env = rep.e[n - 1] @ basis
    sign, logdet = np.linalg.slogdet(basis)
    independent = sign != 0 and math.isfinite(logdet)

    return (
        ("rho1_eigenpair", rho_defect, None),
        ("alpha_en_commutation", commute_defect, None),
        worst("alpha_eigenphase", _column_max_abs(rep.alpha @ basis - alpha_phases * basis)),
        worst("en_eigen_sign", _column_max_abs(env - (-1j * nus) * basis)),
        worst("en_eigen_sign_universal", _column_max_abs(env - (en_sign * nus) * basis)),
        ("basis_rank", 0.0 if independent else math.inf, None),
    )


@dataclass(frozen=True)
class EigenSection:
    """One invariant section: sign vector, Fourier index, and eigenvalue.

    The eigenvalue is recorded in units of 2*pi: nu(eps) * l for the plus
    structure and nu(eps) * (l + 1/2) for the minus structure.
    """

    epsilon: SignVector
    l: int
    structure: SpinStructure
    eigenvalue: Fraction


def eigen_sections(
    rep: SpinorRep,
    m: CyclicFlatManifold,
    structure: SpinStructure,
    window: int,
    tol: float = 1e-9,
) -> tuple[EigenSection, ...]:
    """Enumerate invariant sections with Fourier index |l| <= window.

    A section with Fourier index l survives the quotient exactly when the
    lift acts on v_eps by the phase the deck transformation produces:
    e^(2*pi*i*l/n) for the plus structure and e^(2*pi*i*(l+1/2)/n) for the
    minus structure.  The test is plain matrix arithmetic; nothing from
    the combinatorial route enters.  The lift is applied to the whole basis
    in one product, and each vector is tested against every phase in the
    window at once.
    """
    if rep.k != m.k:
        raise ValueError(f"representation k = {rep.k} does not match manifold k = {m.k}")
    if window < m.n:
        raise ValueError(f"window must be at least n = {m.n}, got {window}")
    half = 0.0 if structure is SpinStructure.PLUS else 0.5
    ls = np.arange(-window, window + 1)
    phases = np.exp(2j * math.pi * (ls + half) / m.n)
    lifted = rep.lift(structure) @ rep.basis

    sections = []
    for bits in range(rep.dim):
        eps = SignVector(bits, rep.k)
        v = rep.basis[:, bits]
        defects = _column_max_abs(lifted[:, bits, None] - v[:, None] * phases)
        sign = nu(eps)
        for l in ls[defects < tol].tolist():
            if structure is SpinStructure.PLUS:
                eigenvalue = Fraction(sign * l)
            else:
                eigenvalue = Fraction(sign * (2 * l + 1), 2)
            sections.append(
                EigenSection(epsilon=eps, l=l, structure=structure, eigenvalue=eigenvalue)
            )
    return tuple(sections)


def windowed_spectrum(
    rep: SpinorRep,
    m: CyclicFlatManifold,
    structure: SpinStructure,
    window: int,
    tol: float = 1e-9,
) -> dict[Fraction, int]:
    """Multiset of Dirac eigenvalues (units of 2*pi) in the Fourier window."""
    counter = Counter(
        section.eigenvalue
        for section in eigen_sections(rep, m, structure, window, tol=tol)
    )
    return dict(counter)


def kernel_dim_oracle(
    rep: SpinorRep,
    m: CyclicFlatManifold,
    structure: SpinStructure,
    tol: float = 1e-9,
) -> int:
    """Dimension of the Dirac kernel, counted over all 2^k sign vectors.

    A constant section v_eps is invariant exactly when the lift fixes it;
    only the zero Fourier mode can contribute, and for the minus structure
    the modes are half-integral, so the count is 0 there.
    """
    if rep.k != m.k:
        raise ValueError(f"representation k = {rep.k} does not match manifold k = {m.k}")
    defects = _column_max_abs(rep.lift(structure) @ rep.basis - rep.basis)
    return int(np.count_nonzero(defects < tol))


def spectrum_table_mismatches(
    spectrum: Mapping[Fraction, int],
    table: MultiplicityTable,
    window: int,
) -> list[str]:
    """Compare windowed multiplicities, folded mod n, against the table.

    Only eigenvalues whose contributing Fourier indices are fully inside
    the window are compared, so the fold is exact eigenvalue by
    eigenvalue.
    """
    n = table.n
    half = table.structure is SpinStructure.MINUS
    mismatches = []
    for m_int in range(-(window - 1), window):
        lam = Fraction(2 * m_int + 1, 2) if half else Fraction(m_int)
        expected = table.counts[m_int % n]
        got = spectrum.get(lam, 0)
        if got != expected:
            mismatches.append(
                f"eigenvalue {lam}: oracle multiplicity {got} != table {expected}"
            )
    return mismatches


def zero_class_asymmetries(
    spectrum: Mapping[Fraction, int], n: int, window: int
) -> list[str]:
    """Check that the residue-zero classes pair off symmetrically about 0."""
    problems = []
    for j in range(1, (window - 1) // n + 1):
        pos = spectrum.get(Fraction(j * n), 0)
        neg = spectrum.get(Fraction(-j * n), 0)
        if pos != neg:
            problems.append(f"multiplicity {pos} at {j * n} vs {neg} at {-j * n}")
    return problems
