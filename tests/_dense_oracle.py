"""Dense reference for the Pauli-string spinor oracle (tests only).

``build_dense`` builds the Clifford generators, rotors, alpha and the
eigenbasis as explicit 2^k x 2^k complex matrices, by Kronecker products
of the 2x2 factors and dense matrix products, and the defect functions
below measure each relation on them in floats.  ``pauli_matrix`` and
``from_rep`` expand a ``SpinorRep``'s Pauli strings and rotation numbers
into dense matrices, so the two can be compared entry for entry, and a
deliberately broken representation can be measured both ways.
Everything dense here costs O(4^k) memory and up to O(8^k) time; keep k
small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from flateta.combinatorics import SignVector, mu, nu
from flateta.core import SpinStructure
from flateta.oracle import PauliString, SpinorRep

_G1 = np.array([[1j, 0.0], [0.0, -1j]])
_G2 = np.array([[0.0, 1j], [1j, 0.0]])
_T = np.array([[0.0, -1j], [1j, 0.0]])
_EYE2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Rows w_{-1} and w_{+1}: row b is w_s for the sign s of ``SignVector`` bit b.
W = np.array([[1.0, 1j], [1.0, -1j]])


def _kron_chain(factors):
    return reduce(np.kron, factors)


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _column_max_abs(a):
    return np.max(np.abs(a), axis=0)


def pauli_matrix(p: PauliString, k: int) -> np.ndarray:
    """i^phase (X^x_1 Z^z_1) x ... x (X^x_k Z^z_k) as a dense matrix, slot 1 first."""
    factors = [
        np.linalg.matrix_power(_X, (p.x >> s) & 1) @ np.linalg.matrix_power(_Z, (p.z >> s) & 1)
        for s in range(k)
    ]
    return 1j**p.phase * _kron_chain(factors)


def spinor_basis_vector(eps: SignVector) -> np.ndarray:
    """Joint eigenvector v_eps = w_{s_1} x ... x w_{s_k} of the rotors and e_n."""
    return _kron_chain([W[(eps.bits >> j) & 1] for j in range(eps.k)])


def rotation_matrix(n: int) -> np.ndarray:
    """Block rotation realizing the holonomy in the orthonormal frame.

    Plane (2j-1, 2j) rotates by 2*pi*j/n for j = 1..k; the last axis is
    fixed.
    """
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


@dataclass(frozen=True)
class DenseRep:
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
        return -1.0 if (self.k * (self.k + 1) // 2) % 2 else 1.0

    def lift(self, structure: SpinStructure) -> np.ndarray:
        sign = self.alpha_power_sign
        return (sign if structure is SpinStructure.PLUS else -sign) * self.alpha


def build_dense(k: int) -> DenseRep:
    """Generators, rotors, alpha and eigenbasis as dense matrices, from the 2x2 factors."""
    e = []
    for m_idx in range(1, k + 1):
        lead = [_T] * (m_idx - 1)
        tail = [_EYE2] * (k - m_idx)
        e.append(_kron_chain(lead + [_G1] + tail))
        e.append(_kron_chain(lead + [_G2] + tail))
    e.append(1j * _kron_chain([_T] * k))
    return from_generators(k, e, range(1, k + 1))


def from_generators(k: int, e: list[np.ndarray], rotations) -> DenseRep:
    """Rotors r_j = cos(a_j beta) I + sin(a_j beta) e_{2j-1} e_{2j}, alpha and the eigenbasis."""
    dim = 1 << k
    beta = math.pi / (2 * k + 1)
    rotors = [
        math.cos(a * beta) * np.eye(dim, dtype=complex)
        + math.sin(a * beta) * (e[2 * j - 2] @ e[2 * j - 1])
        for j, a in enumerate(rotations, 1)
    ]
    alpha = reduce(np.matmul, rotors)
    return DenseRep(k=k, e=tuple(e), r=tuple(rotors), alpha=alpha, basis=basis_matrix(k))


def from_rep(rep: SpinorRep) -> DenseRep:
    """A Pauli-string representation in dense form."""
    return from_generators(rep.k, generator_matrices(rep), rep.rotations)


def basis_matrix(k: int) -> np.ndarray:
    """Column b is v_eps for eps = SignVector(b, k)."""
    return np.column_stack([spinor_basis_vector(SignVector(bits, k)) for bits in range(1 << k)])


def generator_matrices(rep: SpinorRep) -> list[np.ndarray]:
    return [pauli_matrix(p, rep.k) for p in rep.generators]


def lift_matrix(rep: SpinorRep, structure: SpinStructure) -> np.ndarray:
    return from_rep(rep).lift(structure)


# The relations, measured by dense matrix products.


def clifford_defect(rep: DenseRep) -> float:
    eye = np.eye(rep.dim, dtype=complex)
    worst = 0.0
    for i in range(rep.n):
        for j in range(i, rep.n):
            anti = rep.e[i] @ rep.e[j] + rep.e[j] @ rep.e[i]
            target = -2.0 * eye if i == j else 0.0
            worst = max(worst, _max_abs(anti - target))
    return worst


def rotor_commutation_defect(rep: DenseRep) -> float:
    worst = 0.0
    for i in range(rep.k):
        for j in range(i + 1, rep.k):
            worst = max(worst, _max_abs(rep.r[i] @ rep.r[j] - rep.r[j] @ rep.r[i]))
    return worst


def alpha_power_defect(rep: DenseRep) -> float:
    power = np.linalg.matrix_power(rep.alpha, rep.n)
    return _max_abs(power - rep.alpha_power_sign * np.eye(rep.dim))


def lift_power_defects(rep: DenseRep) -> tuple[float, float]:
    eye = np.eye(rep.dim)
    plus = _max_abs(np.linalg.matrix_power(rep.lift(SpinStructure.PLUS), rep.n) - eye)
    minus = _max_abs(np.linalg.matrix_power(rep.lift(SpinStructure.MINUS), rep.n) + eye)
    return plus, minus


def conjugation_defect(rep: DenseRep) -> float:
    rot = rotation_matrix(rep.n)
    alpha_inv = np.linalg.inv(rep.alpha)
    worst = 0.0
    for l in range(rep.n):
        lhs = rep.alpha @ rep.e[l] @ alpha_inv
        rhs = sum(rot[m, l] * rep.e[m] for m in range(rep.n))
        worst = max(worst, _max_abs(lhs - rhs))
    return worst


def eigenbasis_check(rep: DenseRep) -> dict[str, tuple[float, str | None]]:
    """The eigenbasis relations of ``oracle.representation_defects``, on dense matrices.

    Each is (worst defect, the first sign vector whose defect exceeds
    1e-9, or None); alpha e_n = e_n alpha is not per-vector.
    """
    k = rep.k
    n = rep.n
    beta = math.pi / n
    commute_defect = _max_abs(rep.alpha @ rep.e[n - 1] - rep.e[n - 1] @ rep.alpha)

    signs = [SignVector(bits, k) for bits in range(rep.dim)]
    basis = rep.basis
    mus = np.array([mu(eps) for eps in signs])
    nus = np.array([nu(eps) for eps in signs])

    def per_vector(defects):
        failing = np.flatnonzero(defects > 1e-9)
        return float(defects.max()), (str(signs[failing[0]]) if len(failing) else None)

    en_sign = 1j * (-1.0 if k % 2 else 1.0)
    alpha_phases = np.exp(1j * beta * mus)
    env = rep.e[n - 1] @ basis
    return {
        "alpha_en_commutation": (commute_defect, None),
        "alpha_eigenphase": per_vector(_column_max_abs(rep.alpha @ basis - alpha_phases * basis)),
        "en_eigen_sign": per_vector(_column_max_abs(env - (-1j * nus) * basis)),
        "en_eigen_sign_universal": per_vector(_column_max_abs(env - (en_sign * nus) * basis)),
    }


def operator_defects(rep: DenseRep) -> dict[str, float]:
    """The operator relations of ``oracle.representation_defects``, as dense defects."""
    plus, minus = lift_power_defects(rep)
    return {
        "clifford_relations": clifford_defect(rep),
        "rotor_commutation": rotor_commutation_defect(rep),
        "alpha_power_sign": alpha_power_defect(rep),
        "lift_power_plus": plus,
        "lift_power_minus": minus,
        "conjugation_rotation": conjugation_defect(rep),
    }


def searched_phases(rep: SpinorRep, structure: SpinStructure, tol: float = 1e-9) -> list[int]:
    """Per basis vector, the first p in 0..2n-1 whose phase the dense lift fits, else -1."""
    lift = lift_matrix(rep, structure)
    found = []
    for bits in range(rep.dim):
        v = spinor_basis_vector(SignVector(bits, rep.k))
        lifted = lift @ v
        fits = [
            p
            for p in range(2 * rep.n)
            if np.max(np.abs(lifted - np.exp(1j * math.pi * p / rep.n) * v)) < tol
        ]
        found.append(fits[0] if fits else -1)
    return found


def phase_histogram(rep: SpinorRep, structure: SpinStructure) -> tuple[list[int], list[int]]:
    """The dense search's phase indices counted by (nu, p), in ``lift_eigenphases``'s form."""
    rows = ([0] * (2 * rep.n), [0] * (2 * rep.n))
    for bits, p in enumerate(searched_phases(rep, structure)):
        if p >= 0:
            rows[nu(SignVector(bits, rep.k)) < 0][p] += 1
    return rows
