"""Dense reference for the structured spinor oracle (tests only).

``build_dense`` builds the Clifford generators, rotors, alpha and the
eigenbasis as explicit 2^k x 2^k matrices, by Kronecker products of the
2x2 factors and dense matrix products, and the defect functions below
measure each relation on them the same way.  The ``*_matrix`` helpers
and ``from_rep`` turn a structured ``SpinorRep`` back into dense
matrices, so the two can be compared entry for entry, and a deliberately
broken representation can be measured both ways.  Everything dense here
costs O(4^k) memory and up to O(8^k) time; keep k small.
``build_rep_slotwise`` is not dense: it builds the structured
``SpinorRep`` slot by slot, from lists of 2x2 factors, as a reference for
``oracle.build_rep``'s whole-array assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from flateta.combinatorics import SignVector, mu, nu
from flateta import oracle
from flateta.core import SpinStructure
from flateta.oracle import SpinorRep, rotation_matrix, spinor_basis_vector

_G1 = np.array([[1j, 0.0], [0.0, -1j]])
_G2 = np.array([[0.0, 1j], [1j, 0.0]])
_T = np.array([[0.0, -1j], [1j, 0.0]])
_EYE2 = np.eye(2, dtype=complex)


def _kron_chain(factors):
    return reduce(np.kron, factors)


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _column_max_abs(a):
    return np.max(np.abs(a), axis=0)


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
    """Generators, rotors, alpha and eigenbasis as dense matrices."""
    e = []
    for m_idx in range(1, k + 1):
        lead = [_T] * (m_idx - 1)
        tail = [_EYE2] * (k - m_idx)
        e.append(_kron_chain(lead + [_G1] + tail))
        e.append(_kron_chain(lead + [_G2] + tail))
    e.append(1j * _kron_chain([_T] * k))
    return from_generators(k, e)


def build_rep_slotwise(k: int) -> SpinorRep:
    """``oracle.build_rep`` assembled from lists of 2x2 slot factors, one rotor at a time."""
    e = []
    for m_idx in range(1, k + 1):
        lead = [_T] * (m_idx - 1)
        tail = [_EYE2] * (k - m_idx)
        e.append(lead + [_G1] + tail)
        e.append(lead + [_G2] + tail)
    e.append([1j * _T] + [_T] * (k - 1))
    generators = tuple(np.array(g, dtype=complex) for g in e)

    beta = math.pi / (2 * k + 1)
    planes = oracle._one_slot_factors(oracle._planes(np.asarray(generators)))
    rotors = tuple(
        math.cos(j * beta) * _EYE2 + math.sin(j * beta) * plane
        for j, plane in enumerate(planes, 1)
    )
    return SpinorRep(k=k, generators=generators, rotors=rotors)


def from_generators(k: int, e: list[np.ndarray]) -> DenseRep:
    """Rotors and alpha by dense products of the given generators, and the eigenbasis."""
    n = 2 * k + 1
    dim = 1 << k
    beta = math.pi / n
    rotors = [
        math.cos(j * beta) * np.eye(dim, dtype=complex)
        + math.sin(j * beta) * (e[2 * j - 2] @ e[2 * j - 1])
        for j in range(1, k + 1)
    ]
    alpha = reduce(np.matmul, rotors)
    return DenseRep(k=k, e=tuple(e), r=tuple(rotors), alpha=alpha, basis=basis_matrix(k))


def from_rep(rep: SpinorRep) -> DenseRep:
    """A structured representation in dense form, alpha as the product of its rotors."""
    rotors = rotor_matrices(rep)
    return DenseRep(
        k=rep.k,
        e=tuple(generator_matrices(rep)),
        r=tuple(rotors),
        alpha=reduce(np.matmul, rotors),
        basis=basis_matrix(rep.k),
    )


def basis_matrix(k: int) -> np.ndarray:
    """Column b is v_eps for eps = SignVector(b, k)."""
    return np.column_stack([spinor_basis_vector(SignVector(bits, k)) for bits in range(1 << k)])


# Dense matrices of a structured representation.


def generator_matrices(rep: SpinorRep) -> list[np.ndarray]:
    return [_kron_chain(factors) for factors in rep.generators]


def rotor_matrices(rep: SpinorRep) -> list[np.ndarray]:
    return [
        _kron_chain([_EYE2] * j + [factor] + [_EYE2] * (rep.k - j - 1))
        for j, factor in enumerate(rep.rotors)
    ]


def alpha_matrix(rep: SpinorRep) -> np.ndarray:
    return _kron_chain(rep.rotors)


def lift_matrix(rep: SpinorRep, structure: SpinStructure) -> np.ndarray:
    return _kron_chain(rep.lift_factors(structure))


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


def eigenbasis_check(rep: DenseRep) -> tuple[tuple[str, float, str | None], ...]:
    """The per-basis relations of ``oracle.eigenbasis_check``, on dense matrices."""
    k = rep.k
    n = rep.n
    beta = math.pi / n
    commute_defect = _max_abs(rep.alpha @ rep.e[n - 1] - rep.e[n - 1] @ rep.alpha)

    signs = [SignVector(bits, k) for bits in range(rep.dim)]
    basis = rep.basis
    mus = np.array([mu(eps) for eps in signs])
    nus = np.array([nu(eps) for eps in signs])

    def worst(name, defects):
        bits = int(np.argmax(defects))
        defect = float(defects[bits])
        return name, defect, (str(signs[bits]) if defect > 0 else None)

    en_sign = 1j * (-1.0 if k % 2 else 1.0)
    alpha_phases = np.exp(1j * beta * mus)
    env = rep.e[n - 1] @ basis
    return (
        ("alpha_en_commutation", commute_defect, None),
        worst("alpha_eigenphase", _column_max_abs(rep.alpha @ basis - alpha_phases * basis)),
        worst("en_eigen_sign", _column_max_abs(env - (-1j * nus) * basis)),
        worst("en_eigen_sign_universal", _column_max_abs(env - (en_sign * nus) * basis)),
    )
