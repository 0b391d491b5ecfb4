"""Structured spinor representation and brute-force spectral checks.

Everything the combinatorial modules compute in closed form is re-derived
here from the 2^k-dimensional spinor module: the Clifford generators, the
commuting plane rotors, the holonomy lifts, and the eigenphase each lift
puts on each basis spinor.  The windowed spectrum of the Dirac operator
on the invariant Fourier modes along the rotation axis, and its kernel,
are both read off those eigenphases.

No operator is held as a dense 2^k x 2^k matrix.  Every Clifford
generator is a Kronecker product of diagonal or anti-diagonal 2x2
factors, so it has one nonzero entry per column and is stored as a
monomial: a pair ``(perm, phase)`` of length-2^k arrays with
``e[perm[c], c] = phase[c]``.  Products of generators compose these
pairs, so each Clifford and rotor relation costs O(2^k).  The rotor
factors are read off the products E_j = e_{2j-1} e_{2j}, after checking
that E_j acts on slot j alone; alpha = r_1 ... r_k is then the Kronecker
product of k 2x2 rotations, and it, its inverse and the lifts are applied
to blocks of columns by reshaping, O(k 2^k) per column.  Relations on
whole operators are measured on identity columns, one block at a time,
so memory stays O(block) beyond the eigenbasis.

The joint eigenbasis v_eps of the rotors and e_n is built once per
representation, as one Kronecker product whose columns are put in
``SignVector`` order: column b of ``SpinorRep.basis`` is v_eps for
eps = SignVector(b, k).  Every relation that runs over the 2^k sign
vectors applies its operator to blocks of basis columns and reads the
per-vector defects column by column; ``lift_eigenphases`` tests each
column against the one phase read off its largest entry.

Tensor-slot convention.  The generator pair (e_{2m-1}, e_{2m}) places g1
or g2 in slot m with T factors filling slots 1..m-1 and identities after;
e_n is i times T in every slot.  Slot 1 is the most significant bit of a
row or column index.  This is the unique slot order for which the
Clifford relations and the rotor eigenrelations hold simultaneously: the
product e_{2m-1} e_{2m} then acts on slot m alone, so the m-th rotor
rotates the m-th tensor factor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterator, Mapping, Sequence

import numpy as np

from .combinatorics import MultiplicityTable, SignVector, mu, nu
from .core import ORACLE_MAX_K as MAX_K
from .core import CyclicFlatManifold, SpinStructure

_G1 = np.array([[1j, 0.0], [0.0, -1j]])
_G2 = np.array([[0.0, 1j], [1j, 0.0]])
_T = np.array([[0.0, -1j], [1j, 0.0]])
_EYE2 = np.eye(2, dtype=complex)
_W = {+1: np.array([1.0, -1j]), -1: np.array([1.0, 1j])}

# Entries per block of columns: 4 MiB of complex128.  At k = 12 a block
# this size applies alpha about a quarter faster than one of 16 MiB.
_BLOCK = 1 << 18

# A monomial operator (perm, phase): its column c holds phase[c] in row perm[c].
Monomial = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SpinorRep:
    """Structured spinor module: monomial generators, rotor factors, eigenbasis.

    ``generators[i]`` is e_{i+1} as a monomial.  ``rotors[j-1]`` is the 2x2
    factor by which r_j acts on slot j.  Column b of ``basis`` is v_eps for
    eps = SignVector(b, k).
    """

    k: int
    generators: tuple[Monomial, ...]
    rotors: tuple[np.ndarray, ...]
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

    def lift_factors(self, structure: SpinStructure) -> list[np.ndarray]:
        """Holonomy lift +-alpha, with n-th power I (plus) or -I (minus), as slot factors."""
        sign = self.alpha_power_sign
        first, *rest = self.rotors
        return [(sign if structure is SpinStructure.PLUS else -sign) * first, *rest]


def _kron_chain(factors: list[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, factors)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _monomial(factors: list[np.ndarray], scale: complex = 1.0) -> Monomial:
    """Kronecker product of diagonal or anti-diagonal 2x2 factors, slot 1 first."""
    mask = 0
    columns = []
    for f in factors:
        flip = 0 if f[0, 1] == 0 and f[1, 0] == 0 else 1
        if flip and (f[0, 0] != 0 or f[1, 1] != 0):
            raise ValueError("factor is neither diagonal nor anti-diagonal")
        mask = (mask << 1) | flip
        columns.append(np.array([f[flip, 0], f[1 - flip, 1]], dtype=complex))
    perm = np.arange(1 << len(factors)) ^ mask
    return _freeze(perm), _freeze(scale * _kron_chain(columns))


def _compose(a: Monomial, b: Monomial) -> Monomial:
    """The monomial product a @ b."""
    return a[0][b[0]], a[1][b[0]] * b[1]


def _slot_factor(mono: Monomial, slot: int, k: int) -> np.ndarray:
    """The 2x2 factor of a monomial that acts on tensor slot ``slot`` (1-based) alone.

    Raises ValueError when the monomial moves another slot or its phase
    depends on another slot.
    """
    perm, phase = mono
    cols = np.arange(1 << k)
    bit = 1 << (k - slot)
    flip = int(perm[0])
    on = (cols & bit) != 0
    if (
        flip not in (0, bit)
        or not np.array_equal(perm, cols ^ flip)
        or not np.array_equal(phase, np.where(on, phase[bit], phase[0]))
    ):
        raise ValueError(f"E_{slot} does not act on slot {slot} alone")
    factor = np.zeros((2, 2), dtype=complex)
    row = int(flip != 0)
    factor[row, 0] = phase[0]
    factor[1 - row, 1] = phase[bit]
    return factor


def build_rep(k: int) -> SpinorRep:
    """Construct the 2^k-dimensional representation for dimension n = 2k+1."""
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
    n = 2 * k + 1

    e = []
    for m_idx in range(1, k + 1):
        lead = [_T] * (m_idx - 1)
        tail = [_EYE2] * (k - m_idx)
        e.append(_monomial(lead + [_G1] + tail))
        e.append(_monomial(lead + [_G2] + tail))
    e.append(_monomial([_T] * k, scale=1j))

    beta = math.pi / n
    rotors = []
    for j in range(1, k + 1):
        plane = _slot_factor(_compose(e[2 * j - 2], e[2 * j - 1]), j, k)
        rotors.append(_freeze(math.cos(j * beta) * _EYE2 + math.sin(j * beta) * plane))

    # The Kronecker product of the columns (w_{-1}, w_{+1}) over the slots.
    # Rows take slot 1 as their top bit, as the generators do; SignVector
    # keeps slot 1 in bit 0, so each new slot's column bit goes on top.
    columns = np.column_stack([_W[-1], _W[+1]])
    basis = np.ones((1, 1), dtype=complex)
    for _ in range(k):
        size = 2 * len(basis)
        basis = (basis[:, None, None, :] * columns[None, :, :, None]).reshape(size, size)

    return SpinorRep(k=k, generators=tuple(e), rotors=tuple(rotors), basis=_freeze(basis))


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


def _blocks(dim: int) -> Iterator[tuple[int, int]]:
    """Ranges [start, stop) of about ``_BLOCK`` entries over the dim columns of length dim."""
    step = max(1, _BLOCK // dim)
    for start in range(0, dim, step):
        yield start, min(start + step, dim)


def _columns(mono: Monomial, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of a monomial operator as a dense block."""
    perm, phase = mono
    block = np.zeros((len(perm), stop - start), dtype=complex)
    block[perm[start:stop], np.arange(stop - start)] = phase[start:stop]
    return block


def _identity(dim: int, start: int, stop: int) -> np.ndarray:
    return _columns((np.arange(dim), np.ones(dim, dtype=complex)), start, stop)


def _apply_monomial(mono: Monomial, x: np.ndarray) -> np.ndarray:
    perm, phase = mono
    out = np.empty(x.shape, dtype=complex)
    out[perm] = phase[:, None] * x
    return out


def apply_slots(factors: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Apply the Kronecker product of 2x2 factors, slot 1 first, to the columns of x."""
    shape = x.shape
    for slot, factor in enumerate(factors):
        x = np.matmul(factor, x.reshape(1 << slot, 2, -1))
    return x.reshape(shape)


def _sum_defect(terms: list[tuple[float, Monomial]], diagonal: float = 0.0) -> float:
    """Largest entry of sum(c * M for c, M in terms) - diagonal * I.

    Column c of the sum is nonzero only in the rows perm[c] of its terms
    and, for the diagonal, in row c; each of those rows is summed exactly.
    """
    cols = np.arange(len(terms[0][1][0]))
    worst = 0.0
    for rows in [perm for _, (perm, _) in terms] + [cols]:
        total = np.where(rows == cols, -diagonal, 0.0)
        for coeff, (perm, phase) in terms:
            total = total + np.where(perm == rows, coeff * phase, 0.0)
        worst = max(worst, _max_abs(total))
    return worst


def clifford_defect(rep: SpinorRep) -> float:
    """Worst deviation from e_i e_j + e_j e_i = -2 delta_ij I."""
    e = rep.generators
    worst = 0.0
    for i in range(rep.n):
        for j in range(i, rep.n):
            anti = [(1.0, _compose(e[i], e[j])), (1.0, _compose(e[j], e[i]))]
            worst = max(worst, _sum_defect(anti, -2.0 if i == j else 0.0))
    return worst


def rotor_commutation_defect(rep: SpinorRep) -> float:
    """Worst deviation from r_i r_j = r_j r_i.

    With r_j = cos(j beta) I + sin(j beta) E_j, the commutator is
    sin(i beta) sin(j beta) (E_i E_j - E_j E_i).
    """
    e = rep.generators
    beta = math.pi / rep.n
    planes = [_compose(e[2 * j], e[2 * j + 1]) for j in range(rep.k)]
    worst = 0.0
    for i in range(rep.k):
        for j in range(i + 1, rep.k):
            scale = abs(math.sin((i + 1) * beta) * math.sin((j + 1) * beta))
            commutator = [
                (1.0, _compose(planes[i], planes[j])),
                (-1.0, _compose(planes[j], planes[i])),
            ]
            worst = max(worst, scale * _sum_defect(commutator))
    return worst


def _power_defect(factors: Sequence[np.ndarray], n: int, target: float) -> float:
    """Largest entry of A^n - target * I for A the Kronecker product of the factors.

    A^n is the Kronecker product of the factors' n-th powers, applied to
    identity columns block by block.
    """
    powers = [np.linalg.matrix_power(f, n) for f in factors]
    dim = 1 << len(factors)
    worst = 0.0
    for start, stop in _blocks(dim):
        eye = _identity(dim, start, stop)
        worst = max(worst, _max_abs(apply_slots(powers, eye) - target * eye))
    return worst


def alpha_power_defect(rep: SpinorRep) -> float:
    """Deviation of alpha^n from (-1)^(k(k+1)/2) I."""
    return _power_defect(rep.rotors, rep.n, rep.alpha_power_sign)


def lift_power_defects(rep: SpinorRep) -> tuple[float, float]:
    """Deviations of the plus lift's n-th power from I and the minus lift's from -I."""
    plus = _power_defect(rep.lift_factors(SpinStructure.PLUS), rep.n, 1.0)
    minus = _power_defect(rep.lift_factors(SpinStructure.MINUS), rep.n, -1.0)
    return plus, minus


def conjugation_defect(rep: SpinorRep) -> float:
    """Worst deviation of alpha e_l alpha^-1 from the rotated generator."""
    rot = rotation_matrix(rep.n)
    e = rep.generators
    inverse = [np.linalg.inv(f) for f in rep.rotors]
    worst = 0.0
    for start, stop in _blocks(rep.dim):
        undone = apply_slots(inverse, _identity(rep.dim, start, stop))
        for l in range(rep.n):
            lhs = apply_slots(rep.rotors, _apply_monomial(e[l], undone))
            for m in np.flatnonzero(rot[:, l]):
                lhs -= rot[m, l] * _columns(e[m], start, stop)
            worst = max(worst, _max_abs(lhs))
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
    en = rep.generators[n - 1]
    alpha = rep.rotors

    rho1 = math.cos(beta) * np.eye(2) + math.sin(beta) * (_G1 @ _G2)
    rho_defect = max(
        _max_abs(rho1 @ _W[+1] - np.exp(1j * beta) * _W[+1]),
        _max_abs(rho1 @ _W[-1] - np.exp(-1j * beta) * _W[-1]),
    )

    signs = [SignVector(bits, k) for bits in range(rep.dim)]
    mus = np.array([mu(eps) for eps in signs])
    nus = np.array([nu(eps) for eps in signs])
    en_sign = 1j * (-1.0 if k % 2 else 1.0)  # i * (-1)^k
    alpha_phases = np.exp(1j * beta * mus)

    commute_defect = 0.0
    phase_defects, stated_defects, universal_defects = [], [], []
    for start, stop in _blocks(rep.dim):
        eye = _identity(rep.dim, start, stop)
        commute = apply_slots(alpha, _apply_monomial(en, eye)) - _apply_monomial(
            en, apply_slots(alpha, eye)
        )
        commute_defect = max(commute_defect, _max_abs(commute))
        block = rep.basis[:, start:stop]
        env = _apply_monomial(en, block)
        phase_defects.append(
            _column_max_abs(apply_slots(alpha, block) - alpha_phases[start:stop] * block)
        )
        stated_defects.append(_column_max_abs(env - (-1j * nus[start:stop]) * block))
        universal_defects.append(_column_max_abs(env - (en_sign * nus[start:stop]) * block))

    def worst(name: str, defects: list[np.ndarray]) -> tuple[str, float, str | None]:
        per_vector = np.concatenate(defects)
        bits = int(np.argmax(per_vector))
        defect = float(per_vector[bits])
        return name, defect, (str(signs[bits]) if defect > 0 else None)

    sign, logdet = np.linalg.slogdet(rep.basis)
    independent = sign != 0 and math.isfinite(logdet)

    return (
        ("rho1_eigenpair", rho_defect, None),
        ("alpha_en_commutation", commute_defect, None),
        worst("alpha_eigenphase", phase_defects),
        worst("en_eigen_sign", stated_defects),
        worst("en_eigen_sign_universal", universal_defects),
        ("basis_rank", 0.0 if independent else math.inf, None),
    )


def lift_eigenphases(rep: SpinorRep, structure: SpinStructure, tol: float) -> np.ndarray:
    """The eigenphase index of the lift on each basis vector.

    Entry b is the p in [0, 2n) with lift v_b = e^(i*pi*p/n) v_b to within
    tol in every entry, or -1 when no phase fits.  The candidate p is read
    off the column's largest entry, and the whole column is then tested
    against that one phase.  Every entry of v_b has modulus 1, and a tol
    up to 1e-3 lies far below half the spacing 2*sin(pi/2n) >= 0.125 of
    the phases for n <= 25, so no other phase can fit a column that the
    candidate misses.  The test is plain matrix arithmetic; nothing from
    the combinatorial route enters.
    """
    factors = rep.lift_factors(structure)
    phases = np.exp(1j * math.pi * np.arange(2 * rep.n) / rep.n)
    found = np.empty(rep.dim, dtype=np.int64)
    for start, stop in _blocks(rep.dim):
        block = rep.basis[:, start:stop]
        lifted = apply_slots(factors, block)
        top = np.argmax(np.abs(block), axis=0), np.arange(stop - start)
        angle = np.angle(lifted[top] / block[top])
        p = np.rint(angle * rep.n / math.pi).astype(np.int64) % (2 * rep.n)
        fits = _column_max_abs(lifted - block * phases[p]) < tol
        found[start:stop] = np.where(fits, p, -1)
    return found


def windowed_spectrum(
    rep: SpinorRep,
    m: CyclicFlatManifold,
    structure: SpinStructure,
    window: int,
    tol: float = 1e-9,
) -> dict[Fraction, int]:
    """Multiset of Dirac eigenvalues (units of 2*pi) in the Fourier window.

    The section v_eps with Fourier index l survives the quotient exactly
    when the lift's eigenphase index on v_eps is 2l (plus) or 2l+1 (minus)
    mod 2n; its eigenvalue is then nu(eps) * l or nu(eps) * (l + 1/2).
    """
    if rep.k != m.k:
        raise ValueError(f"representation k = {rep.k} does not match manifold k = {m.k}")
    if window < m.n:
        raise ValueError(f"window must be at least n = {m.n}, got {window}")
    offset = 0 if structure is SpinStructure.PLUS else 1
    signs = (nu(SignVector(bits, rep.k)) for bits in range(rep.dim))
    classes = Counter(zip(signs, lift_eigenphases(rep, structure, tol).tolist()))
    spectrum: Counter[Fraction] = Counter()
    for (sign, p), count in classes.items():
        for l in range(-window, window + 1):
            if (2 * l + offset) % (2 * m.n) == p:
                spectrum[Fraction(sign * (2 * l + offset), 2)] += count
    return dict(spectrum)


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
    return int(np.count_nonzero(lift_eigenphases(rep, structure, tol) == 0))


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
