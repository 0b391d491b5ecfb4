"""Structured spinor representation and brute-force spectral checks.

Everything the combinatorial modules compute in closed form is re-derived
here from the 2^k-dimensional spinor module: the Clifford generators, the
commuting plane rotors, the holonomy lifts, and the eigenphase each lift
puts on each basis spinor.  The windowed spectrum of the Dirac operator
on the invariant Fourier modes along the rotation axis, and its kernel,
are both read off those eigenphases.

No operator is held as a dense 2^k x 2^k matrix.  Every operator is held
as its k x 2 x 2 slot factors, whose Kronecker product it is, slot 1
first; every generator factor is diagonal or anti-diagonal, and a product
of operators is the per-slot product of their factors.  The m-th rotor
factor is the slot-m product of e_{2m-1} and e_{2m}, after checking that
every other slot's product is I: E_m = e_{2m-1} e_{2m} acts on slot m
alone.  alpha = r_1 ... r_k and the lifts have the rotors as factors.
``apply_slots`` applies any operator to a block of columns by reshaping,
O(k 2^k) per column.

Every relation on whole operators compares a Kronecker product A with a
sum of terms c * F, each F a Kronecker product of diagonal or
anti-diagonal factors: the Clifford relations, rotor commutation, the
powers of alpha and the lifts, and conjugation.  ``_band_defect`` measures
all of them.  Entry (c ^ d, c) of a Kronecker product is a product of one
entry per slot, so for each row-xor d those entries form the Kronecker
product of one 2-vector per slot; each term F lies on one such band.  On
the terms' bands the defect is one exact length-2^k vector each; off them
its largest entry is a product of per-slot maxima.  That costs O(k 2^k)
time and memory per operator and per term; the Clifford and rotor pairs
are measured one generator at a time, all its partners in one call, so
memory stays O(n k 2^k).  Only alpha e_n = e_n alpha
compares two dense Kronecker products; its 4^k entries are formed
elementwise, a block of trailing slots at a time.

The joint eigenbasis v_eps of the rotors and e_n is built once per
representation, as one Kronecker product whose columns are put in
``SignVector`` order: column b of ``SpinorRep.basis`` is v_eps for
eps = SignVector(b, k).  Every relation that runs over the 2^k sign
vectors applies its operator to blocks of basis columns and reads the
per-vector defects column by column; ``lift_eigenphases`` tests each
column against the one phase read off its largest entry.
``windowed_spectrum`` and ``kernel_dim_oracle`` take that array of
phases, so one read of a lift serves both.

Tensor-slot convention.  The generator pair (e_{2m-1}, e_{2m}) places g1
or g2 in slot m with T factors filling slots 1..m-1 and identities after;
e_n is i times T in every slot, the i held in slot 1.  Slot 1 is the
most significant bit of a row or column index.  This is the unique slot
order for which the Clifford relations and the rotor eigenrelations hold
simultaneously: the product e_{2m-1} e_{2m} then acts on slot m alone,
so the m-th rotor rotates the m-th tensor factor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .combinatorics import MultiplicityTable, SignVector, mu, nu
from .core import ORACLE_MAX_K, CyclicFlatManifold, SpinStructure

_G1 = np.array([[1j, 0.0], [0.0, -1j]])
_G2 = np.array([[0.0, 1j], [1j, 0.0]])
_T = np.array([[0.0, -1j], [1j, 0.0]])
_EYE2 = np.eye(2, dtype=complex)
_W = {+1: np.array([1.0, -1j]), -1: np.array([1.0, 1j])}

# Entries per block of columns: 4 MiB of complex128.  At k = 12 a block
# this size applies alpha about a quarter faster than one of 16 MiB.
_BLOCK = 1 << 18
# Trailing slots whose 4^9 = _BLOCK entries ``_kron_difference`` forms at once.
_BLOCK_SLOTS = 9


@dataclass(frozen=True)
class SpinorRep:
    """Structured spinor module: generator and rotor slot factors, eigenbasis.

    ``generators[i]`` holds the k x 2 x 2 slot factors of e_{i+1}, slot 1
    first; each factor is diagonal or anti-diagonal.  ``rotors[j-1]`` is
    the 2x2 factor by which r_j acts on slot j; alpha and the lifts are the
    Kronecker products of the rotors.  Column b of ``basis`` is v_eps for
    eps = SignVector(b, k).  Every relation on whole operators is measured
    on these factors in O(k 2^k) per operator (see ``_band_defect``).
    """

    k: int
    generators: tuple[np.ndarray, ...]
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


def _outer_chain(vectors: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Kronecker product of the rows of a (..., k, m) array, the first row most significant.

    Leading axes are a batch: the result has shape (..., m^k).
    """
    vectors = np.asarray(vectors)
    batch = vectors.shape[:-2]
    out = np.ones(batch + (1,))
    for s in reversed(range(vectors.shape[-2])):
        out = (vectors[..., s, :, None] * out[..., None, :]).reshape(batch + (-1,))
    return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _plane_factor(first: np.ndarray, second: np.ndarray, slot: int) -> np.ndarray:
    """The 2x2 factor of the product of two operators' slot factors at ``slot`` (1-based).

    Raises ValueError unless the product acts on that slot alone: every
    other slot's product must be I exactly.
    """
    product = first @ second
    others = np.delete(product, slot - 1, axis=0)
    if not np.array_equal(others, np.broadcast_to(_EYE2, others.shape)):
        raise ValueError(f"E_{slot} does not act on slot {slot} alone")
    return product[slot - 1]


def build_rep(k: int) -> SpinorRep:
    """Construct the 2^k-dimensional representation for dimension n = 2k+1."""
    if not 1 <= k <= ORACLE_MAX_K:
        raise ValueError(f"k must be in 1..{ORACLE_MAX_K}, got {k}")
    n = 2 * k + 1

    e = []
    for m_idx in range(1, k + 1):
        lead = [_T] * (m_idx - 1)
        tail = [_EYE2] * (k - m_idx)
        e.append(lead + [_G1] + tail)
        e.append(lead + [_G2] + tail)
    e.append([1j * _T] + [_T] * (k - 1))
    generators = tuple(_freeze(np.array(g, dtype=complex)) for g in e)

    beta = math.pi / n
    rotors = []
    for j in range(1, k + 1):
        plane = _plane_factor(generators[2 * j - 2], generators[2 * j - 1], j)
        rotors.append(_freeze(math.cos(j * beta) * _EYE2 + math.sin(j * beta) * plane))

    # The Kronecker product of the columns (w_{-1}, w_{+1}) over the slots.
    # Rows take slot 1 as their top bit, as the generators do; SignVector
    # keeps slot 1 in bit 0, so each new slot's column bit goes on top.
    columns = np.column_stack([_W[-1], _W[+1]])
    basis = np.ones((1, 1), dtype=complex)
    for _ in range(k):
        size = 2 * len(basis)
        basis = (basis[:, None, None, :] * columns[None, :, :, None]).reshape(size, size)

    return SpinorRep(k=k, generators=generators, rotors=tuple(rotors), basis=_freeze(basis))


def spinor_basis_vector(eps: SignVector) -> np.ndarray:
    """Joint eigenvector v_eps = w_{s_1} x ... x w_{s_k} of the rotors and e_n."""
    return _outer_chain([_W[s] for s in eps.signs])


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


def apply_slots(factors: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Apply the Kronecker product of 2x2 factors, slot 1 first, to the columns of x."""
    shape = x.shape
    for slot, factor in enumerate(factors):
        x = np.matmul(factor, x.reshape(1 << slot, 2, -1))
    return x.reshape(shape)


def _slot_bands(factors: np.ndarray) -> np.ndarray:
    """Entry (c ^ d, c) of each 2x2 factor, as [..., d, c]."""
    cols = np.arange(2)
    return factors[..., cols[:, None] ^ cols, cols]


def _band_defect(
    factors: np.ndarray, targets: Sequence[Sequence[tuple[float, np.ndarray]]]
) -> float:
    """Largest entry of A_i - B_i over i, A_i the Kronecker product of factors[i], slot 1 first.

    ``factors`` has shape (N, k, 2, 2), and B_i is the sum of the terms
    c * F listed in ``targets[i]`` as pairs (c, k x 2 x 2 factors of F).
    Entry (c ^ d, c) of a Kronecker product is the product over slots of
    A_s[c_s ^ d_s, c_s], so each band of fixed row-xor d is the Kronecker
    product of one 2-vector per slot.  Each F has diagonal or anti-diagonal
    factors, so it lies on the one band d whose bits mark its anti-diagonal
    slots; a factor that is neither raises ValueError.  On the terms' bands
    the defect is A_i's vector minus the terms', summed exactly; on every
    other band it is A_i's alone, whose largest entry is the product of
    per-slot maxima.  Time and memory are O(k 2^k) per operator and term.
    """
    k = factors.shape[1]
    slots = np.arange(k)
    ops, coeffs, terms = zip(*[(i, c, f) for i, pairs in enumerate(targets) for c, f in pairs])
    term_bands = _slot_bands(np.array(terms))
    nonzero = np.any(term_bands != 0, axis=-1)  # [term, s, d_s]
    if np.any(nonzero[..., 0] & nonzero[..., 1]):
        raise ValueError("factor is neither diagonal nor anti-diagonal")
    flips = nonzero[..., 1].astype(np.int64)
    # key = op * 2^k + d, the flat index of band d of operator op
    keys = (np.array(ops) << k) | (flips @ (1 << slots[::-1]))
    keys, rows = np.unique(keys, return_inverse=True)
    bands = _slot_bands(factors)  # [op, s, d_s, c_s]
    bits = (keys[:, None] >> slots[::-1]) & 1
    defects = _outer_chain(bands[keys[:, None] >> k, slots, bits])
    for row, coeff, term, flip in zip(rows, coeffs, term_bands, flips):
        defects[row] -= coeff * _outer_chain(term[slots, flip])
    peaks = _outer_chain(np.abs(bands).max(axis=3))
    peaks.flat[keys] = 0.0
    return max(_max_abs(defects), float(peaks.max()))


def _kron_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry of the Kronecker product of the k x 2 x 2 factors a minus that of b.

    Every entry of either side is a product of one entry per slot, so the
    4^k differences are formed elementwise: the products over the trailing
    slots once, then once per entry of the leading slots' product.
    """
    a, b = (np.reshape(x, (-1, 4)) for x in (a, b))
    lead = max(0, len(a) - _BLOCK_SLOTS)
    tail_a, tail_b = _outer_chain(a[lead:]), _outer_chain(b[lead:])
    head_a, head_b = _outer_chain(a[:lead]), _outer_chain(b[:lead])
    return max(_max_abs(x * tail_a - y * tail_b) for x, y in zip(head_a, head_b))


def clifford_defect(rep: SpinorRep) -> float:
    """Worst deviation from e_i e_j + e_j e_i = -2 delta_ij I.

    e_i e_j is compared with -e_j e_i (and -2 I when j = i), one call of
    ``_band_defect`` per i for all j >= i.
    """
    e = np.asarray(rep.generators)
    eye = np.broadcast_to(_EYE2, e.shape[1:])
    worst = 0.0
    for i in range(rep.n):
        targets = [[(-1.0, f @ e[i])] for f in e[i:]]
        targets[0].append((-2.0, eye))
        worst = max(worst, _band_defect(e[i] @ e[i:], targets))
    return worst


def rotor_commutation_defect(rep: SpinorRep) -> float:
    """Worst deviation from r_i r_j = r_j r_i.

    With r_j = cos(j beta) I + sin(j beta) E_j, the commutator is
    sin(i beta) sin(j beta) (E_i E_j - E_j E_i); that scale is carried by
    slot 1 of E_i E_j and by the coefficient of E_j E_i.
    """
    e = np.asarray(rep.generators)
    planes = e[0 : 2 * rep.k : 2] @ e[1 : 2 * rep.k : 2]
    beta = math.pi / rep.n
    sines = [abs(math.sin(j * beta)) for j in range(1, rep.k + 1)]
    worst = 0.0
    for i in range(rep.k - 1):
        scales = [sines[i] * sines[j] for j in range(i + 1, rep.k)]
        products = planes[i] @ planes[i + 1 :]
        products[:, 0] *= np.array(scales)[:, None, None]
        targets = [[(s, f @ planes[i])] for s, f in zip(scales, planes[i + 1 :])]
        worst = max(worst, _band_defect(products, targets))
    return worst


def _power_defect(factors: Sequence[np.ndarray], n: int, target: float) -> float:
    """Largest entry of A^n - target * I, A^n the Kronecker product of the factors' n-th powers."""
    powers = np.linalg.matrix_power(np.asarray(factors), n)
    return _band_defect(powers[None], [[(target, np.broadcast_to(_EYE2, powers.shape))]])


def alpha_power_defect(rep: SpinorRep) -> float:
    """Deviation of alpha^n from (-1)^(k(k+1)/2) I."""
    return _power_defect(rep.rotors, rep.n, rep.alpha_power_sign)


def lift_power_defects(rep: SpinorRep) -> tuple[float, float]:
    """Deviations of the plus lift's n-th power from I and the minus lift's from -I."""
    plus = _power_defect(rep.lift_factors(SpinStructure.PLUS), rep.n, 1.0)
    minus = _power_defect(rep.lift_factors(SpinStructure.MINUS), rep.n, -1.0)
    return plus, minus


def conjugation_defect(rep: SpinorRep) -> float:
    """Worst deviation of alpha e_l alpha^-1 from the rotated generator.

    alpha e_l alpha^-1 is the Kronecker product of the r_s F_s r_s^-1, for
    F_s the slot factors of e_l; raises ValueError when a generator factor
    is neither diagonal nor anti-diagonal.
    """
    rot = rotation_matrix(rep.n)
    e = np.asarray(rep.generators)
    rotors = np.asarray(rep.rotors)
    conjugated = rotors @ e @ np.linalg.inv(rotors)
    targets = [[(rot[m, l], e[m]) for m in np.flatnonzero(rot[:, l])] for l in range(rep.n)]
    return _band_defect(conjugated, targets)


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
    alpha = np.asarray(rep.rotors)
    commute_defect = _kron_difference(alpha @ en, en @ alpha)

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

    phase_defects, stated_defects, universal_defects = [], [], []
    for start, stop in _blocks(rep.dim):
        block = rep.basis[:, start:stop]
        env = apply_slots(en, block)
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


def lift_eigenphases(rep: SpinorRep, structure: SpinStructure, tol: float = 1e-9) -> np.ndarray:
    """The eigenphase index of the lift on each basis vector.

    Entry b is the p in [0, 2n) with lift v_b = e^(i*pi*p/n) v_b to within
    tol in every entry, or -1 when no phase fits.  The candidate p is read
    off the column's largest entry, and the whole column is then tested
    against that one phase.  Every entry of v_b has modulus 1, and for
    n <= 25 distinct phases lie 2*sin(pi/2n) >= 0.125 apart; a tol up to
    1e-3 is far below half that spacing, so no other phase can fit a
    column that the candidate misses.  The test is plain matrix
    arithmetic; nothing from the combinatorial route enters.
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
    phases: np.ndarray,
    m: CyclicFlatManifold,
    structure: SpinStructure,
    window: int,
) -> dict[Fraction, int]:
    """Multiset of Dirac eigenvalues (units of 2*pi) in the Fourier window.

    ``phases`` is ``lift_eigenphases`` of the lift for ``structure``.  The
    section v_eps with Fourier index l survives the quotient exactly when
    the lift's eigenphase index on v_eps is 2l (plus) or 2l+1 (minus) mod
    2n; its eigenvalue is then nu(eps) * l or nu(eps) * (l + 1/2).
    """
    if len(phases) != 1 << m.k:
        raise ValueError(f"{len(phases)} eigenphases do not match manifold k = {m.k}")
    if window < m.n:
        raise ValueError(f"window must be at least n = {m.n}, got {window}")
    offset = 0 if structure is SpinStructure.PLUS else 1
    signs = (nu(SignVector(bits, m.k)) for bits in range(len(phases)))
    classes = Counter(zip(signs, phases.tolist()))
    spectrum: Counter[Fraction] = Counter()
    for (sign, p), count in classes.items():
        for l in range(-window, window + 1):
            if (2 * l + offset) % (2 * m.n) == p:
                spectrum[Fraction(sign * (2 * l + offset), 2)] += count
    return dict(spectrum)


def kernel_dim_oracle(phases: np.ndarray) -> int:
    """Dimension of the Dirac kernel, counted over all 2^k sign vectors.

    ``phases`` is ``lift_eigenphases`` of one lift.  A constant section
    v_eps is invariant exactly when the lift fixes it, phase index 0; only
    the zero Fourier mode can contribute, and for the minus structure the
    modes are half-integral, so the count is 0 there.
    """
    return int(np.count_nonzero(phases == 0))


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
