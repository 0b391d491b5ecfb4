"""Structured spinor representation and brute-force spectral checks.

Everything the combinatorial modules compute in closed form is re-derived
here from the 2^k-dimensional spinor module: the Clifford generators, the
commuting plane rotors, the holonomy lifts, and the eigenphase each lift
puts on each basis spinor.  The windowed spectrum of the Dirac operator
on the invariant Fourier modes along the rotation axis, and its kernel,
are both read off those eigenphases.

Nothing is held as a dense 2^k x 2^k matrix.  Every operator is held as
its k x 2 x 2 slot factors, whose Kronecker product it is, slot 1 first;
every generator factor is diagonal or anti-diagonal, and a product of
operators is the per-slot product of their factors.  The m-th rotor
factor is the slot-m product of e_{2m-1} and e_{2m}, after checking that
every other slot's product is I: E_m = e_{2m-1} e_{2m} acts on slot m
alone.  alpha = r_1 ... r_k and the lifts have the rotors as factors.

Every relation on whole operators but one compares a Kronecker product A
with a sum of terms c * F, each F a Kronecker product of diagonal or
anti-diagonal factors: the Clifford relations, rotor commutation, the
powers of alpha and the lifts, and conjugation.  ``_band_defect``
measures all of them.  Entry (c ^ d, c) of a Kronecker product is a
product of one entry per slot, so for each row-xor d those entries form
the Kronecker product of one 2-vector per slot; each term F lies on one
such band.  On the terms' bands the defect is one exact length-2^k vector
each; off them its largest entry is a product of per-slot maxima.  That
costs O(k 2^k) time and memory per operator and per term; the Clifford
and rotor pairs are measured one generator at a time, all its partners
in one call, so memory stays O(n k 2^k).

The joint eigenbasis v_eps = w_{eps_1} x ... x w_{eps_k} of the rotors
and e_n is never formed: each eigen-relation compares F_j w_{eps_j} with
t_j w_{eps_j} slot by slot, and ``_telescoped`` bounds the whole from the
per-slot defects and maxima, in O(k 2^k) for all 2^k sign vectors; it
also measures alpha e_n = e_n alpha.  ``lift_eigenphases`` adds the
phases read off each slot; ``windowed_spectrum`` and
``kernel_dim_oracle`` take that array, so one read of a lift serves both.

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
from typing import Mapping, Sequence

import numpy as np

from .combinatorics import MultiplicityTable, SignVector, mu, nu
from .core import ORACLE_MAX_K, PHASE_TOL, CyclicFlatManifold, SpinStructure

_G1 = np.array([[1j, 0.0], [0.0, -1j]])
_G2 = np.array([[0.0, 1j], [1j, 0.0]])
_T = np.array([[0.0, -1j], [1j, 0.0]])
_EYE2 = np.eye(2, dtype=complex)
# Rows w_{-1} and w_{+1}: row b is w_s for the sign s of ``SignVector`` bit b.
_W = np.array([[1.0, 1j], [1.0, -1j]])


@dataclass(frozen=True)
class SpinorRep:
    """Structured spinor module: generator and rotor slot factors.

    ``generators[i]`` holds the k x 2 x 2 slot factors of e_{i+1}, slot 1
    first; each factor is diagonal or anti-diagonal.  ``rotors[j-1]`` is
    the 2x2 factor by which r_j acts on slot j; alpha and the lifts are the
    Kronecker products of the rotors.  The eigenbasis is not stored: v_eps
    has the 2-vector w_{eps_j} in slot j, so every relation is measured on
    these factors in O(k 2^k) per operator (see ``_band_defect`` and
    ``_telescoped``).
    """

    k: int
    generators: tuple[np.ndarray, ...]
    rotors: tuple[np.ndarray, ...]

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
    return SpinorRep(k=k, generators=generators, rotors=tuple(rotors))


def spinor_basis_vector(eps: SignVector) -> np.ndarray:
    """Joint eigenvector v_eps = w_{s_1} x ... x w_{s_k} of the rotors and e_n."""
    return _outer_chain(_W[[(eps.bits >> j) & 1 for j in range(eps.k)]])


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


def _telescoped(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bounds on the largest entry of the Kronecker product of a minus that of b.

    ``a`` and ``b`` have shape (k, S, ...): per slot, S states, each an
    array of entries.  For each of the S^k choices of one state per slot,
    slot 1 in the lowest digit as in ``SignVector``, the difference is the
    telescoping sum over j of a_1 .. a_{j-1} (a_j - b_j) b_{j+1} .. b_k, so
    its largest entry is at most

        sum_j (prod_{i<j} max|a_i|) max|a_j - b_j| (prod_{i>j} max|b_i|).

    The bound is exact when a and b differ in one slot and at least the
    true defect otherwise.  It costs O(k S^k).
    """
    axes = tuple(range(2, a.ndim))
    peak_a, gap, peak_b = (np.abs(x).max(axis=axes) for x in (a, a - b, b))
    term, slot = np.indices((len(a), len(a)))[..., None]
    rows = np.where(slot < term, peak_a, np.where(slot == term, gap, peak_b))
    return _outer_chain(rows[:, ::-1]).sum(axis=0)


def _on_w(factors: np.ndarray) -> np.ndarray:
    """Each k x 2 x 2 slot factor applied to w_{-1} and w_{+1}, as [slot, sign bit, entry]."""
    return (factors[:, None] @ _W[..., None])[..., 0]


def _slot_eigenvalues(vectors: np.ndarray) -> np.ndarray:
    """Per slot and sign bit, the centre of the two entry ratios of F_j w_s to w_s."""
    return (vectors / _W).mean(axis=-1)


def _eigen_defects(vectors: np.ndarray, targets: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per sign vector eps, a bound on the largest entry of M v_eps - want[eps] v_eps.

    ``vectors`` is ``_on_w`` of M's slot factors and ``targets[j, s]`` the
    eigenvalue claimed for slot j on w_s, so M v_eps differs from
    (prod_j targets_j) v_eps by at most ``_telescoped``.  Every entry of
    v_eps has modulus 1, so the gap to ``want`` adds
    |prod_j targets_j - want|.
    """
    bound = _telescoped(vectors, targets[..., None] * _W)
    return bound + np.abs(_outer_chain(targets[::-1]) - want)


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
    witness is the first sign vector with the largest defect, or None when
    the relation is not per-vector or holds exactly.  Per-vector defects
    are ``_eigen_defects`` bounds, on the slot targets e^(i*beta*j*s) for
    alpha and, for e_n, its eigenvalue on w_s read off its factor.
    """
    k = rep.k
    n = rep.n
    beta = math.pi / n
    en = rep.generators[n - 1]
    alpha = np.asarray(rep.rotors)
    commute_defect = float(_telescoped((alpha @ en)[:, None], (en @ alpha)[:, None])[0])

    slot_phases = np.exp(1j * beta * np.outer(np.arange(1, k + 1), [-1, 1]))
    rho1 = math.cos(beta) * np.eye(2) + math.sin(beta) * (_G1 @ _G2)
    rho_defect = _max_abs(_on_w(rho1[None]) - slot_phases[:1, :, None] * _W)

    mus = np.array([mu(SignVector(bits, k)) for bits in range(rep.dim)])
    nus = np.array([nu(SignVector(bits, k)) for bits in range(rep.dim)])
    phase_defects = _eigen_defects(_on_w(alpha), slot_phases, np.exp(1j * beta * mus))
    en_sign = 1j * (-1.0 if k % 2 else 1.0)  # i * (-1)^k
    en_w = _on_w(en)
    en_slots = _slot_eigenvalues(en_w)  # -s on w_s, times i in slot 1

    def worst(name: str, per_vector: np.ndarray) -> tuple[str, float, str | None]:
        bits = int(np.argmax(per_vector))
        defect = float(per_vector[bits])
        return name, defect, (str(SignVector(bits, k)) if defect > 0 else None)

    # det of the Kronecker product of W over k slots is det(W)^(k 2^(k-1)),
    # det W = -2i, and the v_eps are its columns in another order
    independent = np.linalg.det(_W) != 0

    return (
        ("rho1_eigenpair", rho_defect, None),
        ("alpha_en_commutation", commute_defect, None),
        worst("alpha_eigenphase", phase_defects),
        worst("en_eigen_sign", _eigen_defects(en_w, en_slots, -1j * nus)),
        worst("en_eigen_sign_universal", _eigen_defects(en_w, en_slots, en_sign * nus)),
        ("basis_rank", 0.0 if independent else math.inf, None),
    )


def lift_eigenphases(
    rep: SpinorRep, structure: SpinStructure, tol: float = PHASE_TOL
) -> np.ndarray:
    """The eigenphase index of the lift on each basis vector.

    Entry b is the p in [0, 2n) with lift v_eps = e^(i*pi*p/n) v_eps to
    within tol in every entry, for eps = SignVector(b, k), or -1 when no
    phase fits.  The phase splits over the lift's slot factors f_j: p_j(s)
    is read off f_j w_s at the centre of its two entry ratios to w_s, and
    p = sum_j p_j(eps_j) mod 2n.  A vector fits when its ``_eigen_defects``
    bound, never below the true defect, is under tol.  For n <= 25
    distinct phases lie 2*sin(pi/2n) >= 0.125 apart, far above a tol up
    to 1e-3, so no other phase can fit a vector that p misses.  Nothing
    from the combinatorial route enters.
    """
    n = rep.n
    lifted = _on_w(np.asarray(rep.lift_factors(structure)))
    slot_p = np.rint(np.angle(_slot_eigenvalues(lifted)) * n / math.pi).astype(np.int64)
    bits = (np.arange(rep.dim)[:, None] >> np.arange(rep.k)) & 1
    p = slot_p[np.arange(rep.k), bits].sum(axis=1) % (2 * n)
    bound = _eigen_defects(lifted, np.exp(1j * math.pi * slot_p / n), np.exp(1j * math.pi * p / n))
    return np.where(bound < tol, p, -1)


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
    offset = structure.half
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
    mismatches = []
    for m_int in range(-(window - 1), window):
        lam = Fraction(2 * m_int + table.structure.half, 2)
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
