"""Structured spinor representation and brute-force spectral checks.

Everything the combinatorial modules compute in closed form is re-derived
here from the 2^k-dimensional spinor module: the Clifford generators, the
commuting plane rotors, the holonomy lifts, and the eigenphase each lift
puts on each basis spinor.  The spectrum of the Dirac operator on the
invariant Fourier modes along the rotation axis, folded to one period of
n eigenvalue classes, and its kernel are both read off those eigenphases.

Nothing is held as a dense 2^k x 2^k matrix.  Every operator is held as
its k x 2 x 2 slot factors, whose Kronecker product it is, slot 1 first;
every generator factor is diagonal or anti-diagonal, and a product of
operators is the per-slot product of their factors.  The m-th rotor
factor is the slot-m product of e_{2m-1} and e_{2m}, after checking that
every other slot's product is I: E_m = e_{2m-1} e_{2m} acts on slot m
alone.  alpha = r_1 ... r_k and the lifts have the rotors as factors.

Every relation on whole operators is bounded through pairs of Kronecker
products X = x_1 x ... x x_k and c Y = c (y_1 x ... x y_k): the Clifford
pairs, the rotor pairs, and each power A^n against t I, I the product of
k identities.  ``_pair_defects`` fits each y_s as a multiple of x_s, moves
all the multiples into the worst-fitting slot, and bounds what is left
from per-slot defects and maxima with ``_telescoped``: O(k) per pair,
with no 2^k-length array.  The bound is never below the true defect,
exact when at most one slot of a pair is off proportional, and exactly 0
on the built rep.  Conjugation compares alpha e_l alpha^-1 with the
rotated generator c e_l + d e_m, a sum of two products; folded into the
slot where e_l and e_m differ most, the sum is one product plus a
remainder, and each part is one pair.  ``operator_defects`` bounds the
pairs of all six relations in one pass (see there).

The joint eigenbasis v_eps = w_{eps_1} x ... x w_{eps_k} of the rotors
and e_n is never formed: each eigen-relation compares F_j w_{eps_j} with
t_j w_{eps_j} slot by slot, and ``_telescoped`` bounds the whole from the
per-slot defects and maxima, in O(2^k) for all 2^k sign vectors; alpha
and e_n share one call, and the two e_n relations one bound.  It also
measures alpha e_n = e_n alpha.  Every check reads the built factors:
where the slot targets multiply to the claimed eigenvalue by definition,
as e^(i*beta*j*eps_j) do to e^(i*beta*mu), that bound is the whole check.
The parities nu of all 2^k sign vectors come from one bit array
(``_sign_bits``), with no loop over ``SignVector``s.
``lift_eigenphases`` reads both lifts at once, summing the phases read
off each slot in one integer matmul with that bit array;
``folded_spectrum`` and ``kernel_dim_oracle`` take one lift's array, so
one read serves both.

A slot holds 2 or 4 entries, and a numpy reduction over so short an axis
costs about ten times the elementwise calls, so each per-slot max and sum
runs slice by slice in numpy's own order (``_fold``, ``_last_sum``), bit
for bit the same.

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
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .combinatorics import MultiplicityTable, SignVector
from .core import ORACLE_MAX_K, PHASE_TOL, CyclicFlatManifold, SpinStructure

_G1 = np.array([[1j, 0.0], [0.0, -1j]])
_G2 = np.array([[0.0, 1j], [1j, 0.0]])
_T = np.array([[0.0, -1j], [1j, 0.0]])
_EYE2 = np.eye(2, dtype=complex)
# Rows w_{-1} and w_{+1}: row b is w_s for the sign s of ``SignVector`` bit b.
_W = np.array([[1.0, 1j], [1.0, -1j]])


class SpinorRep(NamedTuple):
    """Structured spinor module: generator and rotor slot factors.

    ``generators[i]`` holds the k x 2 x 2 slot factors of e_{i+1}, slot 1
    first; each factor is diagonal or anti-diagonal.  ``rotors[j-1]`` is
    the 2x2 factor by which r_j acts on slot j; alpha and the lifts are the
    Kronecker products of the rotors.  The eigenbasis is not stored: v_eps
    has the 2-vector w_{eps_j} in slot j, so every relation is measured on
    these factors (see ``_pair_defects`` and ``_telescoped``).
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

    Leading axes are a batch, possibly empty: the result has shape (..., m^k).
    """
    vectors = np.asarray(vectors)
    batch = vectors.shape[:-2]
    m = vectors.shape[-1]
    out = np.ones(batch + (1,))
    for s in reversed(range(vectors.shape[-2])):
        out = (vectors[..., s, :, None] * out[..., None, :]).reshape(*batch, m * out.shape[-1])
    return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_rep(k: int) -> SpinorRep:
    """Construct the 2^k-dimensional representation for dimension n = 2k+1."""
    if not 1 <= k <= ORACLE_MAX_K:
        raise ValueError(f"k must be in 1..{ORACLE_MAX_K}, got {k}")
    n = 2 * k + 1

    # e_{i+1}, i < 2k, has g1 or g2 in slot i // 2, T before it and I after
    i = np.arange(2 * k)
    e = np.empty((n, k, 2, 2), dtype=complex)
    e[:-1] = np.where((np.arange(k) < i[:, None] // 2)[..., None, None], _T, _EYE2)
    e[i, i // 2] = [_G1, _G2] * k
    e[-1] = _T
    e[-1, 0] = 1j * _T

    beta = math.pi / n
    cos, sin = np.array([[math.cos(j * beta), math.sin(j * beta)] for j in range(1, k + 1)]).T
    rotors = cos[:, None, None] * _EYE2 + sin[:, None, None] * _one_slot_factors(_planes(e))
    return SpinorRep(k=k, generators=tuple(_freeze(e)), rotors=tuple(_freeze(rotors)))


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


def _fold(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` across the slices of a short last axis, left to right; ``a.max(-1)`` for max."""
    out = a[..., 0]
    for i in range(1, a.shape[-1]):
        out = ufunc(out, a[..., i])
    return out


def _last_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(-1)`` bit for bit, for a last axis of 2 to 4 entries.

    numpy adds float64 left to right and four complex128 entries pairwise,
    from +0.0, so a sum of -0.0 entries is +0.0.
    """
    if a.dtype.kind == "c" and a.shape[-1] == 4:
        return (a[..., 0] + a[..., 1]) + (a[..., 2] + a[..., 3]) + 0.0
    return _fold(np.add, a) + 0.0


def _telescoped(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bounds on the largest entry of the Kronecker product of a minus that of b.

    ``a`` and ``b`` have shape (..., k, S, m): per slot, S states, each m
    entries; leading axes are a batch.  For each of the S^k choices of one
    state per slot, slot 1 in the lowest digit as in ``SignVector``, the
    difference is the telescoping sum over j of
    a_1 .. a_{j-1} (a_j - b_j) b_{j+1} .. b_k, so its largest entry is at
    most

        sum_j (prod_{i<j} max|a_i|) max|a_j - b_j| (prod_{i>j} max|b_i|).

    Returns shape (..., S^k).  The bound is exact when a and b differ in
    one slot and at least the true defect otherwise.  It is summed by
    Horner's rule over the slots, each new slot in the next higher digit:
    the bound over slots 1..j is max|b_j| times that over slots 1..j-1
    plus max|a_j - b_j| times prod_{i<j} max|a_i|.  That costs O(S^k) per
    batch entry, and O(k) when S = 1.
    """
    peak_a, gap, peak_b = (_fold(np.maximum, np.abs(x)) for x in (a, a - b, b))
    *batch, k, states = peak_a.shape
    head = np.ones((*batch, 1))
    bound = np.zeros((*batch, 1))
    for j in range(k):
        size = states ** (j + 1)  # explicit, since -1 cannot reshape an empty batch
        bound = peak_b[..., j, :, None] * bound[..., None, :]
        bound = (bound + gap[..., j, :, None] * head[..., None, :]).reshape(*batch, size)
        head = (peak_a[..., j, :, None] * head[..., None, :]).reshape(*batch, size)
    return bound


def _sign_bits(k: int) -> np.ndarray:
    """Entry [b, j] is bit j of b, set when entry j+1 of ``SignVector(b, k)`` is +1."""
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def _parities(bits: np.ndarray) -> np.ndarray:
    """nu of each row of ``_sign_bits``: +1 when its number of -1 entries is even."""
    return 1 - 2 * ((bits.shape[1] - bits.sum(axis=1)) % 2)


def _on_w(factors: np.ndarray) -> np.ndarray:
    """Slot factors (..., k, 2, 2) applied to w_{-1} and w_{+1}, as [..., slot, sign bit, entry]."""
    return (factors[..., None, :, :] @ _W[..., None])[..., 0]


def _slot_eigenvalues(vectors: np.ndarray) -> np.ndarray:
    """Per slot and sign bit, the centre of the two entry ratios of F_j w_s to w_s."""
    return _last_sum(vectors / _W) / 2


def _slot_products(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b over stacks of 2x2 slot factors, as two broadcast products, into ``out`` if given.

    Equal to matmul, and several times faster on thousands of 2x2 factors.
    """
    out = np.multiply(a[..., :, :1], b[..., :1, :], out=out)
    out += a[..., :, 1:] * b[..., 1:, :]
    return out


def _planes(e: np.ndarray) -> np.ndarray:
    """Slot factors of E_j = e_{2j-1} e_{2j} for j = 1..k, shape (k, k, 2, 2)."""
    k = e.shape[1]
    return _slot_products(e[0 : 2 * k : 2], e[1 : 2 * k : 2])


def _one_slot_factors(planes: np.ndarray) -> np.ndarray:
    """The slot-j factor of each E_j = planes[j-1], shape (J, 2, 2).

    A rotor factor is read off E_j only when E_j acts on slot j alone, so
    this raises ValueError for the first E_j whose factor on another slot
    is not I exactly.
    """
    own = np.eye(*planes.shape[:2], dtype=bool)
    is_eye = _fold(np.logical_and, (planes == _EYE2).reshape(*planes.shape[:2], 4))
    alone = np.all(own | is_eye, axis=1)
    if not alone.all():
        j = int(np.argmin(alone)) + 1
        raise ValueError(f"E_{j} does not act on slot {j} alone")
    return planes[own]


def _pair_defects(x: np.ndarray, y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per pair p, a bound on the largest entry of X_p - c_p Y_p.

    X_p and Y_p are the Kronecker products of x[p] and y[p], slot factors
    of shape (P, k, 2, 2).  Each slot's y_s is fitted as sigma_s x_s by
    least squares, with sigma_s = 1 where the fit is 0.  Every slot but the
    worst fitted one, b, is rescaled to y_s / sigma_s, and slot b to
    c_p (prod_{s != b} sigma_s) y_b, so the rescaled factors still multiply
    to c_p Y_p and ``_telescoped`` bounds X_p minus their product.  The
    bound is never below the true defect, and exact when at most one slot
    of the pair is off proportional; on the built rep every sigma_s is +-1
    or +-i and the bound is exactly 0.  It costs O(k) per pair, not
    O(k 2^k).
    """
    x = x.reshape(*x.shape[:-2], 4)
    y = y.reshape(*y.shape[:-2], 4)
    norm = _last_sum(np.abs(x) ** 2)
    # the fit, in place; a slot with norm 0 keeps its inner product 0
    sigma = _last_sum(x.conj() * y)
    np.divide(sigma, norm, out=sigma, where=norm > 0)
    sigma[sigma == 0] = 1.0
    scaled = y / sigma[..., None]
    pairs = np.arange(len(x))
    worst = np.argmax(_fold(np.maximum, np.abs(x - scaled)), axis=-1)
    sigma[pairs, worst] = 1.0
    scaled[pairs, worst] = c[:, None] * sigma.prod(axis=-1)[:, None] * y[pairs, worst]
    return _telescoped(x[..., None, :], scaled[..., None, :])[..., 0]


def operator_defects(rep: SpinorRep) -> dict[str, float]:
    """Bounds on the relations on whole operators, keyed by check name.

      * clifford_relations: e_i e_j + e_j e_i = -2 delta_ij I.  Pair i < j
        is e_i e_j against -e_j e_i; pair i = j is e_i e_i against -I,
        doubled since e_i e_i + e_i e_i + 2 I = 2 (e_i e_i + I).
      * rotor_commutation: r_i r_j = r_j r_i.  With r_j = cos(j beta) I +
        sin(j beta) E_j the commutator is sin(i beta) sin(j beta)
        (E_i E_j - E_j E_i), so pair i < j is E_i E_j against E_j E_i,
        times that scale; k = 1 has no pairs.
      * alpha_power_sign, lift_power_plus, lift_power_minus: alpha^n
        against (-1)^(k(k+1)/2) I, and the plus and minus lifts' n-th
        powers against I and -I.  A^n is the Kronecker product of the
        factors' n-th powers, all three from one stacked ``matrix_power``,
        and I that of k identities.
      * conjugation_rotation: alpha e_l alpha^-1 against the rotated
        generator.  alpha e_l alpha^-1 is the Kronecker product of the
        r_s F_s r_s^-1, for F_s the slot factors of e_l.  Column l of the
        rotation is c at l and d at e_l's plane partner m (d = 0 and m = l
        for e_n).  With b the slot where the factors of e_l and e_m differ
        most, Z is e_l with c e_l[b] + d e_m[b] in slot b, and e_m' is e_l
        with e_m[b] in slot b, so c e_l + d e_m = Z + d (e_m - e_m').  The
        defect is at most the bound of the conjugate against Z plus |d|
        times that of e_m against e_m'; the second is 0 on the built rep,
        whose plane partners differ in one slot alone.

    Every pair fills one preallocated (P, k, 2, 2) array per side, with
    its target c_p, and one ``_pair_defects`` call bounds them all; pair
    blocks are not concatenated, which would hold each block twice.
    """
    n, k = rep.n, rep.k
    e = np.asarray(rep.generators)
    planes = _planes(e)
    l = np.arange(n)
    ci, cj = np.nonzero(l[:, None] <= l)
    rotor_pair = (ci < cj) & (cj < k)
    ri, rj = ci[rotor_pair], cj[rotor_pair]
    m = np.minimum(l ^ 1, n - 1)
    ends = np.cumsum([len(ci), len(ri), 3, n, n])
    cliff, rot, powers, conj, partner = map(slice, (0, *ends[:-1]), ends)
    x = np.empty((ends[-1], k, 2, 2), dtype=complex)
    y = np.empty_like(x)
    target = np.ones(ends[-1])

    _slot_products(e[ci], e[cj], x[cliff])
    _slot_products(e[cj], e[ci], y[cliff])
    y[cliff][ci == cj] = _EYE2
    target[cliff] = -1.0

    _slot_products(planes[ri], planes[rj], x[rot])
    _slot_products(planes[rj], planes[ri], y[rot])

    lifts = [rep.lift_factors(s) for s in (SpinStructure.PLUS, SpinStructure.MINUS)]
    x[powers] = np.linalg.matrix_power(np.array([rep.rotors, *lifts]), n)
    y[powers] = _EYE2
    target[powers] = rep.alpha_power_sign, 1.0, -1.0

    rotation = rotation_matrix(n)
    c, d = rotation[l, l], np.where(m == l, 0.0, rotation[m, l])
    b = np.argmax(_fold(np.maximum, np.abs(e - e[m]).reshape(n, k, 4)), axis=1)
    rotors = np.asarray(rep.rotors)
    x[conj] = rotors @ e @ np.linalg.inv(rotors)
    y[conj] = e
    y[conj][l, b] = c[:, None, None] * e[l, b] + d[:, None, None] * e[m, b]
    x[partner] = e[m]
    y[partner] = e
    y[partner][l, b] = e[m, b]

    bound = _pair_defects(x, y, target)
    sines = np.abs(np.sin(math.pi / n * np.arange(1, k + 1)))
    alpha_power, lift_plus, lift_minus = bound[powers].tolist()
    return {
        "clifford_relations": float((np.where(ci == cj, 2.0, 1.0) * bound[cliff]).max()),
        "rotor_commutation": float((sines[ri] * sines[rj] * bound[rot]).max(initial=0.0)),
        "alpha_power_sign": alpha_power,
        "lift_power_plus": lift_plus,
        "lift_power_minus": lift_minus,
        "conjugation_rotation": float((bound[conj] + np.abs(d) * bound[partner]).max()),
    }


def eigenbasis_check(rep: SpinorRep) -> tuple[tuple[str, float, str | None], ...]:
    """Measure the eigenbasis relations on every sign vector.

    Checked relations:
      * alpha_en_commutation: alpha commutes with e_n.
      * alpha_eigenphase: alpha v_eps = e^(i*beta*mu) v_eps.
      * en_eigen_sign: e_n v_eps = -i*nu(eps) v_eps.  This form holds for
        odd k only; each T factor contributes -sign, so the universal
        relation carries an extra (-1)^k.
      * en_eigen_sign_universal: e_n v_eps = i*(-1)^k*nu(eps) v_eps.

    Each relation is reported as (name, worst defect, witness), where the
    witness is the first sign vector with the largest defect, or None when
    the relation is not per-vector or holds exactly.  One ``_telescoped``
    call over alpha and e_n bounds, per sign vector, M v_eps against
    (prod_j t_j) v_eps from the slot factors applied to w_s and the slot
    targets t_j.  For alpha the targets are e^(i*beta*j*s), and
    prod_j e^(i*beta*j*eps_j) is e^(i*beta*mu) by the definition of mu, so
    the per-slot targets are the claim and the bound is the whole defect.
    For e_n the targets are its eigenvalues on w_s read off its factors;
    every entry of v_eps has modulus 1, so both e_n relations add, to e_n's
    bound, the gap between the targets' product and the stated sign.
    """
    k = rep.k
    n = rep.n
    beta = math.pi / n
    en = rep.generators[n - 1]
    alpha = np.asarray(rep.rotors)
    commute = (alpha @ en).reshape(k, 1, 4), (en @ alpha).reshape(k, 1, 4)
    commute_defect = float(_telescoped(*commute)[0])

    slot_phases = np.exp(1j * beta * np.outer(np.arange(1, k + 1), [-1, 1]))
    vectors = _on_w(np.array([alpha, en]))
    en_slots = _slot_eigenvalues(vectors[1])  # -s on w_s, times i in slot 1
    alpha_bound, en_bound = _telescoped(vectors, np.array([slot_phases, en_slots])[..., None] * _W)
    en_claimed = _outer_chain(en_slots[::-1])
    nus = _parities(_sign_bits(k))
    en_sign = 1j * (-1.0 if k % 2 else 1.0)  # i * (-1)^k

    def worst(name: str, per_vector: np.ndarray) -> tuple[str, float, str | None]:
        bits = int(np.argmax(per_vector))
        defect = float(per_vector[bits])
        return name, defect, (str(SignVector(bits, k)) if defect > 0 else None)

    return (
        ("alpha_en_commutation", commute_defect, None),
        worst("alpha_eigenphase", alpha_bound),
        worst("en_eigen_sign", en_bound + np.abs(en_claimed - (-1j * nus))),
        worst("en_eigen_sign_universal", en_bound + np.abs(en_claimed - en_sign * nus)),
    )


def lift_eigenphases(rep: SpinorRep) -> dict[SpinStructure, np.ndarray]:
    """The eigenphase index of each lift on each basis vector, both lifts in one read.

    For each structure, entry b is the p in [0, 2n) with
    lift v_eps = e^(i*pi*p/n) v_eps to within ``PHASE_TOL`` in every entry,
    for eps = SignVector(b, k), or -1 when no phase fits.  The phase splits
    over the lift's slot factors f_j: p_j(s) is read off f_j w_s at the
    centre of its two entry ratios to w_s, and p = sum_j p_j(eps_j) mod 2n,
    one integer matmul over the sign bits.  The slot targets
    e^(i*pi*p_j(s)/n) multiply to e^(i*pi*p/n), so a vector fits when the
    ``_telescoped`` bound of f_j w_s against those targets, never below the
    true defect, is under ``PHASE_TOL``.  The two lifts are one batch of
    slot factors, so one call bounds both.  For n <= 25 distinct phases lie
    2*sin(pi/2n) >= 0.125 apart, far above ``PHASE_TOL``, so no other phase
    can fit a vector that p misses.  Nothing from the combinatorial route
    enters.
    """
    n = rep.n
    lifted = _on_w(np.array([rep.lift_factors(structure) for structure in SpinStructure]))
    slot_p = np.rint(np.angle(_slot_eigenvalues(lifted)) * n / math.pi).astype(np.int64)
    p = (slot_p[..., 1] - slot_p[..., 0]) @ _sign_bits(rep.k).T
    p = (p + slot_p[..., 0].sum(axis=-1, keepdims=True)) % (2 * n)
    bound = _telescoped(lifted, np.exp(1j * math.pi * slot_p / n)[..., None] * _W)
    return dict(zip(SpinStructure, np.where(bound < PHASE_TOL, p, -1)))


def folded_spectrum(
    phases: np.ndarray, m: CyclicFlatManifold, structure: SpinStructure
) -> tuple[int, ...]:
    """Multiplicity of each Dirac eigenvalue r + half/2 (units of 2*pi), r = 0..n-1.

    ``phases`` is the ``lift_eigenphases`` entry for ``structure``.  The
    section v_eps with Fourier index l survives the quotient exactly when
    the lift's eigenphase index p on v_eps is 2l + half mod 2n; its
    eigenvalue is then nu(eps) * (l + half/2).  So the eigenvalue
    r + half/2 comes from the vectors with nu = +1 and p = 2r + half, at
    l = r, and those with nu = -1 and p = -(2r + half), at l = -r - half,
    both mod 2n.  Each count depends on r mod n alone: the eigenvalues
    r + half/2 and r + jn + half/2 have the same multiplicity at every
    integer j, so these n entries are the whole spectrum; for the plus
    structure, jn and -jn both read entry 0 and pair off.  A vector with
    p = -1 (no phase fits) or with p - half odd contributes to none.
    One ``np.bincount`` over (nu, p) counts them in O(2^k + n), after the
    O(k 2^k) parities.
    """
    if len(phases) != 1 << m.k:
        raise ValueError(f"{len(phases)} eigenphases do not match manifold k = {m.k}")
    n = m.n
    fitted = phases >= 0
    negative = _parities(_sign_bits(m.k))[fitted] < 0
    counts = np.bincount(2 * n * negative + phases[fitted], minlength=4 * n).reshape(2, 2 * n)
    twice = 2 * np.arange(n) + structure.half
    return tuple((counts[0, twice % (2 * n)] + counts[1, -twice % (2 * n)]).tolist())


def kernel_dim_oracle(phases: np.ndarray) -> int:
    """Dimension of the Dirac kernel, counted over all 2^k sign vectors.

    ``phases`` is the ``lift_eigenphases`` entry of one lift.  A constant
    section v_eps is invariant exactly when the lift fixes it, phase index
    0; only the zero Fourier mode can contribute, and for the minus
    structure the modes are half-integral, so the count is 0 there.
    """
    return int(np.count_nonzero(phases == 0))


def spectrum_table_mismatches(folded: Sequence[int], table: MultiplicityTable) -> list[str]:
    """Compare the ``folded_spectrum`` with the table, residue by residue.

    A Fraction is built only for a mismatch message.
    """
    half = table.structure.half
    return [
        f"eigenvalue {Fraction(2 * r + half, 2)}: oracle multiplicity {got} != table {want}"
        for r, (got, want) in enumerate(zip(folded, table.counts, strict=True))
        if got != want
    ]
