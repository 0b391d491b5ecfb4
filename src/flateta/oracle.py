"""The spinor representation as exact Pauli strings, and the oracle's spectral checks.

Everything the combinatorial modules compute in closed form is re-derived
here from the 2^k-dimensional spinor module: the Clifford generators, the
commuting plane rotors, the holonomy lifts, and the eigenphase each lift
puts on each basis spinor.  The spectrum of the Dirac operator on the
invariant Fourier modes along the rotation axis, folded to one period of
n eigenvalue classes, and its kernel are both counted from those
eigenphases.  Every step is exact integer arithmetic: no float, no
tolerance, no matrix.

Generators.  Each factor of a generator is a phase times a Pauli matrix:
g1 = iZ, g2 = iX and T = Y = iXZ.  So each generator is a Pauli string
i^phase (X^x_1 Z^z_1) x ... x (X^x_k Z^z_k), held as ``PauliString``
(phase mod 4, x bits, z bits) with slot s at bit s-1.  In one slot
Z^z X^x = (-1)^(xz) X^x Z^z, so a product of two strings is their phases
summed with 2 * popcount(z_a & x_b), and their bits XORed; two strings
anticommute exactly when popcount(x_a & z_b) + popcount(z_a & x_b) is
odd, the symplectic form of Aaronson and Gottesman, "Improved simulation
of stabilizer circuits" (2004, arXiv quant-ph/0406196).

Tensor-slot convention.  The generator pair (e_{2j-1}, e_{2j}) places g1
or g2 in slot j with T factors filling slots 1..j-1 and identities after;
e_n is i times T in every slot.  Slot 1 is the first Kronecker factor.
This is the slot order for which the Clifford relations and the rotor
eigenrelations hold together: E_j = e_{2j-1} e_{2j} is then -iY on slot j
alone, so the j-th rotor turns the j-th tensor factor.  Summing the
slot factors gives each string in closed form, for j = 1..k and phases
mod 4:

    e_{2j-1} = (phase j, x = 2^(j-1) - 1, z = 2^j - 1),
    e_{2j}   = (phase j, x = 2^j - 1,     z = 2^(j-1) - 1),
    e_n      = (phase k + 1, x = z = 2^k - 1).

Rotors.  r_j = cos(a_j beta) I + sin(a_j beta) E_j, with beta = pi/n and
the rotation number a_j = j, is never built: ``SpinorRep`` holds a_j, and
every relation on r_j is an identity on E_j and a_j.  alpha is
r_1 ... r_k, and the lifts are +-alpha.

Eigenbasis.  v_eps has w_{eps_s} = (1, -i eps_s) in slot s, so
XZ w_s = i s w_s, Z w_s = w_{-s} and X w_s = -i s w_{-s}: a string maps
v_eps to a multiple of v_eps exactly when x = z, and then its eigenvalue
is i^(phase + popcount(x)) times -1 for each slot of x where eps is -1.
A relation claimed on every v_eps compares two such exponents, each a
constant plus one term per slot, so it holds for all 2^k vectors or
fails first on (-1,...,-1) or on one vector with a single +1
(``_first_failure``).

Cost.  ``build_rep`` writes the n strings in O(n).
``representation_defects`` builds the planes, the anticommutation masks
and the plane reads once each, and every relation reads those.  Each
plane is read in O(1): its off-slot test, and its eigenvalue on w_s from
its phase and bit j; e_n is read the same way from its phase and x bits,
in O(k).  Once every E_j acts on slot j alone, two planes share no slot,
so the rotors commute with no pair tested.  Commutation is read from one
anticommutation mask per generator, n passes of n AND-and-popcounts on
2k-bit integers; a plane's mask is the XOR of its two factors' masks, and
each relation compares a mask with the one it expects.

Spectrum.  When E_j = i sigma on w_s, r_j puts the phase index
a_j * sigma (units of beta) on w_s, and the lift puts the sum over slots
on v_eps, plus n for a lift of sign -1, mod 2n.  One dynamic program
over the slots counts the vectors at each (nu, p mod 2n), each slot
adding +-a_j and flipping nu on -1; ``folded_spectrum`` and
``kernel_dim_oracle`` read its 4n counts, in O(k n) for both lifts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .combinatorics import MultiplicityTable, SignVector
from .core import ORACLE_MAX_K, CyclicFlatManifold, SpinStructure


class PauliString(NamedTuple):
    """i^phase (X^x_1 Z^z_1) x ... x (X^x_k Z^z_k): bit s-1 of ``x`` and ``z`` is slot s."""

    phase: int
    x: int
    z: int


_MINUS_EYE = PauliString(2, 0, 0)


def _product(a: PauliString, b: PauliString) -> PauliString:
    """a b: in each slot Z^z X^x = (-1)^(xz) X^x Z^z moves b's X past a's Z."""
    return PauliString((a.phase + b.phase + 2 * (a.z & b.x).bit_count()) % 4, a.x ^ b.x, a.z ^ b.z)


def _anticommutation_masks(strings: Sequence[PauliString]) -> list[int]:
    """Per string a, the mask whose bit l is set when a anticommutes with strings[l].

    Each strings[l] is packed with its z bits above its x bits, and a the
    other way round, so the popcount of the two packs ANDed is the
    symplectic form popcount(x_a & z_l) + popcount(z_a & x_l), odd
    exactly when a strings[l] = -strings[l] a.  Its parities, strings[-1]
    first, are written as the ASCII digits 0 and 1 (48 is "0") and read
    as one binary numeral: n pair tests in one pass per string.
    """
    width = max((s.x | s.z).bit_length() for s in strings)
    packed = [s.z << width | s.x for s in reversed(strings)]
    masks = []
    for a in strings:
        swapped = a.x << width | a.z
        masks.append(int(bytes(48 | (swapped & p).bit_count() & 1 for p in packed), 2))
    return masks


class SpinorRep(NamedTuple):
    """The spinor module: generators e_1..e_n as Pauli strings and the rotation numbers.

    ``rotations[j-1]`` is the rotation number a_j of the rotor
    r_j = cos(a_j beta) I + sin(a_j beta) E_j.  The rotors, alpha and the
    lifts are not stored; every relation on them is read off the strings
    and the rotation numbers.
    """

    k: int
    generators: tuple[PauliString, ...]
    rotations: tuple[int, ...]

    @property
    def n(self) -> int:
        return 2 * self.k + 1

    @property
    def dim(self) -> int:
        return 1 << self.k

    @property
    def alpha_power_sign(self) -> int:
        """The sign (-1)^(k(k+1)/2) with alpha^n = sign * I."""
        return -1 if (self.k * (self.k + 1) // 2) % 2 else 1

    def planes(self) -> list[PauliString]:
        """E_j = e_{2j-1} e_{2j} for j = 1..k."""
        e = self.generators
        return [_product(e[2 * j], e[2 * j + 1]) for j in range(self.k)]

    def lift_offset(self, structure: SpinStructure) -> int:
        """Phase index of the sign of the lift +-alpha: its n-th power is I (plus) or -I (minus)."""
        negative = (self.alpha_power_sign < 0) == (structure is SpinStructure.PLUS)
        return self.n if negative else 0


def build_rep(k: int) -> SpinorRep:
    """Construct the 2^k-dimensional representation for dimension n = 2k+1.

    Each string is written in closed form, in O(1) integer operations
    (see the module docstring), not tensored slot by slot.
    """
    if not 1 <= k <= ORACLE_MAX_K:
        raise ValueError(f"k must be in 1..{ORACLE_MAX_K}, got {k}")
    generators = []
    for j in range(1, k + 1):
        low, high = (1 << (j - 1)) - 1, (1 << j) - 1
        generators += [PauliString(j % 4, low, high), PauliString(j % 4, high, low)]
    generators.append(PauliString((k + 1) % 4, (1 << k) - 1, (1 << k) - 1))
    return SpinorRep(k=k, generators=tuple(generators), rotations=tuple(range(1, k + 1)))


def _plane_steps(
    planes: Sequence[PauliString], rotations: Sequence[int]
) -> list[tuple[int, int] | None]:
    """Per plane j, the phase indices r_j puts on w_{-1} and w_{+1} in slot j, or None.

    ``planes`` are ``SpinorRep.planes()`` and ``rotations`` the a_j; the
    indices are a_j sigma for E_j w_s = i sigma w_s.  A plane gets None when
    E_j moves w_s or has an eigenvalue +-1 there, so that r_j fits no
    phase, and also when E_j acts off slot j, where the read is not per
    slot: no v_eps is counted then, and every relation that needs the
    read fails.  On slot j alone x = z is 0 or bit j, so each plane is
    read in O(1) from its phase and that bit: E_j is i^c on w_{+1} and
    i^(c + 2 bit) on w_{-1}, with c = phase + bit.
    """
    steps = []
    for j, (plane, a) in enumerate(zip(planes, rotations)):
        bit = plane.x >> j & 1
        c = plane.phase + bit
        if plane.x != plane.z or plane.x & ~(1 << j) or c % 2 == 0:
            steps.append(None)
            continue
        sigma = [1 if e % 4 == 1 else -1 for e in (c + 2 * bit, c)]
        steps.append((a * sigma[0], a * sigma[1]))
    return steps


def _first_failure(
    k: int, c: int, steps: Sequence[tuple[int, int] | None], modulus: int
) -> str | None:
    """The first v_eps, in ``SignVector`` bit order, with c + sum_s steps[s][bit s] not 0.

    Sums are mod ``modulus``.  steps[s] holds the terms slot s+1 adds with
    entry -1 and +1; a slot with None fails every vector.  (-1,...,-1) comes first; when it holds,
    any other vector differs from it by the changes at its +1 slots, so
    the first failure, if any, has a single +1, at the lowest slot whose
    two terms differ.
    """
    if None in steps or (c + sum(low for low, _ in steps)) % modulus:
        return str(SignVector(0, k))
    for s, (low, high) in enumerate(steps):
        if (high - low) % modulus:
            return str(SignVector(1 << s, k))
    return None


def representation_defects(rep: SpinorRep) -> dict[str, str | None]:
    """The representation's relations as exact identities, keyed by check name.

    Each value is None when every identity holds, else the first failing
    one: a pair, a plane or a sign vector.  Every relation reads the one
    set of planes, masks and plane reads (see Cost in the module
    docstring); E_j's mask is the XOR of its two factors' masks, as the
    symplectic form is bilinear.

      * clifford_relations: e_i e_i = -I and e_i e_j = -e_j e_i for i < j:
        e_i's mask holds every generator but e_i.
      * rotor_commutation: each E_j acts on slot j alone.  Then E_i and E_j
        (i != j) share no slot, so E_i E_j = E_j E_i and r_i r_j = r_j r_i
        with no pair tested.
      * alpha_power_sign, lift_power_plus, lift_power_minus: alpha^n acts
        on v_eps as (-1)^p, p its phase index; on every v_eps that must be
        (-1)^(k(k+1)/2), and for the plus and minus lifts, with their
        signs, 1 and -1.
      * conjugation_rotation: E_j e_{2j-1} = e_{2j}, E_j e_{2j} = -e_{2j-1},
        E_j anticommutes with both and commutes with every other e_l,
        e_n included (its mask is 3 << 2(j-1)), and a_j = j mod n.
        Then E_j^2 = -I, and
        r_j e_{2j-1} r_j^-1 = (cos 2 a_j beta + sin 2 a_j beta E_j) e_{2j-1}
        by the double angle, so alpha e_l alpha^-1 is column l of the
        rotation by 2 pi j / n in plane j.  Each plane's orientation is a
        convention, fixed here as it is in the holonomy's frame.
      * alpha_en_commutation: every E_j commutes with e_n, bit n-1 of its
        mask, so alpha does.  The witness is the first E_j that does not.
      * alpha_eigenphase: alpha v_eps = e^(i*beta*mu) v_eps.  alpha's
        phase index on v_eps is the sum over slots of a_j sigma_j, and mu
        the sum of j eps_j.
      * en_eigen_sign: e_n v_eps = -i*nu(eps) v_eps.  This form holds for
        odd k only; each T factor contributes -sign, so the universal
        relation carries an extra (-1)^k.
      * en_eigen_sign_universal: e_n v_eps = i*(-1)^k*nu(eps) v_eps.

    e_n's eigenvalue on v_eps is i^(phase + popcount(x)) times -1 per
    slot of x where eps is -1, and the claimed ones are i^(3 + 2m) and
    i^(1 + 2k + 2m), m the number of -1 entries.
    """
    e, n, k = rep.generators, rep.n, rep.k
    planes = rep.planes()
    masks = _anticommutation_masks(e)
    plane_masks = [masks[2 * j] ^ masks[2 * j + 1] for j in range(k)]
    steps = _plane_steps(planes, rep.rotations)

    def clifford() -> str | None:
        # bit l of wrong marks a failing pair (i, l), l > i, and bit i a failing square
        for i, (generator, mask) in enumerate(zip(e, masks)):
            wrong = (mask ^ ((1 << n) - 1 ^ (1 << i))) >> i << i
            if _product(generator, generator) != _MINUS_EYE:
                wrong |= 1 << i
            if wrong:
                return f"e_{i + 1} e_{(wrong & -wrong).bit_length()}"
        return None

    def rotors() -> str | None:
        # planes on distinct single slots share no slot, so they commute
        for j, plane in enumerate(planes):
            if (plane.x | plane.z) & ~(1 << j):
                return f"E_{j + 1} off slot {j + 1}"
        return None

    def conjugation() -> str | None:
        for j, (plane, mask) in enumerate(zip(planes, plane_masks)):
            wrong = mask ^ (3 << 2 * j)
            images = {2 * j: e[2 * j + 1], 2 * j + 1: _product(_MINUS_EYE, e[2 * j])}
            for l, image in images.items():
                if _product(plane, e[l]) != image:
                    wrong |= 1 << l
            if wrong:
                return f"E_{j + 1} e_{(wrong & -wrong).bit_length()}"
            if rep.rotations[j] % n != j + 1:
                return f"rotation number {rep.rotations[j]} of plane {j + 1}"
        return None

    parities = [None if s is None else (s[0] % 2, s[1] % 2) for s in steps]

    def power(offset: int, sign: int) -> str | None:
        return _first_failure(k, offset + (sign < 0), parities, 2)

    en = e[-1]

    def en_sign(claimed: int) -> str | None:
        if en.x != en.z:
            return str(SignVector(0, k))
        c = en.phase + en.x.bit_count() - claimed
        return _first_failure(k, c, [(2 * (en.x >> s & 1) - 2, 0) for s in range(k)], 4)

    phase_steps = [None if s is None else (s[0] + j, s[1] - j) for j, s in enumerate(steps, 1)]
    return {
        "clifford_relations": clifford(),
        "rotor_commutation": rotors(),
        "alpha_power_sign": power(0, rep.alpha_power_sign),
        "lift_power_plus": power(rep.lift_offset(SpinStructure.PLUS), 1),
        "lift_power_minus": power(rep.lift_offset(SpinStructure.MINUS), -1),
        "conjugation_rotation": conjugation(),
        "alpha_en_commutation": next(
            (f"E_{j + 1} e_{n}" for j, mask in enumerate(plane_masks) if mask >> n - 1 & 1), None
        ),
        "alpha_eigenphase": _first_failure(k, 0, phase_steps, 2 * n),
        "en_eigen_sign": en_sign(3),
        "en_eigen_sign_universal": en_sign(1 + 2 * k),
    }


def _rotated(row: list[int], q: int) -> list[int]:
    """Entry p of the result is row[p - q], indices mod len(row)."""
    s = -q % len(row)
    return row[s:] + row[:s]


def lift_eigenphases(rep: SpinorRep) -> dict[SpinStructure, tuple[list[int], list[int]]]:
    """Per lift, the number of v_eps at each phase index p mod 2n, as (nu = +1 row, nu = -1 row).

    The lift puts e^(i*pi*p/n) on v_eps.  One dynamic program over the
    slots counts alpha's phase indices: slot j adds the step a_j sigma
    that r_j puts on w_{+1} or w_{-1}, and an entry -1 flips nu.  Each
    lift's counts are alpha's, turned by its sign's phase index.  A plane
    that fits no phase leaves every count 0.  Nothing from the
    combinatorial route enters.
    """
    two_n = 2 * rep.n
    plus, minus = [1] + [0] * (two_n - 1), [0] * two_n
    for step in _plane_steps(rep.planes(), rep.rotations):
        if step is None:
            plus, minus = [0] * two_n, [0] * two_n
            break
        low, high = step
        plus, minus = (
            [a + b for a, b in zip(_rotated(plus, high), _rotated(minus, low))],
            [a + b for a, b in zip(_rotated(minus, high), _rotated(plus, low))],
        )
    return {
        structure: tuple(_rotated(row, rep.lift_offset(structure)) for row in (plus, minus))
        for structure in SpinStructure
    }


def folded_spectrum(
    phases: tuple[list[int], list[int]], m: CyclicFlatManifold, structure: SpinStructure
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
    p - half odd contributes to none.
    """
    plus, minus = phases
    if len(plus) != 2 * m.n:
        raise ValueError(f"{len(plus)} phase classes do not match manifold n = {m.n}")
    two_n = 2 * m.n
    twice = [2 * r + structure.half for r in range(m.n)]
    return tuple(plus[t % two_n] + minus[-t % two_n] for t in twice)


def kernel_dim_oracle(phases: tuple[list[int], list[int]]) -> int:
    """Dimension of the Dirac kernel, counted over all 2^k sign vectors.

    ``phases`` is the ``lift_eigenphases`` entry of one lift.  A constant
    section v_eps is invariant exactly when the lift fixes it, phase index
    0, whatever its parity; only the zero Fourier mode can contribute, and
    for the minus structure the modes are half-integral, so the count is 0
    there.
    """
    plus, minus = phases
    return plus[0] + minus[0]


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
