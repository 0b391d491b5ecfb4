"""The Pauli-string representation, its dense cross-check, and oracle-vs-formula agreement."""

import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import _dense_oracle as dense
from flateta import oracle, verification
from flateta.combinatorics import SignVector, mu, multiplicity_tables, nu, sign_vector
from flateta.core import ORACLE_MAX_K, SpinStructure, make_manifold
from flateta.invariants import exact_invariants, harmonic_dim
from flateta.oracle import (
    PauliString,
    build_rep,
    folded_spectrum,
    kernel_dim_oracle,
    lift_eigenphases,
    representation_defects,
    spectrum_table_mismatches,
)

PLUS = SpinStructure.PLUS
MINUS = SpinStructure.MINUS


@pytest.fixture(scope="module")
def reps():
    return {k: build_rep(k) for k in range(1, 9)}


def _random_string(rng, k):
    return PauliString(rng.randrange(4), rng.randrange(1 << k), rng.randrange(1 << k))


def _anticommute(a, b):
    """a b = -b a, by the symplectic form; otherwise a b = b a: the pairwise reference."""
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 1


def _eigen_exponents(a, k):
    """(c, d) with a v_eps = i^(c + sum of d_s over the -1 entries) v_eps; None if a moves v_eps.

    The k-entry reference for the O(1) plane read (``_listed_plane_steps``).
    """
    if a.x != a.z:
        return None
    return a.phase + a.x.bit_count(), [2 * ((a.x >> s) & 1) for s in range(k)]


def _dense_relations(ref):
    """Per relation, (dense defect, first sign vector whose defect exceeds 1e-9 or None)."""
    operator = {name: (defect, None) for name, defect in dense.operator_defects(ref).items()}
    return {**operator, **dense.eigenbasis_check(ref)}


def _slot_matrix(x, z):
    """X^x Z^z as a 2x2 tuple of rows, entries 0 and +-1."""
    zz = -1 if z else 1
    return ((0, zz), (1, 0)) if x else ((1, 0), (0, zz))


def _slot_pauli(m):
    """(q, x, z) with m = i^q X^x Z^z."""
    for x in (0, 1):
        for z in (0, 1):
            for q in range(4):
                scaled = tuple(tuple(1j**q * e for e in row) for row in _slot_matrix(x, z))
                if m == scaled:
                    return q, x, z
    raise AssertionError(f"{m} is not a phase times a Pauli matrix")


def _slotwise_product(a, b, k):
    """a b from 2x2 products slot by slot, exact in complex: entries stay 0, +-1 and +-i.

    A product of Kronecker products is the Kronecker product of the
    slot products, so this needs no 2^k matrix and runs to any k.
    """
    phase, x, z = a.phase + b.phase, 0, 0
    for s in range(k):
        ma = _slot_matrix((a.x >> s) & 1, (a.z >> s) & 1)
        mb = _slot_matrix((b.x >> s) & 1, (b.z >> s) & 1)
        m = tuple(tuple(ma[r][0] * mb[0][c] + ma[r][1] * mb[1][c] for c in (0, 1)) for r in (0, 1))
        q, xs, zs = _slot_pauli(m)
        phase, x, z = phase + q, x | xs << s, z | zs << s
    return PauliString(phase % 4, x, z)


def _product_state_image(a, bits):
    """(q, bits') with a v_eps = i^q v_eps', eps = SignVector(bits, k).

    In each slot Z w_s = w_{-s} and X w_s = -i s w_{-s}, so Z flips the
    sign and X then flips it again with a factor i (sign -1) or -i = i^3
    (sign +1): q counts 1 per X and 2 more per X that meets w_{+1}.
    """
    q = a.phase + a.x.bit_count() + 2 * (a.x & (bits ^ a.z)).bit_count()
    return q % 4, bits ^ a.x ^ a.z


def _enumerated_eigen_relations(rep):
    """The per-vector relations of ``representation_defects``, tested on each v_eps in turn.

    Each is None or the first failing sign vector.  alpha's phase index on
    v_eps must be mu(eps) mod 2n, and e_n must scale v_eps by the claimed
    i^(3 + 2m) and i^(1 + 2k + 2m), m the number of -1 entries.
    """
    k, n = rep.k, rep.n
    en, planes = rep.generators[-1], rep.planes()
    first = dict.fromkeys(["alpha_eigenphase", "en_eigen_sign", "en_eigen_sign_universal"])
    for bits in range(rep.dim):
        eps = SignVector(bits, k)
        twice_minus = 2 * (nu(eps) < 0)
        q, image = _product_state_image(en, bits)
        p = _alpha_phase_index(rep, planes, bits)
        failing = {
            "alpha_eigenphase": p is None or (p - mu(eps)) % (2 * n) != 0,
            "en_eigen_sign": image != bits or q != (3 + twice_minus) % 4,
            "en_eigen_sign_universal": image != bits or q != (1 + 2 * k + twice_minus) % 4,
        }
        for name, fails in failing.items():
            if fails and first[name] is None:
                first[name] = str(eps)
    return first


def _alpha_phase_index(rep, planes, bits):
    """Sum of a_j sigma_j with E_j v_eps = i sigma_j v_eps, or None if some E_j fits no phase."""
    p = 0
    for plane, a in zip(planes, rep.rotations):
        q, image = _product_state_image(plane, bits)
        if image != bits or q % 2 == 0:
            return None
        p += a if q == 1 else -a
    return p


def _enumerated_phase_counts(rep, structure):
    """``lift_eigenphases``'s (nu = +1 row, nu = -1 row) for one lift, counted vector by vector."""
    two_n = 2 * rep.n
    # the plus lift has n-th power I: it is alpha times alpha^n's sign
    lift_sign = rep.alpha_power_sign * (1 if structure is PLUS else -1)
    offset = 0 if lift_sign > 0 else rep.n
    rows = ([0] * two_n, [0] * two_n)
    planes = rep.planes()
    for bits in range(rep.dim):
        p = _alpha_phase_index(rep, planes, bits)
        if p is not None:
            rows[nu(SignVector(bits, rep.k)) < 0][(p + offset) % two_n] += 1
    return rows


class TestPauliStrings:
    """Products, commutation and eigenvalues of strings against their dense matrices."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_product_and_commutation_match_dense(self, k):
        rng = random.Random(k)
        for _ in range(60):
            a, b = _random_string(rng, k), _random_string(rng, k)
            da, db = dense.pauli_matrix(a, k), dense.pauli_matrix(b, k)
            assert np.array_equal(dense.pauli_matrix(oracle._product(a, b), k), da @ db)
            sign = -1 if _anticommute(a, b) else 1
            assert np.array_equal(da @ db, sign * (db @ da))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_eigen_exponents_match_dense(self, k):
        # a string with x = z is diagonal on every v_eps, with the read
        # eigenvalue; any other string moves every v_eps off its line
        rng = random.Random(10 + k)
        basis = dense.basis_matrix(k)
        for _ in range(40):
            a = _random_string(rng, k)
            if rng.random() < 0.5:
                a = a._replace(z=a.x)
            image = dense.pauli_matrix(a, k) @ basis
            read = _eigen_exponents(a, k)
            for bits in range(1 << k):
                v = basis[:, bits]
                if read is None:
                    assert abs(np.vdot(v, image[:, bits])) < 1e-12
                    continue
                c, d = read
                exponent = c + sum(d[s] for s in range(k) if not (bits >> s) & 1)
                assert np.allclose(image[:, bits], 1j**exponent * v, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    def test_product_matches_slotwise_reference(self, k):
        rng = random.Random(20 + k)
        for _ in range(60):
            a, b = _random_string(rng, k), _random_string(rng, k)
            assert oracle._product(a, b) == _slotwise_product(a, b, k)

    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    def test_anticommute_matches_slotwise_reference(self, k):
        # b a is a b or -a b, with the same bits
        rng = random.Random(40 + k)
        for _ in range(60):
            a, b = _random_string(rng, k), _random_string(rng, k)
            ab, ba = _slotwise_product(a, b, k), _slotwise_product(b, a, k)
            assert (ab.x, ab.z) == (ba.x, ba.z)
            assert (ab.phase - ba.phase) % 4 == (2 if _anticommute(a, b) else 0)

    def test_slotwise_reference_matches_dense(self):
        rng = random.Random(60)
        for k in (1, 2, 3):
            for _ in range(30):
                a, b = _random_string(rng, k), _random_string(rng, k)
                want = dense.pauli_matrix(a, k) @ dense.pauli_matrix(b, k)
                assert np.array_equal(dense.pauli_matrix(_slotwise_product(a, b, k), k), want)

    def test_product_state_image_matches_dense(self):
        rng = random.Random(61)
        for k in (1, 2, 3, 4):
            basis = dense.basis_matrix(k)
            for _ in range(30):
                a = _random_string(rng, k)
                image = dense.pauli_matrix(a, k) @ basis
                for bits in range(1 << k):
                    q, moved = _product_state_image(a, bits)
                    assert np.allclose(image[:, bits], 1j**q * basis[:, moved], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("modulus", [2, 4, 7])
    def test_first_failure_matches_enumeration(self, k, modulus):
        rng = random.Random(100 * k + modulus)
        for _ in range(50):
            c = rng.randrange(modulus)
            steps = [(rng.randrange(modulus), rng.randrange(modulus)) for _ in range(k)]
            if rng.random() < 0.5:  # a relation that holds: no failure at all
                steps = [(low, low) for low, _ in steps]
                c = -sum(low for low, _ in steps)
            failing = (
                bits
                for bits in range(1 << k)
                if (c + sum(steps[s][(bits >> s) & 1] for s in range(k))) % modulus
            )
            first = next(failing, None)
            want = None if first is None else str(SignVector(first, k))
            assert oracle._first_failure(k, c, steps, modulus) == want


class TestBuildRep:
    def test_rejects_out_of_range(self):
        for bad in (0, -1, ORACLE_MAX_K + 1):
            with pytest.raises(ValueError):
                build_rep(bad)

    def test_shape(self, reps):
        for k in (1, 3, 5):
            rep = reps[k]
            assert rep.dim == 1 << k
            assert len(rep.generators) == rep.n
            assert rep.rotations == tuple(range(1, k + 1))
            assert all(p.x >> k == p.z >> k == 0 and 0 <= p.phase < 4 for p in rep.generators)
            assert dense.generator_matrices(rep)[0].shape == (rep.dim, rep.dim)

    def test_k3_strings(self, reps):
        # e_3 = T x g1 x I = Y x iZ x I = i^2 XZ x Z x I; e_7 = i T x T x T = i^4 XZ x XZ x XZ
        e = reps[3].generators
        assert e[2] == PauliString(2, 0b001, 0b011)
        assert e[3] == PauliString(2, 0b011, 0b001)
        assert e[6] == PauliString(0, 0b111, 0b111)
        # each E_j = -iY = XZ on slot j alone
        assert reps[3].planes() == [PauliString(0, 1 << j, 1 << j) for j in range(3)]

    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    def test_operator_relations_hold_exactly_up_to_the_cap(self, k):
        names = [
            "clifford_relations",
            "rotor_commutation",
            "alpha_power_sign",
            "lift_power_plus",
            "lift_power_minus",
            "conjugation_rotation",
        ]
        defects = representation_defects(build_rep(k))
        assert {name: defects[name] for name in names} == dict.fromkeys(names)

    def test_k1_alpha_cubes_to_minus_identity(self, reps):
        alpha = dense.from_rep(reps[1]).alpha
        assert np.max(np.abs(alpha @ alpha @ alpha + np.eye(2))) <= 1e-12

    def test_k3_plus_lift_seventh_power(self, reps):
        power = np.linalg.matrix_power(dense.lift_matrix(reps[3], PLUS), 7)
        assert np.max(np.abs(power - np.eye(8))) <= 1e-9

    def test_dimensions(self, reps):
        for k in (1, 3, 5):
            rep = reps[k]
            ref = dense.from_rep(rep)
            assert rep.dim == 1 << k
            assert len(ref.e) == rep.n
            assert len(ref.r) == k == len(rep.planes())
            assert ref.alpha.shape == (rep.dim, rep.dim)

    # Each relation holds exactly on the strings, and to float precision on
    # the dense matrices the strings expand to.

    @pytest.mark.parametrize("k", range(1, 6))
    def test_clifford_relations(self, reps, k):
        assert representation_defects(reps[k])["clifford_relations"] is None
        assert dense.clifford_defect(dense.from_rep(reps[k])) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 6))
    def test_rotors_commute(self, reps, k):
        assert representation_defects(reps[k])["rotor_commutation"] is None
        assert dense.rotor_commutation_defect(dense.from_rep(reps[k])) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 6))
    def test_alpha_power_sign(self, reps, k):
        # alpha^n = -I when k(k+1)/2 is odd, +I when even
        assert representation_defects(reps[k])["alpha_power_sign"] is None
        assert dense.alpha_power_defect(dense.from_rep(reps[k])) <= 1e-9

    @pytest.mark.parametrize("k", range(1, 6))
    def test_lift_powers(self, reps, k):
        defects = representation_defects(reps[k])
        assert defects["lift_power_plus"] is None
        assert defects["lift_power_minus"] is None
        plus, minus = dense.lift_power_defects(dense.from_rep(reps[k]))
        assert plus <= 1e-9
        assert minus <= 1e-9

    @pytest.mark.parametrize("k", range(1, 6))
    def test_conjugation_realizes_rotation(self, reps, k):
        assert representation_defects(reps[k])["conjugation_rotation"] is None
        assert dense.conjugation_defect(dense.from_rep(reps[k])) <= 1e-9

    def test_k1_has_no_rotor_pairs(self, reps):
        assert reps[1].planes() == [PauliString(0, 1, 1)]
        assert representation_defects(reps[1])["rotor_commutation"] is None

    def test_rotation_matrix_is_orthogonal_of_order_n(self):
        for n in (3, 7, 11):
            rot = dense.rotation_matrix(n)
            assert np.max(np.abs(rot @ rot.T - np.eye(n))) <= 1e-12
            assert np.max(np.abs(np.linalg.matrix_power(rot, n) - np.eye(n))) <= 1e-9


@pytest.fixture(scope="module")
def dense_reps():
    return {k: dense.build_dense(k) for k in range(1, 9)}


def _with_generator(rep, index, change):
    generators = list(rep.generators)
    generators[index] = change(generators[index])
    return rep._replace(generators=tuple(generators))


def _turned_phase(rep):
    # e_1 times i: e_1^2 = +I
    return _with_generator(rep, 0, lambda p: p._replace(phase=(p.phase + 1) % 4))


def _flipped_x_bit(rep):
    # an X put on slot 2 of e_1 (slot 1 at k = 1): E_1 leaves slot 1
    return _with_generator(rep, 0, lambda p: p._replace(x=p.x ^ (2 if rep.k > 1 else 1)))


def _flipped_z_bit_of_en(rep):
    # e_n with X alone in slot 1: it anticommutes with E_1 and moves every v_eps
    return _with_generator(rep, -1, lambda p: p._replace(z=p.z ^ 1))


def _negated_en(rep):
    # -e_n keeps every other relation, and flips the sign of e_n on each v_eps
    return _with_generator(rep, -1, lambda p: p._replace(phase=(p.phase + 2) % 4))


def _wrong_rotation(rep):
    # a_1 = 2: r_1 turns plane 1 twice as far, and the sum of the a_j changes parity
    return rep._replace(rotations=(2, *rep.rotations[1:]))


def _rotation_off_by_n(rep):
    # a_1 = 1 + n: the same conjugation, but r_1^n = -I
    return rep._replace(rotations=(1 + rep.n, *rep.rotations[1:]))


_BROKEN = {
    "turned_phase": _turned_phase,
    "flipped_x_bit": _flipped_x_bit,
    "flipped_z_bit_of_en": _flipped_z_bit_of_en,
    "negated_en": _negated_en,
    "wrong_rotation": _wrong_rotation,
    "rotation_off_by_n": _rotation_off_by_n,
}


class TestDenseCrossCheck:
    """The Pauli strings against the dense reference, k = 1..8."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_operators_equal_dense_entry_for_entry(self, reps, dense_reps, k):
        got, want = dense.from_rep(reps[k]), dense_reps[k]
        for a, b in zip(got.e, want.e, strict=True):
            assert np.array_equal(a, b)
        for a, b in zip(got.r, want.r, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(got.alpha, want.alpha)
        for structure in (PLUS, MINUS):
            assert np.array_equal(got.lift(structure), want.lift(structure))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_relations_hold_on_dense(self, dense_reps, k):
        # every relation the exact oracle passes holds on the dense matrices;
        # en_eigen_sign fails at even k on both
        defects = _dense_relations(dense_reps[k])
        for name, witness in representation_defects(build_rep(k)).items():
            assert (witness is None) == (defects[name][0] < 1e-9), name

    @pytest.mark.parametrize("k", range(1, 9))
    def test_basis_vectors_are_independent(self, dense_reps, k):
        # the v_eps are the columns, reordered, of the Kronecker product of
        # W over k slots, whose determinant is det(W)^(k 2^(k-1))
        sign, logdet = np.linalg.slogdet(dense_reps[k].basis)
        assert sign != 0 and math.isfinite(logdet)
        assert np.linalg.det(dense.W) != 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("broken", list(_BROKEN))
    def test_verdicts_and_witnesses_match_dense_when_broken(self, reps, k, broken):
        # each exact relation fails exactly where the dense defect exceeds
        # 1e-9, and a per-vector one names the dense search's first failing vector
        bad = _BROKEN[broken](reps[k])
        defects = _dense_relations(dense.from_rep(bad))
        for name, witness in representation_defects(bad).items():
            defect, first = defects[name]
            assert (witness is None) == (defect < 1e-9), name
            if first is not None:
                assert witness == first, name

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_phase_counts_match_dense_search(self, reps, k, structure):
        assert lift_eigenphases(reps[k])[structure] == dense.phase_histogram(reps[k], structure)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    @pytest.mark.parametrize("broken", list(_BROKEN))
    def test_phase_counts_match_dense_search_when_broken(self, reps, k, structure, broken):
        bad = _BROKEN[broken](reps[k])
        assert lift_eigenphases(bad)[structure] == dense.phase_histogram(bad, structure)


# for each representation check, a corrupted rep on which it must fail
_CORRUPTIONS = {
    "clifford_relations": _turned_phase,
    "rotor_commutation": _flipped_x_bit,
    "alpha_power_sign": _wrong_rotation,
    "lift_power_plus": _wrong_rotation,
    "lift_power_minus": _wrong_rotation,
    "conjugation_rotation": _wrong_rotation,
    "alpha_en_commutation": _flipped_z_bit_of_en,
    "alpha_eigenphase": _wrong_rotation,
    "en_eigen_sign": _negated_en,
    "en_eigen_sign_universal": _negated_en,
}


class TestEveryCheckReadsTheRep:
    """A representation check that read only constants would pass on every corrupted rep."""

    def test_every_check_has_a_corruption(self, reps):
        checks = verification._representation_checks(reps[3])
        assert [c.name for c in checks] == list(_CORRUPTIONS)
        assert all(c.status == verification.PASS and c.detail == "exact" for c in checks)

    @pytest.mark.parametrize("name", list(_CORRUPTIONS))
    def test_check_fails_on_its_corruption(self, reps, name):
        bad = _CORRUPTIONS[name](reps[3])
        statuses = {c.name: c.status for c in verification._representation_checks(bad)}
        assert statuses[name] == verification.FAIL

    @pytest.mark.parametrize("name", list(_CORRUPTIONS))
    def test_check_fails_on_its_corruption_near_the_cap(self, name):
        # beyond the dense reference's reach, each check still reads the rep;
        # at the largest odd k, since the stated e_n sign holds at odd k only
        rep = build_rep(ORACLE_MAX_K - 1 + ORACLE_MAX_K % 2)
        bad = _CORRUPTIONS[name](rep)
        for candidate, status in ((rep, verification.PASS), (bad, verification.FAIL)):
            checks = verification._representation_checks(candidate)
            assert {c.name: c.status for c in checks}[name] == status

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_wrong_rotation_fails_the_spectrum_at_odd_k(self, reps, k):
        exact = exact_invariants(make_manifold(k))
        checks = verification._agreement_checks(_wrong_rotation(reps[k]), exact)
        statuses = {c.name: c.status for c in checks}
        assert statuses["spectrum_vs_table_plus"] == verification.FAIL
        assert statuses["spectrum_vs_table_minus"] == verification.FAIL


def _plane_off_its_slot(rep, phase=1):
    # e_2 times i^phase XZ on slot 2: E_1 = i^phase XZ x XZ still commutes
    # with every E_j, but acts on slots 1 and 2
    return _with_generator(rep, 1, lambda p: oracle._product(p, PauliString(phase, 2, 2)))


class TestPlaneOffItsSlot:
    """Each E_j must act on slot j alone: the rotor read and the DP are per slot."""

    def test_rotor_commutation_needs_each_plane_on_its_own_slot(self, reps):
        bad = _plane_off_its_slot(reps[3])
        assert representation_defects(bad)["rotor_commutation"] == "E_1 off slot 1"
        # the rotors still commute as matrices: the check asks for more
        assert dense.rotor_commutation_defect(dense.from_rep(bad)) < 1e-9

    def test_no_vector_is_read(self, reps):
        bad = _plane_off_its_slot(reps[3])
        assert representation_defects(bad)["alpha_eigenphase"] == str(SignVector(0, 3))
        for rows in lift_eigenphases(bad).values():
            assert not any(rows[0]) and not any(rows[1])

    def test_only_the_off_slot_test_rejects_a_real_phase_plane(self, reps):
        # with i^0 XZ on slot 2, E_1 = XZ x XZ: on slot 1 alone it would be
        # XZ, with phase + bit 1 odd, so the O(1) read's parity test passes
        # and only the off-slot test leaves plane 1 unread
        bad = _plane_off_its_slot(reps[3], phase=0)
        plane = bad.planes()[0]
        assert plane == PauliString(0, 0b11, 0b11)
        assert (plane.phase + (plane.x & 1)) % 2 == 1
        assert oracle._plane_steps(bad.planes(), bad.rotations)[0] is None
        assert representation_defects(bad)["rotor_commutation"] == "E_1 off slot 1"
        assert dense.rotor_commutation_defect(dense.from_rep(bad)) < 1e-9
        assert representation_defects(bad)["alpha_eigenphase"] == str(SignVector(0, 3))
        for rows in lift_eigenphases(bad).values():
            assert not any(rows[0]) and not any(rows[1])


def _listed_plane_steps(rep):
    """The plane read that ``oracle._plane_steps`` replaces, kept as its reference.

    Each plane's eigenvalue exponents come from ``_eigen_exponents`` as a
    k-entry list, one term per slot: O(k) per plane, where the O(1) read
    uses the phase and bit j alone.
    """
    steps = []
    for j, (plane, a) in enumerate(zip(rep.planes(), rep.rotations)):
        read = _eigen_exponents(plane, rep.k)
        if read is None or plane.x & ~(1 << j) or read[0] % 2 == 0:
            steps.append(None)
            continue
        c, d = read
        sigma = [1 if e % 4 == 1 else -1 for e in (c + d[j], c)]
        steps.append((a * sigma[0], a * sigma[1]))
    return steps


_READ_VARIANTS = {
    "intact": lambda rep: rep,
    **_BROKEN,
    "plane_off_its_slot": _plane_off_its_slot,
    "real_plane_off_its_slot": lambda rep: _plane_off_its_slot(rep, phase=0),
}


class TestConstantTimeReads:
    """The O(1) plane read and the commutation masks against the reads they replace."""

    @pytest.mark.parametrize(
        "k, variant",
        [  # k = 1 has no second slot to put a plane on
            (k, variant)
            for k in range(1, ORACLE_MAX_K + 1)
            for variant in _READ_VARIANTS
            if k > 1 or "off_its_slot" not in variant
        ],
    )
    def test_plane_steps_equal_the_listed_read(self, k, variant):
        rep = _READ_VARIANTS[variant](build_rep(k))
        assert oracle._plane_steps(rep.planes(), rep.rotations) == _listed_plane_steps(rep)

    def test_plane_steps_equal_the_listed_read_at_k100(self, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_MAX_K", 100)
        rep = build_rep(100)
        steps = oracle._plane_steps(rep.planes(), rep.rotations)
        assert steps == _listed_plane_steps(rep)
        assert None not in steps

    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    def test_masks_match_pairwise_commutation(self, k):
        rng = random.Random(80 + k)
        strings = [_random_string(rng, k) for _ in range(2 * k + 1)]
        for a, mask in zip(strings, oracle._anticommutation_masks(strings), strict=True):
            assert mask == sum(1 << l for l, b in enumerate(strings) if _anticommute(a, b))

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("variant", list(_READ_VARIANTS))
    def test_plane_mask_is_the_xor_of_its_factors(self, k, variant):
        rep = _READ_VARIANTS[variant](build_rep(k))
        masks = oracle._anticommutation_masks(rep.generators)
        for j, plane in enumerate(rep.planes()):
            direct = sum(
                1 << l for l, g in enumerate(rep.generators) if _anticommute(plane, g)
            )
            assert masks[2 * j] ^ masks[2 * j + 1] == direct

    @pytest.mark.parametrize(
        "k, slot", [(k, slot) for k in range(1, ORACLE_MAX_K + 1) for slot in range(k)]
    )
    def test_en_commutation_names_the_plane_the_pairwise_test_names(self, k, slot):
        # e_n with X alone on one slot anticommutes with that slot's plane only
        bad = _with_generator(build_rep(k), -1, lambda p: p._replace(z=p.z ^ 1 << slot))
        en = bad.generators[-1]
        pairwise = next(
            (f"E_{j + 1} e_{bad.n}" for j, E in enumerate(bad.planes()) if _anticommute(E, en)),
            None,
        )
        assert pairwise == f"E_{slot + 1} e_{bad.n}"
        assert representation_defects(bad)["alpha_en_commutation"] == pairwise


# The slot-by-slot construction that the closed-form strings replace, kept
# as their reference.  Single-slot factors: g1 = iZ, g2 = iX, T = Y = iXZ and I.
_G1 = PauliString(1, 0, 1)
_G2 = PauliString(1, 1, 0)
_T = PauliString(1, 1, 1)
_EYE = PauliString(0, 0, 0)


def _tensor(factors):
    """The Kronecker product of single-slot factors, slot 1 first."""
    phase = x = z = 0
    for s, factor in enumerate(factors):
        phase += factor.phase
        x |= factor.x << s
        z |= factor.z << s
    return PauliString(phase % 4, x, z)


def _tensored_generators(k):
    """e_1..e_n slot by slot: g1 or g2 in slot j, T before it and I after; e_n = i T^k."""
    generators = []
    for j in range(k):
        tail = [_EYE] * (k - j - 1)
        generators += [_tensor([_T] * j + [g] + tail) for g in (_G1, _G2)]
    generators.append(oracle._product(PauliString(1, 0, 0), _tensor([_T] * k)))
    return tuple(generators)


class TestClosedForms:
    """``build_rep``'s closed-form strings against the slot-by-slot construction."""

    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    def test_build_rep_equals_slotwise_tensoring(self, k):
        assert build_rep(k).generators == _tensored_generators(k)


class TestUpToTheCap:
    @pytest.mark.parametrize("k", range(9, ORACLE_MAX_K + 1))
    def test_conjugation_and_powers(self, k):
        rep = build_rep(k)
        defects = representation_defects(rep)
        for name in ("alpha_power_sign", "lift_power_plus", "lift_power_minus"):
            assert defects[name] is None, name
        assert defects["conjugation_rotation"] is None
        # lift^n is (-1)^p on a vector at phase index p: I puts every vector
        # of the plus lift at an even index, -I every one of the minus lift at an odd one
        phases = lift_eigenphases(rep)
        for structure, parity in ((PLUS, 0), (MINUS, 1)):
            rows = phases[structure]
            assert sum(map(sum, rows)) == rep.dim
            assert not any(count for row in rows for count in row[1 - parity :: 2])

    @pytest.mark.parametrize("k", range(9, ORACLE_MAX_K + 1))
    def test_eigenbasis_relations(self, k):
        # only the stated e_n sign fails, at even k, on (-1,...,-1)
        want = {
            "alpha_en_commutation": None,
            "alpha_eigenphase": None,
            "en_eigen_sign": None if k % 2 else str(SignVector(0, k)),
            "en_eigen_sign_universal": None,
        }
        defects = representation_defects(build_rep(k))
        assert {name: defects[name] for name in want} == want

    def test_verify_at_the_cap_is_small_and_fast(self):
        # the checks hold O(n^2) pairs of ints and 4n counts, and build no
        # 2^k-length array; a dense 2^12 x 2^12 complex matrix would be 256 MiB
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = verification.run_verification(2 * ORACLE_MAX_K + 1)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.results) == 16
        assert peak < 64 * 2**10
        assert elapsed < 2.0


class TestEigenbasis:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_en_sign_stated_form_holds_exactly_for_odd_k(self, reps, k):
        # the documented relation e_n v = -i nu v carries an extra (-1)^k:
        # each tensor slot contributes -sign, so k slots flip the sign k times
        check = representation_defects(reps[k])
        failing = [name for name, witness in check.items() if witness is not None]
        if k % 2 == 1:
            assert failing == []
        else:
            # every vector fails, so the witness is the first, (-1,...,-1)
            assert failing == ["en_eigen_sign"]
            assert check["en_eigen_sign"] == str(SignVector(0, k))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_alpha_eigenphase_and_support_relations(self, reps, k):
        check = representation_defects(reps[k])
        assert check["alpha_en_commutation"] is None
        assert check["alpha_eigenphase"] is None
        ref = dense.eigenbasis_check(dense.from_rep(reps[k]))
        assert ref["alpha_en_commutation"][0] <= 1e-10
        assert ref["alpha_eigenphase"][0] <= 1e-10

    @pytest.mark.parametrize("k", range(1, 6))
    def test_en_sign_universal_form(self, reps, k):
        # e_n v = i * (-1)^k * nu(eps) * v holds for every k
        assert representation_defects(reps[k])["en_eigen_sign_universal"] is None
        ref = dense.eigenbasis_check(dense.from_rep(reps[k]))
        assert ref["en_eigen_sign_universal"][0] <= 1e-10

    @pytest.mark.parametrize("k", range(1, 7))
    def test_rep_basis_columns_are_the_basis_vectors(self, reps, k):
        # the rep stores no basis; the dense reference's basis must be the
        # v_eps, each w_{eps_1} x ... x w_{eps_k} with slot 1 the first
        # Kronecker factor, the form the slot-wise eigen-reads assume
        rep = reps[k]
        basis = dense.from_rep(rep).basis
        assert basis.shape == (rep.dim, rep.dim)
        w = {+1: np.array([1.0, -1j]), -1: np.array([1.0, 1j])}
        for bits in range(rep.dim):
            eps = SignVector(bits, k)
            expected = dense.spinor_basis_vector(eps)
            assert np.array_equal(basis[:, bits], expected)
            assert np.array_equal(expected, reduce(np.kron, [w[s] for s in eps.signs]))

    def test_k1_en_action_on_plus_vector(self, reps):
        # T sends (1, -i) to its negative, so e_n = iT scales by -i
        v = dense.spinor_basis_vector(sign_vector((1,)))
        en = dense.generator_matrices(reps[1])[2]
        assert np.max(np.abs(en @ v - (-1j) * v)) <= 1e-12

    def test_k3_phase_on_all_plus_vector(self, reps):
        v = dense.spinor_basis_vector(sign_vector((1, 1, 1)))
        phase = np.exp(1j * math.pi * 6 / 7)
        assert np.max(np.abs(dense.from_rep(reps[3]).alpha @ v - phase * v)) <= 1e-10


def _en_without_slot_1(rep):
    # T on slot 1 of e_n becomes i^3 I: the e_n signs still hold on w_{-1}
    # there but fail on w_{+1}, so they first fail at (+1,-1,...,-1)
    return _with_generator(rep, -1, lambda p: PauliString((p.phase + 3) % 4, p.x ^ 1, p.z ^ 1))


# every corruption whose planes each act on their own slot; the per-vector
# reads then agree with the slot-wise ones (see TestPlaneOffItsSlot otherwise)
_PER_SLOT_VARIANTS = {"intact": lambda rep: rep, **_BROKEN, "en_without_slot_1": _en_without_slot_1}


class TestAgainstProductStates:
    """The slot-wise reads against each v_eps in turn, as a product state, up to the cap."""

    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    def test_eigen_witnesses_match_enumeration(self, k):
        rep = build_rep(k)
        for variant, change in _PER_SLOT_VARIANTS.items():
            bad = change(rep)
            check = representation_defects(bad)
            for name, first in _enumerated_eigen_relations(bad).items():
                assert check[name] == first, (variant, name)
        # one corruption fails away from (-1,...,-1), so the witness search is exercised
        dropped = _enumerated_eigen_relations(_en_without_slot_1(rep))
        assert dropped["en_eigen_sign_universal"] == str(SignVector(1, k))

    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_phase_counts_match_enumeration(self, k, structure):
        rep = build_rep(k)
        for variant, change in _PER_SLOT_VARIANTS.items():
            bad = change(rep)
            got = lift_eigenphases(bad)[structure]
            assert got == _enumerated_phase_counts(bad, structure), variant


def _assert_fold_of(folded, spectrum, structure, window):
    """Each eigenvalue m + half/2 with |m| < window, doubled in ``spectrum``, has entry m mod n.

    ``spectrum`` is a doubled spectrum over the Fourier indices |l| <= window,
    so it holds every contribution to those eigenvalues.
    """
    n = len(folded)
    for m_int in range(-(window - 1), window):
        assert spectrum.get(2 * m_int + structure.half, 0) == folded[m_int % n], m_int


class TestFoldedSpectrum:
    def test_n7_plus_multiplicity_at_three(self, reps):
        m = make_manifold(3)
        assert folded_spectrum(lift_eigenphases(reps[3])[PLUS], m, PLUS)[3] == 2

    def test_n3_plus_classes(self, reps):
        # both vectors sit at the eigenvalues 2 mod 3; none at 0
        m = make_manifold(1)
        assert folded_spectrum(lift_eigenphases(reps[1])[PLUS], m, PLUS) == (0, 0, 2)

    def test_minus_eigenvalues_are_half_integral(self, reps):
        # every minus phase index is odd, so each vector lands on some r + 1/2
        m = make_manifold(1)
        phases = lift_eigenphases(reps[1])[MINUS]
        assert all(count == 0 for row in phases for count in row[::2])
        folded = folded_spectrum(phases, m, MINUS)
        assert sum(folded) == 2
        assert folded[0] == 2  # eigenvalue 1/2
        assert all(twice % 2 == 1 for twice in _reference_spectrum(reps[1], m, MINUS, 9))

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9, 11])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_fold_matches_table(self, k, structure):
        m = make_manifold(k)
        table = multiplicity_tables(m)[structure]
        folded = folded_spectrum(lift_eigenphases(build_rep(k))[structure], m, structure)
        assert spectrum_table_mismatches(folded, table) == []
        assert folded == table.counts

    def test_rejects_mismatched_manifold(self, reps):
        with pytest.raises(ValueError):
            folded_spectrum(lift_eigenphases(reps[3])[PLUS], make_manifold(2), PLUS)

    def test_comparison_rejects_a_fold_of_another_length(self, reps):
        m = make_manifold(3)
        folded = folded_spectrum(lift_eigenphases(reps[3])[PLUS], m, PLUS)
        with pytest.raises(ValueError):
            spectrum_table_mismatches(folded[:-1], multiplicity_tables(m)[PLUS])


def _scanned_spectrum(classes, m, structure, window):
    """Doubled windowed spectrum, testing each Fourier index of the window on each (nu, p) class."""
    offset = structure.half
    spectrum = Counter()
    for (sign, p), count in classes.items():
        for l in range(-window, window + 1):
            if (2 * l + offset) % (2 * m.n) == p:
                spectrum[sign * (2 * l + offset)] += count
    return dict(spectrum)


class TestSpectrumAgainstScan:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    @pytest.mark.parametrize(
        "window_of_n",
        [lambda n: n, lambda n: n + 1, lambda n: 3 * n + 1, lambda n: 1000],
        ids=["n", "n+1", "3n+1", "1000"],
    )
    def test_random_phases_match_scan(self, k, structure, window_of_n):
        # random counts at every (nu, p), both parities of p; no Fourier
        # window sees an eigenvalue other than its residue's entry
        m = make_manifold(k)
        window = window_of_n(m.n)
        rng = np.random.default_rng(1000 * k + structure.half)
        for _ in range(4):
            rows = [rng.integers(0, 5, size=2 * m.n).tolist() for _ in range(2)]
            classes = {(sign, p): rows[sign < 0][p] for sign in (1, -1) for p in range(2 * m.n)}
            scanned = _scanned_spectrum(classes, m, structure, window)
            _assert_fold_of(folded_spectrum(tuple(rows), m, structure), scanned, structure, window)

    def test_forced_mismatch_names_the_eigenvalue(self, reps):
        m = make_manifold(1)
        folded = list(folded_spectrum(lift_eigenphases(reps[1])[MINUS], m, MINUS))
        table = multiplicity_tables(m)[MINUS]
        expected = table.counts[1]  # residue 1 of the minus structure: eigenvalue 3/2
        folded[1] = expected + 5
        assert spectrum_table_mismatches(folded, table) == [
            f"eigenvalue 3/2: oracle multiplicity {expected + 5} != table {expected}"
        ]


class TestKernelDim:
    def test_n7_plus(self, reps):
        assert kernel_dim_oracle(lift_eigenphases(reps[3])[PLUS]) == 2

    def test_n3_plus(self, reps):
        assert kernel_dim_oracle(lift_eigenphases(reps[1])[PLUS]) == 0

    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    def test_minus_kernel_trivial(self, k):
        assert kernel_dim_oracle(lift_eigenphases(build_rep(k))[MINUS]) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7, 8])
    def test_formula_matches_oracle_away_from_k4(self, reps, k):
        m = make_manifold(k)
        assert kernel_dim_oracle(lift_eigenphases(reps[k])[PLUS]) == harmonic_dim(m, PLUS)

    def test_k4_doubled_count_overcounts(self, reps):
        # both residue-0 sign vectors at k = 4 (weights {1,4} and {2,3} on the
        # minus slots) have positive parity, so the doubled positive-parity
        # count gives 4 while the fixed space of the lift is 2-dimensional
        m = make_manifold(4)
        assert kernel_dim_oracle(lift_eigenphases(reps[4])[PLUS]) == 2
        assert harmonic_dim(m, PLUS) == 4

    def test_kernel_count_equals_direct_mu_condition(self):
        # cross-check the count against the weight congruence up to the
        # cap, 164 at k = 12
        for k in range(1, ORACLE_MAX_K + 1):
            m = make_manifold(k)
            expected = sum(
                1
                for bits in range(1 << k)
                if (mu(SignVector(bits, k)) - m.delta * m.n) % (2 * m.n) == 0
            )
            assert kernel_dim_oracle(lift_eigenphases(build_rep(k))[PLUS]) == expected


def _reference_sections(rep, m, structure, window, tol=1e-9):
    """Per-vector definition: test lift v_eps against phase * v_eps at each l."""
    half = 0.0 if structure is PLUS else 0.5
    lift = dense.lift_matrix(rep, structure)
    found = []
    for bits in range(rep.dim):
        eps = SignVector(bits, rep.k)
        v = dense.spinor_basis_vector(eps)
        lifted = lift @ v
        for l in range(-window, window + 1):
            phase = np.exp(2j * math.pi * (l + half) / m.n)
            if np.max(np.abs(lifted - phase * v)) < tol:
                found.append((eps, l))
    return found


def _reference_kernel_dim(rep, structure, tol=1e-9):
    lift = dense.lift_matrix(rep, structure)
    count = 0
    for bits in range(rep.dim):
        v = dense.spinor_basis_vector(SignVector(bits, rep.k))
        if np.max(np.abs(lift @ v - v)) < tol:
            count += 1
    return count


def _reference_spectrum(rep, m, structure, window, tol=1e-9):
    """Doubled eigenvalues (units of 2*pi) of the reference sections, with multiplicity."""
    half = Fraction(0) if structure is PLUS else Fraction(1, 2)
    return Counter(
        int(2 * nu(eps) * (l + half))
        for eps, l in _reference_sections(rep, m, structure, window, tol)
    )


class TestAgainstPerVectorReference:
    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    @pytest.mark.parametrize(
        "window_of_n",
        [lambda n: n, lambda n: 3 * n, lambda n: 3 * n + 1],
        ids=["n", "3n", "3n+1"],
    )
    def test_folded_spectrum_matches(self, reps, k, structure, window_of_n):
        m = make_manifold(k)
        window = window_of_n(m.n)
        folded = folded_spectrum(lift_eigenphases(reps[k])[structure], m, structure)
        reference = _reference_spectrum(reps[k], m, structure, window)
        _assert_fold_of(folded, reference, structure, window)

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_kernel_dim_matches(self, reps, k, structure):
        assert kernel_dim_oracle(lift_eigenphases(reps[k])[structure]) == _reference_kernel_dim(
            reps[k], structure
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    @pytest.mark.parametrize("broken", ["wrong_rotation", "flipped_x_bit", "turned_phase"])
    def test_broken_lift_matches_dense(self, reps, k, structure, broken):
        bad = _BROKEN[broken](reps[k])
        m = make_manifold(k)
        phases = lift_eigenphases(bad)[structure]
        window = 3 * m.n
        reference = _reference_spectrum(bad, m, structure, window)
        _assert_fold_of(folded_spectrum(phases, m, structure), reference, structure, window)
        assert kernel_dim_oracle(phases) == _reference_kernel_dim(bad, structure)
