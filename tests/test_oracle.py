"""Structured-representation integrity, its dense cross-check, and oracle-vs-formula agreement."""

import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import _dense_oracle as dense
from flateta.combinatorics import SignVector, multiplicity_table, mu, nu, sign_vector
from flateta.core import SpinStructure, make_manifold
from flateta.invariants import harmonic_dim
from flateta.oracle import (
    MAX_K,
    _compose,
    _slot_factor,
    alpha_power_defect,
    build_rep,
    clifford_defect,
    conjugation_defect,
    eigenbasis_check,
    kernel_dim_oracle,
    lift_eigenphases,
    lift_power_defects,
    rotation_matrix,
    rotor_commutation_defect,
    spectrum_table_mismatches,
    spinor_basis_vector,
    windowed_spectrum,
    zero_class_asymmetries,
)

PLUS = SpinStructure.PLUS
MINUS = SpinStructure.MINUS


@pytest.fixture(scope="module")
def reps():
    return {k: build_rep(k) for k in range(1, 9)}


class TestBuildRep:
    def test_rejects_out_of_range(self):
        for bad in (0, -1, MAX_K + 1):
            with pytest.raises(ValueError):
                build_rep(bad)

    def test_dimensions(self, reps):
        for k in (1, 3, 5):
            rep = reps[k]
            assert rep.dim == 1 << k
            assert len(dense.generator_matrices(rep)) == rep.n
            assert len(dense.rotor_matrices(rep)) == k
            assert dense.generator_matrices(rep)[0].shape == (rep.dim, rep.dim)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_clifford_relations(self, reps, k):
        assert clifford_defect(reps[k]) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 6))
    def test_rotors_commute(self, reps, k):
        assert rotor_commutation_defect(reps[k]) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 6))
    def test_alpha_power_sign(self, reps, k):
        # alpha^n = -I when k(k+1)/2 is odd, +I when even
        assert alpha_power_defect(reps[k]) <= 1e-9

    def test_k1_alpha_cubes_to_minus_identity(self, reps):
        rep = reps[1]
        alpha = dense.alpha_matrix(rep)
        cube = alpha @ alpha @ alpha
        assert np.max(np.abs(cube + np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 6))
    def test_lift_powers(self, reps, k):
        plus_defect, minus_defect = lift_power_defects(reps[k])
        assert plus_defect <= 1e-9
        assert minus_defect <= 1e-9

    def test_k3_plus_lift_seventh_power(self, reps):
        rep = reps[3]
        power = np.linalg.matrix_power(dense.lift_matrix(rep, PLUS), 7)
        assert np.max(np.abs(power - np.eye(8))) <= 1e-9

    @pytest.mark.parametrize("k", range(1, 6))
    def test_conjugation_realizes_rotation(self, reps, k):
        assert conjugation_defect(reps[k]) <= 1e-9

    def test_rotation_matrix_is_orthogonal_of_order_n(self):
        for n in (3, 7, 11):
            rot = rotation_matrix(n)
            assert np.max(np.abs(rot @ rot.T - np.eye(n))) <= 1e-12
            assert np.max(np.abs(np.linalg.matrix_power(rot, n) - np.eye(n))) <= 1e-9


@pytest.fixture(scope="module")
def dense_reps():
    return {k: dense.build_dense(k) for k in range(1, 9)}


class TestDenseCrossCheck:
    """The structured representation against the dense reference, k = 1..8."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_operators_equal_dense_entry_for_entry(self, reps, dense_reps, k):
        rep, ref = reps[k], dense_reps[k]
        for got, want in zip(dense.generator_matrices(rep), ref.e, strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(dense.rotor_matrices(rep), ref.r, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(dense.alpha_matrix(rep), ref.alpha)
        assert np.array_equal(rep.basis, ref.basis)
        for structure in (PLUS, MINUS):
            assert np.array_equal(dense.lift_matrix(rep, structure), ref.lift(structure))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_defects_match_dense(self, reps, dense_reps, k):
        rep, ref = reps[k], dense_reps[k]
        pairs = [
            (clifford_defect(rep), dense.clifford_defect(ref)),
            (rotor_commutation_defect(rep), dense.rotor_commutation_defect(ref)),
            (alpha_power_defect(rep), dense.alpha_power_defect(ref)),
            *zip(lift_power_defects(rep), dense.lift_power_defects(ref), strict=True),
            (conjugation_defect(rep), dense.conjugation_defect(ref)),
        ]
        for got, want in pairs:
            assert abs(got - want) <= 1e-12
        for got, want in zip(eigenbasis_check(rep), dense.eigenbasis_check(ref), strict=True):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], rel=0, abs=1e-12), got[0]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_generator_defects_match_dense_when_broken(self, reps, k):
        # turn one phase of e_1: both Clifford routes and both rotor routes
        # must report the same nonzero defects
        perm, phase = reps[k].generators[0]
        turned = phase * np.where(np.arange(len(phase)) == 1, np.exp(0.3j), 1.0)
        bad = dataclasses.replace(reps[k], generators=((perm, turned), *reps[k].generators[1:]))
        ref = dense.from_generators(k, dense.generator_matrices(bad))
        assert clifford_defect(bad) == pytest.approx(dense.clifford_defect(ref), rel=0, abs=1e-12)
        assert rotor_commutation_defect(bad) == pytest.approx(
            dense.rotor_commutation_defect(ref), rel=0, abs=1e-12
        )
        assert clifford_defect(bad) > 0.1
        assert rotor_commutation_defect(bad) > 0.01

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_rotor_defects_match_dense_when_broken(self, reps, k):
        # perturb the first rotor factor: every alpha-based defect moves off
        # zero, and the structured and dense routes must agree on it
        first, *rest = reps[k].rotors
        bad = dataclasses.replace(
            reps[k], rotors=(first + np.array([[0.0, 1e-3], [0.0, 0.0]]), *rest)
        )
        ref = dense.from_rep(bad)
        pairs = [
            (alpha_power_defect(bad), dense.alpha_power_defect(ref)),
            *zip(lift_power_defects(bad), dense.lift_power_defects(ref), strict=True),
            (conjugation_defect(bad), dense.conjugation_defect(ref)),
            *(
                (got[1], want[1])
                for got, want in zip(eigenbasis_check(bad), dense.eigenbasis_check(ref), strict=True)
            ),
        ]
        for got, want in pairs:
            assert got == pytest.approx(want, rel=0, abs=1e-12)
        assert conjugation_defect(bad) > 1e-4
        assert alpha_power_defect(bad) > 1e-4

    def test_rotor_factor_needs_a_one_slot_product(self, reps):
        # e_1 e_3 moves slots 1 and 2, so no single-slot rotor factor can be read off it
        e = reps[3].generators
        with pytest.raises(ValueError, match="does not act on slot 1 alone"):
            _slot_factor(_compose(e[0], e[2]), 1, 3)


class TestEigenbasis:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_alpha_eigenphase_and_support_relations(self, reps, k):
        by_name = {name: defect for name, defect, _ in eigenbasis_check(reps[k])}
        assert by_name["rho1_eigenpair"] <= 1e-10
        assert by_name["alpha_en_commutation"] <= 1e-10
        assert by_name["alpha_eigenphase"] <= 1e-10
        assert by_name["basis_rank"] <= 1e-10

    @pytest.mark.parametrize("k", range(1, 6))
    def test_en_sign_universal_form(self, reps, k):
        # e_n v = i * (-1)^k * nu(eps) * v holds for every k
        by_name = {name: defect for name, defect, _ in eigenbasis_check(reps[k])}
        assert by_name["en_eigen_sign_universal"] <= 1e-10

    @pytest.mark.parametrize("k", range(1, 6))
    def test_en_sign_stated_form_holds_exactly_for_odd_k(self, reps, k):
        # the documented relation e_n v = -i nu v carries an extra (-1)^k:
        # each tensor slot contributes -sign, so k slots flip the sign k times
        by_name = {name: defect for name, defect, _ in eigenbasis_check(reps[k])}
        stated = by_name["en_eigen_sign"]
        if k % 2 == 1:
            assert stated <= 1e-10
        else:
            assert stated == pytest.approx(2.0, abs=1e-9)
            assert [name for name, defect in by_name.items() if defect > 1e-10] == [
                "en_eigen_sign"
            ]

    def test_k1_en_action_on_plus_vector(self, reps):
        # T sends (1, -i) to its negative, so e_1... e_n = iT scales by -i
        rep = reps[1]
        v = spinor_basis_vector(sign_vector((1,)))
        assert np.max(np.abs(dense.generator_matrices(rep)[2] @ v - (-1j) * v)) <= 1e-12

    def test_k3_phase_on_all_plus_vector(self, reps):
        rep = reps[3]
        eps = sign_vector((1, 1, 1))
        v = spinor_basis_vector(eps)
        phase = np.exp(1j * math.pi * 6 / 7)
        assert np.max(np.abs(dense.alpha_matrix(rep) @ v - phase * v)) <= 1e-10

    @pytest.mark.parametrize("k", range(1, 7))
    def test_rep_basis_columns_are_the_basis_vectors(self, reps, k):
        rep = reps[k]
        assert rep.basis.shape == (rep.dim, rep.dim)
        for bits in range(rep.dim):
            expected = spinor_basis_vector(SignVector(bits, k))
            assert np.array_equal(rep.basis[:, bits], expected)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_basis_vectors_linearly_independent(self, k):
        dim = 1 << k
        basis = np.column_stack(
            [spinor_basis_vector(SignVector(bits, k)) for bits in range(dim)]
        )
        sign, logdet = np.linalg.slogdet(basis)
        assert sign != 0 and math.isfinite(logdet)


class TestWindowedSpectrum:
    def test_n7_plus_multiplicity_at_three(self, reps):
        m = make_manifold(3)
        spectrum = windowed_spectrum(reps[3], m, PLUS, 21)
        assert spectrum[Fraction(3)] == 2

    def test_n3_plus_classes(self, reps):
        m = make_manifold(1)
        spectrum = windowed_spectrum(reps[1], m, PLUS, 9)
        for lam, count in spectrum.items():
            assert lam.denominator == 1
            assert int(lam) % 3 == 2
            assert count == 2
        assert spectrum[Fraction(2)] == 2
        assert Fraction(0) not in spectrum

    def test_minus_eigenvalues_are_half_integral(self, reps):
        m = make_manifold(1)
        spectrum = windowed_spectrum(reps[1], m, MINUS, 9)
        assert spectrum
        assert all(lam.denominator == 2 for lam in spectrum)
        assert spectrum[Fraction(1, 2)] == 2

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_fold_matches_table(self, reps, k, structure):
        m = make_manifold(k)
        window = 3 * m.n
        table = multiplicity_table(m, structure)
        spectrum = windowed_spectrum(reps[k], m, structure, window)
        assert spectrum_table_mismatches(spectrum, table, window) == []

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_zero_class_symmetric_for_odd_k(self, reps, k):
        m = make_manifold(k)
        window = 3 * m.n
        spectrum = windowed_spectrum(reps[k], m, PLUS, window)
        assert zero_class_asymmetries(spectrum, m.n, window) == []

    def test_rejects_small_window(self, reps):
        m = make_manifold(3)
        with pytest.raises(ValueError):
            windowed_spectrum(reps[3], m, PLUS, 2)

    def test_rejects_mismatched_manifold(self, reps):
        with pytest.raises(ValueError):
            windowed_spectrum(reps[3], make_manifold(2), PLUS, 21)


class TestKernelDim:
    def test_n7_plus(self, reps):
        assert kernel_dim_oracle(reps[3], make_manifold(3), PLUS) == 2

    def test_n3_plus(self, reps):
        assert kernel_dim_oracle(reps[1], make_manifold(1), PLUS) == 0

    @pytest.mark.parametrize("k", range(1, 9))
    def test_minus_kernel_trivial(self, reps, k):
        assert kernel_dim_oracle(reps[k], make_manifold(k), MINUS) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7, 8])
    def test_formula_matches_oracle_away_from_k4(self, reps, k):
        m = make_manifold(k)
        assert kernel_dim_oracle(reps[k], m, PLUS) == harmonic_dim(m, PLUS)

    def test_k4_doubled_count_overcounts(self, reps):
        # both residue-0 sign vectors at k = 4 (weights {1,4} and {2,3} on the
        # minus slots) have positive parity, so the doubled positive-parity
        # count gives 4 while the fixed space of the lift is 2-dimensional
        m = make_manifold(4)
        assert kernel_dim_oracle(reps[4], m, PLUS) == 2
        assert harmonic_dim(m, PLUS) == 4

    def test_kernel_count_equals_direct_mu_condition(self, reps):
        # cross-check the matrix count against the weight congruence
        for k in range(1, 9):
            m = make_manifold(k)
            expected = sum(
                1
                for bits in range(1 << k)
                if (mu(SignVector(bits, k)) - m.delta * m.n) % (2 * m.n) == 0
            )
            assert kernel_dim_oracle(reps[k], m, PLUS) == expected


def _reference_sections(rep, m, structure, window, tol=1e-9):
    """Per-vector definition: test lift v_eps against phase * v_eps at each l."""
    half = 0.0 if structure is PLUS else 0.5
    lift = dense.lift_matrix(rep, structure)
    found = []
    for bits in range(rep.dim):
        eps = SignVector(bits, rep.k)
        v = spinor_basis_vector(eps)
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
        v = spinor_basis_vector(SignVector(bits, rep.k))
        if np.max(np.abs(lift @ v - v)) < tol:
            count += 1
    return count


def _reference_spectrum(rep, m, structure, window, tol=1e-9):
    """Eigenvalues (units of 2*pi) of the reference sections, with multiplicity."""
    half = Fraction(0) if structure is PLUS else Fraction(1, 2)
    return Counter(
        nu(eps) * (l + half) for eps, l in _reference_sections(rep, m, structure, window, tol)
    )


def _searched_phases(rep, structure, tol=1e-9):
    """Per basis vector, the first p in 0..2n-1 whose phase the dense lift fits, else -1."""
    lift = dense.lift_matrix(rep, structure)
    found = []
    for bits in range(rep.dim):
        v = rep.basis[:, bits]
        lifted = lift @ v
        fits = [
            p
            for p in range(2 * rep.n)
            if np.max(np.abs(lifted - np.exp(1j * math.pi * p / rep.n) * v)) < tol
        ]
        found.append(fits[0] if fits else -1)
    return found


class TestAgainstPerVectorReference:
    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    @pytest.mark.parametrize(
        "window_of_n",
        [lambda n: n, lambda n: 3 * n, lambda n: 3 * n + 1],
        ids=["n", "3n", "3n+1"],
    )
    def test_windowed_spectrum_matches(self, reps, k, structure, window_of_n):
        m = make_manifold(k)
        window = window_of_n(m.n)
        got = windowed_spectrum(reps[k], m, structure, window)
        assert got == _reference_spectrum(reps[k], m, structure, window)

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_lift_eigenphases_match_dense_search(self, reps, k, structure):
        got = lift_eigenphases(reps[k], structure, 1e-9)
        assert got.tolist() == _searched_phases(reps[k], structure)
        assert np.all(got >= 0)

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_kernel_dim_matches(self, reps, k, structure):
        m = make_manifold(k)
        assert kernel_dim_oracle(reps[k], m, structure) == _reference_kernel_dim(
            reps[k], structure
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    @pytest.mark.parametrize(
        "perturbation",
        [
            # as in the rotor-defect test: no basis vector stays an eigenvector
            np.array([[0.0, 1e-3], [0.0, 0.0]]),
            # 1e-3 * w_{+1} w_{-1}^H: kills w_{+1} in slot 1 and sends w_{-1} to it,
            # so the vectors with eps_1 = +1 keep their phase and the others lose it
            1e-3 * np.outer([1.0, -1j], [1.0, -1j]),
            # breaks every basis vector below row 0, the entry the phase is read
            # from, so only a test of the whole column can reject it
            np.array([[0.0, 0.0], [1e-3, 0.0]]),
        ],
        ids=["all_broken", "half_broken", "top_entry_intact"],
    )
    def test_broken_lift_matches_dense(self, reps, k, structure, perturbation):
        first, *rest = reps[k].rotors
        bad = dataclasses.replace(reps[k], rotors=(first + perturbation, *rest))
        m = make_manifold(k)
        phases = lift_eigenphases(bad, structure, 1e-9)
        assert phases.tolist() == _searched_phases(bad, structure)
        assert np.any(phases == -1)
        window = 3 * m.n
        assert windowed_spectrum(bad, m, structure, window) == _reference_spectrum(
            bad, m, structure, window
        )
        assert kernel_dim_oracle(bad, m, structure) == _reference_kernel_dim(bad, structure)
