"""Structured-representation integrity, its dense cross-check, and oracle-vs-formula agreement."""

import dataclasses
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

import _dense_oracle as dense
from flateta import oracle
from flateta.combinatorics import SignVector, mu, multiplicity_tables, nu, sign_vector
from flateta.core import ORACLE_MAX_K, SpinStructure, make_manifold
from flateta.invariants import harmonic_dim
from flateta.oracle import (
    build_rep,
    eigenbasis_check,
    kernel_dim_oracle,
    lift_eigenphases,
    operator_defects,
    rotation_matrix,
    spectrum_table_mismatches,
    spinor_basis_vector,
    windowed_spectrum,
    zero_class_asymmetries,
)

PLUS = SpinStructure.PLUS
MINUS = SpinStructure.MINUS
# added to a generator factor, puts entries on both of its diagonals
_SHEAR = np.array([[0.0, 0.1], [0.0, 0.0]])
# the dense reference of each entry of ``operator_defects``
_DENSE_DEFECTS = {
    "clifford_relations": dense.clifford_defect,
    "rotor_commutation": dense.rotor_commutation_defect,
    "alpha_power_sign": dense.alpha_power_defect,
    "lift_power_plus": lambda ref: dense.lift_power_defects(ref)[0],
    "lift_power_minus": lambda ref: dense.lift_power_defects(ref)[1],
    "conjugation_rotation": dense.conjugation_defect,
}
# the relations that involve the rotors
_ROTOR_RELATIONS = (
    "alpha_power_sign", "lift_power_plus", "lift_power_minus", "conjugation_rotation"
)


def _with_dense(rep, ref, names=tuple(_DENSE_DEFECTS)):
    """(operator_defects(rep)[name], the dense defect of ref) for each name."""
    got = operator_defects(rep)
    return [(got[name], _DENSE_DEFECTS[name](ref)) for name in names]


@pytest.fixture(scope="module")
def reps():
    return {k: build_rep(k) for k in range(1, 9)}


class TestBuildRep:
    def test_rejects_out_of_range(self):
        for bad in (0, -1, ORACLE_MAX_K + 1):
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
        assert operator_defects(reps[k])["clifford_relations"] <= 1e-12

    @pytest.mark.parametrize("k", range(1, 6))
    def test_rotors_commute(self, reps, k):
        assert operator_defects(reps[k])["rotor_commutation"] <= 1e-12

    @pytest.mark.parametrize("k", range(1, 6))
    def test_alpha_power_sign(self, reps, k):
        # alpha^n = -I when k(k+1)/2 is odd, +I when even
        assert operator_defects(reps[k])["alpha_power_sign"] <= 1e-9

    def test_k1_alpha_cubes_to_minus_identity(self, reps):
        rep = reps[1]
        alpha = dense.alpha_matrix(rep)
        cube = alpha @ alpha @ alpha
        assert np.max(np.abs(cube + np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 6))
    def test_lift_powers(self, reps, k):
        defects = operator_defects(reps[k])
        assert defects["lift_power_plus"] <= 1e-9
        assert defects["lift_power_minus"] <= 1e-9

    def test_k3_plus_lift_seventh_power(self, reps):
        rep = reps[3]
        power = np.linalg.matrix_power(dense.lift_matrix(rep, PLUS), 7)
        assert np.max(np.abs(power - np.eye(8))) <= 1e-9

    @pytest.mark.parametrize("k", range(1, 6))
    def test_conjugation_realizes_rotation(self, reps, k):
        assert operator_defects(reps[k])["conjugation_rotation"] <= 1e-9

    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    def test_pair_relations_hold_exactly_up_to_the_cap(self, k):
        # every slot of each pair is proportional by +-1 or +-i, exactly
        defects = operator_defects(build_rep(k))
        assert defects["clifford_relations"] == 0.0
        assert defects["rotor_commutation"] == 0.0

    def test_k1_has_no_rotor_pairs(self, reps):
        assert operator_defects(reps[1])["rotor_commutation"] == 0.0

    def test_rotation_matrix_is_orthogonal_of_order_n(self):
        for n in (3, 7, 11):
            rot = rotation_matrix(n)
            assert np.max(np.abs(rot @ rot.T - np.eye(n))) <= 1e-12
            assert np.max(np.abs(np.linalg.matrix_power(rot, n) - np.eye(n))) <= 1e-9


class TestBuildRepAssembly:
    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    def test_matches_slotwise_reference_bit_for_bit(self, k):
        got, want = build_rep(k), dense.build_rep_slotwise(k)
        for field in ("generators", "rotors"):
            assert len(getattr(got, field)) == len(getattr(want, field))
            for a, b in zip(getattr(got, field), getattr(want, field)):
                assert a.shape == b.shape == ((k, 2, 2) if field == "generators" else (2, 2))
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", [1, 4, ORACLE_MAX_K])
    def test_every_array_is_read_only(self, k):
        rep = build_rep(k)
        for factors in (*rep.generators, *rep.rotors):
            assert not factors.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                factors[0, 0, 0] = 0.0


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
        for structure in (PLUS, MINUS):
            assert np.array_equal(dense.lift_matrix(rep, structure), ref.lift(structure))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_defects_match_dense(self, reps, dense_reps, k):
        rep, ref = reps[k], dense_reps[k]
        for got, want in _with_dense(rep, ref):
            assert abs(got - want) <= 1e-12
        for got, want in zip(eigenbasis_check(rep), dense.eigenbasis_check(ref), strict=True):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], rel=0, abs=1e-12), got[0]

    @staticmethod
    def _with_first_generator(rep, last_slot):
        """rep with the factor of e_1 on the last slot replaced by last_slot(factor)."""
        factors = rep.generators[0].copy()
        factors[-1] = last_slot(factors[-1])
        return dataclasses.replace(rep, generators=(factors, *rep.generators[1:]))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_generator_defects_match_dense_when_broken(self, reps, k):
        # turn one phase of e_1's last slot factor: both Clifford routes and
        # both rotor routes must report the same nonzero defects
        bad = self._with_first_generator(reps[k], lambda f: f @ np.diag([1.0, np.exp(0.3j)]))
        ref = dense.from_generators(k, dense.generator_matrices(bad))
        got = operator_defects(bad)
        assert got["clifford_relations"] == pytest.approx(
            dense.clifford_defect(ref), rel=0, abs=1e-12
        )
        assert got["rotor_commutation"] == pytest.approx(
            dense.rotor_commutation_defect(ref), rel=0, abs=1e-12
        )
        assert got["clifford_relations"] > 0.1
        assert got["rotor_commutation"] > 0.01

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_pair_bounds_match_dense_with_one_non_monomial_slot(self, reps, k):
        # e_1's last factor gets entries on both diagonals: every pair is off
        # proportional in that slot alone, where the per-slot bound is exact
        bad = self._with_first_generator(reps[k], lambda f: f + _SHEAR)
        ref = dense.from_generators(k, dense.generator_matrices(bad))
        got = operator_defects(bad)
        assert got["clifford_relations"] == pytest.approx(
            dense.clifford_defect(ref), rel=0, abs=1e-12
        )
        assert got["rotor_commutation"] == pytest.approx(
            dense.rotor_commutation_defect(ref), rel=0, abs=1e-12
        )
        assert got["clifford_relations"] > 0.1
        assert got["rotor_commutation"] > 0.01

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize(
        "broken", [lambda f: f @ np.diag([1.0, np.exp(0.3j)]), lambda f: f + _SHEAR],
        ids=["phase", "shear"],
    )
    def test_pair_bounds_never_under_report_with_two_slots_broken(self, reps, k, broken):
        # with slots 1 and 3 of e_1 both broken a pair's bound may exceed the
        # dense defect, but never falls below it
        factors = reps[k].generators[0].copy()
        for slot in (1, 3):
            factors[slot - 1] = broken(factors[slot - 1])
        bad = dataclasses.replace(reps[k], generators=(factors, *reps[k].generators[1:]))
        ref = dense.from_generators(k, dense.generator_matrices(bad))
        got = operator_defects(bad)
        assert got["clifford_relations"] >= dense.clifford_defect(ref) - 1e-12
        assert got["rotor_commutation"] >= dense.rotor_commutation_defect(ref) - 1e-12
        assert dense.clifford_defect(ref) > 0.1
        assert dense.rotor_commutation_defect(ref) > 0.01

    @pytest.mark.parametrize("seed", range(12))
    def test_pair_bounds_never_under_report_on_random_perturbations(self, reps, seed):
        # 1 to 3 random generator slots, turned by diagonal phases (even
        # seeds) or moved off the diagonal and anti-diagonal (odd seeds),
        # then 1 or 2 random rotor slots moved by a small random matrix
        rng = np.random.default_rng(seed)
        k = 2 + seed % 5
        generators = [g.copy() for g in reps[k].generators]
        for _ in range(1 + seed % 3):
            g, s = rng.integers(len(generators)), rng.integers(k)
            if seed % 2:
                generators[g][s] += 0.05 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            else:
                generators[g][s] *= np.exp(1j * rng.uniform(-0.5, 0.5, 2))  # times a diagonal
        bad = dataclasses.replace(reps[k], generators=tuple(generators))
        ref = dense.from_generators(k, dense.generator_matrices(bad))
        got = operator_defects(bad)
        assert got["clifford_relations"] >= dense.clifford_defect(ref) - 1e-12
        assert got["rotor_commutation"] >= dense.rotor_commutation_defect(ref) - 1e-12
        assert dense.clifford_defect(ref) > 1e-3
        rotors = list(bad.rotors)
        for s in rng.choice(k, size=1 + seed % 2, replace=False):
            rotors[s] = rotors[s] + 1e-3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        bad = dataclasses.replace(bad, rotors=tuple(rotors))
        ref = dense.from_rep(bad)
        for got, want in _with_dense(bad, ref, _ROTOR_RELATIONS):
            assert got >= want - 1e-12
        assert dense.alpha_power_defect(ref) > 1e-4

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
            *_with_dense(bad, ref, _ROTOR_RELATIONS),
            *(
                (got[1], want[1])
                for got, want in zip(eigenbasis_check(bad), dense.eigenbasis_check(ref), strict=True)
            ),
        ]
        for got, want in pairs:
            assert got == pytest.approx(want, rel=0, abs=1e-12)
        got = operator_defects(bad)
        assert got["conjugation_rotation"] > 1e-4
        assert got["alpha_power_sign"] > 1e-4

    @pytest.mark.parametrize(("k", "slot"), [(2, 2), (3, 2), (3, 3), (5, 3), (5, 5)])
    def test_factor_defects_match_dense_when_slot_broken(self, reps, k, slot):
        # perturb the rotor of a middle or the last slot by 1e-3 (I + E_12):
        # the shear breaks alpha e_n = e_n alpha, and the scaling turns r_s^n
        # off the diagonal; one slot is off proportional in every relation,
        # so each per-slot bound equals the dense defect
        rotors = list(reps[k].rotors)
        rotors[slot - 1] = rotors[slot - 1] + np.array([[1e-3, 1e-3], [0.0, 1e-3]])
        bad = dataclasses.replace(reps[k], rotors=tuple(rotors))
        ref = dense.from_rep(bad)

        def commutation(check):
            return next(defect for name, defect, _ in check if name == "alpha_en_commutation")

        pairs = [
            *_with_dense(bad, ref, _ROTOR_RELATIONS),
            (commutation(eigenbasis_check(bad)), commutation(dense.eigenbasis_check(ref))),
        ]
        for got, want in pairs:
            assert got == pytest.approx(want, rel=0, abs=1e-12)
            assert got > 1e-4

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize(
        "perturbation",
        [np.array([[1e-3, 1e-3], [0.0, 1e-3]]), 1e-3 * np.outer([1.0, -1j], [1.0, -1j])],
        ids=["shear", "half_broken"],
    )
    def test_bound_never_under_reports_with_two_slots_broken(self, reps, k, perturbation):
        # with slots 1 and 3 both broken the per-slot bounds exceed the dense
        # defects, but never fall below them; a lift phase the bound accepts
        # is one the dense search accepts (half_broken keeps some vectors)
        rotors = list(reps[k].rotors)
        for slot in (1, 3):
            rotors[slot - 1] = rotors[slot - 1] + perturbation
        bad = dataclasses.replace(reps[k], rotors=tuple(rotors))
        got = {name: defect for name, defect, _ in eigenbasis_check(bad)}
        want = {name: defect for name, defect, _ in dense.eigenbasis_check(dense.from_rep(bad))}
        for name in ("alpha_en_commutation", "alpha_eigenphase"):
            assert got[name] >= want[name] > 1e-4, name
        for structure in (PLUS, MINUS):
            searched = _searched_phases(bad, structure)
            for p, q in zip(lift_eigenphases(bad)[structure].tolist(), searched, strict=True):
                assert p in (-1, q)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_conjugation_bound_holds_with_a_non_monomial_generator_factor(self, reps, k):
        # a factor of e_1 with entries on both diagonals still gets a bound,
        # never below the dense defect
        bad = self._with_first_generator(reps[k], lambda f: f + _SHEAR)
        want = dense.conjugation_defect(dense.from_rep(bad))
        got = operator_defects(bad)["conjugation_rotation"]
        assert got >= want - 1e-12
        assert got > 1e-4

    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize(
        ("phase", "shear"), [(True, False), (False, True), (True, True)],
        ids=["generator", "rotor", "both"],
    )
    def test_every_relation_bound_holds_when_broken(self, reps, k, phase, shear):
        # turn one phase of e_1's last slot factor, shear the first rotor
        # factor, or both: every relation, on generators or rotors, gets a
        # bound never below the dense defect
        rep = reps[k]
        if phase:
            rep = self._with_first_generator(rep, lambda f: f @ np.diag([1.0, np.exp(0.3j)]))
        if shear:
            first, *rest = rep.rotors
            rep = dataclasses.replace(
                rep, rotors=(first + np.array([[1e-3, 1e-3], [0.0, 1e-3]]), *rest)
            )
        ref = dense.from_rep(rep)
        for got, want in _with_dense(rep, ref):
            assert got >= want - 1e-12
        if phase:
            assert dense.clifford_defect(ref) > 0.1
        if shear:
            assert dense.alpha_power_defect(ref) > 1e-4

    def test_rotor_factor_needs_a_one_slot_product(self, reps):
        # e_1 e_3 moves slots 1 and 2, so no single-slot rotor factor can be read off it
        e = reps[3].generators
        with pytest.raises(ValueError, match="does not act on slot 1 alone"):
            oracle._one_slot_factors(oracle._slot_products(e[0], e[2])[None])


class TestUpToTheCap:
    """Whole-operator relations at k = 9 up to the oracle cap, on the slot factors."""

    @pytest.mark.parametrize("k", range(9, ORACLE_MAX_K + 1))
    def test_conjugation_and_powers(self, k):
        defects = operator_defects(build_rep(k))
        for name in _ROTOR_RELATIONS:
            assert defects[name] <= 1e-9, name

    def test_memory_stays_linear_in_dim(self):
        # one dense 2^12 x 2^12 complex matrix is 256 MiB; the slot factors
        # need O(k 2^k) per operator, about 5 MiB at the cap, and the
        # eigen-relations O(2^k) per relation, under 1 MiB.  Every
        # relation on whole operators is bounded slot by slot, with no
        # 2^k-length array
        tracemalloc.start()
        try:
            rep = build_rep(ORACLE_MAX_K)
            eigenbasis_check(rep)
            lift_eigenphases(rep)
            operator_defects(rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_operator_defects_peak_under_2_mib_at_the_cap(self):
        # every relation's pairs hold O(n^2) pairs of k slot factors, filled
        # in place, and no 2^k-length array, so the peak does not grow with 2^k
        rep = build_rep(ORACLE_MAX_K)
        tracemalloc.start()
        try:
            operator_defects(rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _explicit_telescoped(a, b):
    """The telescoping bound summed term by term, as a k x k array of per-slot maxima.

    Row j holds max|a_i| for the slots i < j, max|a_j - b_j| at slot j and
    max|b_i| after; the Kronecker product of each row, slot 1 in the lowest
    digit, is the j-th term for every choice of states.
    """
    k = a.shape[-3]
    peak_a, gap, peak_b = (np.abs(x).max(axis=-1) for x in (a, a - b, b))
    term, slot = np.indices((k, k))[..., None]
    rows = np.where(slot < term, peak_a[..., None, :, :], peak_b[..., None, :, :])
    rows[..., np.arange(k), np.arange(k), :] = gap
    return oracle._outer_chain(rows[..., ::-1, :]).sum(axis=-2)


class TestTelescoped:
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("states", [1, 2])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 2), (0,)], ids=["none", "3", "2x2", "empty"])
    def test_horner_sum_equals_explicit_sum(self, k, states, batch):
        rng = np.random.default_rng(100 * k + 10 * states + len(batch))
        shape = (*batch, k, states, 4)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = a + 0.1 * rng.normal(size=shape)
        got = oracle._telescoped(a, b)
        assert got.shape == (*batch, states**k)
        np.testing.assert_allclose(got, _explicit_telescoped(a, b), rtol=1e-12, atol=0)

    def test_bound_is_zero_when_equal_and_exact_when_one_slot_differs(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 2, 3)) + 1j * rng.normal(size=(5, 2, 3))
        assert not oracle._telescoped(a, a.copy()).any()
        b = a.copy()
        b[2] += 0.25 * rng.normal(size=(2, 3))
        got = oracle._telescoped(a, b)
        for index in range(1 << 5):
            states = [(index >> j) & 1 for j in range(5)]  # slot 1 in the lowest digit
            chosen = np.arange(5), states
            diff = oracle._outer_chain(a[chosen]) - oracle._outer_chain(b[chosen])
            assert got[index] == pytest.approx(np.abs(diff).max(), rel=1e-12)


def _mixed(rng, shape, dtype):
    """Entries spread over 16 decades, both signed zeros among them."""
    def part():
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        return np.where(rng.random(shape) < 0.1, rng.choice([0.0, -0.0], size=shape), x)

    return part() + 1j * part() if dtype is complex else part()


class TestEntrywiseReductions:
    """The slot kernels' entrywise max and sum against numpy's reductions, bit for bit.

    If a numpy release reorders its sums, these fail before any printed
    defect moves.
    """

    _SHAPES = [(4,), (5,), (3, 7), (218, 8, 1), (2, 9, 2), (0,)]

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("batch", _SHAPES)
    def test_sum_and_mean_match_numpy(self, dtype, m, batch):
        a = _mixed(np.random.default_rng(len(batch) * 10 + m), (*batch, m), dtype)
        total = oracle._last_sum(a)
        assert total.dtype == a.dtype
        assert total.tobytes() == a.sum(axis=-1).tobytes()
        assert (total / m).tobytes() == a.mean(axis=-1).tobytes()

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("batch", _SHAPES)
    def test_max_matches_numpy(self, m, batch):
        a = np.abs(_mixed(np.random.default_rng(len(batch) * 10 + m), (*batch, m), complex))
        assert oracle._fold(np.maximum, a).tobytes() == a.max(axis=-1).tobytes()
        assert oracle._fold(np.maximum, -a).tobytes() == (-a).max(axis=-1).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_sum_order_is_numpys(self, dtype):
        # 1e16 + 1 rounds to 1e16: left to right gives 1, pairwise 0
        a = np.array([1e16, 1.0, -1e16, 1.0], dtype=dtype) * np.ones((218, 8, 1, 1))
        want = 0.0 if dtype is complex else 1.0
        assert (oracle._last_sum(a) == want).all()
        assert oracle._last_sum(a).tobytes() == a.sum(axis=-1).tobytes()


class TestSignBitArrays:
    @pytest.mark.parametrize("k", range(1, ORACLE_MAX_K + 1))
    def test_weights_and_parities_match_per_vector_definition(self, k):
        bits = oracle._sign_bits(k)
        vectors = [SignVector(b, k) for b in range(1 << k)]
        assert oracle._weights(bits).tolist() == [mu(eps) for eps in vectors]
        assert oracle._parities(bits).tolist() == [nu(eps) for eps in vectors]


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
        check = eigenbasis_check(reps[k])
        by_name = {name: defect for name, defect, _ in check}
        stated = by_name["en_eigen_sign"]
        if k % 2 == 1:
            assert stated <= 1e-10
        else:
            assert stated == pytest.approx(2.0, abs=1e-9)
            assert [name for name, defect in by_name.items() if defect > 1e-10] == [
                "en_eigen_sign"
            ]
            # every vector misses by 2, so the witness is the first, (-1,...,-1)
            witness = next(w for name, _, w in check if name == "en_eigen_sign")
            assert witness == str(SignVector(0, k))

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
        # the rep stores no basis; the dense reference's basis must be the
        # v_eps, each w_{eps_1} x ... x w_{eps_k} with slot 1 most significant,
        # the form the slot-wise eigen-relations assume
        rep = reps[k]
        basis = dense.from_rep(rep).basis
        assert basis.shape == (rep.dim, rep.dim)
        w = {+1: np.array([1.0, -1j]), -1: np.array([1.0, 1j])}
        for bits in range(rep.dim):
            eps = SignVector(bits, k)
            expected = spinor_basis_vector(eps)
            assert np.array_equal(basis[:, bits], expected)
            assert np.array_equal(expected, reduce(np.kron, [w[s] for s in eps.signs]))

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
        spectrum = windowed_spectrum(lift_eigenphases(reps[3])[PLUS], m, PLUS, 21)
        assert spectrum[6] == 2  # eigenvalue 3, keyed doubled

    def test_n3_plus_classes(self, reps):
        m = make_manifold(1)
        spectrum = windowed_spectrum(lift_eigenphases(reps[1])[PLUS], m, PLUS, 9)
        for twice, count in spectrum.items():
            assert twice % 2 == 0
            assert (twice // 2) % 3 == 2
            assert count == 2
        assert spectrum[4] == 2
        assert 0 not in spectrum

    def test_minus_eigenvalues_are_half_integral(self, reps):
        m = make_manifold(1)
        spectrum = windowed_spectrum(lift_eigenphases(reps[1])[MINUS], m, MINUS, 9)
        assert spectrum
        assert all(twice % 2 == 1 for twice in spectrum)
        assert spectrum[1] == 2

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_fold_matches_table(self, reps, k, structure):
        m = make_manifold(k)
        window = 3 * m.n
        table = multiplicity_tables(m)[structure]
        spectrum = windowed_spectrum(lift_eigenphases(reps[k])[structure], m, structure, window)
        assert spectrum_table_mismatches(spectrum, table, window) == []

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_zero_class_symmetric_for_odd_k(self, reps, k):
        m = make_manifold(k)
        window = 3 * m.n
        spectrum = windowed_spectrum(lift_eigenphases(reps[k])[PLUS], m, PLUS, window)
        assert zero_class_asymmetries(spectrum, m.n, window) == []

    def test_rejects_small_window(self, reps):
        m = make_manifold(3)
        with pytest.raises(ValueError):
            windowed_spectrum(lift_eigenphases(reps[3])[PLUS], m, PLUS, 2)

    def test_rejects_mismatched_manifold(self, reps):
        with pytest.raises(ValueError):
            windowed_spectrum(lift_eigenphases(reps[3])[PLUS], make_manifold(2), PLUS, 21)


def _scanned_spectrum(phases, m, structure, window):
    """Doubled windowed spectrum, testing every Fourier index of the window on every class."""
    offset = structure.half
    signs = (nu(SignVector(bits, m.k)) for bits in range(len(phases)))
    classes = Counter(zip(signs, phases.tolist()))
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
        # phase indices over [-1, 2n): misses, and both parities of p
        m = make_manifold(k)
        window = window_of_n(m.n)
        rng = np.random.default_rng(1000 * k + structure.half)
        parities = set()
        for _ in range(4):
            phases = rng.integers(-1, 2 * m.n, size=1 << k)
            phases[0] = -1
            parities |= {p % 2 for p in phases.tolist() if p >= 0}
            got = windowed_spectrum(phases, m, structure, window)
            assert got == _scanned_spectrum(phases, m, structure, window)
        assert parities == {0, 1}

    def test_forced_mismatch_names_the_eigenvalue(self, reps):
        m = make_manifold(1)
        window = 3 * m.n
        spectrum = windowed_spectrum(lift_eigenphases(reps[1])[MINUS], m, MINUS, window)
        table = multiplicity_tables(m)[MINUS]
        expected = table.counts[3 % m.n]  # 7/2 = (2 * 3 + 1) / 2 folds to residue 3 mod n
        spectrum[7] = expected + 5
        assert spectrum_table_mismatches(spectrum, table, window) == [
            f"eigenvalue 7/2: oracle multiplicity {expected + 5} != table {expected}"
        ]


class TestKernelDim:
    def test_n7_plus(self, reps):
        assert kernel_dim_oracle(lift_eigenphases(reps[3])[PLUS]) == 2

    def test_n3_plus(self, reps):
        assert kernel_dim_oracle(lift_eigenphases(reps[1])[PLUS]) == 0

    @pytest.mark.parametrize("k", range(1, 9))
    def test_minus_kernel_trivial(self, reps, k):
        assert kernel_dim_oracle(lift_eigenphases(reps[k])[MINUS]) == 0

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
        # cross-check the matrix count against the weight congruence up to
        # the cap, 164 at k = 12
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
    """Doubled eigenvalues (units of 2*pi) of the reference sections, with multiplicity."""
    half = Fraction(0) if structure is PLUS else Fraction(1, 2)
    return Counter(
        int(2 * nu(eps) * (l + half))
        for eps, l in _reference_sections(rep, m, structure, window, tol)
    )


def _searched_phases(rep, structure, tol=1e-9):
    """Per basis vector, the first p in 0..2n-1 whose phase the dense lift fits, else -1."""
    lift = dense.lift_matrix(rep, structure)
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
        got = windowed_spectrum(lift_eigenphases(reps[k])[structure], m, structure, window)
        assert got == _reference_spectrum(reps[k], m, structure, window)

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_lift_eigenphases_match_dense_search(self, reps, k, structure):
        got = lift_eigenphases(reps[k], 1e-9)[structure]
        assert got.tolist() == _searched_phases(reps[k], structure)
        assert np.all(got >= 0)

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_kernel_dim_matches(self, reps, k, structure):
        assert kernel_dim_oracle(lift_eigenphases(reps[k])[structure]) == _reference_kernel_dim(
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
        phases = lift_eigenphases(bad, 1e-9)[structure]
        assert phases.tolist() == _searched_phases(bad, structure)
        assert np.any(phases == -1)
        window = 3 * m.n
        assert windowed_spectrum(phases, m, structure, window) == _reference_spectrum(
            bad, m, structure, window
        )
        assert kernel_dim_oracle(phases) == _reference_kernel_dim(bad, structure)
