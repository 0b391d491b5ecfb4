"""Sign-vector laws, residues, and the multiplicity table against its definition."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flateta.combinatorics import (
    SignVector,
    _weight_offset,
    enumerate_dplus,
    half_mu,
    mu,
    multiplicity_tables,
    nu,
    residue,
    residue_histogram,
    residue_shift,
    sign_vector,
)
from flateta.core import SpinStructure, make_manifold

PLUS = SpinStructure.PLUS
MINUS = SpinStructure.MINUS


def vectors(max_k=12):
    return st.integers(min_value=1, max_value=max_k).flatmap(
        lambda k: st.builds(
            SignVector, bits=st.integers(min_value=0, max_value=(1 << k) - 1), k=st.just(k)
        )
    )


class TestSignVector:
    def test_encoding_roundtrip(self):
        eps = sign_vector((1, -1, -1))
        assert eps.signs == (1, -1, -1)
        assert eps.bits == 0b001
        assert str(eps) == "(1,-1,-1)"

    def test_negation(self):
        eps = sign_vector((1, -1, 1))
        assert eps.negated().signs == (-1, 1, -1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SignVector(bits=4, k=2)
        with pytest.raises(ValueError):
            SignVector(bits=0, k=0)
        with pytest.raises(ValueError):
            sign_vector((1, 0, -1))

    @given(vectors())
    def test_negation_is_involutive(self, eps):
        assert eps.negated().negated() == eps


class TestMuNu:
    def test_mu_examples(self):
        assert mu(sign_vector((1, 1, 1))) == 6
        assert mu(sign_vector((-1, -1, 1))) == 0
        for k in (1, 4, 9):
            assert mu(SignVector(0, k)) == -k * (k + 1) // 2

    def test_nu_examples(self):
        assert nu(sign_vector((1, 1, 1))) == 1
        assert nu(sign_vector((1, -1, -1))) == 1
        assert nu(sign_vector((-1, 1, 1))) == -1

    @given(vectors())
    def test_mu_matches_direct_sum(self, eps):
        assert mu(eps) == sum((j + 1) * s for j, s in enumerate(eps.signs))

    @given(vectors())
    def test_nu_matches_direct_product(self, eps):
        prod = 1
        for s in eps.signs:
            prod *= s
        assert nu(eps) == prod

    @given(vectors())
    def test_mu_negation_flips_sign(self, eps):
        assert mu(eps.negated()) == -mu(eps)

    @given(vectors())
    def test_nu_negation_law(self, eps):
        assert nu(eps.negated()) == (-1) ** eps.k * nu(eps)

    @given(vectors())
    def test_mu_range_and_parity(self, eps):
        bound = eps.k * (eps.k + 1) // 2
        assert -bound <= mu(eps) <= bound
        assert (mu(eps) - bound) % 2 == 0


class TestEnumerateDplus:
    def test_k3_matches_published_set(self):
        got = {eps.signs for eps in enumerate_dplus(3)}
        assert got == {(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)}

    def test_k1(self):
        assert [eps.signs for eps in enumerate_dplus(1)] == [(1,)]

    def test_k5_against_full_scan(self):
        # independent filter: brute product over explicit sign tuples
        expected = set()
        for bits in range(1 << 5):
            signs = tuple(1 if (bits >> j) & 1 else -1 for j in range(5))
            prod = 1
            for s in signs:
                prod *= s
            if prod == 1:
                expected.add(signs)
        got = [eps for eps in enumerate_dplus(5)]
        assert {eps.signs for eps in got} == expected
        assert len(got) == 16
        assert all(sum(1 for s in eps.signs if s == -1) % 2 == 0 for eps in got)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_count_and_order(self, k):
        got = list(enumerate_dplus(k))
        assert len(got) == 1 << (k - 1)
        assert all(nu(eps) == 1 for eps in got)
        assert [eps.bits for eps in got] == sorted(eps.bits for eps in got)


class TestResidue:
    def test_published_rows_k3_plus(self):
        m = make_manifold(3)
        table = {
            (1, 1, 1): (3, 3),
            (1, -1, -1): (-2, 5),
            (-1, 1, -1): (-1, 6),
            (-1, -1, 1): (0, 0),
        }
        for signs, (half, r) in table.items():
            eps = sign_vector(signs)
            assert half_mu(eps, m) == half
            assert residue(eps, m, PLUS) == r

    def test_k1_both_structures(self):
        m = make_manifold(1)
        eps = sign_vector((1,))
        assert half_mu(eps, m) == 2
        assert residue(eps, m, PLUS) == 2
        assert residue(eps, m, MINUS) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            residue(sign_vector((1, 1)), make_manifold(3), PLUS)

    @given(vectors())
    def test_negation_pairs_residues(self, eps):
        m = make_manifold(eps.k)
        r = residue(eps, m, PLUS)
        assert residue(eps.negated(), m, PLUS) == (m.n - r) % m.n

    @given(vectors())
    def test_congruence_forms_agree(self, eps):
        # mu = delta*n (mod 2n) is the same condition as residue = 0
        m = make_manifold(eps.k)
        assert (residue(eps, m, PLUS) == 0) == (mu(eps) % (2 * m.n) == (m.delta * m.n) % (2 * m.n))

    @given(vectors())
    def test_minus_is_shift_of_plus(self, eps):
        m = make_manifold(eps.k)
        assert residue(eps, m, MINUS) == (residue(eps, m, PLUS) + m.k) % m.n

    def test_shift_values(self):
        m = make_manifold(5)
        assert residue_shift(m, PLUS) == 0
        assert residue_shift(m, MINUS) == 5


class TestMultiplicityTable:
    def test_n7_plus_published(self):
        table = multiplicity_tables(make_manifold(3))[PLUS]
        assert table.counts == (2, 0, 0, 2, 0, 2, 2)

    def test_n3_both(self):
        m = make_manifold(1)
        assert multiplicity_tables(m)[PLUS].counts == (0, 0, 2)
        assert multiplicity_tables(m)[MINUS].counts == (2, 0, 0)

    @pytest.mark.parametrize("k", range(1, 15))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_conservation_and_evenness(self, k, structure):
        table = multiplicity_tables(make_manifold(k))[structure]
        assert table.total() == 1 << k
        assert all(c % 2 == 0 and c >= 0 for c in table.counts)

    @pytest.mark.parametrize("k", range(1, 19))
    @pytest.mark.parametrize("structure", [PLUS, MINUS])
    def test_backends_agree(self, k, structure):
        # the subset-sum count against the per-vector definition
        m = make_manifold(k)
        counts = [0] * m.n
        for eps in enumerate_dplus(k):
            counts[residue(eps, m, structure)] += 2
        assert multiplicity_tables(m)[structure].counts == tuple(counts)

    def test_shared_tables_match_a_histogram_per_structure(self):
        # one histogram, rotated, against a DP run at each structure's own offset
        for k in range(1, 151):
            m = make_manifold(k)
            tables = multiplicity_tables(m)
            assert list(tables) == [PLUS, MINUS]
            for structure, table in tables.items():
                offset = _weight_offset(m) + residue_shift(m, structure)
                own = residue_histogram(k, m.n, offset)
                assert (table.n, table.structure) == (m.n, structure)
                assert table.counts == tuple(2 * c for c in own), (k, structure)
                assert multiplicity_tables(m)[structure] == table

    def test_histogram_backends_agree_on_offsets(self):
        for k, n, offset in [(6, 13, -10), (7, 15, 4), (10, 21, -55)]:
            direct = [0] * n
            for eps in enumerate_dplus(k):
                w = sum(j + 1 for j in range(k) if (eps.bits >> j) & 1)
                direct[(w + offset) % n] += 1
            assert residue_histogram(k, n, offset) == direct


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=11))
def test_odd_k_residue_zero_class_is_negation_stable(k):
    # for odd k, negation swaps the two parity classes and preserves residue 0
    if k % 2 == 0:
        return
    m = make_manifold(k)
    zero_plus = [eps for eps in enumerate_dplus(k) if residue(eps, m, PLUS) == 0]
    for eps in zero_plus:
        neg = eps.negated()
        assert nu(neg) == -1
        assert (half_mu(neg, m)) % m.n == 0


def weight_congruence_count(m) -> int:
    """#{eps in {-1,1}^k of either parity : (mu + delta*n)/2 = 0 mod n}.

    A subset sum over mu mod 2n: slot j adds +j or -j.
    """
    size = 2 * m.n
    counts = [1] + [0] * (size - 1)
    for j in range(1, m.k + 1):
        counts = [counts[(x - j) % size] + counts[(x + j) % size] for x in range(size)]
    return counts[-m.delta * m.n % size]


def test_doubled_zero_entry_overcounts_by_totient_at_odd_squares():
    # The A08 law: the doubled positive-parity residue-0 count exceeds the
    # both-parity count by phi(sqrt(n)) when n is an odd square, else by 0.
    excess = {}
    for k in range(1, 101):
        m = make_manifold(k)
        diff = multiplicity_tables(m)[PLUS].counts[0] - weight_congruence_count(m)
        root = math.isqrt(m.n)
        totient = sum(math.gcd(a, root) == 1 for a in range(1, root + 1))
        assert diff == (totient if root * root == m.n else 0), k
        if diff:
            excess[k] = diff
    assert excess == {4: 2, 12: 4, 24: 6, 40: 6, 60: 10, 84: 12}
