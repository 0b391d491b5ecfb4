"""Manifold constants, holonomy matrix, and characteristic polynomial."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flateta.core import (
    CyclicFlatManifold,
    char_poly,
    holonomy_matrix,
    identity_matrix,
    make_manifold,
    manifold_for_dim,
    mat_mul,
)


def naive_mat_mul(a, b):
    # independent of core.mat_mul: plain index loops
    size = len(a)
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(size)) for j in range(size))
        for i in range(size)
    )


def mat_pow(a, exponent):
    """Exact non-negative integer matrix power by repeated squaring, over ``core.mat_mul``."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    result = identity_matrix(len(a))
    base = a
    e = exponent
    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return result


def poly_det(matrix):
    """Characteristic data by Laplace expansion over polynomial entries.

    Entries are coefficient tuples in ascending powers; used as the
    independent route for det(M - z*I) on small matrices.
    """

    def p_add(p, q):
        width = max(len(p), len(q))
        return tuple(
            (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(width)
        )

    def p_mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, ci in enumerate(p):
            for j, cj in enumerate(q):
                out[i + j] += ci * cj
        return tuple(out)

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = (0,)
        for j, entry in enumerate(rows[0]):
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = p_mul(entry, det(minor))
            if j % 2:
                term = tuple(-c for c in term)
            total = p_add(total, term)
        return total

    return det(matrix)


def shifted_poly_matrix(matrix):
    size = len(matrix)
    return [
        [(matrix[i][j], -1) if i ==j else (matrix[i][j],) for j in range(size)]
        for i in range(size)
    ]


class TestMakeManifold:
    def test_example_k3(self):
        m = make_manifold(3)
        assert (m.k, m.n, m.delta) == (3, 7, 0)

    def test_example_k1(self):
        m = make_manifold(1)
        assert (m.k, m.n, m.delta) == (1, 3, 1)

    def test_example_k4(self):
        m = make_manifold(4)
        assert (m.k, m.n, m.delta) == (4, 9, 0)

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_rejects_nonpositive_k(self, bad):
        with pytest.raises(ValueError):
            make_manifold(bad)

    @given(st.integers(min_value=1, max_value=500))
    def test_delta_parity_law(self, k):
        m = make_manifold(k)
        assert m.n == 2 * k + 1
        assert m.n % 2 == 1
        assert m.delta % 2 == (k * (k + 1) // 2) % 2
        assert m.delta in (0, 1)

    @pytest.mark.parametrize(
        "fields", [dict(k=1, n=4, delta=1), dict(k=1, n=3, delta=0), dict(k=0, n=1, delta=0)]
    )
    def test_record_rejects_inconsistent_fields(self, fields):
        # the record's own check, not make_manifold's
        with pytest.raises(ValueError):
            CyclicFlatManifold(**fields)
        with pytest.raises(ValueError):
            make_manifold(1)._replace(**fields)

    def test_record_accepts_consistent_fields(self):
        assert CyclicFlatManifold(k=1, n=3, delta=1) == make_manifold(1)

    def test_manifold_for_dim(self):
        assert manifold_for_dim(7) == make_manifold(3)
        for bad in (1, 2, 4, 0, -3):
            with pytest.raises(ValueError):
                manifold_for_dim(bad)


class TestHolonomyMatrix:
    def test_n3_transcription(self):
        m = make_manifold(1)
        assert holonomy_matrix(m) == ((0, -1, 0), (1, -1, 0), (0, 0, 1))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_order_n(self, k):
        m = make_manifold(k)
        a = holonomy_matrix(m)
        power = a
        for _ in range(m.n - 1):
            power = naive_mat_mul(power, a)
        assert power == identity_matrix(m.n)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_no_smaller_period(self, k):
        # the automorphism has full order n, not a proper divisor
        m = make_manifold(k)
        a = holonomy_matrix(m)
        power = a
        for _ in range(m.n - 2):
            power = naive_mat_mul(power, a)
            assert power != identity_matrix(m.n)

    def test_mat_pow_agrees_with_naive(self):
        m = make_manifold(4)
        a = holonomy_matrix(m)
        assert mat_pow(a, m.n) == identity_matrix(m.n)
        assert mat_pow(a, 3) == naive_mat_mul(naive_mat_mul(a, a), a)
        assert mat_mul(a, identity_matrix(m.n)) == a


class TestCharPoly:
    def test_n3_hand_determinant(self):
        # 3x3 determinant of (A - zI) expanded by hand: 1 - z^3
        m = make_manifold(1)
        assert char_poly(holonomy_matrix(m)) == (1, 0, 0, -1)

    def test_identity_1x1(self):
        assert char_poly(((1,),)) == (1, -1)

    def test_n7(self):
        m = make_manifold(3)
        expected = (1,) + (0,) * 6 + (-1,)
        assert char_poly(holonomy_matrix(m)) == expected

    @pytest.mark.parametrize("k", range(1, 13))
    def test_one_minus_z_n(self, k):
        m = make_manifold(k)
        expected = (1,) + (0,) * (m.n - 1) + (-1,)
        assert char_poly(holonomy_matrix(m)) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_laplace_expansion(self, k):
        m = make_manifold(k)
        a = holonomy_matrix(m)
        assert char_poly(a) == poly_det(shifted_poly_matrix(a))

    def test_laplace_on_generic_matrix(self):
        mat = ((2, 1, 0), (-1, 3, 5), (4, 0, -2))
        assert char_poly(mat) == poly_det(shifted_poly_matrix(mat))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            char_poly(((1, 2),))
