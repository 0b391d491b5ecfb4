"""Manifold family, spin-structure tags, and the integer holonomy matrix.

The family contains one closed flat n-manifold for every k >= 1, with
n = 2k + 1 odd and holonomy group Z_n generated by the lattice
automorphism returned by :func:`holonomy_matrix`.  Everything in this
module is exact integer arithmetic.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

IntMatrix = tuple[tuple[int, ...], ...]

# Largest k the spinor oracle admits (dimension n = 2k+1 <= 25).  It lives
# here so the CLI and the catalog read it without importing the oracle.
ORACLE_MAX_K = 12
# Largest k a catalog sweep admits.  It lives here so the CLI prints it in
# ``sweep --help`` without importing the catalog.
MAX_SWEEP_K = 25


class SpinStructure(Enum):
    """The two spin structures, tagged by the sign of the n-th power of the holonomy lift."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def half(self) -> int:
        """1 when the lift's n-th power is -1, making Fourier indices half-integral; else 0."""
        return 0 if self is SpinStructure.PLUS else 1


class _ManifoldFields(NamedTuple):
    k: int
    n: int
    delta: int


class CyclicFlatManifold(_ManifoldFields):
    """Parameter pair (k, n = 2k+1) plus the weight-parity constant ``delta``.

    ``delta`` is 0 when k(k+1)/2 is even and 1 when it is odd.  Storing the
    doubled half-integer offset keeps every residue computation integral.
    The fields are checked on construction; a ``NamedTuple`` body cannot
    define ``__new__``, hence the subclass.
    """

    __slots__ = ()

    def __new__(cls, k: int, n: int, delta: int) -> CyclicFlatManifold:
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        if n != 2 * k + 1:
            raise ValueError(f"n must equal 2k+1 = {2 * k + 1}, got {n}")
        if delta != (k * (k + 1) // 2) % 2:
            raise ValueError("delta must match the parity of k(k+1)/2")
        return super().__new__(cls, k, n, delta)

    @classmethod
    def _make(cls, iterable) -> CyclicFlatManifold:
        """Build through ``__new__``, so ``_replace`` checks the fields too."""
        return cls(*iterable)


def make_manifold(k: int) -> CyclicFlatManifold:
    """Family member for a given k >= 1 (dimension n = 2k+1)."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return CyclicFlatManifold(k=k, n=2 * k + 1, delta=(k * (k + 1) // 2) % 2)


def manifold_for_dim(n: int) -> CyclicFlatManifold:
    """Family member of odd dimension n >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"dimension must be odd and >= 3, got {n}")
    return make_manifold((n - 1) // 2)


def holonomy_matrix(m: CyclicFlatManifold) -> IntMatrix:
    """Matrix of the order-n lattice automorphism in the lattice basis.

    Column j (0-based, j < n-2) is the (j+2)-th standard basis vector,
    column n-2 is (-1, ..., -1, 0), and column n-1 is the last basis
    vector (the fixed rotation axis).
    """
    n = m.n
    rows = [[0] * n for _ in range(n)]
    for j in range(n - 2):
        rows[j + 1][j] = 1
    for i in range(n - 1):
        rows[i][n - 2] = -1
    rows[n - 1][n - 1] = 1
    return tuple(tuple(row) for row in rows)


def identity_matrix(size: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product of integer matrices."""
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_pow(a: IntMatrix, exponent: int) -> IntMatrix:
    """Exact non-negative integer matrix power by repeated squaring."""
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


def char_poly(matrix: IntMatrix) -> tuple[int, ...]:
    """Coefficients of det(M - z*I) in ascending powers of z, exact integers.

    Uses the trace recurrence (Faddeev-LeVerrier) over arbitrary-precision
    integers; every division in the recurrence is exact for integer input.
    """
    size = len(matrix)
    if size == 0 or any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square and non-empty")

    # det(z*I - M) = z^size + coeffs[size-1] z^(size-1) + ... + coeffs[0]
    coeffs = [0] * (size + 1)
    coeffs[size] = 1
    work = identity_matrix(size)
    for step in range(1, size + 1):
        prod = mat_mul(matrix, work)
        trace = sum(prod[i][i] for i in range(size))
        q, rem = divmod(-trace, step)
        if rem:
            raise ArithmeticError("trace recurrence produced a non-integer coefficient")
        coeffs[size - step] = q
        if step < size:
            work = tuple(
                tuple(prod[i][j] + (q if i == j else 0) for j in range(size))
                for i in range(size)
            )

    sign = -1 if size % 2 else 1
    return tuple(sign * c for c in coeffs)
