"""Sign-vector combinatorics and eigenvalue-multiplicity tables.

A sign vector is a point of {-1, +1}^k.  Its weight mu is the sum of
j * sign_j, its parity nu is the product of the signs, and the shifted
half-weight residue mod n drives every multiplicity in the package.

The multiplicity table counts positive-parity sign vectors by residue.
It comes from a subset-sum dynamic program over (parity, residue mod n),
k steps over 2n counters, never from a scan of the 2**k sign vectors;
the per-vector functions below are the definition it is tested against.
The two spin structures' residues differ by the constant shift k, so one
histogram per k gives both tables, each a rotation of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import CyclicFlatManifold, SpinStructure


@dataclass(frozen=True)
class SignVector:
    """A vector in {-1, +1}^k packed as a bit pattern.

    Bit j-1 set means entry j is +1; clear means -1.
    """

    bits: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if not 0 <= self.bits < (1 << self.k):
            raise ValueError(f"bits must lie in [0, 2^{self.k}), got {self.bits}")

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if (self.bits >> j) & 1 else -1 for j in range(self.k))

    def negated(self) -> SignVector:
        return SignVector(self.bits ^ ((1 << self.k) - 1), self.k)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.signs) + ")"


def sign_vector(signs: tuple[int, ...] | list[int]) -> SignVector:
    """Pack an explicit (+1/-1) tuple into a SignVector."""
    if not signs or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be a non-empty sequence over {-1, +1}")
    bits = sum(1 << j for j, s in enumerate(signs) if s == 1)
    return SignVector(bits, len(signs))


def mu(eps: SignVector) -> int:
    """Weighted sum of the entries: sum of sign_j * j for j = 1..k."""
    total = 0
    for j in range(eps.k):
        total += (j + 1) if (eps.bits >> j) & 1 else -(j + 1)
    return total


def nu(eps: SignVector) -> int:
    """Product of the entries: +1 iff the number of -1 entries is even."""
    minus_count = eps.k - int(eps.bits).bit_count()
    return 1 if minus_count % 2 == 0 else -1


def enumerate_dplus(k: int) -> Iterator[SignVector]:
    """Yield the 2**(k-1) sign vectors with nu = +1, in ascending bit order."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    kpar = k & 1
    for bits in range(1 << k):
        if bits.bit_count() & 1 == kpar:
            yield SignVector(bits, k)


def residue_shift(m: CyclicFlatManifold, structure: SpinStructure) -> int:
    """Additive residue shift of the spin structure: 0 for plus, k for minus."""
    return structure.half * m.k


def half_mu(eps: SignVector, m: CyclicFlatManifold) -> int:
    """The integer (mu + delta*n) / 2; the division is always exact."""
    total = mu(eps) + m.delta * m.n
    assert total % 2 == 0, "mu + delta*n must be even"
    return total // 2


def residue(eps: SignVector, m: CyclicFlatManifold, structure: SpinStructure) -> int:
    """Shifted half-weight residue in [0, n)."""
    if eps.k != m.k:
        raise ValueError(f"sign vector length {eps.k} does not match k = {m.k}")
    return (half_mu(eps, m) + residue_shift(m, structure)) % m.n


@dataclass(frozen=True)
class MultiplicityTable:
    """Doubled residue counts (A_0, ..., A_{n-1}) for one spin structure."""

    n: int
    structure: SpinStructure
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)


def _weight_offset(m: CyclicFlatManifold) -> int:
    # half_mu(eps) = w(eps) + offset, where w is the sum of j over +1 slots
    return (m.delta * m.n - m.k * (m.k + 1) // 2) // 2


def residue_histogram(k: int, n: int, offset: int) -> list[int]:
    """Counts of (w + offset) mod n over positive-parity patterns (not doubled).

    w is the sum of j over the +1 slots of a pattern, and positive parity
    means the popcount has the parity of k.  Slots j = 1..k are added one
    at a time; a +1 in slot j flips the popcount parity and shifts the
    residue by j, so each step maps the counters of one parity class,
    rotated by j, onto the other.
    """
    even, odd = [1] + [0] * (n - 1), [0] * n
    for j in range(1, k + 1):
        s = n - j % n
        even, odd = (
            [a + b for a, b in zip(even, odd[s:] + odd[:s])],
            [a + b for a, b in zip(odd, even[s:] + even[:s])],
        )
    kept = odd if k & 1 else even
    s = n - offset % n
    return kept[s:] + kept[:s]


def multiplicity_tables(m: CyclicFlatManifold) -> dict[SpinStructure, MultiplicityTable]:
    """Both structures' tables from one residue histogram, keyed by structure.

    The histogram is taken at the plus offset; the minus residues are the
    plus ones shifted by k, so the minus table is the same counts rotated.
    """
    doubled = [2 * c for c in residue_histogram(m.k, m.n, _weight_offset(m))]
    tables = {}
    for structure in SpinStructure:
        s = m.n - residue_shift(m, structure)
        counts = tuple(doubled[s:] + doubled[:s])
        tables[structure] = MultiplicityTable(n=m.n, structure=structure, counts=counts)
    return tables

