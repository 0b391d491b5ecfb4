"""The residue DP: a reference count of the multiplicity table for the tests.

The package computes the table in closed form; this subset-sum dynamic
program over (parity, residue mod n) is an independent route to the same
counts, O(k*n) where the per-vector definition is O(2**k).
"""

from flateta.core import CyclicFlatManifold


def weight_offset(m: CyclicFlatManifold) -> int:
    """The offset with half_mu(eps) = w(eps) + offset, w the sum of j over +1 slots."""
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
