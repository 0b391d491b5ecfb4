"""List dynamic programs that the package's faster routes replace, kept as references.

The residue DP is a reference count of the multiplicity table.  The
package computes the table in closed form; this subset-sum dynamic
program over (parity, residue mod n) is an independent route to the same
counts, O(k*n) where the per-vector definition is O(2**k).

The eigenphase DP is ``oracle.lift_eigenphases`` on lists: the package
holds each row as one packed integer, and must count the same rows.
"""

from flateta.core import CyclicFlatManifold, SpinStructure
from flateta.oracle import SpinorRep, _plane_steps, _rotated


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


def lift_eigenphases(rep: SpinorRep) -> dict[SpinStructure, tuple[list[int], list[int]]]:
    """Per lift, the (nu = +1 row, nu = -1 row) of phase-index counts, one list per row.

    Each slot turns both rows by the plane's two steps, as list rotations,
    and adds them entry by entry; an entry -1 flips nu.  A plane that fits
    no phase leaves every count 0.
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
