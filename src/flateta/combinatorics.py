"""Sign-vector combinatorics and eigenvalue-multiplicity tables.

A sign vector is a point of {-1, +1}^k.  Its weight mu is the sum of
j * sign_j, its parity nu is the product of the signs, and the shifted
half-weight residue mod n drives every multiplicity in the package.

The multiplicity table counts positive-parity sign vectors by residue,
doubled.  It comes from a closed form, never from a scan of the 2**k sign
vectors; the per-vector functions below are the definition it is tested
against.  Write n = 2k + 1 = f * s**2 with f squarefree, let chi_f = (./f)
be the Jacobi symbol (chi_1 = 1) and c_d(r) Ramanujan's sum.  The plus
table's doubled count at residue r is

    A_r = F(gcd(r, n)) + (-1)**k * g(r),
    F(m) = (1/n) * sum over d | n of (2/d) * 2**((n/d - 1)/2) * c_d(m),
    g(r) = (1/s) * sum of mu(e) * chi_f(e) * t * [t | r] * chi_f(r/t),

the last sum over the squarefree e | s with gcd(e, f) = 1, and t = n/(e*f).

Why.  A positive-parity vector has an even number of -1 entries, so the
doubled count is N(r) + (-1)**k * S(r), where N counts all 2**k vectors at
residue r and S counts them with the sign (-1)**(number of +1 entries).
Their Fourier transforms over Z_n are products over j = 1..k of
(1 + x**j) and (1 - x**j) at x = e(l/n), times the offset's phase.

- The transform of N at l is (2/d) * 2**((n/d - 1)/2), d = n/gcd(l, n): a
  product of 2cos(pi*l*j/n), which depends on l only through d.  Summing
  e(-l*r/n) over each gcd class gives the Ramanujan sums, so N(r) = F(gcd(r, n)).
- The transform of S vanishes unless gcd(l, n) = 1, where it is a fixed
  unit times sqrt(n) * (l/n) (Eisenstein).  Summing gives a Gauss sum of
  chi_f induced mod n, which is g.  For squarefree n, g(r) = (r/n); for
  n = s**2, g(r) = c_n(r)/s.
- c_d(-r) = c_d(r), while eta's weights are odd under r -> -r (plus) and
  r -> n-1-r (minus), so eta sees only g.  The both-parity residue-0 count
  N(0) = F(n) is the first term at r = 0, and A_0 - F(n) = (-1)**k * g(0),
  which is phi(s) when n = s**2 and 0 otherwise.

n is factored by trial division, and every step is exact integer
arithmetic, at a cost of about O(n + tau(n)**2) integer operations.  The
two spin structures' residues differ by the constant shift k, so one count
per k gives both tables, each a rotation of it.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, NamedTuple

from .core import CyclicFlatManifold, SpinStructure


class _SignVectorFields(NamedTuple):
    bits: int
    k: int


class SignVector(_SignVectorFields):
    """A vector in {-1, +1}^k packed as a bit pattern.

    Bit j-1 set means entry j is +1; clear means -1.  The fields are
    checked on construction, in the ``__new__`` of this subclass.
    """

    __slots__ = ()

    def __new__(cls, bits: int, k: int) -> SignVector:
        if k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        if not 0 <= bits < (1 << k):
            raise ValueError(f"bits must lie in [0, 2^{k}), got {bits}")
        return super().__new__(cls, bits, k)

    @classmethod
    def _make(cls, iterable) -> SignVector:
        """Build through ``__new__``, so ``_replace`` checks the fields too."""
        return cls(*iterable)

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


class MultiplicityTable(NamedTuple):
    """Doubled residue counts (A_0, ..., A_{n-1}) for one spin structure."""

    n: int
    structure: SpinStructure
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)


def prime_factors(n: int) -> dict[int, int]:
    """The prime factorisation of n >= 1 by trial division, as {prime: exponent}."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def doubled_counts(n: int) -> list[int]:
    """The plus table's doubled counts A_0, ..., A_{n-1} for odd n = 2k+1 >= 3.

    The closed form of the module docstring.  Every divisor d of n carries
    (mu(d), phi(d)), so c_d(m) = mu(q) * phi(d) / phi(q) with
    q = d / gcd(d, m) (Holder).  F(m) fills the residues whose gcd with n
    is m, in ascending order of m, so a residue keeps the largest divisor
    it is a multiple of.  chi_f is one table over Z_f, the product of
    Legendre tables by the Chinese remainder theorem, and the term of e in g
    adds mu(e) * chi_f(e) * (s/e) * chi_f(q) at each residue r = t*q.
    """
    arith = {1: (1, 1)}  # d -> (mu(d), phi(d)) over the divisors d of n
    chi = [1]  # (x/f) for x in Z_f, one prime of f at a time
    s = 1
    for p, a in prime_factors(n).items():
        # mu and phi are multiplicative: extend them by the powers p**i, i <= a
        powers = [(1, 1, 1), (p, -1, p - 1)]
        powers += [(p**i, 0, (p - 1) * p ** (i - 1)) for i in range(2, a + 1)]
        arith = {
            d * q: (mu * mu_q, phi * phi_q)
            for d, (mu, phi) in arith.items()
            for q, mu_q, phi_q in powers
        }
        s *= p ** (a // 2)
        if a % 2:
            legendre = [-1] * p
            legendre[0] = 0
            for x in range(1, (p + 1) // 2):
                legendre[x * x % p] = 1
            if chi != [1]:  # times the table of the primes of f before p
                legendre = [u * v for u, v in zip(chi * p, legendre * len(chi))]
            chi = legendre
    f = len(chi)
    divisors = sorted(arith)
    # (2/d) * 2**((n/d - 1)/2), d and phi(d) for each divisor d
    terms = [((1 if d % 8 in (1, 7) else -1) << (n // d // 2), d, arith[d][1]) for d in divisors]
    counts = [0] * n
    for m in divisors:
        total = 0
        for weight, d, phi in terms:
            mu_q, phi_q = arith[d // gcd(d, m)]
            if mu_q:
                total += mu_q * weight * (phi // phi_q)
        counts[::m] = [total // n] * (n // m)
    sign = -1 if (n // 2) % 2 else 1  # (-1)**k
    for e in divisors:
        mu_e = arith[e][0]
        if mu_e and s % e == 0 and chi[e % f]:  # chi_f(e) = 0 unless gcd(e, f) = 1
            coefficient = sign * mu_e * chi[e % f] * (s // e)
            t = s * s // e
            counts[::t] = [c + coefficient * x for c, x in zip(counts[::t], chi * e)]
    return counts


def multiplicity_tables(m: CyclicFlatManifold) -> dict[SpinStructure, MultiplicityTable]:
    """Both structures' tables from one closed-form count, keyed by structure.

    The count is the plus table's; the minus residues are the plus ones
    shifted by k, so the minus table is the same counts rotated.
    """
    doubled = doubled_counts(m.n)
    tables = {}
    for structure in SpinStructure:
        s = m.n - residue_shift(m, structure)
        counts = tuple(doubled[s:] + doubled[:s])
        tables[structure] = MultiplicityTable(n=m.n, structure=structure, counts=counts)
    return tables

