"""Hurwitz zeta continuation and the numeric re-derivation of eta.

The eta invariant is the value at 0 of the spectral sum regularized by
generalized zeta functions.  This module recomputes it along that route,
independently of the exact rational formula, using an Euler-Maclaurin
continuation of zeta(s, a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .invariants import EtaResult

_N_TERMS = 50
# B_2, B_4, ..., B_12; the tail estimate uses B_14 = 7/6.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
_B14 = 7 / 6
_POLE_WINDOW = 1e-9


@dataclass(frozen=True)
class ZetaEval:
    """A continued zeta value with a first-omitted-term error estimate."""

    s: float
    a: float
    value: float
    est_error: float


def hurwitz_zeta(s: float, a: float) -> ZetaEval:
    """Analytically continued zeta(s, a) = sum over m >= 0 of (m+a)^-s.

    Euler-Maclaurin with 50 initial terms and Bernoulli corrections
    through B_12; est_error is the magnitude of the first omitted
    correction.  Valid for a > 0 and s away from the pole at 1; the
    estimate stays below 1e-10 for s in [-1, 4].
    """
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    if abs(s - 1.0) < _POLE_WINDOW:
        raise ValueError("s is too close to the pole at 1")

    big = _N_TERMS + a
    value = math.fsum((m + a) ** (-s) for m in range(_N_TERMS))
    value += big ** (1.0 - s) / (s - 1.0)
    value += 0.5 * big ** (-s)

    # j-th correction: B_{2j}/(2j)! * s(s+1)...(s+2j-2) * big^(-s-2j+1)
    rising = 1.0
    for j, b2j in enumerate(_BERNOULLI, start=1):
        rising = s if j == 1 else rising * (s + 2 * j - 3) * (s + 2 * j - 2)
        value += b2j / math.factorial(2 * j) * rising * big ** (-s - 2 * j + 1)

    tail_rising = rising * (s + 11.0) * (s + 12.0)
    est_error = abs(_B14 / math.factorial(14) * tail_rising * big ** (-s - 13.0))
    return ZetaEval(s=s, a=a, value=value, est_error=est_error)


def eta_numeric(result: EtaResult, s_eval: float) -> float:
    """Numeric eta along the zeta-regularization route; exact eta at s_eval = 0.

    Reads the table of the eta result it checks.  Each residue class r
    contributes its doubled count times zeta(s, q) - zeta(s, 1-q), where
    q = (2r + half)/(2n) with the structure's half-offset (0 plus, 1 minus);
    q = 0 is omitted, that class being symmetric.  The whole sum carries
    the prefactor (2*pi*n)^-s, which is 1 at s_eval = 0.
    """
    m = result.manifold
    if m.k % 2 == 0:
        raise ValueError("the zeta route applies to odd k only")
    if not 0.0 <= s_eval <= 2.0:
        raise ValueError(f"s_eval must lie in [0, 2], got {s_eval}")

    n = m.n
    terms = []
    for r, count in enumerate(result.table.counts):
        q = (2 * r + result.structure.half) / (2 * n)
        if count == 0 or q == 0:
            continue
        diff = hurwitz_zeta(s_eval, q).value - hurwitz_zeta(s_eval, 1.0 - q).value
        terms.append(count * diff)
    return math.fsum(terms) / (2.0 * math.pi * n) ** s_eval
