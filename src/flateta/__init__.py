"""Exact eta invariants and harmonic spinors for a family of flat manifolds.

For every k >= 1 the family contains one closed flat manifold of odd
dimension n = 2k+1 whose holonomy group is cyclic of order n, carrying
two spin structures.  The package computes the eta invariant of the Dirac
operator and the dimension of the space of harmonic spinors in exact
rational arithmetic, and verifies the closed forms against a brute-force
spectral oracle built from the explicit spinor representation.
"""

from .combinatorics import (
    MultiplicityTable,
    SignVector,
    enumerate_dplus,
    mu,
    multiplicity_tables,
    nu,
    residue,
    sign_vector,
)
from .core import (
    CyclicFlatManifold,
    SpinStructure,
    char_poly,
    holonomy_matrix,
    make_manifold,
    manifold_for_dim,
)
from .invariants import (
    EtaResult,
    IntegralityVerdict,
    ParityVerdict,
    eta,
    exact_invariants,
    harmonic_dim,
    parity_difference_check,
    positivity_threshold_report,
    prime_integrality_check,
)
from .zeta import ZetaEval, eta_numeric, hurwitz_zeta

__version__ = "0.1.0"

__all__ = [
    "CyclicFlatManifold",
    "EtaResult",
    "IntegralityVerdict",
    "MultiplicityTable",
    "ParityVerdict",
    "SignVector",
    "SpinStructure",
    "ZetaEval",
    "char_poly",
    "enumerate_dplus",
    "eta",
    "eta_numeric",
    "exact_invariants",
    "harmonic_dim",
    "holonomy_matrix",
    "hurwitz_zeta",
    "make_manifold",
    "manifold_for_dim",
    "mu",
    "multiplicity_tables",
    "nu",
    "parity_difference_check",
    "positivity_threshold_report",
    "prime_integrality_check",
    "residue",
    "sign_vector",
    "__version__",
]
