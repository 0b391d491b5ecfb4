"""The package's public names and its immutable records."""

import pytest

import flateta
from flateta import catalog, oracle, verification
from flateta.combinatorics import SignVector, multiplicity_tables
from flateta.core import SpinStructure, make_manifold
from flateta.invariants import eta, exact_invariants, threshold_row
from flateta.zeta import hurwitz_zeta


def test_every_public_name_resolves():
    assert len(set(flateta.__all__)) == len(flateta.__all__)
    missing = [name for name in flateta.__all__ if not hasattr(flateta, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from flateta import *", namespace)
    assert set(flateta.__all__) <= set(namespace)


_M = make_manifold(1)

# (record, one of its fields) for each of the package's 11 record types
_RECORDS = {
    "CyclicFlatManifold": lambda: (_M, "k"),
    "SignVector": lambda: (SignVector(1, 1), "bits"),
    "MultiplicityTable": lambda: (multiplicity_tables(_M)[SpinStructure.PLUS], "counts"),
    "EtaResult": lambda: (eta(_M, SpinStructure.PLUS), "value"),
    "ExactInvariants": lambda: (exact_invariants(_M), "harmonic_plus"),
    "ThresholdRow": lambda: (threshold_row(_M, 0), "harmonic_plus"),
    "ZetaEval": lambda: (hurwitz_zeta(2.0, 1.0), "value"),
    "CatalogEntry": lambda: (catalog.sweep_entries(1, 1)[0], "eta"),
    "CheckResult": lambda: (verification.run_verification(3).results[0], "status"),
    "VerificationReport": lambda: (verification.run_verification(3), "results"),
    "SpinorRep": lambda: (oracle.build_rep(1), "rotations"),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_immutable(name):
    record, field = _RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        setattr(record, "unlisted", None)
