"""The package's public names."""

import flateta


def test_every_public_name_resolves():
    assert len(set(flateta.__all__)) == len(flateta.__all__)
    missing = [name for name in flateta.__all__ if not hasattr(flateta, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from flateta import *", namespace)
    assert set(flateta.__all__) <= set(namespace)
