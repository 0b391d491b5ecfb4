"""The mutation gate's list follows the code: each snippet occurs exactly once.

``python tests/mutants.py`` runs the gate itself; this only checks its list,
so that a snippet left behind by a change to ``src`` fails here first.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_snippet_occurs_exactly_once(mutant):
    assert (ROOT / "src" / "flateta" / mutant.path).read_text().count(mutant.snippet) == 1
