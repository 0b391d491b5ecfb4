"""Mutation gate: each one-line mutant of ``src/flateta`` must fail its named tests.

    python tests/mutants.py

Each mutant is a name, a file under ``src/flateta``, an exact snippet, its
replacement and the tests that must catch it.  For each, the script copies
``src`` to a temporary directory, replaces the snippet there by plain text
replacement, and runs ``pytest -x -q`` on the tests with the copy in place
of ``src``; the mutant is killed when pytest reports a failing test.  A
snippet that does not occur exactly once is an error, so the list has to
follow the code.  The same tests first run on an unmutated copy and must
pass, so that a kill means the change was seen.

The file name does not match ``test_*.py``, so pytest does not collect it.
It takes about a minute, which keeps it outside the tier-1 suite;
``tests/test_mutants.py`` checks in tier-1 that every snippet still occurs once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

ORACLE_TESTS = ("tests/test_oracle.py",)


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "build_phase",
        "oracle.py",
        "generators += [PauliString(j % 4, low, high), PauliString(j % 4, high, low)]",
        "generators += [PauliString((j + 1) % 4, low, high), PauliString(j % 4, high, low)]",
        ORACLE_TESTS,
    ),
    Mutant(
        "build_masks",
        "oracle.py",
        "low, high = (1 << (j - 1)) - 1, (1 << j) - 1",
        "low, high = (1 << j) - 1, (1 << (j - 1)) - 1",
        ORACLE_TESTS,
    ),
    Mutant(
        "en_phase",
        "oracle.py",
        "generators.append(PauliString((k + 1) % 4,",
        "generators.append(PauliString((k + 3) % 4,",
        ORACLE_TESTS,
    ),
    Mutant(
        "plane_sigma_read",
        "oracle.py",
        "sigma = [1 if e % 4 == 1 else -1 for e in (c + 2 * bit, c)]",
        "sigma = [1 if e % 4 == 1 else -1 for e in (c, c + 2 * bit)]",
        ORACLE_TESTS,
    ),
    Mutant(
        "plane_off_slot_test",
        "oracle.py",
        "if plane.x != plane.z or plane.x & ~(1 << j) or c % 2 == 0:",
        "if plane.x != plane.z or c % 2 == 0:",
        ("tests/test_oracle.py::TestPlaneOffItsSlot",),
    ),
    Mutant(
        "rotor_off_slot_test",
        "oracle.py",
        "if (plane.x | plane.z) & ~(1 << j):",
        "if plane.z & ~(1 << j):",
        ORACLE_TESTS,
    ),
    Mutant(
        "clifford_expected_mask",
        "oracle.py",
        "wrong = (mask ^ ((1 << n) - 1 ^ (1 << i))) >> i << i",
        "wrong = (mask ^ ((1 << n - 1) - 1 ^ (1 << i))) >> i << i",
        ORACLE_TESTS,
    ),
    Mutant(
        "conjugation_mask",
        "oracle.py",
        "^ (3 << 2 * j)",
        "^ (1 << 2 * j)",
        ORACLE_TESTS,
    ),
    Mutant(
        "en_mask_bit",
        "oracle.py",
        "if mask >> n - 1 & 1)",
        "if mask >> n - 2 & 1)",
        ORACLE_TESTS,
    ),
    Mutant(
        "en_slot_read",
        "oracle.py",
        "(2 * (en.x >> s & 1) - 2, 0)",
        "(2 * (en.x >> s + 1 & 1) - 2, 0)",
        ORACLE_TESTS,
    ),
    Mutant(
        "lift_offset",
        "oracle.py",
        "return self.n if negative else 0",
        "return 0 if negative else self.n",
        ORACLE_TESTS,
    ),
    Mutant(
        "dp_minus_row_steps",
        "oracle.py",
        "((minus << high | minus >> span - high) + (plus << low | plus >> span - low)) & full,",
        "((minus << low | minus >> span - low) + (plus << high | plus >> span - high)) & full,",
        ORACLE_TESTS,
    ),
    Mutant(
        "dp_field_width",
        "oracle.py",
        "size = (rep.k + 7) // 8",
        "size = (rep.k + 6) // 8",
        ("tests/test_oracle.py::TestPackedRows::test_a_full_field_does_not_overflow",),
    ),
    Mutant(
        "fold_nu_sign",
        "oracle.py",
        "minus[-t % two_n] for t in twice",
        "minus[t % two_n] for t in twice",
        ORACLE_TESTS,
    ),
    Mutant(
        "fold_half",
        "oracle.py",
        "twice = [2 * r + structure.half for r in range(m.n)]",
        "twice = [2 * r for r in range(m.n)]",
        ORACLE_TESTS,
    ),
    Mutant(
        "zeta_partner_index",
        "zeta.py",
        "zeta[(n - r - half) % n]",
        "zeta[(n - r) % n]",
        ("tests/test_zeta.py",),
    ),
    Mutant(
        "zeta_head",
        "zeta.py",
        "_N_TERMS = 12",
        "_N_TERMS = 2",
        ("tests/test_zeta.py",),
    ),
    Mutant(
        "zeta_rising_factor",
        "zeta.py",
        "rising * (s + 2 * j - 3) * (s + 2 * j - 2)",
        "rising * (s + 2 * j - 3)",
        ("tests/test_zeta.py",),
    ),
    Mutant(
        "eta_tolerance",
        "verification.py",
        "_ETA_REL_TOL = 1e-13",
        "_ETA_REL_TOL = 1e-6",
        ("tests/test_cli.py::TestZetaChecks",),
    ),
    Mutant(
        "doubled_counts_sign",
        "combinatorics.py",
        "sign = -1 if (n // 2) % 2 else 1",
        "sign = 1",
        ("tests/test_combinatorics.py",),
    ),
    Mutant(
        "gauss_sum_s_over_e",
        "combinatorics.py",
        "coefficient = sign * mu_e * chi[e % f] * (s // e)",
        "coefficient = sign * mu_e * chi[e % f]",
        ("tests/test_combinatorics.py",),
    ),
    Mutant(
        "two_over_d_rule",
        "combinatorics.py",
        "(1 if d % 8 in (1, 7) else -1)",
        "(1 if d % 8 in (1, 3) else -1)",
        ("tests/test_combinatorics.py",),
    ),
    Mutant(
        "square_part_one",
        "combinatorics.py",
        "s *= p ** (a // 2)",
        "s *= 1",
        ("tests/test_combinatorics.py",),
    ),
    Mutant(
        "eta_weight",
        "invariants.py",
        "c * (m.n - 2 * r - half)",
        "c * (m.n - 2 * r)",
        ("tests/test_invariants.py",),
    ),
)


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _apply(src: Path, mutant: Mutant) -> None:
    path = src / "flateta" / mutant.path
    text = path.read_text()
    found = text.count(mutant.snippet)
    if found != 1:
        raise SystemExit(f"{mutant.name}: snippet occurs {found} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def _pytest(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code on ``tests``, with ``src`` on the path in place of the repository's."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        for mutant in MUTANTS:  # every snippet is checked before any test runs
            _apply(_copy_src(Path(tmp) / mutant.name), mutant)
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if _pytest(src, tests) != 0:
            raise SystemExit(f"the unmutated code fails {' '.join(tests)}")
        survivors = []
        for mutant in MUTANTS:
            start = time.perf_counter()
            code = _pytest(Path(tmp) / mutant.name / "src", mutant.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{mutant.name:<22} {verdict:<10} {time.perf_counter() - start:5.1f} s")
            if code != 1:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
