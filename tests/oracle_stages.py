"""In-process time of each stage of ``verify``, with the oracle cap lifted.

    python tests/oracle_stages.py [k ...]        # default: 12 25 100 500

For each k it prints the best time, in ms, of each stage that
``verification.run_verification`` runs: ``build_rep``, the plane reads
(``oracle._plane_steps``), ``representation_defects``,
``lift_eigenphases``, the fold and kernel counts of both lifts, and
``eta_numeric`` of both structures at s = 0.  The zeta route applies to
odd k only, so at an even k ``eta_numeric`` is timed at k + 1 instead.
Each stage repeats until it has run for about 0.2 s, at least 3 times.

The cap is lifted by rebinding ``oracle.ORACLE_MAX_K`` in this process
alone; the CLI's cap is unchanged.  The file name does not match
``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flateta import oracle  # noqa: E402
from flateta.core import SpinStructure, make_manifold  # noqa: E402
from flateta.invariants import exact_invariants  # noqa: E402
from flateta.zeta import eta_numeric  # noqa: E402

DEFAULT_KS = (12, 25, 100, 500)


def _best_ms(stage) -> float:
    best, spent, runs = float("inf"), 0.0, 0
    while runs < 3 or spent < 0.2:
        start = time.perf_counter()
        stage()
        elapsed = time.perf_counter() - start
        best, spent, runs = min(best, elapsed), spent + elapsed, runs + 1
    return best * 1e3


def stage_times(k: int) -> dict[str, float]:
    """Best in-process time in ms of each ``verify`` stage at k."""
    rep = oracle.build_rep(k)
    m = make_manifold(k)
    phases = oracle.lift_eigenphases(rep)
    zeta_k = k if k % 2 else k + 1
    exact = exact_invariants(make_manifold(zeta_k))

    def fold_and_kernel():
        for structure in SpinStructure:
            oracle.folded_spectrum(phases[structure], m, structure)
            oracle.kernel_dim_oracle(phases[structure])

    def zeta_route():
        for result in (exact.plus, exact.minus):
            eta_numeric(result, 0.0)

    stages = {
        "build": lambda: oracle.build_rep(k),
        "plane steps": lambda: oracle._plane_steps(rep.planes(), rep.rotations),
        "representation_defects": lambda: oracle.representation_defects(rep),
        "lift_eigenphases": lambda: oracle.lift_eigenphases(rep),
        "fold/kernel": fold_and_kernel,
        f"eta_numeric (k={zeta_k})": zeta_route,
    }
    return {name: _best_ms(stage) for name, stage in stages.items()}


def main(argv: list[str]) -> int:
    ks = [int(a) for a in argv] or list(DEFAULT_KS)
    oracle.ORACLE_MAX_K = max(ks)
    print(f"python {sys.version.split()[0]}; best in-process time per stage, ms")
    for k in ks:
        times = stage_times(k)
        print(f"k = {k} (n = {2 * k + 1})")
        for name, ms in times.items():
            print(f"  {name:<22} {ms:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
