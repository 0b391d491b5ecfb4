"""The benchmark's workloads: fixed CLI op lists, built from a seed.

Each op is the argv of one ``flateta`` command.  Why each workload exists:

* ``catalog_sweep`` is one large catalog sweep.  Residue-histogram scans are
  nearly all of its time (13 per k, 2^21 patterns at the top) and the oracle
  never runs, so histogram algorithms show here and oracle changes must not.
* ``oracle_verify`` runs the dense spinor oracle: ``verify`` on k = 4..8 and
  a small ``sweep --with-oracle``.  Dense 2^k matmuls dominate and the
  histograms are negligible.  Even k exercises the by-design failures; the
  sweep exercises catalog -> verification, which runs the suite per row.
  Dimension 19 is left out because alone it is slow and noisy.
* ``query_mix`` is a seeded stream of small ``eta``/``harmonic``/``table``
  queries over both structures and all formats, where per-call overhead
  (argument parsing, formatting, thousands of tiny histograms) dominates.
  Queries repeat k; the share of repeats is recorded because any caching
  claim depends on it.  It alone reports ``query_p50_ms`` and
  ``query_p99_ms``.  It is not listed in ``BENCHMARK.json``: on a shared
  host its run-to-run spread, up to 0.28 for wall time and 0.40 for p99,
  is wider than the largest bound the benchmark may set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

STRUCTURES = ("plus", "minus")
FORMATS = ("text", "json", "csv")

QUERY_COUNT = 1000
QUERY_SHARES = {"eta": 0.5, "harmonic": 0.3, "table": 0.2}
QUERY_DIMS = {
    "eta": tuple(range(3, 34, 2)),
    "harmonic": tuple(range(3, 34, 2)),
    "table": tuple(range(3, 24, 2)),  # a table prints 2^(k-1) rows
}


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[tuple[str, ...], ...]
    warmup: tuple[str, ...]
    cap_s: float  # the child is killed this long after its measured time is up
    info: dict
    query_latency: bool = False  # report per-query latency percentiles


def catalog_sweep(seed: int) -> Workload:
    op = ("sweep", "--kmin", "1", "--kmax", "21", "--format", "json")
    return Workload(
        name="catalog_sweep",
        ops=(op,),
        warmup=("sweep", "--kmin", "1", "--kmax", "12", "--format", "json"),
        cap_s=90.0,
        info={"seed_effect": "none; the op list is fixed"},
    )


def oracle_verify(seed: int) -> Workload:
    ops = [("verify", "--dim", str(d)) for d in range(9, 18, 2)]
    ops.append(("sweep", "--kmin", "1", "--kmax", "8", "--with-oracle"))
    random.Random(seed).shuffle(ops)
    return Workload(
        name="oracle_verify",
        ops=tuple(ops),
        warmup=("verify", "--dim", "7"),
        cap_s=90.0,
        info={"seed_effect": "op order"},
    )


def query_mix(seed: int) -> Workload:
    """Seeded query stream with exact command shares.

    Each command draws (dim, structure, format) from a shuffled deck of all
    combinations, dealt again when exhausted, so every seed has nearly the
    same multiset of queries and differs in which ones and in what order.
    """
    rng = random.Random(seed)
    ops = []
    for command, share in QUERY_SHARES.items():
        deck = [(d, s, f) for d in QUERY_DIMS[command] for s in STRUCTURES for f in FORMATS]
        wanted = round(share * QUERY_COUNT)
        picks = []
        while len(picks) < wanted:
            rng.shuffle(deck)
            picks.extend(deck[: wanted - len(picks)])
        ops += [
            (command, "--dim", str(d), "--structure", s, "--format", f) for d, s, f in picks
        ]
    rng.shuffle(ops)

    seen = set()
    repeats = 0
    for op in ops:
        repeats += op[2] in seen
        seen.add(op[2])
    info = {
        "query_count": len(ops),
        "command_shares": {c: sum(op[0] == c for op in ops) / len(ops) for c in QUERY_SHARES},
        "dims": sorted(int(d) for d in seen),
        "repeated_k_share": repeats / len(ops),
    }
    return Workload(
        name="query_mix",
        ops=tuple(ops),
        warmup=("eta", "--dim", "7"),
        cap_s=60.0,
        info=info,
        query_latency=True,
    )


WORKLOADS = {w.__name__: w for w in (catalog_sweep, oracle_verify, query_mix)}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
