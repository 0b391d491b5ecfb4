"""Catalog entries for sweeps, with lossless JSON/CSV/text rendering.

Exact rationals are serialized as integer pairs in JSON and as "num/den"
strings in CSV; floats never appear in the exact fields, so integrality
verdicts survive a round trip.  A row is built from the eta result it
reports, and both rows of a k, with every check, come from that k's one
``exact_invariants`` record.  ``json_chunks`` writes the JSON
array one row at a time.  Only ``sweep`` imports this module, and with it
``csv`` and ``json``; only a sweep with the oracle imports the oracle.
The sweep cap ``MAX_SWEEP_K`` lives in ``core``, where the CLI
reads it for ``sweep --help``.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .core import MAX_SWEEP_K, ORACLE_MAX_K, SpinStructure, make_manifold
from .invariants import (
    EtaResult,
    exact_invariants,
    harmonic_dim,
    parity_difference_check,
    prime_integrality_check,
    threshold_row,
)


class CatalogEntry(NamedTuple):
    """One (k, structure) row of a sweep."""

    n: int
    k: int
    structure: str
    multiplicities: tuple[int, ...]
    eta: Fraction
    harmonic_dim: int
    checks: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "structure": self.structure,
            "multiplicities": list(self.multiplicities),
            "eta": {"numerator": self.eta.numerator, "denominator": self.eta.denominator},
            "harmonic_dim": self.harmonic_dim,
            "checks": dict(self.checks),
        }


def build_catalog_entry(
    result: EtaResult, harmonic_dim: int, shared_checks: dict[str, str]
) -> CatalogEntry:
    """One catalog row from its eta result, its harmonic dimension and the checks of its k."""
    m = result.manifold
    return CatalogEntry(
        n=m.n,
        k=m.k,
        structure=result.structure.value,
        multiplicities=result.table.counts,
        eta=result.value,
        harmonic_dim=harmonic_dim,
        checks={"prime_integrality": prime_integrality_check(result).value, **shared_checks},
    )


def sweep_entries(
    k_min: int, k_max: int, with_oracle: bool = False
) -> list[CatalogEntry]:
    """Catalog rows for k = k_min..k_max, both structures, deterministic order.

    Each k takes one ``exact_invariants`` record: both eta results and
    the plus harmonic dimension.  Its shared checks, and for k <=
    ``ORACLE_MAX_K`` the oracle agreement checks on that same record, run
    once, and both rows carry them.
    """
    if not 1 <= k_min <= k_max <= MAX_SWEEP_K:
        raise ValueError(f"need 1 <= k_min <= k_max <= {MAX_SWEEP_K}, got {k_min}..{k_max}")
    if with_oracle:
        from .verification import oracle_agreement_verdict
    entries = []
    for k in range(k_min, k_max + 1):
        m = make_manifold(k)
        exact = exact_invariants(m)
        h = exact.harmonic_plus
        shared = {
            "parity_difference": parity_difference_check(exact.plus, exact.minus).value,
            "positivity_threshold": (
                "consistent" if threshold_row(m, h).consistent else "inconsistent"
            ),
        }
        if with_oracle and k <= ORACLE_MAX_K:
            shared["oracle_agreement"] = oracle_agreement_verdict(exact)
        entries.append(build_catalog_entry(exact.plus, h, shared))
        entries.append(
            build_catalog_entry(exact.minus, harmonic_dim(m, SpinStructure.MINUS), shared)
        )
    return entries


def json_chunks(entries: Iterable[CatalogEntry]) -> Iterator[str]:
    """The text of ``json.dumps([e.to_dict() for e in entries], indent=2)``, one row at a time.

    A row is its dict's own indented dump, indented one level further;
    JSON escapes every newline inside a string, so each raw one is a line
    break.  One encoder serves every row: ``json.dumps`` would build one
    per call.
    """
    encode = json.JSONEncoder(indent=2).encode
    opener = "[\n  "
    for entry in entries:
        yield opener + encode(entry.to_dict()).replace("\n", "\n  ")
        opener = ",\n  "
    yield "[]" if opener == "[\n  " else "\n]"


def entries_to_csv(entries: list[CatalogEntry]) -> str:
    """CSV with A-columns padded to the largest n in the sweep."""
    max_n = max(e.n for e in entries) if entries else 0
    check_keys = ["prime_integrality", "parity_difference", "positivity_threshold"]
    if any("oracle_agreement" in e.checks for e in entries):
        check_keys.append("oracle_agreement")
    header = (
        ["n", "k", "structure", "eta", "harmonic_dim"]
        + [f"A{r}" for r in range(max_n)]
        + check_keys
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for e in entries:
        mult = [str(c) for c in e.multiplicities]
        mult += [""] * (max_n - len(mult))
        writer.writerow(
            [e.n, e.k, e.structure, f"{e.eta.numerator}/{e.eta.denominator}", e.harmonic_dim]
            + mult
            + [e.checks.get(key, "") for key in check_keys]
        )
    return buf.getvalue()


def entries_to_text(entries: list[CatalogEntry]) -> str:
    lines = [f"{'n':>3} {'k':>3} {'structure':<9} {'eta':>10} {'harmonic':>8}  checks"]
    for e in entries:
        checks = " ".join(f"{key}={val}" for key, val in e.checks.items())
        lines.append(
            f"{e.n:>3} {e.k:>3} {e.structure:<9} {str(e.eta):>10} "
            f"{e.harmonic_dim:>8}  {checks}"
        )
    return "\n".join(lines) + "\n"
