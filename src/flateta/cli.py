"""Command-line front end.

Subcommands: eta, table, harmonic, verify, sweep.  Exit codes: 0 success,
1 verification mismatch, 2 invalid arguments or unwritable output.
Only ``verify`` and ``sweep --with-oracle`` import the oracle and numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import (
    MAX_SWEEP_K,
    entries_to_csv,
    entries_to_json,
    entries_to_text,
    rational_str,
    sweep_entries,
)
from .combinatorics import enumerate_dplus, half_mu, residue, residue_shift
from .core import ORACLE_MAX_K, SpinStructure, manifold_for_dim
from .invariants import eta, harmonic_dim

_FORMATS = ("text", "json", "csv")

# Input caps.  ``table`` prints 2^(k-1) rows.  The residue count behind
# ``eta`` and ``harmonic`` takes k steps over 2n counters of up to k bits,
# so its cost grows about as k^3.  ``verify`` measures each of the 2^k basis
# vectors slot by slot against one phase, in O(k 2^k) per relation; the
# window only sets how many eigenvalues are listed and compared.  Up to
# n = 25, distinct phases lie at least 2*sin(pi/50) ~ 0.126 apart, so a
# ``--tol`` up to the cap never merges two.
MAX_TABLE_DIM = 33
MAX_DIM = 4001
MAX_WINDOW = 1000
MAX_TOL = 1e-3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flateta",
        description=(
            "Exact eta invariants and harmonic spinors for odd-dimensional "
            "flat manifolds with cyclic holonomy of order equal to the dimension."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, structure: bool = True) -> None:
        p.add_argument("--dim", type=int, required=True, help="odd dimension n >= 3")
        if structure:
            p.add_argument(
                "--structure",
                choices=("plus", "minus"),
                default="plus",
                help="spin structure (default: plus)",
            )
        p.add_argument("--format", choices=_FORMATS, default="text")

    p_eta = sub.add_parser("eta", help="exact eta invariant and multiplicity table")
    add_common(p_eta)

    p_table = sub.add_parser("table", help="sign-vector residue table")
    add_common(p_table)

    p_harm = sub.add_parser("harmonic", help="dimension of the space of harmonic spinors")
    add_common(p_harm)

    p_verify = sub.add_parser("verify", help="run the oracle check suite for one dimension")
    p_verify.add_argument("--dim", type=int, required=True, help="odd dimension n >= 3")
    p_verify.add_argument("--window", type=int, default=None, help="Fourier window (default 3n)")
    p_verify.add_argument("--tol", type=float, default=1e-9, help="phase tolerance")

    p_sweep = sub.add_parser("sweep", help="catalog of invariants over a range of k")
    p_sweep.add_argument("--kmin", type=int, default=1)
    p_sweep.add_argument("--kmax", type=int, required=True, help=f"largest k (<= {MAX_SWEEP_K})")
    p_sweep.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=_FORMATS, default="json")
    p_sweep.add_argument(
        "--with-oracle",
        action="store_true",
        help=f"include oracle agreement verdicts (k <= {ORACLE_MAX_K} only)",
    )
    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _manifold_or_none(dim: int):
    try:
        return manifold_for_dim(dim)
    except ValueError:
        return None


def _cmd_eta(args) -> int:
    m = _manifold_or_none(args.dim)
    if m is None:
        return _fail(f"--dim must be odd and >= 3, got {args.dim}")
    if m.n > MAX_DIM:
        return _fail(f"--dim must be <= {MAX_DIM}, got {args.dim}")
    structure = SpinStructure(args.structure)
    result = eta(m, structure)
    branch = "odd-k closed form" if m.k % 2 else "even-k vanishing"
    if args.format == "json":
        payload = {
            "n": m.n,
            "k": m.k,
            "structure": structure.value,
            "branch": branch.replace(" ", "_").replace("-", "_"),
            "eta": {
                "numerator": result.value.numerator,
                "denominator": result.value.denominator,
            },
            "multiplicities": list(result.table.counts),
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        header = ["n", "k", "structure", "branch", "eta"] + [f"A{r}" for r in range(m.n)]
        row = [
            str(m.n),
            str(m.k),
            structure.value,
            branch.replace(" ", "_").replace("-", "_"),
            f"{result.value.numerator}/{result.value.denominator}",
        ] + [str(c) for c in result.table.counts]
        print(",".join(header))
        print(",".join(row))
    else:
        print(f"n={m.n} k={m.k} structure={structure.value}")
        print(f"eta = {rational_str(result.value)} (exact), {float(result.value):.6f} (decimal)")
        print(f"branch: {branch}")
        width = max(len(str(c)) for c in result.table.counts)
        width = max(width, len(str(m.n - 1)))
        print("r:   " + " ".join(f"{r:>{width}}" for r in range(m.n)))
        print("A_r: " + " ".join(f"{c:>{width}}" for c in result.table.counts))
    return 0


def _table_rows(m, structure):
    shift = residue_shift(m, structure)
    rows = []
    for eps in enumerate_dplus(m.k):
        rows.append(
            {
                "epsilon": eps,
                "mu_half_shifted": half_mu(eps, m) + shift,
                "residue": residue(eps, m, structure),
            }
        )
    # present in descending lexicographic sign order, all-plus first
    rows.sort(key=lambda row: tuple(-s for s in row["epsilon"].signs))
    return rows


def _cmd_table(args) -> int:
    m = _manifold_or_none(args.dim)
    if m is None:
        return _fail(f"--dim must be odd and >= 3, got {args.dim}")
    if m.n > MAX_TABLE_DIM:
        return _fail(f"--dim must be <= {MAX_TABLE_DIM}, got {args.dim}")
    structure = SpinStructure(args.structure)
    rows = _table_rows(m, structure)
    if args.format == "json":
        payload = {
            "n": m.n,
            "k": m.k,
            "structure": structure.value,
            "rows": [
                {
                    "epsilon": list(row["epsilon"].signs),
                    "mu_half_shifted": row["mu_half_shifted"],
                    "residue": row["residue"],
                }
                for row in rows
            ],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("epsilon,mu_half_shifted,residue")
        for row in rows:
            print(f"\"{row['epsilon']}\",{row['mu_half_shifted']},{row['residue']}")
    else:
        print(f"n={m.n} k={m.k} structure={structure.value}")
        eps_width = max(len("epsilon"), max(len(str(r["epsilon"])) for r in rows))
        mid_width = max(len("mu/2+shift"), max(len(str(r["mu_half_shifted"])) for r in rows))
        r_width = max(len("r"), max(len(str(r["residue"])) for r in rows))
        print(f"{'epsilon':<{eps_width}}  {'mu/2+shift':>{mid_width}}  {'r':>{r_width}}")
        for row in rows:
            print(
                f"{str(row['epsilon']):<{eps_width}}  "
                f"{row['mu_half_shifted']:>{mid_width}}  "
                f"{row['residue']:>{r_width}}"
            )
    return 0


def _cmd_harmonic(args) -> int:
    m = _manifold_or_none(args.dim)
    if m is None:
        return _fail(f"--dim must be odd and >= 3, got {args.dim}")
    if m.n > MAX_DIM:
        return _fail(f"--dim must be <= {MAX_DIM}, got {args.dim}")
    structure = SpinStructure(args.structure)
    h = harmonic_dim(m, structure)
    if args.format == "json":
        print(
            json.dumps(
                {"n": m.n, "k": m.k, "structure": structure.value, "harmonic_dim": h},
                indent=2,
            )
        )
    elif args.format == "csv":
        print("n,k,structure,harmonic_dim")
        print(f"{m.n},{m.k},{structure.value},{h}")
    else:
        print(f"n={m.n} k={m.k} structure={structure.value}")
        print(f"harmonic_dim = {h}")
    return 0


def _cmd_verify(args) -> int:
    from .verification import run_verification

    m = _manifold_or_none(args.dim)
    if m is None:
        return _fail(f"--dim must be odd and >= 3, got {args.dim}")
    if m.k > ORACLE_MAX_K:
        return _fail(
            f"oracle cap: k = {m.k} exceeds {ORACLE_MAX_K} (dim <= {2 * ORACLE_MAX_K + 1})"
        )
    if args.window is not None and args.window < m.n:
        return _fail(f"--window must be at least n = {m.n}")
    if args.window is not None and args.window > MAX_WINDOW:
        return _fail(f"--window must be <= {MAX_WINDOW}, got {args.window}")
    if not 0 < args.tol <= MAX_TOL:
        return _fail(f"--tol must be in (0, 1e-3], got {args.tol}")
    report = run_verification(args.dim, window=args.window, tol=args.tol)
    print(f"verify n={report.n} k={report.k} window={report.window} tol={report.tol:g}")
    name_width = max(len(r.name) for r in report.results)
    for r in report.results:
        print(f"{r.name:<{name_width}}  {r.status.upper():<4}  {r.detail}")
    failed = len(report.failures)
    skipped = sum(1 for r in report.results if r.status == "skip")
    print(
        f"result: {'PASS' if report.passed else 'FAIL'} "
        f"({len(report.results)} checks, {failed} failed, {skipped} skipped)"
    )
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    try:
        entries = sweep_entries(args.kmin, args.kmax, with_oracle=args.with_oracle)
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "json":
        rendered = entries_to_json(entries) + "\n"
    elif args.format == "csv":
        rendered = entries_to_csv(entries)
    else:
        rendered = entries_to_text(entries)
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            return _fail(f"cannot write {args.out}: {exc}")
    return 0


_HANDLERS = {
    "eta": _cmd_eta,
    "table": _cmd_table,
    "harmonic": _cmd_harmonic,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
