"""Command-line front end.

Subcommands: eta, table, harmonic, verify, sweep.  Exit codes: 0 success,
1 verification mismatch, 2 invalid arguments or unwritable output.  Bad
input raises ``_UsageError``; ``main`` alone turns it, or a closed
standard output, into ``error: <message>`` on stderr and exit 2.
``_manifold`` checks ``--dim`` against each command's cap, and ``_emit``
prints ``eta`` and ``harmonic`` in the one format asked for.  A command
imports only what it prints with: ``eta``, ``harmonic`` and ``table`` run
on the exact layer, and load ``json`` only for ``--format json``; only
``sweep`` imports the catalog (with ``csv`` and ``json``); only ``verify``
and ``sweep --with-oracle`` import the oracle.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from .combinatorics import enumerate_dplus, half_mu, residue_shift
from .core import MAX_SWEEP_K, ORACLE_MAX_K, SpinStructure, manifold_for_dim
from .invariants import eta, harmonic_dim

_FORMATS = ("text", "json", "csv")

# Input caps.  ``table`` prints 2^(k-1) rows.  The table behind ``eta`` and
# ``harmonic`` is a closed form of about n + tau(n)^2 integer operations;
# their cap is the CLI contract, below dim 28,600, where a count passes the
# 4,300 digits that CPython's default ``int_max_str_digits`` lets
# ``str(int)`` write.  ``verify`` reads each plane of the Pauli strings in
# O(1), reads commutation from one n-bit mask per generator (n^2 ANDs and
# popcounts), and counts one period of n eigenvalue classes, the whole
# spectrum, in O(k n); its cap is ``ORACLE_MAX_K``.
MAX_TABLE_DIM = 33
MAX_DIM = 4001


class _UsageError(Exception):
    """Invalid input or unwritable output; ``main`` reports it and exits 2."""


def _manifold(dim: int, cap: int | None = None):
    """The manifold of dimension ``dim``; rejects an even dim, one below 3 or one over ``cap``."""
    if dim < 3 or dim % 2 == 0:
        raise _UsageError(f"--dim must be odd and >= 3, got {dim}")
    if cap is not None and dim > cap:
        raise _UsageError(f"--dim must be <= {cap}, got {dim}")
    return manifold_for_dim(dim)


def _emit(args, m, as_json, as_csv, as_text) -> int:
    """Print one answer after its n, k, structure head, building only the asked format.

    ``as_json`` gives the fields, ``as_csv`` the column names and cells, and
    ``as_text`` the lines that follow the head.
    """
    if args.format == "json":
        import json

        print(json.dumps({"n": m.n, "k": m.k, "structure": args.structure, **as_json()}, indent=2))
    elif args.format == "csv":
        names, cells = as_csv()
        print(",".join(["n", "k", "structure", *names]))
        print(",".join([str(m.n), str(m.k), args.structure, *cells]))
    else:
        print(f"n={m.n} k={m.k} structure={args.structure}")
        print("\n".join(as_text()))
    return 0


def _cmd_eta(args) -> int:
    m = _manifold(args.dim, MAX_DIM)
    result = eta(m, SpinStructure(args.structure))
    value, counts = result.value, result.table.counts
    branch = "odd-k closed form" if m.k % 2 else "even-k vanishing"
    tag = branch.replace(" ", "_").replace("-", "_")

    def as_text() -> list[str]:
        width = max(len(str(c)) for c in (*counts, m.n - 1))
        return [
            f"eta = {value} (exact), {float(value):.6f} (decimal)",
            f"branch: {branch}",
            "r:   " + " ".join(f"{r:>{width}}" for r in range(m.n)),
            "A_r: " + " ".join(f"{c:>{width}}" for c in counts),
        ]

    return _emit(
        args,
        m,
        as_json=lambda: {
            "branch": tag,
            "eta": {"numerator": value.numerator, "denominator": value.denominator},
            "multiplicities": list(counts),
        },
        as_csv=lambda: (
            ["branch", "eta", *(f"A{r}" for r in range(m.n))],
            [tag, f"{value.numerator}/{value.denominator}", *map(str, counts)],
        ),
        as_text=as_text,
    )


def _cmd_harmonic(args) -> int:
    m = _manifold(args.dim, MAX_DIM)
    h = harmonic_dim(m, SpinStructure(args.structure))
    return _emit(
        args,
        m,
        as_json=lambda: {"harmonic_dim": h},
        as_csv=lambda: (["harmonic_dim"], [str(h)]),
        as_text=lambda: [f"harmonic_dim = {h}"],
    )


def _cmd_table(args) -> int:
    m = _manifold(args.dim, MAX_TABLE_DIM)
    shift = residue_shift(m, SpinStructure(args.structure))
    # positive-parity sign vectors in descending lexicographic sign order,
    # all-plus first: descending order of the bits read entry 1 first
    vectors = sorted(
        enumerate_dplus(m.k), key=lambda eps: f"{eps.bits:0{m.k}b}"[::-1], reverse=True
    )
    mids = ((eps, half_mu(eps, m) + shift) for eps in vectors)
    rows = [(eps, mid, mid % m.n) for eps, mid in mids]
    if args.format == "json":
        import json

        # written row by row, in the bytes json.dumps(payload, indent=2)
        # gives for integer fields; k >= 1, so there is at least one row
        head = json.dumps({"n": m.n, "k": m.k, "structure": args.structure}, indent=2)
        print(head[:-2] + ',\n  "rows": [')
        separator = ""
        for eps, mid, r in rows:
            signs = ",\n        ".join(map(str, eps.signs))
            print(
                f'{separator}    {{\n      "epsilon": [\n        {signs}\n      ],\n'
                f'      "mu_half_shifted": {mid},\n      "residue": {r}\n    }}',
                end="",
            )
            separator = ",\n"
        print("\n  ]\n}")
    elif args.format == "csv":
        print("epsilon,mu_half_shifted,residue")
        for eps, mid, r in rows:
            print(f'"{eps}",{mid},{r}')
    else:
        print(f"n={m.n} k={m.k} structure={args.structure}")
        cells = [("epsilon", "mu/2+shift", "r"), *((str(eps), mid, r) for eps, mid, r in rows)]
        widths = [max(len(str(v)) for v in column) for column in zip(*cells)]
        for label, mid, r in cells:
            print(f"{label:<{widths[0]}}  {mid:>{widths[1]}}  {r:>{widths[2]}}")
    return 0


def _cmd_verify(args) -> int:
    m = _manifold(args.dim)
    if m.k > ORACLE_MAX_K:
        raise _UsageError(
            f"oracle cap: k = {m.k} exceeds {ORACLE_MAX_K} (dim <= {2 * ORACLE_MAX_K + 1})"
        )
    from .verification import SKIP, run_verification

    report = run_verification(args.dim)
    print(f"verify n={report.n} k={report.k}")
    name_width = max(len(r.name) for r in report.results)
    for r in report.results:
        print(f"{r.name:<{name_width}}  {r.status.upper():<4}  {r.detail}")
    failed = len(report.failures)
    skipped = sum(1 for r in report.results if r.status == SKIP)
    print(
        f"result: {'PASS' if report.passed else 'FAIL'} "
        f"({len(report.results)} checks, {failed} failed, {skipped} skipped)"
    )
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    from .catalog import entries_to_csv, entries_to_text, json_chunks, sweep_entries

    try:
        entries = sweep_entries(args.kmin, args.kmax, with_oracle=args.with_oracle)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.format == "json":
        # written row by row, never held as one string
        chunks = itertools.chain(json_chunks(entries), "\n")
    else:
        render = {"csv": entries_to_csv, "text": entries_to_text}
        chunks = (render[args.format](entries),)
    if args.out is None:
        sys.stdout.writelines(chunks)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise _UsageError(f"cannot write {args.out}: {exc}") from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flateta",
        description=(
            "Exact eta invariants and harmonic spinors for odd-dimensional "
            "flat manifolds with cyclic holonomy of order equal to the dimension."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary, run in (
        ("eta", "exact eta invariant and multiplicity table", _cmd_eta),
        ("table", "sign-vector residue table", _cmd_table),
        ("harmonic", "dimension of the space of harmonic spinors", _cmd_harmonic),
    ):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--dim", type=int, required=True, help="odd dimension n >= 3")
        p.add_argument(
            "--structure",
            choices=("plus", "minus"),
            default="plus",
            help="spin structure (default: plus)",
        )
        p.add_argument("--format", choices=_FORMATS, default="text")

    p_verify = sub.add_parser("verify", help="run the oracle check suite for one dimension")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--dim", type=int, required=True, help="odd dimension n >= 3")

    p_sweep = sub.add_parser("sweep", help="catalog of invariants over a range of k")
    p_sweep.set_defaults(run=_cmd_sweep)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building one takes about a millisecond."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        message = str(exc)
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so the
        # interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        message = "standard output closed"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
