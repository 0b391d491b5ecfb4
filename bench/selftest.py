#!/usr/bin/env python3
"""Self-test of the benchmark's answer checker.

Runs a small op list through the same pass loop the benchmark uses, once
as the CLI answers it and once per corruption of one kind of answer.  It
passes when the clean pass has fail_ratio 0 and every corruption raises it.
Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import checker  # noqa: E402
import client  # noqa: E402

OPS = (
    ("eta", "--dim", "7", "--format", "text"),
    ("eta", "--dim", "23", "--structure", "minus", "--format", "json"),
    ("eta", "--dim", "11", "--format", "csv"),
    ("harmonic", "--dim", "9", "--format", "json"),
    ("table", "--dim", "9", "--structure", "minus", "--format", "json"),
    ("table", "--dim", "7", "--format", "text"),
    ("verify", "--dim", "7"),
    ("verify", "--dim", "9"),
    ("sweep", "--kmin", "1", "--kmax", "5", "--with-oracle"),
)

# Known class numbers h(-p), p = 3 (mod 4).
CLASS_NUMBERS = {7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5, 71: 7, 167: 11}


def _json_edit(out: str, edit) -> str:
    data = json.loads(out)
    edit(data)
    return json.dumps(data, indent=2)


def _swap_first_rows(out: str) -> str:
    lines = out.splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    return "\n".join(lines) + "\n"


def _bump_residue(data):
    data["rows"][0]["residue"] = (data["rows"][0]["residue"] + 1) % data["n"]


def _rotate_multiplicities(data):
    data["multiplicities"] = data["multiplicities"][1:] + data["multiplicities"][:1]


def _flip_row_check(data, k, check, value):
    for row in data:
        if row["k"] == k:
            row["checks"][check] = value


# name -> (command, format or None, rewrite of that answer)
CORRUPTIONS = {
    "eta value": ("eta", "text", lambda out: out.replace("eta = -2 (exact)", "eta = -1 (exact)")),
    "multiplicities": ("eta", "json", lambda out: _json_edit(out, _rotate_multiplicities)),
    "eta csv column": ("eta", "csv", lambda out: re.sub(r",-2/1,", ",2/1,", out)),
    "harmonic dim": ("harmonic", "json", lambda out: out.replace('"harmonic_dim": 4', '"harmonic_dim": 2')),
    "table residue": ("table", "json", lambda out: _json_edit(out, _bump_residue)),
    "table order": ("table", "text", _swap_first_rows),
    "verify status": ("verify", None, lambda out: re.sub(r"^(en_eigen_sign\s+)FAIL", r"\1PASS", out, flags=re.M)),
    "oracle agreement": ("sweep", None, lambda out: _json_edit(out, lambda d: _flip_row_check(d, 4, "oracle_agreement", "pass"))),
    "positivity": ("sweep", None, lambda out: _json_edit(out, lambda d: _flip_row_check(d, 3, "positivity_threshold", "inconsistent"))),
}


def _corrupter(command, fmt, rewrite):
    def corrupt(argv, out):
        op_format = argv[argv.index("--format") + 1] if "--format" in argv else None
        return rewrite(out) if argv[0] == command and op_format == fmt else out

    return corrupt


def main() -> int:
    ok = True
    for p, h in CLASS_NUMBERS.items():
        if checker.class_number(p) != h:
            print(f"FAIL class number h(-{p}) = {checker.class_number(p)}, expected {h}")
            ok = False

    _, _, problems = client.run_pass(OPS, {})
    print(f"{'clean answers':<18} fail_ratio {len(problems) / len(OPS):.3f}")
    for problem in problems:
        print(f"  unexpected: {problem}")
    ok &= not problems

    for name, (command, fmt, rewrite) in CORRUPTIONS.items():
        _, _, problems = client.run_pass(OPS, {}, corrupt=_corrupter(command, fmt, rewrite))
        caught = len(problems) > 0
        ok &= caught
        print(f"{name:<18} fail_ratio {len(problems) / len(OPS):.3f}  {'caught' if caught else 'MISSED'}")
        for problem in problems:
            print(f"  {problem[:160]}")
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
