"""Answer checker for the benchmark, independent of the flateta package.

Nothing here imports flateta.  Every expected value is re-derived from the
definitions: a sign vector eps in {-1,+1}^k has weight mu = sum j*eps_j and
parity nu = prod eps_j; the positive-parity vectors with shifted half-weight
residue r = ((mu + delta*n)/2 + shift) mod n are counted twice to give A_r.
The counts come from a subset-sum dynamic program over (parity, residue), not
from a scan.  Four families of facts are checked:

* multiplicities sum to 2^k and equal the dynamic program's counts;
* at prime n = 3 (mod 4), n >= 7, eta_plus = -2 h(-n), and eta_minus is
  4 h(-n) when n = 3 (mod 8) or 0 when n = 7 (mod 8), with the class number
  h(-n) from Dirichlet's formula;
* ``verify`` fails exactly ``en_eigen_sign`` on even k, plus
  ``kernel_vs_formula_plus`` at k = 4;
* ``sweep --with-oracle`` rows read ``oracle_agreement=fail`` only at k = 4,
  and every sweep reads ``positivity_threshold=inconsistent`` only at k = 2.

:func:`check` takes a command line, its exit code and its standard output,
and returns a list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import lru_cache

STRUCTURES = ("plus", "minus")


class Mismatch(Exception):
    """An answer that disagrees with the expected value."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _k_of(n: int) -> int:
    return (n - 1) // 2


def _delta(k: int) -> int:
    return (k * (k + 1) // 2) % 2


def _shift(k: int, structure: str) -> int:
    return 0 if structure == "plus" else k


@lru_cache(maxsize=None)
def multiplicities(k: int, structure: str) -> tuple[int, ...]:
    """A_0..A_{n-1} by a subset-sum DP over (count of +1 slots mod 2, weight mod n).

    With w the sum of the slots that carry +1, mu = 2w - k(k+1)/2, so the
    shifted half-weight is w + (delta*n - k(k+1)/2)/2 + shift.  nu = +1 when
    the number of -1 slots is even, i.e. when the count of +1 slots has the
    parity of k.
    """
    n = 2 * k + 1
    ways = [[0] * n for _ in range(2)]
    ways[0][0] = 1
    for j in range(1, k + 1):
        nxt = [row[:] for row in ways]
        for parity in range(2):
            for w, c in enumerate(ways[parity]):
                if c:
                    nxt[1 - parity][(w + j) % n] += c
        ways = nxt
    offset = (_delta(k) * n - k * (k + 1) // 2) // 2 + _shift(k, structure)
    counts = [0] * n
    for w, c in enumerate(ways[k % 2]):
        counts[(w + offset) % n] += 2 * c
    return tuple(counts)


def eta_value(k: int, structure: str) -> Fraction:
    """Exact eta: the weighted residue sum for odd k, zero for even k."""
    if k % 2 == 0:
        return Fraction(0)
    n = 2 * k + 1
    counts = multiplicities(k, structure)
    if structure == "plus":
        return Fraction(sum(c * (n - 2 * r) for r, c in enumerate(counts) if r), n)
    return Fraction(sum(c * (n - 2 * r - 1) for r, c in enumerate(counts)), n)


def harmonic_value(k: int, structure: str) -> int:
    return multiplicities(k, "plus")[0] if structure == "plus" else 0


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def class_number(p: int) -> int:
    """h(-p) for a prime p = 3 (mod 4), p > 3: -(1/p) * sum of r*(r/p)."""
    total = 0
    for r in range(1, p):
        legendre = 1 if pow(r, (p - 1) // 2, p) == 1 else -1
        total += r * legendre
    h, rem = divmod(-total, p)
    _expect(rem == 0, f"class-number sum not divisible by {p}")
    return h


def class_number_eta(n: int, structure: str) -> int | None:
    """Eta predicted from h(-n), or None where the relation does not apply."""
    if not (n >= 7 and n % 4 == 3 and _is_prime(n)):
        return None
    h = class_number(n)
    if structure == "plus":
        return -2 * h
    return 4 * h if n % 8 == 3 else 0


def _check_invariants(n: int, structure: str, counts, eta: Fraction | None) -> None:
    k = _k_of(n)
    counts = tuple(int(c) for c in counts)
    _expect(sum(counts) == 2**k, f"n={n} {structure}: multiplicities sum to {sum(counts)}, not 2^{k}")
    _expect(
        counts == multiplicities(k, structure),
        f"n={n} {structure}: multiplicities {list(counts)} != subset-sum count",
    )
    if eta is None:
        return
    _expect(eta == eta_value(k, structure), f"n={n} {structure}: eta {eta} != {eta_value(k, structure)}")
    predicted = class_number_eta(n, structure)
    _expect(
        predicted is None or eta == predicted,
        f"n={n} {structure}: eta {eta} != class-number value {predicted}",
    )


def _fraction(text: str) -> Fraction:
    return Fraction(text.strip())


def _option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_eta(argv, out):
    n = int(_option(argv, "--dim"))
    structure = _option(argv, "--structure", "plus")
    fmt = _option(argv, "--format", "text")
    if fmt == "json":
        data = json.loads(out)
        got = (data["n"], data["k"], data["structure"])
        eta = Fraction(data["eta"]["numerator"], data["eta"]["denominator"])
        counts = data["multiplicities"]
    elif fmt == "csv":
        header, row = list(csv.reader(io.StringIO(out)))
        record = dict(zip(header, row))
        got = (int(record["n"]), int(record["k"]), record["structure"])
        eta = _fraction(record["eta"])
        counts = [int(record[f"A{r}"]) for r in range(n)]
        _expect(len(header) == len(row) == 5 + n, f"eta csv has {len(header)} columns")
    else:
        lines = out.splitlines()
        fields = dict(part.split("=") for part in lines[0].split())
        got = (int(fields["n"]), int(fields["k"]), fields["structure"])
        eta = _fraction(lines[1].split("=", 1)[1].split("(exact)")[0])
        counts = [int(c) for c in lines[4].split(":", 1)[1].split()]
    _expect(got == (n, _k_of(n), structure), f"eta header {got} for n={n} {structure}")
    _check_invariants(n, structure, counts, eta)


def _check_harmonic(argv, out):
    n = int(_option(argv, "--dim"))
    structure = _option(argv, "--structure", "plus")
    fmt = _option(argv, "--format", "text")
    if fmt == "json":
        data = json.loads(out)
        got = (data["n"], data["k"], data["structure"])
        h = data["harmonic_dim"]
    elif fmt == "csv":
        header, row = list(csv.reader(io.StringIO(out)))
        record = dict(zip(header, row))
        got = (int(record["n"]), int(record["k"]), record["structure"])
        h = int(record["harmonic_dim"])
    else:
        lines = out.splitlines()
        fields = dict(part.split("=") for part in lines[0].split())
        got = (int(fields["n"]), int(fields["k"]), fields["structure"])
        h = int(lines[1].split("=", 1)[1])
    _expect(got == (n, _k_of(n), structure), f"harmonic header {got} for n={n} {structure}")
    want = harmonic_value(_k_of(n), structure)
    _expect(h == want, f"n={n} {structure}: harmonic_dim {h} != {want}")


def _signs(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.strip().strip("()").split(","))


@lru_cache(maxsize=None)
def table_rows(k: int, structure: str) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """(eps, (mu + delta*n)/2 + shift, residue) for every eps with nu = +1, all-plus first."""
    n = 2 * k + 1
    offset = _delta(k) * n
    shift = _shift(k, structure)
    rows = []
    for bits in range(1 << k):
        eps = tuple(1 if (bits >> j) & 1 else -1 for j in range(k))
        if eps.count(-1) % 2 == 0:
            half = (sum(j * s for j, s in enumerate(eps, start=1)) + offset) // 2 + shift
            rows.append((eps, half, half % n))
    rows.sort(key=lambda row: tuple(-s for s in row[0]))
    counts = [0] * n
    for _, _, res in rows:
        counts[res] += 2
    _expect(tuple(counts) == multiplicities(k, structure), f"checker: table and DP disagree at k={k}")
    return tuple(rows)


def _check_table(argv, out):
    n = int(_option(argv, "--dim"))
    structure = _option(argv, "--structure", "plus")
    fmt = _option(argv, "--format", "text")
    k = _k_of(n)
    if fmt == "json":
        data = json.loads(out)
        _expect((data["n"], data["k"], data["structure"]) == (n, k, structure), "table json header")
        rows = [(tuple(r["epsilon"]), r["mu_half_shifted"], r["residue"]) for r in data["rows"]]
    elif fmt == "csv":
        records = list(csv.reader(io.StringIO(out)))
        _expect(records[0] == ["epsilon", "mu_half_shifted", "residue"], "table csv header")
        rows = [(_signs(e), int(h), int(r)) for e, h, r in records[1:]]
    else:
        lines = out.splitlines()
        _expect(lines[0] == f"n={n} k={k} structure={structure}", f"table header {lines[0]!r}")
        rows = []
        for line in lines[2:]:
            eps, half, res = line.split()
            rows.append((_signs(eps), int(half), int(res)))
    expected = table_rows(k, structure)
    _expect(len(rows) == len(expected), f"table n={n}: {len(rows)} rows, not 2^{k - 1}")
    for got, want in zip(rows, expected):
        _expect(got == want, f"table n={n} {structure}: row {got} != {want}")


def _verify_lines(out: str) -> tuple[int, dict[str, str], str]:
    lines = out.splitlines()
    fields = dict(part.split("=") for part in lines[0].split()[1:])
    statuses = {}
    for line in lines[1:-1]:
        name, status = line.split()[:2]
        statuses[name] = status.lower()
    return int(fields["k"]), statuses, lines[-1]


def expected_verify_failures(k: int) -> set[str]:
    """The by-design failures: the stated e_n sign on even k, the kernel at k = 4."""
    failures = {"en_eigen_sign"} if k % 2 == 0 else set()
    if k == 4:
        failures.add("kernel_vs_formula_plus")
    return failures


_ODD_K_PASSES = (
    "spectrum_vs_table_plus",
    "spectrum_vs_table_minus",
    "kernel_vs_formula_plus",
    "eta_numeric_plus",
    "eta_numeric_minus",
)


def _check_verify(argv, out, code):
    n = int(_option(argv, "--dim"))
    k, statuses, summary = _verify_lines(out)
    _expect(k == _k_of(n), f"verify n={n} reports k={k}")
    _expect(set(statuses.values()) <= {"pass", "fail", "skip"}, f"verify n={n}: unknown status")
    failed = {name for name, status in statuses.items() if status == "fail"}
    expected = expected_verify_failures(k)
    _expect(failed == expected, f"verify n={n}: failed {sorted(failed)}, expected {sorted(expected)}")
    if k % 2:
        for name in _ODD_K_PASSES:
            _expect(statuses.get(name) == "pass", f"verify n={n}: {name} is {statuses.get(name)}")
    _expect(code == (1 if expected else 0), f"verify n={n}: exit code {code}")
    verdict = "FAIL" if expected else "PASS"
    _expect(
        summary.startswith(f"result: {verdict} ({len(statuses)} checks, {len(failed)} failed"),
        f"verify n={n}: summary {summary!r}",
    )


def _check_sweep(argv, out):
    kmin = int(_option(argv, "--kmin", "1"))
    kmax = int(_option(argv, "--kmax"))
    with_oracle = "--with-oracle" in argv
    _expect(_option(argv, "--format", "json") == "json", "sweep checker reads json only")
    rows = json.loads(out)
    expected_keys = [(k, s) for k in range(kmin, kmax + 1) for s in STRUCTURES]
    _expect([(r["k"], r["structure"]) for r in rows] == expected_keys, "sweep rows out of order")
    etas = {}
    for row in rows:
        k, structure = row["k"], row["structure"]
        n = 2 * k + 1
        _expect(row["n"] == n, f"sweep k={k}: n={row['n']}")
        eta = Fraction(row["eta"]["numerator"], row["eta"]["denominator"])
        _check_invariants(n, structure, row["multiplicities"], eta)
        want_h = harmonic_value(k, structure)
        _expect(row["harmonic_dim"] == want_h, f"sweep k={k} {structure}: harmonic {row['harmonic_dim']}")
        etas[k, structure] = eta
    for row in rows:
        k, n = row["k"], row["n"]
        diff = etas[k, "plus"] - etas[k, "minus"]
        expected = {
            "prime_integrality": (
                ("integral" if etas[k, row["structure"]].denominator == 1 else "non_integral")
                if _is_prime(n) and n > 3 and (n + 1) % 4 == 0
                else "not_applicable"
            ),
            "parity_difference": (
                "even" if diff.denominator == 1 and diff.numerator % 2 == 0 else "violation"
            ),
            "positivity_threshold": "inconsistent" if k == 2 else "consistent",
        }
        if with_oracle and k <= 12:
            expected["oracle_agreement"] = "fail" if k == 4 else "pass"
        _expect(row["checks"] == expected, f"sweep k={k} {row['structure']}: checks {row['checks']}")


_CHECKERS = {"eta": _check_eta, "harmonic": _check_harmonic, "table": _check_table, "sweep": _check_sweep}


def check(argv: list[str], code: int, out: str) -> list[str]:
    """Problems with one CLI answer; an empty list means it is right."""
    command = argv[0]
    try:
        if command == "verify":
            _check_verify(argv, out, code)
        else:
            _expect(code == 0, f"{command}: exit code {code}")
            _CHECKERS[command](argv, out)
    except Mismatch as exc:
        return [str(exc)]
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"{' '.join(argv)}: unreadable output ({type(exc).__name__}: {exc})"]
    return []
