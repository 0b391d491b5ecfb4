"""Command-line surface: outputs, formats, exit codes, round trips."""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import flateta
from flateta import cli, combinatorics, oracle, verification
from flateta.catalog import CatalogEntry, entries_to_csv, json_chunks, sweep_entries
from flateta.cli import build_parser, main
from flateta.core import ORACLE_MAX_K, SpinStructure, make_manifold
from flateta.invariants import exact_invariants, harmonic_dim

GOLDEN = Path(__file__).parent / "data" / "table_n7_plus.txt"
# A child interpreter does not see pytest's ``pythonpath``; point it at the package.
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(flateta.__file__).parents[1])}


def entry_from_dict(data: dict) -> CatalogEntry:
    """The inverse of ``CatalogEntry.to_dict``: exact eta from its integer pair."""
    return CatalogEntry(
        n=data["n"],
        k=data["k"],
        structure=data["structure"],
        multiplicities=tuple(data["multiplicities"]),
        eta=Fraction(data["eta"]["numerator"], data["eta"]["denominator"]),
        harmonic_dim=data["harmonic_dim"],
        checks=dict(data["checks"]),
    )


def entries_to_json(entries) -> str:
    return "".join(json_chunks(entries))


def entries_from_json(text: str) -> list[CatalogEntry]:
    return [entry_from_dict(item) for item in json.loads(text)]


def run_cli(args, capsys):
    """Exit code, stdout and stderr of one ``main`` call; argparse's own exit counts too."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_agreement.txt"
# Checks whose detail the verify golden file leaves out: the zeta route's
# float sums depend on the platform, so only their status is pinned.  Every
# other detail is exact, or a witness, and is pinned.
UNPINNED_DETAIL = ("eta_numeric_",)


def verify_golden() -> dict[int, list[str]]:
    blocks: dict[int, list[str]] = {}
    for line in VERIFY_GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ flateta verify --dim "):
            lines = blocks.setdefault(int(line.split()[-1]), [])
        elif not line.startswith("#"):
            lines.append(line)
    return blocks


def agreement_view(out: str, code: int) -> list[str]:
    """verify stdout and exit code in the golden file's form."""
    header, *checks, result = out.splitlines()
    view = [header]
    for line in checks:
        name, status, detail = line.split(maxsplit=2)
        pinned = not name.startswith(UNPINNED_DETAIL)
        view.append(f"{name} {status} {detail}" if pinned else f"{name} {status}")
    return [*view, result, f"exit {code}"]


ANSWERS_GOLDEN = Path(__file__).parent / "data" / "cli_answers.txt"


def answers_golden() -> list:
    """One (command, stdout, stderr, exit code) param per block of the answers golden file."""
    blocks = []
    for line in ANSWERS_GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ flateta "):
            blocks.append([line.removeprefix("$ flateta "), "", "", None])
        elif not blocks:
            continue  # header comment
        elif line.startswith("stderr: "):
            blocks[-1][2] += line.removeprefix("stderr: ") + "\n"
        elif line.startswith("exit "):
            blocks[-1][3] = int(line.removeprefix("exit "))
        else:
            blocks[-1][1] += line + "\n"
    return [pytest.param(*block, id=block[0]) for block in blocks]


@pytest.mark.parametrize("command, out, err, code", answers_golden())
def test_answers_match_golden_byte_for_byte(command, out, err, code, capsys, monkeypatch):
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(command.split(), capsys) == (code, out, err)


class TestEtaCommand:
    def test_dim7_plus_text(self, capsys):
        code, out, _ = run_cli(["eta", "--dim", "7", "--structure", "plus"], capsys)
        assert code == 0
        assert "eta = -2 (exact)" in out
        assert "odd-k closed form" in out
        assert "A_r: 2 0 0 2 0 2 2" in out

    def test_dim5_even_k_note(self, capsys):
        code, out, _ = run_cli(["eta", "--dim", "5", "--structure", "plus"], capsys)
        assert code == 0
        assert "eta = 0 (exact)" in out
        assert "even-k vanishing" in out

    def test_dim3_minus(self, capsys):
        code, out, _ = run_cli(["eta", "--dim", "3", "--structure", "minus"], capsys)
        assert code == 0
        assert "eta = 4/3 (exact)" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            ["eta", "--dim", "7", "--structure", "plus", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == {"numerator": -2, "denominator": 1}
        assert payload["multiplicities"] == [2, 0, 0, 2, 0, 2, 2]
        assert payload["n"] == 7 and payload["k"] == 3

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            ["eta", "--dim", "3", "--structure", "plus", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,k,structure,branch,eta,A0")
        assert lines[1].startswith("3,1,plus,odd_k_closed_form,-2/3")

    @pytest.mark.parametrize("dim", ["4", "2", "-5", "1"])
    def test_invalid_dim_exits_2(self, capsys, dim):
        code, _, err = run_cli(["eta", "--dim", dim, "--structure", "plus"], capsys)
        assert code == 2
        assert "error" in err

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eta", "--dim", "7", "--structure", "sideways"])
        assert exc.value.code == 2

    def test_dim103_matches_class_number(self, capsys):
        # h(-103) = 5 and 103 = 7 (mod 8): eta(plus) = -2h, eta(minus) = 0
        code, out, _ = run_cli(["eta", "--dim", "103", "--structure", "plus"], capsys)
        assert code == 0
        assert "eta = -10 (exact)" in out
        code, out, _ = run_cli(["eta", "--dim", "103", "--structure", "minus"], capsys)
        assert code == 0
        assert "eta = 0 (exact)" in out

    def test_dim_cap_exits_2(self, capsys):
        code, _, err = run_cli(["eta", "--dim", "4003"], capsys)
        assert code == 2
        assert "<= 4001" in err


def count_histograms(monkeypatch) -> list[int]:
    """The k of every closed-form table count run from now on, in call order."""
    calls = []
    real = combinatorics.doubled_counts

    def counting(n):
        calls.append((n - 1) // 2)
        return real(n)

    monkeypatch.setattr(combinatorics, "doubled_counts", counting)
    return calls


class _ByteCounter(io.TextIOBase):
    """A text stream that counts the bytes written to it and keeps none."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def write(self, text):
        self.count += len(text.encode())
        return len(text)


class TestTableCommand:
    def test_golden_n7_plus(self, capsys):
        code, out, _ = run_cli(["table", "--dim", "7", "--structure", "plus"], capsys)
        assert code == 0
        assert out == GOLDEN.read_text(encoding="utf-8")

    def test_n3_single_row(self, capsys):
        code, out, _ = run_cli(["table", "--dim", "3", "--structure", "plus"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[2:]
        assert len(rows) == 1
        assert rows[0].split() == ["(1)", "2", "2"]

    def test_n9_has_eight_rows(self, capsys):
        code, out, _ = run_cli(["table", "--dim", "9", "--structure", "plus"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[2:]
        assert len(rows) == 8  # half of 2^4

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            ["table", "--dim", "7", "--structure", "plus", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0] == {
            "epsilon": [1, 1, 1],
            "mu_half_shifted": 3,
            "residue": 3,
        }
        assert len(payload["rows"]) == 4

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            ["table", "--dim", "7", "--structure", "plus", "--format", "csv"], capsys
        )
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        rows = list(reader)
        assert rows[0] == ["epsilon", "mu_half_shifted", "residue"]
        assert rows[1] == ["(1,1,1)", "3", "3"]

    def test_json_is_what_json_dumps_gives(self, capsys):
        code, out, _ = run_cli(
            ["table", "--dim", "11", "--structure", "minus", "--format", "json"], capsys
        )
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_json_streams_its_rows(self, monkeypatch):
        # with the output counted and dropped, json holds at most twice what
        # csv does: each row is written as it is made, not kept in a payload
        monkeypatch.setattr(sys, "stdout", _ByteCounter())
        main(["table", "--dim", "3"])  # the parser is built before any peak is taken
        peaks = {}
        for fmt in ("csv", "json"):
            sink = _ByteCounter()
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                assert main(["table", "--dim", "25", "--format", fmt]) == 0
                _, peaks[fmt] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sink.count > 2**11 * 20  # 2^11 rows, each over 20 bytes
        assert peaks["json"] <= 2 * peaks["csv"]

    def test_even_dim_exits_2(self, capsys):
        code, _, _ = run_cli(["table", "--dim", "6", "--structure", "plus"], capsys)
        assert code == 2

    def test_row_cap_exits_2(self, capsys):
        code, _, err = run_cli(["table", "--dim", "35"], capsys)
        assert code == 2
        assert "<= 33" in err


class TestHarmonicCommand:
    def test_dim7_plus(self, capsys):
        code, out, _ = run_cli(["harmonic", "--dim", "7", "--structure", "plus"], capsys)
        assert code == 0
        assert "harmonic_dim = 2" in out

    def test_dim7_minus(self, capsys):
        code, out, _ = run_cli(["harmonic", "--dim", "7", "--structure", "minus"], capsys)
        assert code == 0
        assert "harmonic_dim = 0" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            ["harmonic", "--dim", "7", "--structure", "plus", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["harmonic_dim"] == 2

    def test_dim_cap_exits_2(self, capsys):
        code, _, err = run_cli(["harmonic", "--dim", "4003"], capsys)
        assert code == 2
        assert "<= 4001" in err

    def test_minus_runs_no_histogram(self, monkeypatch, capsys):
        # the minus kernel is 0 by the lift's n-th power, with no table to read
        calls = count_histograms(monkeypatch)
        assert harmonic_dim(make_manifold(2000), SpinStructure.MINUS) == 0
        code, out, _ = run_cli(["harmonic", "--dim", "4001", "--structure", "minus"], capsys)
        assert code == 0
        assert "harmonic_dim = 0" in out
        assert calls == []


class TestVerifyCommand:
    def test_dim7_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--dim", "7"], capsys)
        assert code == 0
        assert "result: PASS" in out
        assert "spectrum_vs_table_plus" in out
        assert "eta_numeric_minus" in out

    def test_dim3_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--dim", "3"], capsys)
        assert code == 0
        assert "result: PASS" in out

    @pytest.mark.parametrize("dim", range(3, 2 * ORACLE_MAX_K + 2, 2))
    def test_agreement_matches_golden(self, dim, capsys):
        code, out, _ = run_cli(["verify", "--dim", str(dim)], capsys)
        assert agreement_view(out, code) == verify_golden()[dim]

    @pytest.mark.parametrize("dim", [3, 9, 15])
    def test_runs_one_histogram(self, dim, monkeypatch):
        # both eta results and the harmonic dimension come from one table count
        calls = count_histograms(monkeypatch)
        verification.run_verification(dim)
        assert calls == [(dim - 1) // 2]

    def test_even_dim_exits_2(self, capsys):
        code, _, _ = run_cli(["verify", "--dim", "4"], capsys)
        assert code == 2

    def test_window_option_is_gone(self):
        # one period of n eigenvalue classes is the whole spectrum, so there
        # is no Fourier window to choose
        proc = subprocess.run(
            [sys.executable, "-m", "flateta", "verify", "--dim", "7", "--window", "21"],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error: unrecognized arguments: --window 21" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oracle_cap_exits_2(self, capsys):
        code, _, _ = run_cli(["verify", "--dim", "27"], capsys)
        assert code == 2

    def test_oracle_cap_has_one_owner(self, capsys):
        # the cap check, the help text and the oracle all read core.ORACLE_MAX_K
        with pytest.raises(ValueError, match=f"k must be in 1..{ORACLE_MAX_K}, "):
            oracle.build_rep(ORACLE_MAX_K + 1)
        with pytest.raises(ValueError, match=f"k must be in 1..{ORACLE_MAX_K}, "):
            verification.run_verification(2 * ORACLE_MAX_K + 3)
        code, out, err = run_cli(["verify", "--dim", str(2 * ORACLE_MAX_K + 3)], capsys)
        assert code == 2
        assert out == ""
        assert f"exceeds {ORACLE_MAX_K} (dim <= {2 * ORACLE_MAX_K + 1})" in err
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert f"(k <= {ORACLE_MAX_K} only)" in " ".join(capsys.readouterr().out.split())

    def test_dim9_reports_known_kernel_mismatch(self, capsys):
        # the doubled-count formula overcounts the kernel at k = 4; verify
        # must report the mismatch honestly and exit 1
        code, out, _ = run_cli(["verify", "--dim", "9"], capsys)
        assert code == 1
        assert "kernel_vs_formula_plus" in out
        assert "result: FAIL" in out


def _one_count_off(result):
    """``result`` with one count of a class of nonzero eta weight raised by 1."""
    r = 1 - result.structure.half  # weight n - 2 (plus) or n - 1 (minus)
    counts = list(result.table.counts)
    counts[r] += 1
    return result._replace(table=result.table._replace(counts=tuple(counts)))


class TestZetaChecks:
    """The zeta route's tolerance scales with its terms, which grow like 2^k / n."""

    @pytest.mark.parametrize("k", [33, 41])
    def test_right_tables_pass_past_an_absolute_bound(self, k):
        # the defect reaches about 3e-8 at k = 33 and 4e-6 at k = 41, past 1e-8
        checks = verification._zeta_checks(exact_invariants(make_manifold(k)))
        assert [c.status for c in checks] == [verification.PASS, verification.PASS]

    @pytest.mark.parametrize("k", range(1, 26, 2))
    @pytest.mark.parametrize("structure", ["plus", "minus"])
    def test_one_count_off_by_one_fails(self, k, structure):
        exact = exact_invariants(make_manifold(k))
        broken = exact._replace(**{structure: _one_count_off(getattr(exact, structure))})
        statuses = {c.name: c.status for c in verification._zeta_checks(broken)}
        other = "minus" if structure == "plus" else "plus"
        assert statuses[f"eta_numeric_{structure}"] == verification.FAIL
        assert statuses[f"eta_numeric_{other}"] == verification.PASS

    def test_a_value_that_rounds_to_zero_prints_unsigned(self, monkeypatch):
        # at n = 23 the minus eta is 0, and the zeta route gives about -1e-14
        monkeypatch.setattr(verification, "eta_numeric", lambda result, s: -7e-15)
        minus = verification._zeta_checks(exact_invariants(make_manifold(11)))[1]
        assert minus.status == verification.PASS
        assert minus.detail.startswith("numeric 0.0000000000 vs exact 0.0000000000 ")


class TestSweepCommand:
    def test_json_sweep_1_to_7(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--kmin", "1", "--kmax", "7", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 14
        k3_plus = next(e for e in payload if e["k"] == 3 and e["structure"] == "plus")
        assert k3_plus["eta"] == {"numerator": -2, "denominator": 1}
        assert k3_plus["harmonic_dim"] == 2

    def test_json_round_trip(self):
        entries = sweep_entries(1, 5)
        recovered = entries_from_json(entries_to_json(entries))
        assert recovered == entries

    def test_csv_header_and_padding(self):
        entries = sweep_entries(1, 3)
        text = entries_to_csv(entries)
        lines = text.strip().splitlines()
        assert lines[0].startswith("n,k,structure,eta,harmonic_dim,A0,A1,A2,A3,A4,A5,A6")
        first = lines[1].split(",")
        assert first[:5] == ["3", "1", "plus", "-2/3", "0"]
        # n = 3 rows pad A3..A6 with empty cells
        assert first[8:12] == ["", "", "", ""]

    def test_parity_verdicts_across_range(self):
        entries = sweep_entries(1, 15)
        assert all(e.checks["parity_difference"] == "even" for e in entries)

    def test_minus_k3_harmonic_zero(self):
        entry = next(
            e for e in sweep_entries(3, 3) if e.structure == "minus"
        )
        assert entry.harmonic_dim == 0

    def test_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "catalog.json"
        code, out, _ = run_cli(
            ["sweep", "--kmin", "1", "--kmax", "2", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""
        assert len(json.loads(out_path.read_text())) == 4

    def test_unwritable_path_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--kmin", "1", "--kmax", "2", "--out", "/nonexistent/dir/x.json"],
            capsys,
        )
        assert code == 2
        assert "cannot write" in err

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(["sweep", "--kmin", "5", "--kmax", "3"], capsys)
        assert code == 2
        code, _, _ = run_cli(["sweep", "--kmin", "1", "--kmax", "26"], capsys)
        assert code == 2

    def test_with_oracle_verdicts(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--kmin", "3", "--kmax", "3", "--with-oracle", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert all(e["checks"]["oracle_agreement"] == "pass" for e in payload)

    def test_with_oracle_builds_one_rep_per_k(self, monkeypatch):
        # the verdict runs the agreement checks alone, never the whole suite
        built = []
        real_build = oracle.build_rep

        def counting(k):
            built.append(k)
            return real_build(k)

        def no_suite(*args, **kwargs):
            raise AssertionError("a sweep must not run the verification suite")

        monkeypatch.setattr(oracle, "build_rep", counting)
        monkeypatch.setattr(verification, "run_verification", no_suite)
        entries = sweep_entries(1, 3, with_oracle=True)
        assert built == [1, 2, 3]
        for k in (1, 2, 3):
            plus, minus = (e for e in entries if e.k == k)
            assert plus.checks["oracle_agreement"] == minus.checks["oracle_agreement"]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_agreement_verdict_matches_filtered_suite(self, k):
        # the rule the verdict replaced: no failure among the suite's fold and kernel checks
        m = make_manifold(k)
        report = verification.run_verification(m.n)
        relevant = [
            r for r in report.results if r.name.startswith(("spectrum_vs_table_", "kernel_"))
        ]
        expected = "fail" if any(r.failed for r in relevant) else "pass"
        assert verification.oracle_agreement_verdict(exact_invariants(m)) == expected

    def test_sweep_runs_one_histogram_per_k(self, monkeypatch):
        # both eta results and the plus harmonic dimension, shared by every check
        calls = count_histograms(monkeypatch)
        sweep_entries(1, 21)
        assert len(calls) == 21
        assert calls == list(range(1, 22))

    def test_sweep_with_oracle_runs_one_histogram_per_k(self, monkeypatch, capsys):
        # the oracle verdict reads the rows' own results and counts no table
        calls = count_histograms(monkeypatch)
        code, _, _ = run_cli(["sweep", "--kmin", "1", "--kmax", "8", "--with-oracle"], capsys)
        assert code == 0
        assert calls == list(range(1, 9))

    @pytest.mark.parametrize(
        ("kmin", "kmax", "with_oracle"), [(1, 1, False), (1, 8, True), (1, 25, False)]
    )
    @pytest.mark.parametrize("to_file", [False, True])
    def test_json_is_the_bytes_of_one_dump(
        self, kmin, kmax, with_oracle, to_file, tmp_path, capsys
    ):
        # streamed row by row, yet byte for byte the dump of the whole list, on either sink
        argv = ["sweep", "--kmin", str(kmin), "--kmax", str(kmax)]
        argv += ["--with-oracle"] * with_oracle
        out_path = tmp_path / "catalog.json"
        code, out, _ = run_cli(argv + ["--out", str(out_path)] * to_file, capsys)
        assert code == 0
        if to_file:
            assert out == ""
            out = out_path.read_bytes().decode("utf-8")
        entries = sweep_entries(kmin, kmax, with_oracle=with_oracle)
        assert out == json.dumps([e.to_dict() for e in entries], indent=2) + "\n"
        assert entries_from_json(out) == entries

    def test_empty_json_is_the_dump_of_an_empty_list(self):
        assert entries_to_json([]) == json.dumps([], indent=2)

    def test_json_streams_its_rows(self, monkeypatch):
        # with the output counted and dropped, json holds no more than csv,
        # whose writer keeps the whole text: each json row is written as it is made
        monkeypatch.setattr(sys, "stdout", _ByteCounter())
        main(["table", "--dim", "3"])  # the parser is built before any peak is taken
        peaks = {}
        for fmt in ("csv", "json"):
            sink = _ByteCounter()
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                assert main(["sweep", "--kmax", "25", "--format", fmt]) == 0
                _, peaks[fmt] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sink.count > 50 * 100  # 50 rows, each over 100 bytes
        assert peaks["json"] <= peaks["csv"]


class TestCatalogEntry:
    def test_round_trip_preserves_exact_eta(self):
        entry = CatalogEntry(
            n=3,
            k=1,
            structure="plus",
            multiplicities=(0, 0, 2),
            eta=Fraction(-2, 3),
            harmonic_dim=0,
            checks={"parity_difference": "even"},
        )
        assert entry_from_dict(entry.to_dict()) == entry

    def test_serialization_has_no_floats(self):
        entry = sweep_entries(1, 1)[0]
        payload = entry.to_dict()
        assert isinstance(payload["eta"]["numerator"], int)
        assert isinstance(payload["eta"]["denominator"], int)
        assert all(isinstance(c, int) for c in payload["multiplicities"])


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "flateta", "eta", "--dim", "7", "--structure", "plus"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert "eta = -2 (exact)" in proc.stdout


README = Path(__file__).parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of each ``flateta ...`` line in the README's ``sh`` blocks."""
    commands, in_sh = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("flateta "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == {"eta", "table", "harmonic", "verify", "sweep"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_examples_run(argv, capsys, monkeypatch, tmp_path):
    # a removed or renamed option in the docs fails here; --out lands in tmp_path
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")


def test_subprocess_bad_flags_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "flateta", "eta", "--dim"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 2


def test_calls_share_one_parser(monkeypatch, capsys):
    # a parser costs about a millisecond to build and its reference cycles
    # wait for a full collection, so a process builds one and reuses it
    built = []

    def counting_build_parser():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        assert run_cli(["eta", "--dim", "7"], capsys)[0] == 0
        assert run_cli(["harmonic", "--dim", "7", "--structure", "minus"], capsys)[0] == 0
        assert run_cli(["eta", "--dim", "4"], capsys)[0] == 2
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_closed_stdout_exits_2_without_traceback():
    with subprocess.Popen(
        [sys.executable, "-m", "flateta", "table", "--dim", "33"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=SUBPROCESS_ENV,
    ) as proc:
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert "error: standard output closed" in err
    assert "Traceback" not in err and "Exception ignored" not in err


# Calls the CLI five times against a pipe whose reader is gone, then reports
# the open descriptors after the first call and after the last on stderr.
_CLOSED_PIPE_PROBE = """
import os, sys
from flateta.cli import main
counts = []
for _ in range(5):
    read_end, write_end = os.pipe()
    os.close(read_end)
    os.dup2(write_end, sys.stdout.fileno())
    os.close(write_end)
    assert main(["table", "--dim", "9"]) == 2
    counts.append(len(os.listdir("/proc/self/fd")))
print(counts[0], counts[-1], file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_leaks_no_descriptor():
    proc = subprocess.run(
        [sys.executable, "-c", _CLOSED_PIPE_PROBE],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    first, last = proc.stderr.splitlines()[-1].split()
    assert first == last


# Modules a command loads only when it needs them: the oracle, the catalog
# with csv and json; and numpy, dataclasses and inspect, which no command needs.
_WATCHED_MODULES = ("numpy", "flateta.oracle", "flateta.catalog", "csv", "json", "dataclasses", "inspect")

# Runs one CLI command, then prints which of the watched modules were imported.
_IMPORT_PROBE = f"""
import sys
from flateta.cli import main
main(sys.argv[1:])
print("loaded:", *sorted(set({_WATCHED_MODULES!r}) & set(sys.modules)))
"""


@pytest.mark.parametrize(
    "command, oracle_loaded",
    [
        ("eta --dim 3", False),
        ("harmonic --dim 3", False),
        ("table --dim 3", False),
        ("sweep --kmax 3", False),
        ("verify --dim 3", True),
        ("sweep --kmax 3 --with-oracle", True),
    ],
)
def test_no_command_imports_numpy(command, oracle_loaded):
    """No command loads numpy, dataclasses or inspect; only the oracle commands load the oracle.

    Only sweep loads the catalog, and ``eta``, ``harmonic`` and ``table``
    in text format load none of the watched modules.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *command.split()],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    label, *names = proc.stdout.splitlines()[-1].split()
    assert label == "loaded:"
    loaded = set(names)
    catalog_modules = {"flateta.catalog", "csv", "json"}
    assert loaded & {"numpy", "dataclasses", "inspect"} == set()
    assert ("flateta.oracle" in loaded) == oracle_loaded
    assert loaded & catalog_modules == (catalog_modules if command.startswith("sweep") else set())
