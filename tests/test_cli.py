"""CLI behavior: output formats, determinism, and exit codes."""

import hashlib
import importlib
import json
import os
import pkgutil
import re
import resource
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import ccyclic
from ccyclic import cli, degree_sequences
from ccyclic.bounds import (
    EXACT_MATCH, MISMATCH, ORIENTATION_NOTE, SKIPPED, bounds, with_verification
)
from ccyclic.cli import EXIT_CAP, EXIT_MISMATCH, EXIT_OK, exit_code, main
from ccyclic.degree_sequences import CyclomaticClass
from ccyclic.indices import IndexSpec
from ccyclic.majorization import runs_of

from oracles import upside_down, walks_without_population, with_a_maximal_as_minimal

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_module_is_the_package_attribute_of_its_name():
    # a name imported into the package would hide the module of that name
    names = [module.name for module in pkgutil.iter_modules(ccyclic.__path__)]
    assert "bounds" in names
    for name in names:
        assert getattr(ccyclic, name) is importlib.import_module(f"ccyclic.{name}"), name


def test_console_script_prints_the_paper_tables(capsys):
    # the entry point pyproject.toml installs as ``ccyclic``
    code, out, err = run(capsys, "tables", "--n", "9", "--verify")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "tables.out").read_bytes()


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    ok = ("extremal", "--n", "8", "--c", "3")
    first = run(capsys, *ok)
    usage = run(capsys, "extremal", "--n", "8")
    again = run(capsys, *ok)
    other = run(capsys, "bounds", "--n", "8", "--c", "3", "--index", "inverse-degree")
    assert cli._build_parser.cache_info().misses == 1
    assert first == again == (0, (GOLDEN / "extremal-text.out").read_text(), "")
    assert usage == (1, "", "error: the following arguments are required: --c\n")
    assert other[0] == 0 and other[1].startswith("n=8 c=3 index=inverse-degree\n")


class TestExtremal:
    def test_tricyclic_text(self, capsys):
        code, out, _ = run(capsys, "extremal", "--n", "8", "--c", "3")
        assert code == 0
        assert out == (
            "n=8 c=3 degree-total=20\n"
            "maximal 1: [7, 4, 2^3, 1^3]\n"
            "maximal 2: [7, 3^3, 1^4]\n"
            "maximals: pairwise incomparable under majorization\n"
            "minimal: [3^4, 2^4]\n"
        )

    def test_triangle(self, capsys):
        code, out, _ = run(capsys, "extremal", "--n", "3", "--c", "1")
        assert code == 0
        assert "maximal 1: [2^3]" in out
        assert "minimal: [2^3]" in out

    def test_hexacyclic_n7(self, capsys):
        code, out, _ = run(capsys, "extremal", "--n", "7", "--c", "6")
        assert code == 0
        assert "maximal 1: [6^2, 3^2, 2^3]" in out
        assert "maximal 2: [6, 5, 4, 3^2, 2, 1]" in out
        assert "maximal 3: [6, 4^4, 1^2]" in out
        assert "minimal: [4^3, 3^4]" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "extremal", "--n", "5", "--c", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["maximals"] == [[4, 4, 3, 3, 2]]
        assert doc["minimal"] == [4, 3, 3, 3, 3]

    def test_below_min_order_fails(self, capsys):
        code, _, err = run(capsys, "extremal", "--n", "3", "--c", "3")
        assert code == 1
        assert "error" in err

    def test_negative_range_as_its_own_token(self, capsys):
        # argparse alone reads -1..2 as an option and stops: expected one argument.
        # --c here takes one integer, so the range is an invalid int.
        code, out, err = run(capsys, "extremal", "--n", "10", "--c", "-1..2")
        assert (code, out, err) == (1, "", "error: argument --c: invalid int value: '-1..2'\n")
        assert run(capsys, "extremal", "--n", "10", "--c=-1..2") == (code, out, err)


class TestBounds:
    def test_unicyclic_inverse_degree(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--n", "10", "--c", "1", "--index", "inverse-degree"
        )
        assert code == 0
        assert "lower: 5 (5) at [2^10]" in out
        assert "upper: 73/9 (8.11111111111) at [9, 2^2, 1^7]" in out

    def test_csv_range(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--n", "10", "--alpha", "2", "--c", "1..6", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7  # header + six rows
        assert lines[1].startswith("10,1,general-zagreb,2,40,40,96,96,")

    def test_refined(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--n", "8", "--c", "3", "--index", "inverse-degree", "--refined",
        )
        assert code == 0
        assert "refined upper" in out
        assert "137/28 (4.89285714286)" in out

    def test_refined_needs_inverse_degree(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--n", "10", "--c", "3", "--alpha", "2", "--refined"
        )
        assert (code, out) == (1, "")
        assert err == "error: --refined applies only to --index inverse-degree\n"

    def test_verify_appends_verdict(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--n", "8", "--c", "3", "--index", "inverse-degree", "--verify",
        )
        assert code == 0
        assert "verified: exact-match" in out

    def test_power_sums_tied_by_rounding_end_in_an_exact_match(self, capsys):
        # at this exponent every member's power sum is within a few ulps of
        # twice the edge count, and the maximal's may round above the minimal's
        code, out, err = run(
            capsys, "bounds", "--n", "9", "--c", "1", "--alpha", "0.9999999999999999", "--verify"
        )
        assert (code, err) == (0, "")
        assert "  verified: exact-match\n" in out

    def test_verify_cap_exit(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--n", "14", "--c", "1", "--index", "inverse-degree",
            "--verify", "--cap", "12",
        )
        assert code == 3
        assert "verified: skipped" in out

    def test_alpha_required_for_general_zagreb(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "8", "--c", "2")
        assert code == 1
        assert "--alpha" in err

    def test_excluded_alpha(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "8", "--c", "2", "--alpha", "1")
        assert code == 1

    def test_negative_range_as_its_own_token(self, capsys):
        # argparse alone reads -1..2 as an option and stops: expected one argument.
        argv = ("bounds", "--n", "10", "--alpha", "2")
        code, out, err = run(capsys, *argv, "--c", "-1..2")
        assert (code, out, err) == (1, "", "error: cyclomatic number must be nonnegative\n")
        assert run(capsys, *argv, "--c=-1..2") == (code, out, err)

    def test_negative_alpha_as_its_own_token(self, capsys):
        # argparse alone reads -1/2 as an option and stops: expected one argument.
        # Every abbreviation of --alpha that argparse accepts takes it the same way.
        argv = ("bounds", "--n", "9", "--c", "1..6", "--verify")
        code, out, err = run(capsys, *argv, "--alpha=-1/2")
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / "bounds-alpha-minus-half.out").read_bytes()
        for flag in ("--alpha", "--alph", "--alp", "--al", "--a"):
            assert run(capsys, *argv, flag, "-1/2") == (code, out, err), flag

    def test_negative_alpha_beyond_a_float_as_its_own_token(self):
        split = run_isolated("bounds", "--n", "10", "--c", "1", "--alpha", "-1e400")
        joined = run_isolated("bounds", "--n", "10", "--c", "1", "--alpha=-1e400")
        assert (split.returncode, split.stdout, split.stderr) == (
            joined.returncode, joined.stdout, joined.stderr
        )
        assert split.stderr.startswith("error: exponent too large")

    def test_mult_zagreb_log(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--n", "8", "--c", "2", "--index", "mult-zagreb-log"
        )
        assert code == 0
        assert "lower:" in out and "upper:" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--n", "10", "--c", "1..2", "--alpha", "2", "--format", "json",
        )
        assert code == 0
        docs = json.loads(out)
        assert [d["c"] for d in docs] == [1, 2]
        assert docs[0]["lower_exact"] == "40"


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.mark.parametrize("name", ["bounds-json", "bounds-json-refined-verify", "extremal-json"])
def test_json_writes_no_csv_field(capsys, monkeypatch, name):
    # JSON lists every entry from the runs; a space-joined CSV field would be built and dropped
    def refuse(runs):
        raise AssertionError("a JSON document built a CSV field")

    for key, module in list(sys.modules.items()):
        if key.startswith("ccyclic.") and hasattr(module, "plain_sequence"):
            monkeypatch.setattr(module, "plain_sequence", refuse)
    argv = json.loads((GOLDEN / "results.json").read_text())[name]["argv"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def _limit_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_isolated(*argv, **env):
    """Run the CLI in a child process under a memory limit and a time limit.

    A run that never finishes raises ``subprocess.TimeoutExpired`` and fails
    the test instead of stalling the suite.  ``env`` adds environment variables.
    """
    return subprocess.run(
        [sys.executable, "-m", "ccyclic.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_memory,
        env={"PYTHONPATH": str(SRC), **env},
    )


def run_in_384_mib(*argv):
    """Run the CLI in a child process with 384 MiB of address space."""
    limit = 384 << 20
    return subprocess.run(
        [sys.executable, "-m", "ccyclic.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        env={"PYTHONPATH": str(SRC)},
    )


class TestExponentOverflow:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "10", "--c", "1", "--alpha", "1000000/3"),
            ("--n", "10", "--c", "1", "--alpha", "400"),
            ("--n", "10", "--c", "1", "--alpha", "1e400"),
            # the largest power fits a float here, but the sum over the
            # maximal sequence (6, 6, 3, 3, 2, 2, 2) does not
            ("--n", "7", "--c", "6", "--alpha", "396"),
        ],
    )
    def test_rejected_with_one_line(self, argv):
        result = run_isolated("bounds", *argv)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: exponent too large: the power sum overflows a float\n"

    def test_fractional_exponent_beyond_a_float_is_rejected(self):
        # a negative fractional exponent: no power sum is formed, but the
        # exponent itself has no float
        result = run_isolated("bounds", "--n", "10", "--c", "1", f"--alpha=-1{'0' * 400}/3")
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("error: exponent too large")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("digit_limit", [None, "0"])
    @pytest.mark.parametrize("alpha", ["-1e400", "-5000"])
    def test_exact_power_too_long_to_print_is_rejected(self, alpha, digit_limit):
        # the check must not lean on Python's own digit limit, which 0 switches off
        env = {} if digit_limit is None else {"PYTHONINTMAXSTRDIGITS": digit_limit}
        result = run_isolated("bounds", "--n", "10", "--c", "1", f"--alpha={alpha}", **env)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            "error: exponent too large: an exact power would exceed 4300 digits\n"
        )

    @pytest.mark.parametrize("digit_limit", [None, "0"])
    @pytest.mark.parametrize("alpha", ["-3500", "-4000", "-4500"])
    def test_exact_value_too_long_to_print_is_rejected(self, alpha, digit_limit):
        # each power fits, but the sum's common denominator is too long to print
        env = {} if digit_limit is None else {"PYTHONINTMAXSTRDIGITS": digit_limit}
        result = run_isolated("bounds", "--n", "10", "--c", "1", f"--alpha={alpha}", **env)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: exact value too long to print: more than 4300 digits\n"

    @pytest.mark.parametrize("digit_limit", [None, "0"])
    @pytest.mark.parametrize(
        "alpha,digest",
        [
            ("-400", "a2f575a5658f81e59d2daf9b4271155e8dd14bc5e18ad53a14f709f5b3247d56"),
            ("-2000", "51280fe7d379dc06640f10a89fdbcc2c85e38d9719d677d640e26c3c58116b92"),
        ],
    )
    def test_long_exact_values_keep_their_bytes(self, alpha, digest, digit_limit):
        env = {} if digit_limit is None else {"PYTHONINTMAXSTRDIGITS": digit_limit}
        result = run_isolated("bounds", "--n", "10", "--c", "1", f"--alpha={alpha}", **env)
        assert (result.returncode, result.stderr) == (0, "")
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    def test_large_exponents_within_range_still_print(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--n", "8", "--c", "1..6", "--alpha", "1000/3", "--verify"
        )
        assert code == 0
        assert "upper: 5.00433842115e+281 at [7, 2^2, 1^5]" in out
        assert out.count("verified: exact-match") == 6
        code, out, _ = run(capsys, "bounds", "--n", "10", "--c", "1", "--alpha=-400")
        lines = out.splitlines()
        assert code == 0
        assert lines[1].endswith(" (3.87259191485e-120) at [2^10]")
        assert lines[2].endswith(" (7) at [9, 2^2, 1^7]")


class TestLargeOrder:
    def test_extremal_at_a_million_vertices(self):
        # boxes, extremal elements and their checks cost O(runs); only the
        # output tuples grow with n
        result = run_isolated("extremal", "--n", "1000000", "--c", "6")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == (
            "n=1000000 c=6 degree-total=2000010\n"
            "maximal 1: [999999, 7, 2^6, 1^999992]\n"
            "maximal 2: [999999, 6, 3^2, 2^3, 1^999993]\n"
            "maximal 3: [999999, 5, 4, 3^2, 2, 1^999994]\n"
            "maximal 4: [999999, 4^4, 1^999995]\n"
            "maximals: pairwise incomparable under majorization\n"
            "minimal: [3^10, 2^999990]\n"
        )


    def test_json_at_a_million_vertices_is_written_as_it_is_encoded(self):
        # the whole text held at once, as json.dumps builds it, peaks near 450 MB
        limit = 384 << 20
        result = subprocess.run(
            [sys.executable, "-m", "ccyclic.cli", "extremal", "--n", "1000000", "--c", "6",
             "--format", "json"],
            capture_output=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            env={"PYTHONPATH": str(SRC)},
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert hashlib.sha256(result.stdout).hexdigest() == (
            "94e867b12493c846994f9a06a0012e4267ca8615c44a515d73beb2a9dc1cb3c2"
        )

    def test_bounds_at_a_million_vertices(self):
        # evaluated on the family's runs: one term per run, no 10**6-entry tuple
        result = run_isolated("bounds", "--n", "1000000", "--c", "1..6", "--alpha", "2")
        assert (result.returncode, result.stderr) == (0, "")
        note = f"  note: {ORIENTATION_NOTE}"
        top = "[999999, "
        assert result.stdout.splitlines() == [
            "n=1000000 c=1 index=general-zagreb(alpha=2)",
            "  lower: 4000000 (4000000) at [2^1000000]",
            f"  upper: 999999000006 (999999000006) at {top}2^2, 1^999997]",
            note,
            "n=1000000 c=2 index=general-zagreb(alpha=2)",
            "  lower: 4000010 (4000010) at [3^2, 2^999998]",
            f"  upper: 999999000014 (999999000014) at {top}3, 2^2, 1^999996]",
            note,
            "n=1000000 c=3 index=general-zagreb(alpha=2)",
            "  lower: 4000020 (4000020) at [3^4, 2^999996]",
            f"  upper: 999999000024 (999999000024) at {top}4, 2^3, 1^999995]",
            f"  candidates: {top}4, 2^3, 1^999995] -> 999999000024 (999999000024) [binding]; "
            f"{top}3^3, 1^999996] -> 999999000024 (999999000024)",
            "n=1000000 c=4 index=general-zagreb(alpha=2)",
            "  lower: 4000030 (4000030) at [3^6, 2^999994]",
            f"  upper: 999999000036 (999999000036) at {top}5, 2^4, 1^999994]",
            f"  candidates: {top}5, 2^4, 1^999994] -> 999999000036 (999999000036) [binding]; "
            f"{top}4, 3^2, 2, 1^999995] -> 999999000034 (999999000034)",
            "n=1000000 c=5 index=general-zagreb(alpha=2)",
            "  lower: 4000040 (4000040) at [3^8, 2^999992]",
            f"  upper: 999999000050 (999999000050) at {top}6, 2^5, 1^999993]",
            f"  candidates: {top}6, 2^5, 1^999993] -> 999999000050 (999999000050) [binding]; "
            f"{top}5, 3^2, 2^2, 1^999994] -> 999999000046 (999999000046); "
            f"{top}4^2, 3^2, 1^999995] -> 999999000046 (999999000046)",
            "n=1000000 c=6 index=general-zagreb(alpha=2)",
            "  lower: 4000050 (4000050) at [3^10, 2^999990]",
            f"  upper: 999999000066 (999999000066) at {top}7, 2^6, 1^999992]",
            f"  candidates: {top}7, 2^6, 1^999992] -> 999999000066 (999999000066) [binding]; "
            f"{top}6, 3^2, 2^3, 1^999993] -> 999999000060 (999999000060); "
            f"{top}5, 4, 3^2, 2, 1^999994] -> 999999000058 (999999000058); "
            f"{top}4^4, 1^999995] -> 999999000060 (999999000060)",
        ]

    def test_refined_bound_at_a_billion_vertices(self):
        # the refined attainer is the first closed-form pattern, built as runs
        n = 10**9
        result = run_in_384_mib(
            "bounds", "--n", str(n), "--c", "3..6",
            "--index", "inverse-degree", "--refined",
        )
        assert (result.returncode, result.stderr) == (0, "")
        refined = [
            line.split(": ", 1)[1]
            for line in result.stdout.splitlines()
            if line.startswith("  refined upper")
        ]
        assert refined == [
            cli.format_index_value(
                (n - c) + Fraction(1, n - 1) + Fraction(c * c - 3 * c - 2, 2 * (c + 1))
            )
            for c in range(3, 7)
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--index", "inverse-degree"), "exact value too large for a float: about 5e+399"),
            (("--alpha=-2",), "exact value too large for a float: about 2.5e+399"),
            (("--alpha=-2", "--format", "csv"), "exact value too large for a float: about 2.5e+399"),
            (("--index", "inverse-degree", "--format", "json"),
             "exact value too large for a float: about 5e+399"),
            (("--index", "mult-zagreb-log"), "order too large: the index value overflows a float"),
            (("--alpha", "1/2"), "order too large: the index value overflows a float"),
            (("--alpha=-1/2",), "order too large: the index value overflows a float"),
            (("--alpha", "2"), "order too large: the index value overflows a float"),
        ],
    )
    def test_an_order_beyond_the_float_range_is_one_error_line(self, argv, message):
        # Every report prints each value as a decimal: past the float range
        # the value that has none is named, and nothing is printed.
        result = run_isolated("bounds", "--n", str(10**400), "--c", "0", *argv)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"error: {message}\n"

    def test_tables_at_a_billion_vertices(self):
        result = run_in_384_mib("tables", "--n", str(10**9))
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.count("[refined upper ") == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [("extremal", "--c", "6"), ("bounds", "--c", "1..6", "--alpha", "2")],
        ids=["extremal", "bounds"],
    )
    def test_sequence_too_long_to_print_entry_by_entry(self, argv, fmt):
        # the text format prints runs; CSV and JSON would expand 10**9 entries
        result = run_isolated(*argv, "--n", "1000000000", "--format", fmt)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: sequence too long to print: 1000000000 entries\n"

    def test_print_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PRINTED_ENTRIES", 10)
        runs = ((9, 1), (2, 1), (1, 8))
        assert cli.plain_sequence(runs) == "9 2 1 1 1 1 1 1 1 1"
        assert cli.printable(runs) is runs
        for render in (cli.plain_sequence, cli.printable):
            with pytest.raises(ValueError, match="too long to print: 11 entries"):
                render(runs + ((0, 1),))


@pytest.mark.parametrize(
    "command", [("verify", "--n", "10"), ("bounds", "--n", "10", "--alpha", "2")]
)
@pytest.mark.parametrize("text", ["x", "1..", "..", "1.5", "a..b", "1..2..3"])
def test_malformed_cycle_range_is_a_usage_error(capsys, command, text):
    code, out, err = run(capsys, *command, "--c", text)
    assert (code, out) == (1, "")
    assert err == f"error: argument --c: expected an integer or lo..hi, got {text!r}\n"


def test_empty_cycle_range_keeps_its_message(capsys):
    assert run(capsys, "verify", "--n", "10", "--c", "3..1") == (
        1, "", "error: empty range '3..1'\n"
    )


def test_exit_code_ranks_a_mismatch_over_a_skip():
    assert exit_code([EXACT_MATCH, SKIPPED, MISMATCH, SKIPPED]) == EXIT_MISMATCH
    assert exit_code([EXACT_MATCH, SKIPPED]) == EXIT_CAP
    assert exit_code([EXACT_MATCH, "ok"]) == exit_code([]) == EXIT_OK


class TestHugeCycleRanges:
    """A ``--c`` range is never materialized, however wide."""

    WIDE = "0..1000000000000"

    def test_verify_refuses_the_range(self):
        result = run_isolated("verify", "--n", "5", "--c", self.WIDE)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: c=7 has no proven characterization; use --conjecture\n"

    def test_bounds_stops_at_the_first_class_that_cannot_exist(self):
        result = run_isolated("bounds", "--alpha", "2", "--n", "5", "--c", self.WIDE)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            "error: no connected graph with 7 independent cycles has order 5 (need n >= 6)\n"
        )

    def test_conjecture_stops_past_the_largest_order(self):
        wide = run_isolated("verify", "--conjecture", "--n-max", "5", "--c", self.WIDE)
        plain = run_isolated("verify", "--conjecture", "--n-max", "5", "--c", "0..6")
        assert (wide.returncode, wide.stderr) == (plain.returncode, plain.stderr) == (0, "")
        assert wide.stdout == plain.stdout
        assert wide.stdout.count("holds") == 14

    def test_range_starting_past_the_proven_cycles(self):
        result = run_isolated("verify", "--n", "5", "--c", "9..1000000000000")
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: c=9 has no proven characterization; use --conjecture\n"

    def test_huge_c_is_refused_at_once(self):
        # the least order is computed in O(1), not by counting up to it
        huge = str(10**30)
        result = run_isolated("extremal", "--n", "5", "--c", huge)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            f"error: no connected graph with {huge} independent cycles has order 5 "
            "(need n >= 1414213562373097)\n"
        )
        result = run_isolated("verify", "--conjecture", "--n", "5", "--c", f"{huge}..{huge}5")
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


class TestVerify:
    def test_lines_are_written_as_they_are_made(self, tmp_path):
        # 400,000 orders of a tree, all but two above the cap: a record kept
        # per line, and the whole text joined at the end, would not fit in
        # 128 MiB of address space.
        limit = 128 << 20
        out = tmp_path / "out"
        with open(out, "w") as stream:
            result = subprocess.run(
                [sys.executable, "-m", "ccyclic.cli", "verify", "--n-max", "400000", "--c", "0",
                 "--cap", "3"],
                stdout=stream,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
                env={"PYTHONPATH": str(SRC)},
            )
        assert (result.returncode, result.stderr) == (3, "")
        lines = out.read_text().splitlines()
        assert len(lines) == 2 * 6 + 399997 + 1  # n = 2, 3: six checks each; skips; summary
        assert lines[12] == "equivalence c=0 n=4: skipped (enumeration cap 3)"
        assert lines[-2] == "equivalence c=0 n=400000: skipped (enumeration cap 3)"
        assert lines[-1] == "summary: 12 checks, 12 ok, 0 mismatched, skipped=yes"

    def test_small_grid_all_match(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "6", "--c", "0..6")
        assert code == 0
        assert "0 mismatched" in out
        assert "skipped=no" in out

    def test_equivalence_only(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-max", "9", "--c", "0..6", "--equivalence-only"
        )
        assert code == 0
        assert "equivalence" in out
        assert "bounds" not in out

    def test_conjecture_c7(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "10", "--c", "7", "--conjecture"
        )
        assert code == 0
        assert "CONJECTURE c=7 n=10" in out
        assert "holds" in out

    def test_equivalence_only_is_refused_with_conjecture(self, capsys):
        code, out, err = run(
            capsys, "verify", "--conjecture", "--equivalence-only", "--n", "8", "--c", "7"
        )
        assert (code, out) == (1, "")
        assert err == "error: --equivalence-only applies to proven classes, not --conjecture\n"

    def test_c7_without_conjecture_flag_fails(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "10", "--c", "7")
        assert code == 1
        assert "--conjecture" in err

    def test_unproven_c_refused_before_any_enumeration(self, capsys, monkeypatch):
        def enumerated(klass, cap, family=None, indices=()):
            raise AssertionError(f"enumerated {klass} before refusing c=7")

        monkeypatch.setattr(cli, "walk_class", enumerated)
        code, out, err = run(capsys, "verify", "--c", "0..7", "--n", "20", "--cap", "20")
        assert (code, out) == (1, "")
        assert err == "error: c=7 has no proven characterization; use --conjecture\n"

    def test_failed_conjecture_exits_2(self, capsys, monkeypatch):
        original = degree_sequences.parametric_extremal_family
        monkeypatch.setattr(
            degree_sequences, "parametric_extremal_family",
            lambda c, n: with_a_maximal_as_minimal(original(c, n)),
        )
        code, out, _ = run(capsys, "verify", "--conjecture", "--n", "9", "--c", "7")
        assert code == 2
        assert out == (
            "CONJECTURE c=7 n=9: closed-form patterns extremal over 174 sequences: FAILS\n"
            "    minimal fails below [8, 7, 3^2, 2^4, 1]\n"
            "    minimal fails below [8, 7, 3, 2^6]\n"
            "    minimal fails below [8, 6, 4, 3^2, 2^2, 1^2]\n"
        )

    def test_extremality_mismatch_names_its_witnesses(self, capsys, monkeypatch):
        # Only the walk sees the damaged family: the bounds keep the true one.
        original = cli.walk_class
        monkeypatch.setattr(
            cli, "walk_class",
            lambda klass, cap, family, indices: original(klass, cap, upside_down(family), indices),
        )
        code, out, _ = run(capsys, "verify", "--n", "7", "--c", "3")
        assert code == 2
        assert out.splitlines()[1:6] == [
            "extremality c=3 n=7: MISMATCH",
            "    [3^4, 2^3] strictly majorized by [6, 4, 2^3, 1^2]",
            "    minimal fails below [6, 3^3, 1^3]",
            "    minimal fails below [6, 3^2, 2^2, 1^2]",
            "    minimal fails below [6, 3, 2^4, 1]",
        ]
        assert out.endswith("summary: 6 checks, 5 ok, 1 mismatched, skipped=no\n")

    def test_extremality_mismatch_names_uncovered_members(self, capsys, monkeypatch):
        # The family without its last maximal, wherever it is built.
        original = degree_sequences.extremal_family

        def dropped(klass):
            family = original(klass)
            return replace(family, maximal_runs=family.maximal_runs[:-1])

        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "ccyclic":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, dropped)
        code, out, _ = run(capsys, "verify", "--n", "9", "--c", "6")
        assert code == 2
        assert out.splitlines()[:5] == [
            "equivalence c=6 n=9: ok (210 candidates)",
            "extremality c=6 n=9: MISMATCH",
            "    [8, 4^4, 1^4] below no maximal",
            "    [7, 5, 4^3, 1^4] below no maximal",
            "    [6^2, 4^3, 1^4] below no maximal",
        ]
        assert out.splitlines()[5].startswith("bounds c=6 n=9 ")

    def test_extremality_mismatch_names_a_broken_family(self, capsys, monkeypatch):
        # A non-member maximal that majorizes the others.
        original = cli.walk_class
        intruder = runs_of((6, 6, 2, 1, 1, 1, 1))

        def walk(klass, cap, family, indices):
            family = replace(family, maximal_runs=family.maximal_runs + (intruder,))
            return original(klass, cap, family, indices)

        monkeypatch.setattr(cli, "walk_class", walk)
        code, out, _ = run(capsys, "verify", "--n", "7", "--c", "3")
        assert code == 2
        assert out.splitlines()[1:4] == [
            "extremality c=3 n=7: MISMATCH",
            "    a family sequence is not a class member",
            "    maximals not pairwise incomparable",
        ]
        assert out.endswith("summary: 6 checks, 5 ok, 1 mismatched, skipped=no\n")

    def test_conjecture_without_orders_prints_nothing(self, capsys):
        for argv in (["--n", "3", "--c", "7"], ["--c", "7", "--n-max", "4"]):
            assert run(capsys, "verify", "--conjecture", *argv) == (0, "", "")

    def test_cap_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "13", "--c", "1", "--cap", "12"
        )
        assert code == 3
        assert "skipped" in out

    def test_needs_an_order(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 1

    def test_negative_range_as_its_own_token(self, capsys):
        # argparse alone reads -1..2 as an option and stops: expected one argument.
        code, out, err = run(capsys, "verify", "--n", "5", "--c", "-1..2")
        assert (code, out, err) == (1, "", "error: cyclomatic number must be nonnegative\n")
        assert run(capsys, "verify", "--n", "5", "--c=-1..2") == (code, out, err)

    def test_negative_cap_is_a_usage_error(self, capsys):
        for argv in (
            ["verify", "--n", "6", "--cap", "-1"],
            ["bounds", "--n", "6", "--c", "1", "--index", "inverse-degree", "--verify",
             "--cap", "-1"],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == "error: --cap must be nonnegative, got -1\n"

    def test_negative_order_is_a_usage_error(self, capsys):
        for argv, flag, value in (
            (["verify", "--n", "-4"], "--n", -4),
            (["verify", "--n-max", "-1", "--conjecture", "--c", "7"], "--n-max", -1),
            (["verify", "--n", "-1", "--cap", "-1"], "--n", -1),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err == f"error: {flag} must be nonnegative, got {value}\n"

    def test_orders_below_the_least_order_check_nothing(self, capsys):
        # From 0 up to below the least order no class exists: nothing is checked.
        for argv in (["--n", "0"], ["--n", "2", "--c", "1"], ["--n-max", "0"]):
            assert run(capsys, "verify", *argv) == (
                0, "summary: 0 checks, 0 ok, 0 mismatched, skipped=no\n", ""
            ), argv
        assert run(capsys, "verify", "--n-max", "5", "--conjecture", "--c", "7") == (0, "", "")

    def test_enumerates_each_class_once(self, capsys, monkeypatch):
        # A class is enumerated by the candidate generator or by one walk.
        generate, walk = degree_sequences.candidate_sequences, degree_sequences.walk_class
        created = []

        def counting_generator(n, total):
            created.append((n, total))
            return generate(n, total)

        def counting_walk(klass, *args):
            created.append((klass.n, klass.degree_total))
            return walk(klass, *args)

        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "ccyclic":
                for attr, value in list(vars(module).items()):
                    if value is generate:
                        monkeypatch.setattr(module, attr, counting_generator)
                    elif value is walk:
                        monkeypatch.setattr(module, attr, counting_walk)
        code, out, _ = run(capsys, "verify", "--n", "8", "--c", "0..6")
        assert code == 0
        assert "summary: 42 checks, 42 ok, 0 mismatched, skipped=no" in out
        assert len(created) == len(set(created)) == 7

    def test_conjecture_walks_each_order_once_and_builds_no_population(self, capsys, monkeypatch):
        walked = walks_without_population(monkeypatch)
        code, out, _ = run(capsys, "verify", "--conjecture", "--n-max", "10", "--c", "5..8",
                           "--cap", "9")
        assert code == 3
        enumerated = re.findall(r"^CONJECTURE c=(\d+) n=(\d+): closed-form", out, re.MULTILINE)
        assert walked == [(int(c), int(n)) for c, n in enumerated]
        assert len(walked) == len(set(walked)) == 18
        assert out.count(": holds\n") == 18 and out.count("skipped") == 4

    def test_population_does_not_trust_the_counting_conditions(self, capsys, monkeypatch):
        # Asking four degrees >= 4 where five are needed admits the
        # non-graphical [8, 7, 4^2, 1^5] into the c = 6 boxes at n = 9.
        loosened = degree_sequences._COUNT_CONDITIONS[6][:-1] + ((5, ((4, 4),)),)
        monkeypatch.setitem(degree_sequences._COUNT_CONDITIONS, 6, loosened)
        report = bounds(CyclomaticClass(c=6, n=9), IndexSpec.general_zagreb(2))
        assert with_verification(report, 12).verified == MISMATCH
        code, out, _ = run(capsys, "verify", "--n", "9", "--c", "6")
        assert code == 2
        assert out.endswith("summary: 6 checks, 0 ok, 6 mismatched, skipped=no\n")


class TestRealize:
    def test_check_c_success(self, capsys):
        code, out, _ = run(
            capsys, "realize", "--seq", "7,3,3,3,1,1,1,1", "--check-c", "3"
        )
        assert code == 0
        assert out.startswith("graph G {")

    def test_triangle_document(self, capsys):
        code, out, _ = run(capsys, "realize", "--seq", "2,2,2", "--label", "")
        assert code == 0
        assert out == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  0 -- 2;\n  1 -- 2;\n}\n"

    def test_non_graphical_exit(self, capsys):
        code, _, err = run(capsys, "realize", "--seq", "3,1,1")
        assert code == 1
        assert "not graphical" in err

    def test_label_is_escaped(self, capsys):
        code, out, _ = run(capsys, "realize", "--seq", "2,2,2", "--label", 'a"b\\c')
        assert code == 0
        assert out.splitlines()[1] == '  label="a\\"b\\\\c";'

    def test_check_c_mismatch_exit(self, capsys):
        code, _, err = run(
            capsys, "realize", "--seq", "2,2,2", "--check-c", "2"
        )
        assert code == 2

    def test_negative_sequence_as_its_own_token(self, capsys):
        # argparse alone reads -1,1 as an option and stops: expected one argument.
        # Every abbreviation of --seq that argparse accepts takes it the same way.
        code, out, err = run(capsys, "realize", "--seq=-1,1")
        assert (code, out, err) == (1, "", "error: degrees must be sorted nonincreasing\n")
        for flag in ("--seq", "--se", "--s"):
            assert run(capsys, "realize", flag, "-1,1") == (code, out, err), flag

    def test_negative_check_c_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "realize", "--seq", "2,2,2", "--check-c", "-5")
        assert (code, out, err) == (1, "", "error: --check-c must be nonnegative, got -5\n")


class TestDeterminismAndOutput:
    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "bounds", "--n", "9", "--c", "1..6", "--alpha", "-1")
        _, second, _ = run(capsys, "bounds", "--n", "9", "--c", "1..6", "--alpha", "-1")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            "bounds", "--n", "8", "--c", "2", "--alpha", "2",
            "--format", "csv", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,c,index,alpha,")

    def test_json_output_file_equals_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        argv = ["bounds", "--n", "9", "--c", "1..6", "--alpha", "2", "--format", "json"]
        _, out, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_text() == out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run(capsys, "extremal", "--n", "5", "--c", "1", "--output", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["extremal", "--n", "100000", "--c", "6", "--format", "json"],
            ["tables"],
        ],
        ids=["cli", "tables"],
    )
    def test_closed_stdout_is_one_error_line(self, argv):
        # the read end is closed before the child starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "ccyclic.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=60, env={"PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr.startswith("error: cannot write stdout: ")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
