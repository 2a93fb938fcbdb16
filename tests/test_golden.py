"""Golden files: the exact bytes every subcommand and script prints.

Each case runs in-process and must reproduce the recorded stdout byte for
byte (``golden/<case>.out``) and the recorded exit code and stderr
(``golden/results.json``).  Re-record on purpose, after a change that is
meant to alter output, with ``python tests/golden/record.py``.
"""

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from ccyclic import degree_sequences
from ccyclic.cli import main as cli_main

from oracles import with_a_maximal_as_minimal

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
RESULTS = GOLDEN / "results.json"

#: case name -> argv; an argv starting with ``scripts/`` runs that script's main()
CASES = {
    "extremal-text": ["extremal", "--n", "8", "--c", "3"],
    "extremal-csv": ["extremal", "--n", "7", "--c", "6", "--format", "csv"],
    "extremal-json": ["extremal", "--n", "7", "--c", "6", "--format", "json"],
    "extremal-text-large": ["extremal", "--n", "1000", "--c", "6"],
    "extremal-csv-large": ["extremal", "--n", "1000", "--c", "4", "--format", "csv"],
    "extremal-json-degenerate": ["extremal", "--n", "5", "--c", "6", "--format", "json"],
    "bounds-text-refined-verify": [
        "bounds", "--n", "9", "--c", "3..6", "--index", "inverse-degree",
        "--refined", "--verify",
    ],
    "bounds-csv-refined-verify": [
        "bounds", "--n", "9", "--c", "3..6", "--index", "inverse-degree",
        "--refined", "--verify", "--format", "csv",
    ],
    "bounds-json-refined-verify": [
        "bounds", "--n", "9", "--c", "3..6", "--index", "inverse-degree",
        "--refined", "--verify", "--format", "json",
    ],
    "bounds-text-refined-large": [
        "bounds", "--n", "1000", "--c", "3..6", "--index", "inverse-degree", "--refined",
    ],
    "bounds-csv": ["bounds", "--n", "10", "--alpha", "2", "--c", "1..6", "--format", "csv"],
    "bounds-json": ["bounds", "--n", "10", "--alpha", "3", "--c", "1..6", "--format", "json"],
    "bounds-alpha-half": ["bounds", "--n", "9", "--c", "1..6", "--alpha", "1/2", "--verify"],
    "bounds-alpha-minus-half": ["bounds", "--n", "9", "--c", "1..6", "--alpha=-1/2", "--verify"],
    "bounds-mult-zagreb-log": [
        "bounds", "--n", "8", "--c", "0..6", "--index", "mult-zagreb-log", "--verify",
    ],
    "bounds-cap-exceeded": [
        "bounds", "--n", "14", "--c", "1", "--index", "inverse-degree", "--verify",
        "--cap", "12",
    ],
    "bounds-refined-usage-error": ["bounds", "--n", "10", "--c", "3", "--alpha", "2", "--refined"],
    "bounds-alpha-overflow": ["bounds", "--n", "10", "--c", "1", "--alpha", "1000000/3"],
    "bounds-exact-too-long": ["bounds", "--n", "10", "--c", "1", "--alpha=-4500"],
    "verify-n-max-8": ["verify", "--n-max", "8"],
    "verify-equivalence-only": ["verify", "--n-max", "10", "--equivalence-only"],
    "verify-conjecture": ["verify", "--conjecture", "--n-max", "11", "--c", "7..8"],
    "verify-conjecture-c5-6": ["verify", "--conjecture", "--c", "5..6", "--n-max", "9"],
    "verify-conjecture-cap-skip": ["verify", "--conjecture", "--n-max", "10", "--c", "7", "--cap", "9"],
    "verify-cap-skip": ["verify", "--n-max", "9", "--c", "2..3", "--cap", "8"],
    "verify-c7-usage-error": ["verify", "--n", "10", "--c", "7"],
    "realize-check-c": ["realize", "--seq", "7,3,3,3,1,1,1,1", "--check-c", "3"],
    "realize-label": ["realize", "--seq", "3,3,2,2,2", "--label", "house"],
    "realize-non-graphical": ["realize", "--seq", "3,1,1"],
    "realize-check-c-mismatch": ["realize", "--seq", "2,2,2", "--check-c", "2"],
    "script-reproduce-tables": ["scripts/reproduce_tables.py", "--n", "9", "--verify"],
    "script-reproduce-tables-small-n": ["scripts/reproduce_tables.py", "--n", "5"],
    "script-conjecture-scan": ["scripts/conjecture_scan.py", "--c-max", "8", "--n-max", "11"],
    "script-conjecture-scan-cap-skip": [
        "scripts/conjecture_scan.py", "--c-max", "7", "--n-max", "15", "--cap", "8",
    ],
}


def _script_main(relpath: str):
    spec = importlib.util.spec_from_file_location(Path(relpath).stem, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def run_case(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process run."""
    entry = cli_main
    if argv[0].startswith("scripts/"):
        entry, argv = _script_main(argv[0]), argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(list(argv))
    return code, out.getvalue(), err.getvalue()


def _recorded() -> dict:
    return json.loads(RESULTS.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out, err = run_case(CASES[name])
    assert {"argv": CASES[name], "exit": code, "stderr": err} == _recorded()[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_every_golden_file_has_a_case():
    assert set(_recorded()) == set(CASES)
    assert {path.stem for path in GOLDEN.glob("*.out")} == set(CASES)


def test_output_file_equals_stdout(tmp_path):
    target = tmp_path / "bounds.csv"
    code, out, err = run_case(CASES["bounds-csv"] + ["--output", str(target)])
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == (GOLDEN / "bounds-csv.out").read_bytes()


def test_reproduce_tables_exits_3_on_a_skipped_row():
    argv = CASES["script-reproduce-tables"] + ["--cap", "8"]
    code, out, err = run_case(argv)
    assert (code, err) == (3, "")
    verified = (GOLDEN / "script-reproduce-tables.out").read_text()
    assert out == verified.replace("(exact-match)", "(skipped)")


def test_reproduce_tables_exits_2_on_a_mismatch(monkeypatch):
    # each class short of its first member: the oracle's extremes move for 9 of 13 rows
    original = degree_sequences.enumerate_sequences
    monkeypatch.setattr(
        degree_sequences, "enumerate_sequences", lambda klass, cap: original(klass, cap)[1:]
    )
    code, out, err = run_case(CASES["script-reproduce-tables"])
    assert (code, err) == (2, "")
    assert out.count("(mismatch)") == 9
    assert out.count("(exact-match)") == 4


def test_reproduce_tables_enumerates_each_class_once(monkeypatch):
    original = degree_sequences.candidate_sequences
    created = []

    def counting(n, total):
        created.append((n, total))
        return original(n, total)

    monkeypatch.setattr(degree_sequences, "candidate_sequences", counting)
    code, out, err = run_case(CASES["script-reproduce-tables"])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "script-reproduce-tables.out").read_bytes()
    assert len(created) == len(set(created)) == 7


def test_conjecture_scan_exits_2_on_a_failing_order(monkeypatch):
    original = degree_sequences.parametric_extremal_family
    monkeypatch.setattr(
        degree_sequences, "parametric_extremal_family",
        lambda c, n: with_a_maximal_as_minimal(original(c, n)),
    )
    code, out, err = run_case(["scripts/conjecture_scan.py", "--c-max", "7", "--n-max", "8"])
    assert (code, err) == (2, "")
    assert out.splitlines()[0] == "c=7 n=7: 1 maximal patterns, minimal yes, 26 sequences: FAILS"
    assert out.endswith("done; 2 failing (c, n) pairs\n")
    # a failure outranks a skip
    code, out, _ = run_case(
        ["scripts/conjecture_scan.py", "--c-max", "7", "--n-max", "8", "--cap", "7"]
    )
    assert code == 2
    assert "c=7 n=8: skipped (enumeration cap 7)" in out


def test_conjecture_scan_builds_each_pattern_family_once(monkeypatch):
    original = degree_sequences.parametric_extremal_family
    built = []

    def counting(c, n):
        built.append((c, n))
        return original(c, n)

    monkeypatch.setattr(degree_sequences, "parametric_extremal_family", counting)
    code, out, err = run_case(CASES["script-conjecture-scan"])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "script-conjecture-scan.out").read_bytes()
    assert len(built) == len(set(built)) == 12


#: every front end of the oracle, run at one order n with ``--cap`` appended
CAP_FRONT_ENDS = [
    pytest.param(["verify", "--n", "7", "--c", "1"], 7, id="verify"),
    pytest.param(["verify", "--conjecture", "--n", "8", "--c", "7"], 8, id="verify-conjecture"),
    pytest.param(
        ["bounds", "--n", "7", "--c", "1", "--index", "inverse-degree", "--verify"], 7,
        id="bounds-verify",
    ),
    pytest.param(
        ["scripts/conjecture_scan.py", "--c-max", "7", "--n-max", "8"], 8, id="conjecture-scan"
    ),
    pytest.param(["scripts/reproduce_tables.py", "--n", "8", "--verify"], 8, id="reproduce-tables"),
]


@pytest.mark.parametrize("argv,n", CAP_FRONT_ENDS)
def test_class_at_the_cap_runs_and_one_above_is_skipped(argv, n):
    skip = re.compile(r"skipped(?!=no)")  # a skip, not verify's "skipped=no" summary
    code, out, err = run_case(argv + ["--cap", str(n)])
    assert (code, err) == (0, "")
    assert not skip.search(out)
    code, out, err = run_case(argv + ["--cap", str(n - 1)])
    assert (code, err) == (3, "")
    assert skip.search(out)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scripts/reproduce_tables.py", "--alpha", "1"], "exponents 0 and 1 are excluded by definition"),
        (["scripts/reproduce_tables.py", "--alpha", "0"], "exponents 0 and 1 are excluded by definition"),
        (["scripts/reproduce_tables.py", "--alpha", "400"], "exponent too large: the power sum overflows a float"),
        (["scripts/reproduce_tables.py", "--cap", "-1", "--verify"], "--cap must be nonnegative, got -1"),
        (["scripts/conjecture_scan.py", "--cap", "-1"], "--cap must be nonnegative, got -1"),
        (["scripts/reproduce_tables.py", "--alpha", "1/2"], "argument --alpha: invalid int value: '1/2'"),
        (["scripts/conjecture_scan.py", "--c-max", "x"], "argument --c-max: invalid int value: 'x'"),
        (["scripts/reproduce_tables.py", "--alpha=-3000"], "exact value too long to print: more than 4300 digits"),
    ],
)
def test_script_usage_error_is_one_line_and_exit_1(argv, message):
    """A rejected argument prints nothing on stdout: no table is left half done."""
    assert run_case(argv) == (1, "", f"error: {message}\n")
