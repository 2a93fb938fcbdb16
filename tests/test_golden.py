"""Golden files: the exact bytes every subcommand prints.

Each case runs in-process and must reproduce the recorded stdout byte for
byte (``golden/<case>.out``) and the recorded exit code and stderr
(``golden/results.json``).  Re-record on purpose, after a change that is
meant to alter output, with ``python tests/golden/record.py``.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from ccyclic import cli, degree_sequences
from ccyclic.cli import _parse_range
from ccyclic.cli import main as cli_main
from ccyclic.indices import Extremes

from oracles import walks_without_population, with_a_maximal_as_minimal

GOLDEN = Path(__file__).resolve().parent / "golden"
RESULTS = GOLDEN / "results.json"

#: case name -> argv
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
    # the power sums of all members tie to within rounding: lower and upper print equal
    "bounds-alpha-near-one": [
        "bounds", "--n", "9", "--c", "1..2", "--alpha=0.9999999999999999", "--verify",
    ],
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
    "verify-conjecture-cap-skip-to-15": [
        "verify", "--conjecture", "--n-max", "15", "--c", "7", "--cap", "8",
    ],
    "verify-cap-skip": ["verify", "--n-max", "9", "--c", "2..3", "--cap", "8"],
    "verify-c7-usage-error": ["verify", "--n", "10", "--c", "7"],
    "realize-check-c": ["realize", "--seq", "7,3,3,3,1,1,1,1", "--check-c", "3"],
    "realize-label": ["realize", "--seq", "3,3,2,2,2", "--label", "house"],
    "realize-non-graphical": ["realize", "--seq", "3,1,1"],
    "realize-check-c-mismatch": ["realize", "--seq", "2,2,2", "--check-c", "2"],
    "tables": ["tables", "--n", "9", "--verify"],
    "tables-small-n": ["tables", "--n", "5"],
}


def run_case(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
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


def test_tables_exits_3_on_a_skipped_row():
    argv = CASES["tables"] + ["--cap", "8"]
    code, out, err = run_case(argv)
    assert (code, err) == (3, "")
    verified = (GOLDEN / "tables.out").read_text()
    assert out == verified.replace("(exact-match)", "(skipped)")


def test_tables_exits_2_on_a_mismatch(monkeypatch):
    # each index's extremes miss the class's first member: they move for 9 of
    # 13 rows, and the spread maxima of c = 3..6 move for the other 4
    original = Extremes.add

    def add_all_but_the_first(extremes, key, runs):
        if hasattr(extremes, "skipped_first"):
            original(extremes, key, runs)
        extremes.skipped_first = True

    monkeypatch.setattr(Extremes, "add", add_all_but_the_first)
    code, out, err = run_case(CASES["tables"])
    assert (code, err) == (2, "")
    assert out.count("(mismatch)") == 13
    assert out.count("(exact-match)") == 0


def test_tables_checks_the_refined_upper_bound(monkeypatch):
    original = cli.refined_inverse_degree_upper
    monkeypatch.setattr(
        cli, "refined_inverse_degree_upper", lambda klass: original(klass) + (klass.c == 4)
    )
    code, out, err = run_case(CASES["tables"])
    assert (code, err) == (2, "")
    (line,) = [line for line in out.splitlines() if "(mismatch)" in line]
    assert line.startswith("c=4 ") and "[refined upper" in line
    assert out.count("(exact-match)") == 12


@pytest.mark.parametrize("name", sorted(name for name, argv in CASES.items() if "--verify" in argv))
def test_verify_walks_each_class_once_and_builds_no_population(name, monkeypatch):
    # bounds --verify walks each class of its --c range, tables c = 0..6
    walked = walks_without_population(monkeypatch)
    argv = CASES[name]
    code, out, err = run_case(argv)
    assert {"argv": argv, "exit": code, "stderr": err} == _recorded()[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    n = int(argv[argv.index("--n") + 1])
    cycles = range(7) if "--c" not in argv else _parse_range(argv[argv.index("--c") + 1])
    assert walked == [(c, n) for c in cycles]


def test_conjecture_scan_exits_2_on_a_failing_order(monkeypatch):
    original = degree_sequences.parametric_extremal_family
    monkeypatch.setattr(
        degree_sequences, "parametric_extremal_family",
        lambda c, n: with_a_maximal_as_minimal(original(c, n)),
    )
    argv = ["verify", "--conjecture", "--c", "7", "--n-max", "8"]
    code, out, err = run_case(argv)
    assert (code, err) == (2, "")
    head = "CONJECTURE c=7 n={}: closed-form patterns extremal over {} sequences: "
    assert out.splitlines() == [
        head.format(6, 5) + "holds",  # no closed-form pattern exists at n = 6
        head.format(7, 26) + "FAILS",
        "    minimal fails below [6^2, 3^4, 2]",
        "    minimal fails below [6, 5^2, 3^3, 1]",
        "    minimal fails below [6, 5^2, 3^2, 2^2]",
        head.format(8, 81) + "FAILS",
        "    minimal fails below [7, 6, 4, 3^2, 2^2, 1]",
        "    minimal fails below [7, 6, 4, 3, 2^4]",
        "    minimal fails below [7, 6, 3^4, 2, 1]",
    ]
    # a failure outranks a skip
    code, out, _ = run_case(argv + ["--cap", "7"])
    assert code == 2
    assert out.endswith("CONJECTURE c=7 n=8: skipped (enumeration cap 7)\n")


def test_conjecture_scan_builds_each_pattern_family_once(monkeypatch):
    original = degree_sequences.parametric_extremal_family
    built = []

    def counting(c, n):
        built.append((c, n))
        return original(c, n)

    monkeypatch.setattr(degree_sequences, "parametric_extremal_family", counting)
    for name, orders in (("verify-conjecture", 12), ("verify-conjecture-cap-skip-to-15", 3)):
        built.clear()
        code, out, err = run_case(CASES[name])
        assert (code, err) == (_recorded()[name]["exit"], "")
        assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
        # once per enumerated order, and never for an order above the cap
        enumerated = re.findall(r"^CONJECTURE c=(\d+) n=(\d+): closed-form", out, re.MULTILINE)
        assert built == [(int(c), int(n)) for c, n in enumerated]
        assert len(built) == len(set(built)) == orders


#: every front end of the oracle, run at one order n with ``--cap`` appended
CAP_FRONT_ENDS = [
    pytest.param(["verify", "--n", "7", "--c", "1"], 7, id="verify"),
    pytest.param(["verify", "--conjecture", "--n", "8", "--c", "7"], 8, id="verify-conjecture"),
    pytest.param(
        ["bounds", "--n", "7", "--c", "1", "--index", "inverse-degree", "--verify"], 7,
        id="bounds-verify",
    ),
    pytest.param(["tables", "--n", "8", "--verify"], 8, id="tables"),
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
        (["tables", "--alpha", "1"], "exponents 0 and 1 are excluded by definition"),
        (["tables", "--alpha", "0"], "exponents 0 and 1 are excluded by definition"),
        (["tables", "--alpha", "400"], "exponent too large: the power sum overflows a float"),
        (["tables", "--cap", "-1", "--verify"], "--cap must be nonnegative, got -1"),
        (["tables", "--alpha", "1/2"], "argument --alpha: invalid int value: '1/2'"),
        (["tables", "--alpha=-3000"], "exact value too long to print: more than 4300 digits"),
    ],
)
def test_tables_usage_error_is_one_line_and_exit_1(argv, message):
    """A rejected argument prints nothing on stdout: no table is left half done."""
    assert run_case(argv) == (1, "", f"error: {message}\n")
