"""Command line interface: extremal families, index bounds, verification, realization.

Exit codes: 0 success, 1 domain or usage error, 2 verification mismatch,
3 enumeration cap exceeded.  All output is deterministic byte for byte for a
given invocation; exact rationals render as ``p/q`` with a 12-significant-
digit decimal alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice

from .bounds import (
    EXACT_MATCH,
    MISMATCH,
    SKIPPED,
    annotate_orientation,
    bounds,
    refined_inverse_degree_upper,
    report_to_json_dict,
    reports_to_csv,
    verify_bounds,
    with_verification,
)
from .degree_sequences import (
    DEFAULT_ENUMERATION_CAP,
    MAX_SUPPORTED_CYCLES,
    CyclomaticClass,
    EnumerationCapError,
    check_family_extremality,
    check_pattern_extremality,
    class_candidates,
    extremal_family,
    graphical_class_sequences,
    is_ccyclic_sequence,
    is_ccyclic_sequence_via_inequalities,
    is_graphical,
    min_order,
)
from .formatting import format_index_value, format_sequence, plain_sequence, printable
from .indices import INVERSE_DEGREE, IndexSpec, SchurClass
from .majorization import expand_runs, runs_of
from .realization import cyclomatic_number, export_dot, realize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3

OK = "ok"

VERIFY_INDICES = (
    IndexSpec.inverse_degree(),
    IndexSpec.general_zagreb(2),
    IndexSpec.general_zagreb(3),
    IndexSpec.mult_zagreb_log(),
)


class UsageError(Exception):
    """A malformed or out-of-range argument: one ``error:`` line, exit code 1."""


class Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise :class:`UsageError`."""

    def error(self, message):  # map argparse's default exit(2) onto exit code 1
        raise UsageError(message)


def _parse_range(text: str) -> range:
    """A single value or an inclusive range ``lo..hi``, as a range: nothing is materialized."""
    lo, dots, hi = text.partition("..")
    try:
        start, stop = int(lo), int(hi if dots else lo)
    except ValueError:
        raise UsageError(f"argument --c: expected an integer or lo..hi, got {text!r}") from None
    if stop < start:
        raise UsageError(f"empty range {text!r}")
    return range(start, stop + 1)


def checked_cap(cap: int) -> int:
    """The enumeration cap, or a :class:`UsageError` when it is negative."""
    if cap < 0:
        raise UsageError(f"--cap must be nonnegative, got {cap}")
    return cap


def _parse_sequence(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"could not parse degree sequence {text!r}")


def _index_from_args(args) -> IndexSpec:
    if args.index == "general-zagreb":
        if args.alpha is None:
            raise UsageError("--alpha is required for --index general-zagreb")
        try:
            alpha = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"could not parse exponent {args.alpha!r}")
        return IndexSpec.general_zagreb(alpha)
    if args.alpha is not None:
        raise UsageError("--alpha only applies to --index general-zagreb")
    if args.index == "inverse-degree":
        return IndexSpec.inverse_degree()
    return IndexSpec.mult_zagreb_log()


def _emit(chunks, output) -> None:
    """Write text chunks, as they come, to the ``output`` file or stdout; a string is one chunk."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    try:
        if not output:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
            return
        with open(output, "w") as stream:
            stream.writelines(chunks)
    except OSError as exc:
        if not output:  # stdout is closed: leave the rest to the null device, not the exit flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write {output or 'stdout'}: {exc.strerror}")


def _json_chunks(doc):
    """The text of ``json.dumps(doc, indent=2)`` and a newline, encoded as it is written.

    The encoder's pieces are joined in blocks of 2**16: the whole text is
    never held, and there are few writes.
    """
    pieces = json.JSONEncoder(indent=2).iterencode(doc)
    for first in pieces:
        yield first + "".join(islice(pieces, (1 << 16) - 1))
    yield "\n"


def exit_code(statuses) -> int:
    """Mismatch outranks a cap skip; any other status is success."""
    statuses = set(statuses)
    if MISMATCH in statuses:
        return EXIT_MISMATCH
    if SKIPPED in statuses:
        return EXIT_CAP
    return EXIT_OK


# ---------------------------------------------------------------------------
# extremal
# ---------------------------------------------------------------------------


def cmd_extremal(args) -> int:
    klass = CyclomaticClass(c=args.c, n=args.n)
    family = extremal_family(klass)
    if args.format == "json":
        doc = {
            "n": klass.n,
            "c": klass.c,
            "degree_total": klass.degree_total,
            "maximals": [list(expand_runs(printable(runs))) for runs in family.maximal_runs],
            "minimal": list(expand_runs(printable(family.minimal_runs))),
            "maximals_pairwise_incomparable": len(family.maximal_runs) > 1,
        }
        _emit(_json_chunks(doc), args.output)
    elif args.format == "csv":
        lines = ["n,c,role,sequence"]
        for runs in family.maximal_runs:
            lines.append(f"{klass.n},{klass.c},maximal,{plain_sequence(runs)}")
        lines.append(f"{klass.n},{klass.c},minimal,{plain_sequence(family.minimal_runs)}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        lines = [f"n={klass.n} c={klass.c} degree-total={klass.degree_total}"]
        for i, runs in enumerate(family.maximal_runs, start=1):
            lines.append(f"maximal {i}: {format_sequence(runs)}")
        if len(family.maximal_runs) > 1:
            lines.append("maximals: pairwise incomparable under majorization")
        lines.append(f"minimal: {format_sequence(family.minimal_runs)}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _render_bounds_text(report) -> list:
    lines = [
        f"n={report.klass.n} c={report.klass.c} index={report.index.label}",
        f"  lower: {format_index_value(report.lower)} at {format_sequence(report.lower_attainer)}",
        f"  upper: {format_index_value(report.upper)} at {format_sequence(report.upper_attainer)}",
    ]
    if len(report.candidates) > 1:
        binding = (
            report.upper_attainer
            if report.index.schur_class is SchurClass.CONVEX
            else report.lower_attainer
        )
        rendered = []
        for runs, val in report.candidates:
            mark = " [binding]" if runs == binding else ""
            rendered.append(f"{format_sequence(runs)} -> {format_index_value(val)}{mark}")
        lines.append("  candidates: " + "; ".join(rendered))
    if report.refined_upper is not None:
        lines.append(
            "  refined upper (when the (c+2)-th degree is at least 2): "
            + format_index_value(report.refined_upper)
        )
    if report.verified:
        lines.append(f"  verified: {report.verified}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return lines


def cmd_bounds(args) -> int:
    index = _index_from_args(args)
    if args.refined and index.kind != INVERSE_DEGREE:
        raise UsageError("--refined applies only to --index inverse-degree")
    cap = checked_cap(args.cap)
    reports = []
    for c in _parse_range(args.c):
        klass = CyclomaticClass(c=c, n=args.n)
        report = annotate_orientation(bounds(klass, index))
        if args.refined:
            report = replace(report, refined_upper=refined_inverse_degree_upper(klass))
        if args.verify:
            report = with_verification(report, cap)
        reports.append(report)

    if args.format == "json":
        docs = [report_to_json_dict(report) for report in reports]
        _emit(_json_chunks(docs), args.output)
    elif args.format == "csv":
        _emit(reports_to_csv(reports), args.output)
    else:
        lines = [line for report in reports for line in _render_bounds_text(report)]
        _emit("\n".join(lines) + "\n", args.output)

    return exit_code(report.verified for report in reports)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _equivalence_check(klass, cap: int) -> tuple:
    """Compare the three membership tests on every candidate with the right sum.

    Also returns the candidates the Erdos-Gallai test accepts, as runs: the
    class population that every later check of the class reuses,
    independent of the counting conditions that the extremal family is
    built from.  Raises :class:`EnumerationCapError` above the cap.
    """
    failures = []
    members = []
    count = 0
    for runs in class_candidates(klass, cap):
        count += 1
        counting = is_ccyclic_sequence(runs, klass)
        inequalities = is_ccyclic_sequence_via_inequalities(runs, klass)
        graphical = is_graphical(runs)
        if not (counting == inequalities == graphical):
            failures.append((runs, counting, inequalities, graphical))
        if graphical:
            members.append(runs)
    return count, failures, members


def _verify_orders(args, c: int) -> range:
    """The requested orders at which a class with c cycles exists."""
    if args.n is not None:
        return range(max(args.n, min_order(c)), args.n + 1)
    return range(min_order(c), args.n_max + 1)


@dataclass(frozen=True)
class CheckRecord:
    """One verification check over a class: its report lines and its outcome."""

    line: str
    status: str  # ok | mismatch | skipped


def _status(passed: bool) -> str:
    return OK if passed else MISMATCH


def _witnesses(report) -> str:
    """Why an extremality report fails, as indented lines, each after a newline: empty when ok."""
    lines = [
        f"{format_sequence(top)} strictly majorized by {format_sequence(witness)}"
        for top, witness in report.dominated_patterns
    ]
    lines += [f"minimal fails below {format_sequence(seq)}" for seq in report.not_above_minimal[:3]]
    return "".join(f"\n    {line}" for line in lines)


def _proven_checks(klass, args):
    """The equivalence, extremality and bound checks of a class with c <= 6."""
    where = f"c={klass.c} n={klass.n}"
    count, failures, population = _equivalence_check(klass, args.cap)
    if failures:
        runs, counting, inequalities, graphical = failures[0]
        line = (
            f"MISMATCH on {format_sequence(runs)} (counting={counting} "
            f"inequalities={inequalities} graphical={graphical})"
        )
    else:
        line = f"ok ({count} candidates)"
    yield CheckRecord(f"equivalence {where}: {line}", _status(not failures))
    if args.equivalence_only:
        return
    report = check_family_extremality(klass, population)
    line = f"ok ({report.sequence_count} sequences)" if report.complete else "MISMATCH"
    yield CheckRecord(f"extremality {where}: {line}{_witnesses(report)}", _status(report.complete))
    for index in VERIFY_INDICES:
        matched = verify_bounds(bounds(klass, index), population).status == EXACT_MATCH
        line = EXACT_MATCH if matched else "MISMATCH"
        yield CheckRecord(f"bounds {where} {index.label}: {line}", _status(matched))


def _conjecture_checks(klass, args):
    """The closed-form patterns against the enumerated class, for any c."""
    report = check_pattern_extremality(klass, graphical_class_sequences(klass, args.cap))
    yield CheckRecord(
        f"CONJECTURE c={klass.c} n={klass.n}: closed-form patterns extremal over "
        f"{report.sequence_count} sequences: {'holds' if report.ok else 'FAILS'}"
        f"{_witnesses(report)}",
        _status(report.ok),
    )


def cmd_verify(args) -> int:
    if args.n is None and args.n_max is None:
        raise UsageError("verify needs --n or --n-max")
    if args.n is not None and args.n_max is not None:
        raise UsageError("give either --n or --n-max, not both")
    if args.conjecture and args.equivalence_only:
        raise UsageError("--equivalence-only applies to proven classes, not --conjecture")
    cap = checked_cap(args.cap)
    cycles = _parse_range(args.c)
    # Refuse the whole range before enumerating any class of it.
    if not args.conjecture and cycles[-1] > MAX_SUPPORTED_CYCLES:
        unproven = max(cycles[0], MAX_SUPPORTED_CYCLES + 1)
        raise UsageError(f"c={unproven} has no proven characterization; use --conjecture")
    checks, label = (
        (_conjecture_checks, "CONJECTURE") if args.conjecture else (_proven_checks, "equivalence")
    )
    records = []
    for c in cycles:
        orders = _verify_orders(args, c)
        if not orders:  # min_order is nondecreasing in c: no later c has an order either
            break
        for n in orders:
            try:  # a class above the cap raises before its first check
                records += checks(CyclomaticClass(c=c, n=n), args)
            except EnumerationCapError:
                line = f"{label} c={c} n={n}: skipped (enumeration cap {cap})"
                records.append(CheckRecord(line, SKIPPED))

    lines = [record.line for record in records]
    if not args.conjecture:
        run = [record for record in records if record.status != SKIPPED]
        ok_count = sum(record.status == OK for record in run)
        lines.append(
            f"summary: {len(run)} checks, {ok_count} ok, {len(run) - ok_count} mismatched, "
            f"skipped={'yes' if len(run) < len(records) else 'no'}"
        )
    _emit("".join(line + "\n" for line in lines), args.output)  # no orders: empty output
    return exit_code(record.status for record in records)


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def cmd_realize(args) -> int:
    seq = _parse_sequence(args.seq)
    graph = realize(seq)
    if args.check_c is not None:
        actual = cyclomatic_number(graph)
        if actual != args.check_c:
            print(
                f"error: realized graph has {actual} independent cycles, "
                f"expected {args.check_c}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
    label = args.label if args.label is not None else plain_sequence(runs_of(seq))
    _emit(export_dot(graph, label=label), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> Parser:
    parser = Parser(
        prog="ccyclic",
        description=(
            "Majorization-extremal degree sequences of connected graphs with a "
            "prescribed number of independent cycles, and sharp bounds for "
            "degree-based topological indices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extremal", help="maximal/minimal degree sequences of a class")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--c", type=int, required=True, help="number of independent cycles")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(handler=cmd_extremal)

    p = sub.add_parser("bounds", help="index bounds over a class (or range of classes)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", required=True, help="single value or inclusive range like 1..6")
    p.add_argument(
        "--index",
        choices=("general-zagreb", "inverse-degree", "mult-zagreb-log"),
        default="general-zagreb",
    )
    p.add_argument("--alpha", help="exponent for general-zagreb (rational, not 0 or 1)")
    p.add_argument("--refined", action="store_true",
                   help="also report the refined upper bound (--index inverse-degree, c >= 3)")
    p.add_argument("--verify", action="store_true",
                   help="append the exhaustive-enumeration verdict")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="enumeration cap for --verify")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("verify", help="run the exhaustive verification suite")
    p.add_argument("--n", type=int, help="check a single order")
    p.add_argument("--n-max", type=int, help="check every order up to this one")
    p.add_argument("--c", default="0..6", help="single value or range, default 0..6")
    p.add_argument("--equivalence-only", action="store_true",
                   help="only cross-check the membership characterizations")
    p.add_argument("--conjecture", action="store_true",
                   help="check the closed-form patterns against enumeration (any c)")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--output")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("realize", help="build a connected graph from a degree sequence")
    p.add_argument("--seq", required=True, help="comma-separated nonincreasing degrees")
    p.add_argument("--check-c", type=int, dest="check_c",
                   help="fail unless the realized cyclomatic number equals this")
    p.add_argument("--label", help="label embedded in the DOT output")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_realize)
    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on the first call, then reused: parsing leaves it unchanged
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
