"""Command line interface: extremal families, index bounds, verification, realization, tables.

Exit codes: 0 success, 1 domain or usage error, 2 verification mismatch,
3 enumeration cap exceeded.  Every format (text, CSV and JSON) is rendered
here, deterministically byte for byte for a given invocation; exact rationals
render as ``p/q`` with a 12-significant-digit decimal alongside.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import islice, repeat

from .bounds import (
    EXACT_MATCH,
    MISMATCH,
    SKIPPED,
    annotate_orientation,
    bounds,
    bounds_table,
    closed_form_inverse_degree,
    oracle_outcome,
    refined_inverse_degree_upper,
    verify_class,
    with_verification,
)
from .degree_sequences import (
    DEFAULT_ENUMERATION_CAP,
    MAX_SUPPORTED_CYCLES,
    CyclomaticClass,
    EnumerationCapError,
    check_cap,
    check_pattern_extremality,
    extremal_family,
    min_order,
    walk_class,
)
from .indices import GENERAL_ZAGREB, INVERSE_DEGREE, KINDS, MAX_EXACT_DIGITS, IndexSpec, SchurClass
from .majorization import expand_runs, runs_of
from .realization import cyclomatic_number, export_dot, realize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3

OK = "ok"

_TOO_LONG = 10**MAX_EXACT_DIGITS  # the least int with more than MAX_EXACT_DIGITS digits
MAX_PRINTED_ENTRIES = 10**6  # longest sequence written out entry by entry (CSV and JSON)

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

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads "-1/2", "-1e400", "-1,1" or "-1..2" as an option: join
        # it to an --alpha, --c or --seq before it, or to any abbreviation of
        # one that argparse accepts (--a and --s on)
        args = list(sys.argv[1:] if args is None else args)
        for i in range(len(args) - 1, 0, -1):
            flag = args[i - 1]
            takes_value = any(name.startswith(flag) for name in ("--alpha", "--c", "--seq"))
            if len(flag) >= 3 and takes_value and re.match(r"-[\d.]", args[i]):
                args[i - 1 : i + 1] = [f"{flag}={args[i]}"]
        return super().parse_known_args(args, namespace)

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


def nonnegative(value: int, flag: str) -> int:
    """The value given to ``flag``, or a :class:`UsageError` when it is negative."""
    if value < 0:
        raise UsageError(f"{flag} must be nonnegative, got {value}")
    return value


def _parse_sequence(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"could not parse degree sequence {text!r}")


def _index_from_args(args) -> IndexSpec:
    if args.index == GENERAL_ZAGREB:
        if args.alpha is None:
            raise UsageError("--alpha is required for --index general-zagreb")
        try:
            alpha = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"could not parse exponent {args.alpha!r}")
        return IndexSpec.general_zagreb(alpha)
    if args.alpha is not None:
        raise UsageError("--alpha only applies to --index general-zagreb")
    return IndexSpec(kind=args.index)


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


def format_fraction(value) -> str:
    """Exact rational as ``p/q`` (or plain ``p`` for integers).

    A numerator or denominator longer than ``MAX_EXACT_DIGITS`` digits is
    refused with a ``ValueError``, whatever the interpreter's own limit on
    printing ints, so the output never depends on that setting.
    """
    frac = Fraction(value)
    if abs(frac.numerator) >= _TOO_LONG or frac.denominator >= _TOO_LONG:
        raise ValueError(f"exact value too long to print: more than {MAX_EXACT_DIGITS} digits")
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def format_decimal(value) -> str:
    """Decimal rendering with 12 significant digits.

    An exact value beyond the float range is refused with a ``ValueError``
    that gives its size, a power of ten read off its numerator and denominator.
    """
    try:
        return f"{float(value):.12g}"
    except OverflowError:
        size = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        raise ValueError(
            f"exact value too large for a float: about {10 ** (size % 1):.3g}e+{int(size)}"
        ) from None


def _exact(value) -> str:
    """The exact column of a value: ``p/q``, or empty for a float."""
    return "" if isinstance(value, float) else format_fraction(value)


def format_index_value(value) -> str:
    """A float as its decimal; an exact value as ``p/q`` with its decimal alongside."""
    exact = _exact(value)
    return f"{exact} ({format_decimal(value)})" if exact else format_decimal(value)


def format_sequence(runs) -> str:
    """Rendering of maximal runs: ((7, 1), (4, 1), (2, 3), (1, 3)) -> ``[7, 4, 2^3, 1^3]``."""
    parts = (f"{value}^{count}" if count > 1 else f"{value}" for value, count in runs)
    return "[" + ", ".join(parts) + "]"


def printable(runs):
    """The runs, or a ``ValueError`` when they hold more than ``MAX_PRINTED_ENTRIES`` entries."""
    size = sum(count for _, count in runs)
    if size > MAX_PRINTED_ENTRIES:
        raise ValueError(f"sequence too long to print: {size} entries")
    return runs


def plain_sequence(runs) -> str:
    """Space-separated rendering of every entry, used inside CSV fields."""
    return " ".join(" ".join(repeat(str(value), count)) for value, count in printable(runs))


def _entries(runs) -> list:
    """Every entry of the runs, as a JSON list."""
    return list(expand_runs(printable(runs)))


def _csv(rows) -> str:
    """Rows of fields joined with commas, unquoted: no field holds a comma, a quote or a newline."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


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
            "maximals": [_entries(runs) for runs in family.maximal_runs],
            "minimal": _entries(family.minimal_runs),
            "maximals_pairwise_incomparable": len(family.maximal_runs) > 1,
        }
        _emit(_json_chunks(doc), args.output)
    elif args.format == "csv":
        rows = [("n", "c", "role", "sequence")]
        rows += [(klass.n, klass.c, "maximal", plain_sequence(r)) for r in family.maximal_runs]
        rows.append((klass.n, klass.c, "minimal", plain_sequence(family.minimal_runs)))
        _emit(_csv(rows), args.output)
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


CSV_FIELDS = (
    "n", "c", "index", "alpha", "lower_exact", "lower_decimal", "upper_exact",
    "upper_decimal", "lower_attainer", "upper_attainer", "verified",
)
REFINED_FIELDS = ("refined_upper_exact", "refined_upper_decimal")


def _shared_fields(report, sequence, empty) -> list:
    """The fields that CSV and JSON both write, in ``CSV_FIELDS`` order up to ``verified``.

    ``sequence`` renders an attainer; ``empty`` stands for an absent alpha
    and for the exact column of a float.
    """
    alpha = report.index.alpha
    return [
        report.klass.n, report.klass.c, report.index.kind,
        empty if alpha is None else format_fraction(alpha),
        _exact(report.lower) or empty, format_decimal(report.lower),
        _exact(report.upper) or empty, format_decimal(report.upper),
        sequence(report.lower_attainer), sequence(report.upper_attainer),
    ]


def reports_to_csv(reports) -> str:
    """CSV document with a header row; the refined columns appear when any report has them."""
    refined = any(report.refined_upper is not None for report in reports)
    rows = [CSV_FIELDS + REFINED_FIELDS if refined else CSV_FIELDS]
    for report in reports:
        rows.append(_shared_fields(report, plain_sequence, "") + [report.verified or ""])
        refined_upper = report.refined_upper
        if refined_upper is not None:
            rows[-1] += [format_fraction(refined_upper), format_decimal(refined_upper)]
        elif refined:
            rows[-1] += ["", ""]
    return _csv(rows)


def report_to_json_dict(report) -> dict:
    """Structured-document form of a report (lists for sequences, strings for numbers)."""
    doc = dict(zip(CSV_FIELDS, _shared_fields(report, _entries, None)))
    doc["candidates"] = [
        {"sequence": _entries(runs), "decimal": format_decimal(val)}
        for runs, val in report.candidates
    ]
    doc["verified"] = report.verified
    doc["notes"] = list(report.notes)
    if report.refined_upper is not None:
        doc["refined_upper"] = format_fraction(report.refined_upper)
        doc["refined_upper_decimal"] = format_decimal(report.refined_upper)
    return doc


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
    cap = nonnegative(args.cap, "--cap")
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
        _emit(_json_chunks([report_to_json_dict(report) for report in reports]), args.output)
    elif args.format == "csv":
        _emit(reports_to_csv(reports), args.output)
    else:
        lines = [line for report in reports for line in _render_bounds_text(report)]
        _emit("\n".join(lines) + "\n", args.output)

    return exit_code(report.verified for report in reports)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


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


def _witnesses(report, complete: bool = False) -> str:
    """Why an extremality report fails, as indented lines, each after a newline: empty when ok.

    With ``complete``, also the first members below no maximal.
    """
    lines = []
    if not report.members_valid:
        lines.append("a family sequence is not a class member")
    if not report.pairwise_incomparable:
        lines.append("maximals not pairwise incomparable")
    lines += [
        f"{format_sequence(top)} strictly majorized by {format_sequence(witness)}"
        for top, witness in report.dominated_patterns
    ]
    lines += [f"minimal fails below {format_sequence(seq)}" for seq in report.not_above_minimal[:3]]
    if complete:
        lines += [
            f"{format_sequence(seq)} below no maximal" for seq in report.not_below_any_maximal[:3]
        ]
    return "".join(f"\n    {line}" for line in lines)


def _proven_checks(klass, args):
    """The equivalence, extremality and bound checks of a class with c <= 6, from one walk."""
    where = f"c={klass.c} n={klass.n}"
    check_cap(klass, args.cap)  # before the family: a class above the cap builds nothing
    family = None if args.equivalence_only else extremal_family(klass)
    walk = walk_class(klass, args.cap, family, () if family is None else VERIFY_INDICES)
    if walk.failures:
        runs, counting, inequalities, graphical = walk.failures[0]
        line = (
            f"MISMATCH on {format_sequence(runs)} (counting={counting} "
            f"inequalities={inequalities} graphical={graphical})"
        )
    else:
        line = f"ok ({walk.candidates} candidates)"
    yield CheckRecord(f"equivalence {where}: {line}", _status(not walk.failures))
    if family is None:
        return
    report = walk.extremality
    line = f"ok ({report.sequence_count} sequences)" if report.complete else "MISMATCH"
    yield CheckRecord(
        f"extremality {where}: {line}{_witnesses(report, complete=True)}", _status(report.complete)
    )
    for index, extremes in zip(VERIFY_INDICES, walk.extremes):
        matched = oracle_outcome(bounds(klass, index, family), extremes).status == EXACT_MATCH
        line = EXACT_MATCH if matched else "MISMATCH"
        yield CheckRecord(f"bounds {where} {index.label}: {line}", _status(matched))


def _conjecture_checks(klass, args):
    """The closed-form patterns against the class members, for any c, from one walk."""
    report = check_pattern_extremality(klass, args.cap)
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
    if args.n is not None:
        nonnegative(args.n, "--n")
    else:
        nonnegative(args.n_max, "--n-max")
    if args.conjecture and args.equivalence_only:
        raise UsageError("--equivalence-only applies to proven classes, not --conjecture")
    cap = nonnegative(args.cap, "--cap")
    cycles = _parse_range(args.c)
    # Refuse the whole range before enumerating any class of it.
    if not args.conjecture and cycles[-1] > MAX_SUPPORTED_CYCLES:
        unproven = max(cycles[0], MAX_SUPPORTED_CYCLES + 1)
        raise UsageError(f"c={unproven} has no proven characterization; use --conjecture")
    checks, label = (
        (_conjecture_checks, "CONJECTURE") if args.conjecture else (_proven_checks, "equivalence")
    )
    counts = dict.fromkeys((OK, MISMATCH, SKIPPED), 0)  # all the summary and exit code need

    def lines():
        """Each check's lines as it is made, then the summary: no record is kept."""
        for c in cycles:
            orders = _verify_orders(args, c)
            if not orders:  # min_order is nondecreasing in c: no later c has an order either
                break
            for n in orders:
                try:  # a class above the cap raises before its first check
                    for record in checks(CyclomaticClass(c=c, n=n), args):
                        counts[record.status] += 1
                        yield record.line + "\n"
                except EnumerationCapError:
                    counts[SKIPPED] += 1
                    yield f"{label} c={c} n={n}: skipped (enumeration cap {cap})\n"
        if not args.conjecture:
            run = counts[OK] + counts[MISMATCH]
            yield (
                f"summary: {run} checks, {counts[OK]} ok, {counts[MISMATCH]} mismatched, "
                f"skipped={'yes' if counts[SKIPPED] else 'no'}\n"
            )

    _emit(lines(), args.output)  # no orders: empty output
    return exit_code(status for status, count in counts.items() if count)


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def cmd_realize(args) -> int:
    if args.check_c is not None:
        nonnegative(args.check_c, "--check-c")
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
# tables
# ---------------------------------------------------------------------------


def cmd_tables(args) -> int:
    """The extremal sequences, inverse-degree bounds and general-Zagreb bounds of c = 0..6."""
    n, alpha = args.n, args.alpha
    if n < 8:
        raise UsageError(f"--n must be at least 8 (n >= c + 2 for c <= 6), got {n}")
    cap = nonnegative(args.cap, "--cap")
    # The last table's bounds come first, so that an exponent the index
    # rejects stops the run before any other work.
    zagreb_rows = bounds_table(n, alpha)
    classes = [CyclomaticClass(c=c, n=n) for c in range(7)]
    closed_rows = [closed_form_inverse_degree(klass) for klass in classes]
    # From c = 3 on, the inverse-degree row carries the refined upper bound,
    # which the walk of its class checks with the rest of the row.
    for klass in classes[3:]:
        refined = refined_inverse_degree_upper(klass)
        closed_rows[klass.c] = replace(closed_rows[klass.c], refined_upper=refined)
    # The verified rows of each class; c = 0 has no general-Zagreb row.
    rows = [[closed] + [row for row in zagreb_rows if row.klass.c == c]
            for c, closed in enumerate(closed_rows)]
    # Each class is walked once, with the indices of all its rows.  The
    # classes share one order, so the first is above the cap when all are.
    statuses = [[SKIPPED] * len(each) for each in rows]
    if args.verify:
        try:
            statuses = [[outcome.status for outcome in verify_class(each, cap)] for each in rows]
        except EnumerationCapError:
            pass
    lines = [f"extremal degree sequences at n={n}", "-" * 72]
    for klass in classes:
        family = extremal_family(klass)
        tops = ", ".join(format_sequence(runs) for runs in family.maximal_runs)
        lines.append(f"c={klass.c}  maximal: {tops}")
        lines.append(f"      minimal: {format_sequence(family.minimal_runs)}")

    lines += ["", f"inverse-degree bounds at n={n}", "-" * 72]
    for klass, closed in zip(classes, closed_rows):
        line = (
            f"c={klass.c}  {format_index_value(closed.lower)} <= rho <= "
            f"{format_index_value(closed.upper)}"
        )
        if closed.refined_upper is not None:
            line += f"  [refined upper {format_index_value(closed.refined_upper)}]"
        if args.verify:
            line += f"  ({statuses[klass.c][0]})"
        lines.append(line)

    lines += ["", f"general-Zagreb bounds at n={n}, alpha={alpha}", "-" * 72]
    for c, row in enumerate(zagreb_rows, 1):
        line = (
            f"c={c}  lower {format_index_value(row.lower)} at "
            f"{format_sequence(row.lower_attainer)}; upper "
            f"{format_index_value(row.upper)} at {format_sequence(row.upper_attainer)}"
        )
        if args.verify:
            line += f"  ({statuses[c][1]})"
        lines.append(line)
        lines += [f"      note: {note}" for note in row.notes]
    # Every row is rendered before the first line is printed, so that an
    # exponent the index rejects, or a value too long to print, stops the
    # run with nothing on stdout.
    _emit("\n".join(lines) + "\n", None)
    return exit_code(status for each in statuses for status in each) if args.verify else EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


@cache  # built on the first call, then reused: parsing leaves it unchanged
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
        choices=KINDS,
        default=GENERAL_ZAGREB,
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

    p = sub.add_parser("tables", help="the paper's tables for c = 0..6, with --verify verdicts")
    p.add_argument("--n", type=int, default=11, help="order of every class, at least 8")
    p.add_argument("--alpha", type=int, default=2,
                   help="general-Zagreb exponent (an integer, not 0 or 1)")
    p.add_argument("--verify", action="store_true",
                   help="compare each bound against exhaustive enumeration")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="enumeration cap for --verify")
    p.set_defaults(handler=cmd_tables)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
