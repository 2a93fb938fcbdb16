#!/usr/bin/env python3
"""Reproduce the extremal-sequence table and the index-bound tables.

Usage:
    python scripts/reproduce_tables.py [--n N] [--alpha A] [--verify] [--cap K]

Prints, for each cyclomatic number c = 0..6 at order N (default 11):
  * the maximal and minimal degree sequences of the class,
  * the inverse-degree closed-form bounds and the refined upper bound,
  * the general-Zagreb bounds at the chosen exponent (default 2),
with an optional exhaustive-enumeration verdict per row, enumerating orders
up to K (default 12).  N must be at least 8, so that the closed forms hold
for every c, and A an integer other than 0 and 1.

Exit codes: 0 success, 1 on a usage error or a value too long to print
(every table is rendered before the first line is printed), 2 when --verify
found a row that differs from enumeration, else 3 when --verify skipped a row
above the enumeration cap: a mismatch outranks a skip.
"""

import sys

from ccyclic.bounds import (
    SKIPPED,
    bounds_table,
    closed_form_inverse_degree,
    refined_inverse_degree_upper,
    verify_class,
)
from ccyclic.cli import EXIT_USAGE, Parser, UsageError, _emit, checked_cap, exit_code
from ccyclic.degree_sequences import (
    DEFAULT_ENUMERATION_CAP,
    CyclomaticClass,
    EnumerationCapError,
    extremal_family,
)
from ccyclic.formatting import format_index_value, format_sequence


def render_tables(n: int, alpha: int, verify: bool, cap: int) -> tuple:
    """The three tables as lines, and the verdicts of the verified rows."""
    # The last table's bounds come first, so that an exponent the index
    # rejects stops the run before any other work.
    zagreb_rows = bounds_table(n, alpha)
    classes = [CyclomaticClass(c=c, n=n) for c in range(7)]
    closed_rows = [closed_form_inverse_degree(klass) for klass in classes]
    # The verified rows of each class; c = 0 has no general-Zagreb row.
    rows = [[closed] + [row for row in zagreb_rows if row.klass.c == c]
            for c, closed in enumerate(closed_rows)]
    # Each class is walked once, with the indices of all its rows.  The
    # classes share one order, so the first is above the cap when all are.
    statuses = [[SKIPPED] * len(each) for each in rows]
    if verify:
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
        if klass.c >= 3:
            refined = refined_inverse_degree_upper(klass)
            line += f"  [refined upper {format_index_value(refined)}]"
        if verify:
            line += f"  ({statuses[klass.c][0]})"
        lines.append(line)

    lines += ["", f"general-Zagreb bounds at n={n}, alpha={alpha}", "-" * 72]
    for c, row in enumerate(zagreb_rows, 1):
        line = (
            f"c={c}  lower {format_index_value(row.lower)} at "
            f"{format_sequence(row.lower_attainer)}; upper "
            f"{format_index_value(row.upper)} at {format_sequence(row.upper_attainer)}"
        )
        if verify:
            line += f"  ({statuses[c][1]})"
        lines.append(line)
        lines += [f"      note: {note}" for note in row.notes]
    return lines, [status for each in statuses for status in each] if verify else []


def main(argv=None) -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--n", type=int, default=11)
    parser.add_argument("--alpha", type=int, default=2)
    parser.add_argument("--verify", action="store_true",
                        help="compare each bound against exhaustive enumeration")
    parser.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    try:
        args = parser.parse_args(argv)
        if args.n < 8:
            raise UsageError(f"--n must be at least 8 (n >= c + 2 for c <= 6), got {args.n}")
        checked_cap(args.cap)
        # Every row is rendered before the first line is printed, so that an
        # exponent the index rejects, or a value too long to print, stops the
        # run with nothing on stdout.
        lines, verdicts = render_tables(args.n, args.alpha, args.verify, args.cap)
        _emit("\n".join(lines) + "\n", None)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return exit_code(verdicts)


if __name__ == "__main__":
    sys.exit(main())
