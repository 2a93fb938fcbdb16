#!/usr/bin/env python3
"""Probe whether the closed-form extremal patterns survive beyond six cycles.

Usage:
    python scripts/conjecture_scan.py [--c-max C] [--n-max N] [--cap K]

For each c up to C (default 9) and each feasible order up to N (default 12),
enumerates every graphical degree sequence with sum 2(n + c - 1) and checks
that no sequence strictly majorizes a closed-form maximal pattern and that
the balanced minimal pattern minorizes everything.  For c <= 6 these are
theorems; beyond that the scan reports conjecture status.  Orders above the
enumeration cap K (default 14) are reported as skipped.

Exit codes: 0 when every order was scanned and holds, 1 on a usage error, 2
when an order FAILS, else 3 when an order was skipped: a failure outranks a
skip.
"""

import sys

from ccyclic.cli import (
    EXIT_CAP, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, Parser, UsageError, checked_cap
)
from ccyclic.degree_sequences import (
    CyclomaticClass,
    EnumerationCapError,
    extremality_report,
    graphical_class_sequences,
    min_order,
    parametric_extremal_family,
)
from ccyclic.formatting import format_sequence


def main(argv=None) -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--c-max", type=int, default=9)
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--cap", type=int, default=14)
    try:
        args = parser.parse_args(argv)
        checked_cap(args.cap)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    failures = 0
    skipped = False
    for c in range(7, args.c_max + 1):
        for n in range(min_order(c), args.n_max + 1):
            patterns = parametric_extremal_family(c, n)
            if not patterns.maximal_runs and patterns.minimal_runs is None:
                continue
            klass = CyclomaticClass(c=c, n=n)
            try:
                population = graphical_class_sequences(klass, args.cap)
            except EnumerationCapError:
                print(f"c={c} n={n}: skipped (enumeration cap {args.cap})")
                skipped = True
                continue
            report = extremality_report(patterns, population)
            status = "holds" if report.ok else "FAILS"
            if not report.ok:
                failures += 1
            print(
                f"c={c} n={n}: {len(patterns.maximal_runs)} maximal patterns, "
                f"minimal {'yes' if patterns.minimal_runs else 'no'}, "
                f"{report.sequence_count} sequences: {status}"
            )
            for pattern, witness in report.dominated_patterns:
                print(
                    f"    {format_sequence(pattern)} strictly majorized by "
                    f"{format_sequence(witness)}"
                )
            for seq in report.not_above_minimal[:3]:
                print(f"    minimal fails below {format_sequence(seq)}")
    print(f"done; {failures} failing (c, n) pairs")
    return EXIT_MISMATCH if failures else EXIT_CAP if skipped else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
