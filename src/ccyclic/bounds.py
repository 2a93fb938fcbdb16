"""Sharp index bounds over c-cyclic graphs, with oracle verification.

For an index that is Schur-convex in the degree sequence, its minimum over a
class is attained at the majorization-minimal degree sequence and its maximum
at one of the maximal sequences; Schur-concave indices swap the roles.  The
engine always derives the orientation from the Schur classification rather
than from any published tabulation, because printed tables for the one- and
two-cycle classes are known to circulate with the two columns swapped; the
orientation used here is confirmed against exhaustive enumeration: every
``--verify`` checks a report against one walk of its class (:func:`verify_class`).

Inverse-degree bounds additionally come as explicit closed forms in ``n``
(piecewise at the handful of orders where the minimal sequence changes
shape), plus a refined upper bound available when the (c+2)-largest degree is
known to be at least 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Real
from typing import Optional

from .degree_sequences import (
    DEFAULT_ENUMERATION_CAP,
    CyclomaticClass,
    EnumerationCapError,
    extremal_family,
    parametric_extremal_family,
    walk_class,
)
from .indices import GENERAL_ZAGREB, INVERSE_DEGREE, IndexSpec, SchurClass, evaluate, same_value
from .indices import Extremes

ORIENTATION_NOTE = (
    "orientation fixed by Schur-convexity (minimal sequence -> lower bound for "
    "alpha < 0 or alpha > 1) and confirmed by exhaustive enumeration; published "
    "tabulations for the 1- and 2-cycle classes sometimes print these two "
    "columns swapped"
)

EXACT_MATCH = "exact-match"
MISMATCH = "mismatch"
SKIPPED = "skipped"


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper bound of an index over a class, with attaining sequences as maximal runs."""

    klass: CyclomaticClass
    index: IndexSpec
    lower: Real
    upper: Real
    lower_attainer: tuple
    upper_attainer: tuple
    #: evaluation at every maximal sequence, for reporting the binding one
    candidates: tuple = ()
    verified: Optional[str] = None
    notes: tuple = ()
    #: refined inverse-degree upper bound, set only when it was asked for
    refined_upper: Optional[Real] = None


def _pick(pairs, want_max: bool):
    """Extreme of (runs, value) pairs; ties go to the lexicographically largest sequence.

    Maximal runs of nonincreasing sequences of one length sort as the
    sequences do.
    """
    sign = 1 if want_max else -1
    return max(pairs, key=lambda pair: (sign * pair[1], pair[0]))


def bounds(klass: CyclomaticClass, index: IndexSpec, family=None) -> BoundsReport:
    """Bounds from the extremal family plus the index's Schur classification.

    ``family`` is the class's :func:`extremal_family`, for a caller that
    already holds it; it is built when not given.  Raises ``ValueError`` for
    a family of another class.
    """
    if family is None:
        family = extremal_family(klass)
    if family.klass != klass:
        raise ValueError(f"a family of {family.klass} cannot bound {klass}")
    maximal_values = [(runs, evaluate(index, runs)) for runs in family.maximal_runs]
    minimal_value = evaluate(index, family.minimal_runs)
    if index.schur_class is SchurClass.CONVEX:
        upper_attainer, upper = _pick(maximal_values, want_max=True)
        lower_attainer, lower = family.minimal_runs, minimal_value
    else:
        lower_attainer, lower = _pick(maximal_values, want_max=False)
        upper_attainer, upper = family.minimal_runs, minimal_value
    if lower > upper:
        raise AssertionError("bound orientation inverted")
    return BoundsReport(
        klass=klass,
        index=index,
        lower=lower,
        upper=upper,
        lower_attainer=lower_attainer,
        upper_attainer=upper_attainer,
        candidates=tuple(maximal_values),
    )


# ---------------------------------------------------------------------------
# Inverse-degree closed forms
# ---------------------------------------------------------------------------


def closed_form_inverse_degree(klass: CyclomaticClass) -> BoundsReport:
    """Inverse-degree bounds as explicit rational expressions in ``n``.

    Valid for ``n >= c + 2``.  The lower bound is piecewise at the orders
    where the minimal sequence changes shape (c=5 at n=7; c=6 at n=8 and 9),
    so that the closed forms agree exactly with :func:`bounds` everywhere in
    their range.  Every call checks both expressions against :func:`bounds`,
    which also supplies the attaining sequences, and raises
    ``AssertionError`` when either differs.
    """
    engine = bounds(klass, IndexSpec.inverse_degree())  # no family beyond c = 6
    c, n = klass.c, klass.n
    if n < c + 2:
        raise ValueError(f"closed forms need n >= c + 2, got n={n}, c={c}")
    F = Fraction
    if c == 0:
        lower, upper = F(n + 2, 2), (n - 1) + F(1, n - 1)
    elif c == 1:
        lower, upper = F(n, 2), (n - 2) + F(1, n - 1)
    elif c == 2:
        lower, upper = F(n - 2, 2) + F(2, 3), (n - 3) + F(1, n - 1) + F(1, 3)
    elif c == 3:
        lower, upper = F(n - 4, 2) + F(4, 3), (n - 3) + F(1, n - 1)
    elif c == 4:
        lower, upper = F(n - 2, 2), (n - 5) + F(1, n - 1) + F(17, 12)
    elif c == 5:
        lower = F(9, 4) if n == 7 else F(n - 8, 2) + F(8, 3)
        upper = (n - 5) + F(1, n - 1) + F(7, 6)
    else:
        if n == 8:
            lower = F(5, 2)
        elif n == 9:
            lower = F(35, 12)
        else:
            lower = F(n - 10, 2) + F(10, 3)
        upper = (n - 4) + F(1, n - 1)
    if (lower, upper) != (engine.lower, engine.upper):
        raise AssertionError(
            f"closed forms {lower}, {upper} differ from bounds() {engine.lower}, {engine.upper}"
        )
    return replace(engine, candidates=())


def refined_inverse_degree_upper(klass: CyclomaticClass) -> Fraction:
    """Improved inverse-degree upper bound when the (c+2)-largest degree is >= 2.

    Equals ``(n - c) + 1/(n-1) + (c^2 - 3c - 2) / (2(c+1))``: the inverse degree
    of the first closed-form pattern ``(n-1, c+1, 2^c, 1^(n-c-2))``, attained by
    its realizations.  Defined for c >= 3 and n >= c + 2, where that pattern exists.
    """
    c, n = klass.c, klass.n
    if c < 3:
        raise ValueError("the refined bound needs at least three cycles")
    if n < c + 2:
        raise ValueError(f"the refined bound needs n >= c + 2, got n={n}, c={c}")
    value = (n - c) + Fraction(1, n - 1) + Fraction(c * c - 3 * c - 2, 2 * (c + 1))
    attainer = parametric_extremal_family(c, n).maximal_runs[0]
    if evaluate(IndexSpec.inverse_degree(), attainer) != value:
        raise AssertionError("refined bound does not match its attaining sequence")
    return value


# ---------------------------------------------------------------------------
# Oracle verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleOutcome:
    """Exhaustive min/max of an index over a class, compared to the engine."""

    status: str  # exact-match | mismatch
    minimum: Real
    maximum: Real
    minimizers: tuple
    maximizers: tuple
    refined_maximum: Optional[Real] = None  # set when refined_upper is checked


def verify_class(reports, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """The oracle's outcome for each of a class's reports, from one walk of the class.

    A disagreement the walk records among the membership tests makes every
    outcome a mismatch.  Raises :class:`EnumerationCapError` above the cap,
    and ``ValueError`` for no reports or reports of more than one class.
    """
    classes = {report.klass for report in reports}
    if len(classes) != 1:
        raise ValueError(f"one walk verifies the reports of one class, not {len(classes)}")
    refined = any(report.refined_upper is not None for report in reports)
    walk = walk_class(
        classes.pop(), cap, indices=[report.index for report in reports], spread=refined
    )
    spreads = walk.spread or [None] * len(reports)
    outcomes = [oracle_outcome(*each) for each in zip(reports, walk.extremes, spreads)]
    if walk.failures:
        return [replace(outcome, status=MISMATCH) for outcome in outcomes]
    return outcomes


def verify_bounds(report: BoundsReport, cap: int = DEFAULT_ENUMERATION_CAP) -> OracleOutcome:
    """Compare the report's bounds and attainers with the extrema over its class, in one walk."""
    return verify_class([report], cap)[0]


def oracle_outcome(report: BoundsReport, extremes: Extremes, spread=None) -> OracleOutcome:
    """The oracle's verdict on a report, from the extremes of its index's keys over the class.

    ``spread`` holds the keys of the members whose (c+2)-th largest degree
    is >= 2, which a report with a ``refined_upper`` needs.
    """
    index = report.index
    if report.refined_upper is not None and spread is None:
        raise ValueError("a refined upper bound is checked against the spread members' extremes")
    minimizers, maximizers = extremes.holders(largest=False), extremes.holders(largest=True)
    minimum, maximum = extremes.value(index, largest=False), extremes.value(index, largest=True)
    ok = (
        same_value(report.lower, minimum)
        and same_value(report.upper, maximum)
        and report.lower_attainer in minimizers
        and report.upper_attainer in maximizers
    )
    refined = None
    if report.refined_upper is not None:
        if index.kind == INVERSE_DEGREE and spread.high is not None:
            refined = spread.value(index, largest=True)
        ok = ok and refined is not None and same_value(report.refined_upper, refined)
    return OracleOutcome(
        status=EXACT_MATCH if ok else MISMATCH,
        minimum=minimum,
        maximum=maximum,
        minimizers=minimizers,
        maximizers=maximizers,
        refined_maximum=refined,
    )


def with_verification(
    report: BoundsReport, cap: int = DEFAULT_ENUMERATION_CAP
) -> BoundsReport:
    """Attach an oracle verdict to a bounds report; ``skipped`` above the enumeration cap."""
    try:
        return replace(report, verified=verify_bounds(report, cap).status)
    except EnumerationCapError:
        return replace(report, verified=SKIPPED)


# ---------------------------------------------------------------------------
# Whole-table reports
# ---------------------------------------------------------------------------


def annotate_orientation(report: BoundsReport) -> BoundsReport:
    """Attach the column-orientation diagnostic to the rows it concerns.

    The note documents that for the 1- and 2-cycle classes some published
    tabulations of the power-sum bounds swap the two columns; the engine's
    orientation comes from Schur-convexity and is oracle-verified.
    """
    if report.index.kind == GENERAL_ZAGREB and report.klass.c in (1, 2):
        if ORIENTATION_NOTE not in report.notes:
            return replace(report, notes=report.notes + (ORIENTATION_NOTE,))
    return report


def bounds_table(n: int, alpha) -> list:
    """General-Zagreb bounds for every class c = 1..6 at one exponent.

    Needs ``n >= 8`` so that every class satisfies ``n >= c + 2``.  Rows for
    the 1- and 2-cycle classes carry the orientation diagnostic note.
    """
    if n < 8:
        raise ValueError("the six-row table needs n >= c + 2 for every c, i.e. n >= 8")
    index = IndexSpec.general_zagreb(alpha)
    return [
        annotate_orientation(bounds(CyclomaticClass(c=c, n=n), index))
        for c in range(1, 7)
    ]

