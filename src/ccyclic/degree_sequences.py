"""Degree sequences of connected graphs with a prescribed number of independent cycles.

A connected simple graph on ``n`` vertices with ``m`` edges has cyclomatic
number ``c = m - n + 1``: trees have c=0, unicyclic graphs c=1, and so on.
For ``0 <= c <= 6`` the degree sequences of such graphs are characterized by
a fixed family of counting conditions ("at least j entries are >= t"); each
condition doubles as a box of the form handled by :mod:`ccyclic.extremal`,
which yields the majorization-maximal and -minimal degree sequences of the
whole class.

Two independent characterizations are implemented side by side, each as a
table read by one function: the counting form used throughout this package,
and the classic test via edge count plus prefix-sum inequalities.  They are
proved equivalent in the literature; the test suite re-checks the equivalence
exhaustively at small orders, and both are cross-validated against plain
graphicality, since for any c >= 0 a positive sequence with sum
``2(n + c - 1)`` belongs to the class exactly when it is graphical (a
graphical sequence with minimum degree >= 1 and at least ``n - 1`` edges
always has a connected realization).  Enumerated populations are filtered by
graphicality alone, so they check the counting conditions rather than repeat
them.

Run-form contract: a degree sequence travels as its run-length form
``((degree, count), ...)``, degrees strictly decreasing and counts positive,
as :func:`~ccyclic.majorization.runs_of` gives it for a nonincreasing tuple.
:func:`candidate_sequences` yields that form, the enumerations return it, and
:func:`is_ccyclic_sequence`, :func:`is_ccyclic_sequence_via_inequalities`,
:func:`is_graphical` and :func:`ccyclic.indices.evaluate` take it, so every
per-member step costs O(runs), not O(n).  A caller holding a tuple converts it
once with ``runs_of``.  :func:`is_ccyclic_sequence` validates its input
(:func:`validate_runs`); the other membership tests take a valid form as given,
which the generator's output is by construction.  :class:`ExtremalFamily`
holds runs and expands them into tuples on demand.

Index-notation caveat: two of the published block descriptions carry
overlapping subscripts for where the "degree >= 2" block ends; the counting
form is authoritative here (first seven entries >= 2 for the widest c=5 set,
first eight for the widest c=6 set).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, permutations
from math import isqrt
from operator import le
from typing import Iterator, Optional

from .extremal import BoxSet, integerize_runs, maximal_runs, minimal_runs
from .majorization import Relation, coalesce_runs, compare_runs, expand_runs

DEFAULT_ENUMERATION_CAP = 12

#: counting conditions per cyclomatic number: (min order, ((threshold, count), ...))
#: meaning "defined for n >= min order; at least `count` degrees are >= `threshold`".
_COUNT_CONDITIONS = {
    0: ((2, ()),),
    1: ((3, ((2, 3),)),),
    2: ((4, ((2, 4),)),),
    3: (
        (5, ((2, 5),)),
        (4, ((3, 4),)),
    ),
    4: (
        (6, ((2, 6),)),
        (5, ((3, 4), (2, 5))),
    ),
    5: (
        (7, ((2, 7),)),
        (6, ((3, 4), (2, 6))),
        (5, ((4, 3), (3, 5))),
    ),
    6: (
        (8, ((2, 8),)),
        (7, ((3, 4), (2, 7))),
        (6, ((4, 3), (3, 5), (2, 6))),
        (6, ((3, 6),)),
        (5, ((4, 5),)),
    ),
}

#: prefix-sum inequalities per cyclomatic number: (least edge count, ((k, j, a, b), ...))
#: meaning "m >= least edge count, and P_k + P_j <= a n + b", where P_k is the sum
#: of the k largest degrees and P_0 = 0; (5, 2, 2, 16) is 2d1 + 2d2 + d3 + d4 + d5 <= 2n + 16.
_INEQUALITIES = {
    0: (1, ()),
    1: (3, ((2, 0, 1, 1),)),
    2: (5, ((2, 0, 1, 2), (3, 0, 1, 4))),
    3: (6, ((2, 0, 1, 3), (3, 0, 1, 5))),
    4: (8, ((2, 0, 1, 4), (3, 0, 1, 6), (4, 0, 1, 9))),
    5: (9, ((2, 0, 1, 5), (3, 0, 1, 7), (4, 0, 1, 10), (5, 2, 2, 16))),
    6: (10, ((2, 0, 1, 6), (3, 0, 1, 8), (4, 0, 1, 11), (5, 2, 2, 18), (6, 2, 2, 20))),
}

MAX_SUPPORTED_CYCLES = max(_COUNT_CONDITIONS)


class EnumerationCapError(RuntimeError):
    """Requested order exceeds the configured exhaustive-enumeration cap."""


def min_order(c: int) -> int:
    """Smallest vertex count admitting a connected graph with c independent cycles."""
    if c < 0:
        raise ValueError("cyclomatic number must be nonnegative")
    n = (isqrt(8 * c + 1) + 3) // 2  # the least n with (n - 1)(n - 2) / 2 >= c, or one below it
    return n if (n - 1) * (n - 2) // 2 >= c else n + 1


@dataclass(frozen=True)
class CyclomaticClass:
    """Connected simple graphs on ``n`` vertices with ``c`` independent cycles."""

    c: int
    n: int

    def __post_init__(self):
        if self.n < min_order(self.c):  # min_order rejects a negative c
            raise ValueError(
                f"no connected graph with {self.c} independent cycles has "
                f"order {self.n} (need n >= {min_order(self.c)})"
            )

    @property
    def degree_total(self) -> int:
        return 2 * (self.n + self.c - 1)


def validate_runs(runs, n: int) -> None:
    """Check a run-length degree sequence: n degrees in [1, n-1], as maximal runs."""
    size, previous = 0, n
    for degree, count in runs:
        if degree >= previous:
            raise ValueError(
                "degrees not in decreasing runs" if size else "degrees must lie in [1, n-1]"
            )
        if count < 1:
            raise ValueError("every run needs a positive length")
        size += count
        previous = degree
    if size != n:
        raise ValueError(f"expected {n} degrees, got {size}")
    if previous < 1:
        raise ValueError("degrees must lie in [1, n-1]")


def _counting_form_holds(runs, klass: CyclomaticClass) -> bool:
    """Counting-form test of a valid run-length degree sequence."""
    if sum(d * count for d, count in runs) != klass.degree_total:
        return False
    for needed_order, needs in _COUNT_CONDITIONS[klass.c]:
        if klass.n < needed_order:
            continue
        if all(sum(count for d, count in runs if d >= t) >= j for t, j in needs):
            return True
    return False


def is_ccyclic_sequence(runs, klass: CyclomaticClass) -> bool:
    """Counting-form membership test for the degree sequences of the class.

    ``runs`` is checked by :func:`validate_runs`, the one check a candidate
    gets: the other membership tests take its validity as given.
    """
    validate_runs(runs, klass.n)
    if klass.c > MAX_SUPPORTED_CYCLES:
        raise ValueError(
            f"no characterization implemented beyond c={MAX_SUPPORTED_CYCLES}"
        )
    return _counting_form_holds(runs, klass)


def is_ccyclic_sequence_via_inequalities(runs, klass: CyclomaticClass) -> bool:
    """Classic membership test: edge count plus prefix-sum inequalities.

    Kept independent from the counting form so the two can guard each
    other; missing entries count as zero in the longer inequalities.
    ``runs`` must be a valid run-length form of order n; the six largest
    degrees are read from its head runs.
    """
    n, c = klass.n, klass.c
    if c not in _INEQUALITIES:
        raise ValueError(f"no inequality characterization implemented for c={c}")
    least, rows = _INEQUALITIES[c]
    if sum(degree * count for degree, count in runs) != klass.degree_total or n + c - 1 < least:
        return False
    head = []
    for degree, count in runs:
        if len(head) >= 6:
            break
        head += [degree] * min(count, 6)
    prefix = [0, *accumulate(head + [0] * 6)]
    for k, j, a, b in rows:
        if prefix[k] + prefix[j] > a * n + b:
            return False
    return True


def is_graphical(runs) -> bool:
    """Erdos-Gallai test: is the run-length degree sequence realizable by a simple graph?

    ``runs`` is the ``(degree, count)`` form of a nonincreasing sequence, as
    :func:`~ccyclic.majorization.runs_of` gives it; False for an empty
    sequence, an odd degree sum or a degree outside [0, n-1].

    O(runs).  Only k with d_k >= k are tested: for d_k < k the k-th
    inequality follows from the (k-1)-th, since its right side grows by at
    least 2(k - 1) - 2 d_k >= 0 more than its left side.  Within one run, on
    those k, the slack (right side minus left side) is concave in k, so it
    suffices to test the last such k of each run (Tripathi & Vijay 2003).
    The right side ``k(k - 1) + sum(min(d_i, k))`` over i > k is ``k(above -
    1)`` plus the degree sum beyond the entries >= k, which end at ``above``;
    that end only moves back as k grows, one run at a time.
    """
    n = total = 0
    for degree, count in runs:
        n += count
        total += degree * count
    if n == 0 or total % 2 or runs[-1][0] < 0 or runs[0][0] > n - 1:
        return False
    last = len(runs) - 1  # the last run of degrees >= k
    above, tail = n, 0  # entries through that run, and the degree sum after it
    start = head = 0  # entries and degree sum before the current run
    for degree, count in runs:
        if degree <= start:  # d_k < k from k = start + 1 on
            break
        k = min(start + count, degree)
        while runs[last][0] < k:
            low, size = runs[last]
            above -= size
            tail += low * size
            last -= 1
        if head + (k - start) * degree > k * (above - 1) + tail:
            return False
        start += count
        head += degree * count
    return True


def candidate_sequences(n: int, total: int) -> Iterator[tuple]:
    """Every nonincreasing positive length-n sequence with max <= n-1 and the given sum.

    Each is yielded as its run-length form ``((degree, count), ...)``, in
    descending lexicographic order of the sequences.  One shared stack of
    runs is extended by a value, then its count, then the runs below that
    value; the bounds on both keep every partial stack completable, so no
    branch dead-ends, and only the yielded forms are copied.  Each
    ``(degree, count)`` pair is made once per call and shared by every form
    that holds it, so a kept form costs one tuple of references.
    """
    if n >= 1:
        yield from _runs_below([], {}, n, total, n - 1)


def _runs_below(stack: list, pairs: dict, slots: int, remaining: int, bound: int) -> Iterator:
    """Extend ``stack`` by runs of values <= ``bound``: ``slots`` entries summing to ``remaining``.

    A module-level recursion, not a closure, so a finished enumeration
    leaves no reference cycle holding ``pairs`` for the garbage collector.
    """
    high = min(bound, remaining - slots + 1)  # the rest are at least 1
    low = max(-(-remaining // slots), 1)  # the rest are at most the next value
    for value in range(high, low - 1, -1):
        # After `count` copies of the value, the rest lie in [1, value - 1] or are none.
        most = slots if value == 1 else min(slots, (remaining - slots) // (value - 1))
        fewest = max(remaining - slots * (value - 1), 1)
        for count in range(most, fewest - 1, -1):
            pair = (value, count)
            stack.append(pairs.setdefault(pair, pair))
            if count == slots:
                yield tuple(stack)
            else:
                yield from _runs_below(
                    stack, pairs, slots - count, remaining - count * value, value - 1
                )
            stack.pop()


def class_candidates(klass: CyclomaticClass, cap: int) -> Iterator[tuple]:
    """The candidates of the class's order and degree total, under the enumeration cap.

    The one place the cap is applied: an order above it raises
    :class:`EnumerationCapError` at the call, before any candidate is made.
    """
    if klass.n > cap:
        raise EnumerationCapError(f"order {klass.n} exceeds enumeration cap {cap}")
    return candidate_sequences(klass.n, klass.degree_total)


def _members(klass: CyclomaticClass, cap: int) -> list:
    """The candidates of the class that :func:`is_graphical` accepts."""
    return [runs for runs in class_candidates(klass, cap) if is_graphical(runs)]


def enumerate_sequences(klass: CyclomaticClass, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """Every degree sequence of the class as runs, in descending lexicographic order.

    A positive sequence with sum ``2(n + c - 1)`` is the degree sequence of a
    connected graph with c independent cycles iff it is graphical, so the
    population comes from the Erdos-Gallai test alone, for any c >= 0, and
    stays independent of the counting conditions the extremal boxes are
    built from.
    """
    return _members(klass, cap)


def graphical_class_sequences(klass: CyclomaticClass, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """:func:`enumerate_sequences` under the name that ``verify --conjecture`` uses."""
    return _members(klass, cap)


# ---------------------------------------------------------------------------
# Extremal families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalFamily:
    """Maximal degree sequences (pairwise incomparable) and the unique minimal one.

    Held as maximal runs, which the package reads; ``maximals`` and
    ``minimal`` expand them into tuples on first use.
    """

    klass: CyclomaticClass
    maximal_runs: tuple
    minimal_runs: Optional[tuple]  # None only where a closed-form minimal pattern is undefined

    @cached_property
    def maximals(self) -> tuple:
        return tuple(map(expand_runs, self.maximal_runs))

    @cached_property
    def minimal(self) -> Optional[tuple]:
        return None if self.minimal_runs is None else expand_runs(self.minimal_runs)


def class_boxes(klass: CyclomaticClass) -> list:
    """The constraint boxes live at this order, one per counting condition."""
    if klass.c > MAX_SUPPORTED_CYCLES:
        raise ValueError(
            f"extremal families are only established up to c={MAX_SUPPORTED_CYCLES}"
        )
    n = klass.n
    boxes = []
    for needed_order, needs in _COUNT_CONDITIONS[klass.c]:
        if n < needed_order:
            continue
        head = [1] * max((count for _, count in needs), default=0)
        for threshold, count in needs:
            for i in range(count):
                head[i] = max(head[i], threshold)
        segments = [((low, n - 1), 1) for low in head] + [((1, n - 1), n - len(head))]
        boxes.append(BoxSet(total=klass.degree_total, segments=segments))
    return boxes


def _discard_dominated(candidates: list) -> list:
    """Drop run-length sequences majorized by another distinct candidate.

    Maximal runs sort as the sequences they stand for, so the survivors come
    out in descending lexicographic order.
    """
    unique = sorted(set(candidates), reverse=True)
    kept = []
    for seq in unique:
        if not any(compare_runs(seq, other) is Relation.LESS_OR_EQUAL for other in unique):
            kept.append(seq)
    return kept


def extremal_family(klass: CyclomaticClass) -> ExtremalFamily:
    """Majorization-extremal degree sequences of the class.

    Each live constraint box contributes one maximal and one integer minimal
    element; maximal candidates dominated by another are discarded, and the
    minimal candidates are totally ordered with the least one minorizing the
    whole class.  The survivors are checked to be class members and pairwise
    incomparable before they are returned.  All of it runs on run-length
    forms, O(runs) per sequence.
    """
    boxes = class_boxes(klass)
    maximals = _discard_dominated([maximal_runs(box) for box in boxes])
    min_candidates = [integerize_runs(minimal_runs(box), box) for box in boxes]

    # assertion messages print the (degree, count) runs: a tuple can be huge
    least = min_candidates[0]
    for cand in min_candidates[1:]:
        rel = compare_runs(cand, least)
        if rel is Relation.LESS_OR_EQUAL:
            least = cand
        elif rel is Relation.INCOMPARABLE:
            raise AssertionError(
                f"incomparable minimal candidates {cand} and {least} for {klass}"
            )
    below = (Relation.EQUAL, Relation.LESS_OR_EQUAL)
    for cand in min_candidates:
        if compare_runs(least, cand) not in below:
            raise AssertionError(f"{least} fails to minorize candidate {cand}")

    for seq in maximals + [least]:
        if not _counting_form_holds(seq, klass):
            raise AssertionError(f"extremal sequence {seq} is not in the class")
    for i, a in enumerate(maximals):
        if compare_runs(least, a) not in below:
            raise AssertionError(f"minimal {least} not below maximal {a}")
        for b in maximals[i + 1 :]:
            if compare_runs(a, b) is not Relation.INCOMPARABLE:
                raise AssertionError(f"maximal candidates {a} and {b} are comparable")
    return ExtremalFamily(klass=klass, maximal_runs=tuple(maximals), minimal_runs=least)


# ---------------------------------------------------------------------------
# Closed-form c-parameterized patterns
# ---------------------------------------------------------------------------


def parametric_extremal_family(c: int, n: int) -> ExtremalFamily:
    """Instantiate the closed-form extremal patterns at (c, n), as runs: O(1) in n.

    Proven extremal for c <= 6 and a conjecture beyond.  A pattern whose
    exponents turn negative is omitted; the minimal one (else None) also needs
    c >= 1 and 2c - 2 <= n.  These guards make every pattern a sequence of the
    class, which each call checks, raising ``AssertionError`` if not.
    """
    klass = CyclomaticClass(c=c, n=n)
    maximals = []
    if n - c - 2 >= 0:
        maximals.append(((n - 1, 1), (c + 1, 1), (2, c), (1, n - c - 2)))
    if c >= 3 and n - c - 1 >= 0:
        maximals.append(((n - 1, 1), (c, 1), (3, 2), (2, c - 3), (1, n - c - 1)))
    if c >= 5 and n - c >= 0:
        maximals.append(((n - 1, 1), (c - 1, 1), (4, 1), (3, 2), (2, c - 5), (1, n - c)))
    maximals = tuple(map(coalesce_runs, maximals))
    minimal = None
    if c >= 1 and 2 * c - 2 <= n:
        minimal = coalesce_runs(((3, 2 * c - 2), (2, n - 2 * c + 2)))
    for runs in maximals + (() if minimal is None else (minimal,)):
        try:
            validate_runs(runs, n)
        except ValueError as exc:
            raise AssertionError(f"closed-form pattern {runs} at {klass}: {exc}") from None
        if sum(d * count for d, count in runs) != klass.degree_total:
            raise AssertionError(f"closed-form pattern {runs} is off the total of {klass}")
    return ExtremalFamily(klass, maximals, minimal)


# ---------------------------------------------------------------------------
# Extremality checks against exhaustive enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalityReport:
    """Whether candidate extremal sequences are extremal within an enumerated class.

    ``ok`` says the candidates are genuine extremal elements: members of the
    class, pairwise incomparable maximals, no enumerated sequence strictly
    majorizing any maximal, and the minimal (when defined) minorizing every
    enumerated sequence.  ``complete`` also asks every enumerated sequence to
    lie below some maximal, which the closed-form patterns need not achieve
    (already for c = 6 a fourth maximal exists beyond the three closed forms).
    Sequences in the report are maximal runs.
    """

    c: int
    n: int
    sequence_count: int
    members_valid: bool
    pairwise_incomparable: bool
    not_below_any_maximal: tuple
    dominated_patterns: tuple  # (maximal, first strictly majorizing witness) pairs
    not_above_minimal: tuple

    @property
    def ok(self) -> bool:
        return (
            self.members_valid
            and self.pairwise_incomparable
            and not self.dominated_patterns
            and not self.not_above_minimal
        )

    @property
    def complete(self) -> bool:
        return self.ok and not self.not_below_any_maximal


def _below(low: list, high: list) -> bool:
    """Majorization on prefix sums: one length, one total, and no sum of ``low`` larger."""
    return len(low) == len(high) and low[-1] == high[-1] and all(map(le, low, high))


def extremality_report(family: ExtremalFamily, population) -> ExtremalityReport:
    """Check ``family`` against ``population``, the class members as runs.

    Each fixed vector and each member is summed once; pairs compare sums.
    """
    minimal = family.minimal_runs
    members_valid = all(runs in population for runs in family.maximal_runs) and (
        minimal is None or minimal in population
    )
    tops = [(list(accumulate(expand_runs(runs))), runs) for runs in family.maximal_runs]
    incomparable = all(not _below(a, b) for (a, _), (b, _) in permutations(tops, 2))
    least = None if minimal is None else list(accumulate(expand_runs(minimal)))
    uncovered = []
    witnesses = {}
    below = []
    for runs in population:
        sums = list(accumulate(expand_runs(runs)))
        covered = False
        for top, top_runs in tops:
            if _below(sums, top):
                covered = True
                # Below one of pairwise incomparable maximals, a member cannot
                # strictly majorize another: that one would lie below this one.
                if incomparable:
                    break
            elif _below(top, sums):
                witnesses.setdefault(top_runs, runs)
        if not covered:
            uncovered.append(runs)
        if least is not None and not _below(least, sums):
            below.append(runs)
    return ExtremalityReport(
        c=family.klass.c,
        n=family.klass.n,
        sequence_count=len(population),
        members_valid=members_valid,
        pairwise_incomparable=incomparable,
        not_below_any_maximal=tuple(uncovered),
        dominated_patterns=tuple(
            (top, witnesses[top]) for top in family.maximal_runs if top in witnesses
        ),
        not_above_minimal=tuple(below),
    )


def check_family_extremality(klass: CyclomaticClass, population) -> ExtremalityReport:
    """Check the extremal family against ``population``, a list of the class members as runs."""
    return extremality_report(extremal_family(klass), population)


def check_pattern_extremality(klass: CyclomaticClass, population) -> ExtremalityReport:
    """Check the closed-form patterns against ``population``, the class members as runs (any c)."""
    return extremality_report(parametric_extremal_family(klass.c, klass.n), population)
