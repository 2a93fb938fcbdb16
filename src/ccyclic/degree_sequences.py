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
holds runs only.

The oracle of every ``--verify``, and the one extremality check, is
:func:`walk_class`: one walk of the candidate tree per class, holding no
population, whose every push of a run updates the state its subtree shares
(:class:`_Walk`).  At each leaf the candidate gets :func:`validate_runs`, the
table verdicts and :func:`is_graphical`.  Prefix sums are compared only at
run ends, which is exact; a member below no maximal, or any member when the
maximals are not pairwise incomparable, falls back to :func:`_place`.

Index-notation caveat: two of the published block descriptions carry
overlapping subscripts for where the "degree >= 2" block ends; the counting
form is authoritative here (first seven entries >= 2 for the widest c=5 set,
first eight for the widest c=6 set).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations
from math import isqrt
from operator import ge, le
from typing import Iterator, Optional

from .extremal import BoxSet, integerize_runs, maximal_runs, minimal_runs
from .indices import Extremes, key_table
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


#: the longest head (largest entries) that either table reads
_HEAD_SIZE = max(
    [j for conditions in _COUNT_CONDITIONS.values() for _, needs in conditions for _, j in needs]
    + [k for _, rows in _INEQUALITIES.values() for k, _, _, _ in rows]
)


def _head(runs) -> tuple:
    """The first ``_HEAD_SIZE`` entries of a run-length sequence (all of them, when fewer)."""
    head = ()
    for degree, count in runs:
        if len(head) >= _HEAD_SIZE:
            break
        head += (degree,) * min(count, _HEAD_SIZE - len(head))
    return head


def _conditions_hold(head: tuple, klass: CyclomaticClass) -> bool:
    """The counting table on a nonincreasing head: at least j entries are >= t when the j-th is."""
    for needed_order, needs in _COUNT_CONDITIONS[klass.c]:
        if klass.n < needed_order:
            continue
        for t, j in needs:
            if j > len(head) or head[j - 1] < t:
                break
        else:
            return True
    return False


def _rows_hold(head: tuple, klass: CyclomaticClass) -> bool:
    """The inequality table on a head: the least edge count, then every prefix-sum row.

    Missing entries count as zero in the longer rows.
    """
    least, rows = _INEQUALITIES[klass.c]
    if klass.n + klass.c - 1 < least:
        return False
    prefix = [0, *accumulate(head)]
    prefix += prefix[-1:] * (_HEAD_SIZE - len(head))
    for k, j, a, b in rows:
        if prefix[k] + prefix[j] > a * klass.n + b:
            return False
    return True


def _counting_form_holds(runs, klass: CyclomaticClass) -> bool:
    """Counting-form test of a valid run-length degree sequence."""
    if sum(d * count for d, count in runs) != klass.degree_total:
        return False
    return _conditions_hold(_head(runs), klass)


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
    other.  ``runs`` must be a valid run-length form of order n; the rows
    read the largest degrees from its head runs.
    """
    if klass.c not in _INEQUALITIES:
        raise ValueError(f"no inequality characterization implemented for c={klass.c}")
    if sum(degree * count for degree, count in runs) != klass.degree_total:
        return False
    return _rows_hold(_head(runs), klass)


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
    runs is extended by the runs :func:`_run_choices` allows, so no branch
    dead-ends, and only the yielded forms are copied.  The ``(degree,
    count)`` pairs are made once per call and rest, and shared by every form
    that holds them, so a kept form costs one tuple of references.
    """
    if n >= 1:
        yield from _runs_below([], {}, n, total, n - 1)


def _run_choices(choices: dict, slots: int, remaining: int, bound: int) -> list:
    """Each next run ``(value, count)``, value <= ``bound``, that leaves the rest completable.

    The rest is ``slots`` entries summing to ``remaining``; runs come in
    descending lexicographic order.  The one copy of this arithmetic, read
    by :func:`candidate_sequences` and :func:`walk_class`.  Many prefixes
    share a rest, so each enumeration keeps its answers in ``choices``, as
    lists: freed tuples of many lengths would fill the interpreter's tuple
    free lists, which a long-running process keeps.
    """
    key = (slots, remaining, bound)
    runs = choices.get(key)
    if runs is None:
        high = min(bound, remaining - slots + 1)  # the rest are at least 1
        low = max(-(-remaining // slots), 1)  # the rest are at most the next value
        runs = choices[key] = [
            (value, count)
            for value in range(high, low - 1, -1)
            # After `count` copies of the value, the rest lie in [1, value - 1] or are none.
            for count in range(
                slots if value == 1 else min(slots, (remaining - slots) // (value - 1)),
                max(remaining - slots * (value - 1), 1) - 1,
                -1,
            )
        ]
    return runs


def _runs_below(stack: list, choices: dict, slots: int, remaining: int, bound: int) -> Iterator:
    """Extend ``stack`` by runs of values <= ``bound``: ``slots`` entries summing to ``remaining``.

    A module-level recursion, not a closure, so a finished enumeration
    leaves no reference cycle holding ``choices`` for the garbage collector.
    """
    for pair in _run_choices(choices, slots, remaining, bound):
        value, count = pair
        stack.append(pair)
        if count == slots:
            yield tuple(stack)
        else:
            yield from _runs_below(
                stack, choices, slots - count, remaining - count * value, value - 1
            )
        stack.pop()


def check_cap(klass: CyclomaticClass, cap: int) -> None:
    """Raise :class:`EnumerationCapError` when the class's order is above the enumeration cap."""
    if klass.n > cap:
        raise EnumerationCapError(f"order {klass.n} exceeds enumeration cap {cap}")


def class_candidates(klass: CyclomaticClass, cap: int) -> Iterator[tuple]:
    """The candidates of the class's order and degree total, under the enumeration cap.

    An order above the cap raises :class:`EnumerationCapError` at the call,
    before any candidate is made.
    """
    check_cap(klass, cap)
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
    """:func:`enumerate_sequences` under its second public name."""
    return _members(klass, cap)


# ---------------------------------------------------------------------------
# Extremal families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalFamily:
    """Maximal degree sequences (pairwise incomparable) and the unique minimal one, as runs."""

    klass: CyclomaticClass
    maximal_runs: tuple
    minimal_runs: Optional[tuple]  # None only where a closed-form minimal pattern is undefined


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


def _family_sums(family: ExtremalFamily) -> tuple:
    """The maximals as ``(prefix sums, runs)``, whether they are pairwise incomparable,
    and the minimal's prefix sums (None without a minimal)."""
    tops = [(list(accumulate(expand_runs(runs))), runs) for runs in family.maximal_runs]
    incomparable = all(not _below(a, b) for (a, _), (b, _) in permutations(tops, 2))
    minimal = family.minimal_runs
    least = None if minimal is None else list(accumulate(expand_runs(minimal)))
    return tops, incomparable, least


def _place(sums: list, runs, tops: list, incomparable: bool, witnesses: dict) -> bool:
    """Whether a member, given by its prefix sums and runs, lies below some maximal.

    Records the member in ``witnesses`` for each maximal it strictly
    majorizes and that has no witness yet.
    """
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
    return covered


def check_family_extremality(klass: CyclomaticClass, cap: int) -> ExtremalityReport:
    """Check the extremal family of a class with c <= 6 against its members, in one walk.

    An order above ``cap`` raises :class:`EnumerationCapError` before the family is built.
    """
    check_cap(klass, cap)
    return walk_class(klass, cap, extremal_family(klass)).extremality


def check_pattern_extremality(klass: CyclomaticClass, cap: int) -> ExtremalityReport:
    """Check the closed-form patterns against the class members, for any c, in one walk.

    An order above ``cap`` raises :class:`EnumerationCapError` before the patterns are built.
    """
    check_cap(klass, cap)
    return walk_class(klass, cap, parametric_extremal_family(klass.c, klass.n)).extremality


# ---------------------------------------------------------------------------
# The oracle as one walk of the candidate tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassWalk:
    """What :func:`walk_class` finds over the candidates of a class."""

    candidates: int
    failures: tuple  # (runs, counting, inequalities, graphical) wherever the three tests disagree
    members: int
    extremality: Optional[ExtremalityReport]  # None when no family was given
    extremes: tuple  # an indices.Extremes per index, over the members
    spread: tuple  # the same over the members with at least c + 2 entries >= 2; () unless asked


def walk_class(
    klass: CyclomaticClass, cap: int, family: Optional[ExtremalFamily] = None, indices=(),
    spread: bool = False,
) -> ClassWalk:
    """The oracle over a class in one walk of its candidates, holding no population.

    Each candidate gets :func:`validate_runs` and the Erdos-Gallai test; the
    members are the candidates it accepts.  Where the tables have a row for
    c (c <= 6), each candidate also gets the counting form and the
    inequalities, and a disagreement among the three verdicts is recorded.
    With ``family``, the walk makes the :class:`ExtremalityReport` of the
    family over the members, and for each of ``indices`` it keeps the
    :class:`~ccyclic.indices.Extremes` of the members' ranking keys; with
    ``spread``, also over the members with at least c + 2 entries >= 2, for
    a refined upper bound.  Raises :class:`EnumerationCapError` above the cap.
    """
    check_cap(klass, cap)
    walk = _Walk(klass, family, indices, spread)
    # With no table row the verdicts start as (), so no head is built.
    verdicts = None if klass.c in _COUNT_CONDITIONS else ()
    walk.below(klass.n, klass.degree_total, klass.n - 1, (), verdicts, walk.mask, walk.min_ok, 0, 1)
    return walk.result()


class _Walk:
    """The constants and tallies of one :func:`walk_class`; :meth:`below` is the recursion.

    A push of a run ``(value, count)`` onto the candidate stack moves the
    run's end from position ``a`` to ``b`` and the prefix sum from ``start``
    to ``s``, and updates the state its whole subtree shares: the head the
    two tables read (their verdicts once it is complete), the bitmask of the
    regular maximals whose prefix sums still lie above, whether the minimal's
    still lie below, and the index keys.
    """

    def __init__(self, klass: CyclomaticClass, family, indices, spread: bool):
        n, total = klass.n, klass.degree_total
        self.klass, self.n, self.total, self.family = klass, n, total, family
        self.stack, self.choices = [], {}
        self.head_size = min(_HEAD_SIZE, n)
        self.candidates = self.members = 0
        self.failures, self.uncovered, self.below_minimal, self.witnesses = [], [], [], {}
        # The exact sum keys travel packed in one int, a field of `width` bits
        # each: a key is at most n times its largest term, so no field carries
        # into the next.  Product keys share one table (d -> d), so they are
        # one key.  Float keys are summed at the leaf, as `evaluate` sums them.
        tables = [key_table(index, n - 1) for index in indices]
        exact = [t for t, product in tables if not (product or isinstance(t[1], float))]
        width = max((n * max(table)).bit_length() for table in exact) if exact else 0
        self.packed = [sum(t[d] << i * width for i, t in enumerate(exact)) for d in range(n)]
        self.product_table = next((table for table, product in tables if product), [1] * n)
        self.extremes = tuple(Extremes() for _ in indices)
        self.ranks = _ranks(tables, self.extremes, width)
        self.spread = tuple(Extremes() for _ in indices) if spread else ()
        more = _ranks(tables, self.spread, width)  # a spread member's keys go to both
        self.spread_ranks = tuple(mine + extra for mine, extra in zip(self.ranks, more))

        # A regular maximal is nonincreasing, of order n and on the class total.
        # On a run of a member its gap to the member's prefix sums is concave,
        # so the member's run ends decide whether the member lies below it.
        self.tops, self.incomparable, least = (
            _family_sums(family) if family is not None else ([], True, None)
        )
        regular = []
        for sums, runs in self.tops:
            entries = expand_runs(runs)
            if len(sums) == n and sums[-1] == total and all(map(ge, entries, entries[1:])):
                regular.append(sums)
        # above[b][s]: the regular maximals whose prefix sum at b is at least s
        self.above = [[0] * (total + 1) for _ in range(n + 1)]
        for bit, sums in enumerate(regular):
            for b, top in enumerate(sums, start=1):
                row = self.above[b]
                for s in range(min(top, total) + 1):
                    row[s] |= 1 << bit
        self.mask = (1 << len(regular)) - 1

        # On a run of a member the gap to the minimal is convex, not concave:
        # it is checked at the member's run ends and at the minimal's within.
        self.least = [0] * (n + 1)
        ends = []
        self.min_ok = least is None or (len(least) == n and least[-1] == total)
        if least is not None and self.min_ok:
            self.least[1:] = least
            entries = expand_runs(family.minimal_runs)
            ends = [k for k in range(1, n) if entries[k - 1] != entries[k]]
        self.least_ends = [tuple(k for k in ends if k > a) for a in range(n + 1)]

    def below(self, slots, remaining, bound, head, verdicts, mask, min_ok, keys, product):
        """Push every run :func:`_run_choices` allows, then the runs below it, to the leaves."""
        klass, stack, above, least = self.klass, self.stack, self.above, self.least
        packed, product_table = self.packed, self.product_table
        a = self.n - slots
        start = self.total - remaining
        ends = self.least_ends[a]
        room = self.head_size - a  # entries the head still lacks
        for pair in _run_choices(self.choices, slots, remaining, bound):
            value, count = pair
            b = a + count
            s = start + value * count
            if verdicts is None:
                run_head = head + (value,) * (count if count < room else room)
                run_verdicts = None
                if count >= room:
                    run_verdicts = (_conditions_hold(run_head, klass), _rows_hold(run_head, klass))
            else:
                run_head, run_verdicts = head, verdicts
            run_ok = min_ok and s >= least[b]
            if run_ok and ends:
                for k in ends:
                    if k >= b:
                        break
                    if start + value * (k - a) < least[k]:
                        run_ok = False
                        break
            run_keys = keys + count * packed[value]
            run_product = product * product_table[value] ** count
            stack.append(pair)
            if count == slots:
                self.leaf(
                    tuple(stack), run_verdicts, mask & above[b][s], run_ok, run_keys, run_product
                )
            else:
                self.below(slots - count, remaining - count * value, value - 1, run_head,
                           run_verdicts, mask & above[b][s], run_ok, run_keys, run_product)
            stack.pop()

    def leaf(self, runs, verdicts, mask, min_ok, keys, product):
        """The checks of one candidate; a member also goes into the report and the extremes."""
        self.candidates += 1
        validate_runs(runs, self.n)
        graphical = is_graphical(runs)
        if verdicts and verdicts != (graphical, graphical):
            self.failures.append((runs, *verdicts, graphical))
        if not graphical:
            return
        self.members += 1
        if self.family is not None:
            # Below a regular maximal of an incomparable family, a member is
            # covered and strictly above no maximal; else the prefix sums decide.
            if not (mask and self.incomparable):
                sums_of_runs = list(accumulate(expand_runs(runs)))
                if not _place(sums_of_runs, runs, self.tops, self.incomparable, self.witnesses):
                    self.uncovered.append(runs)
            if not min_ok:
                self.below_minimal.append(runs)
        fields, products, floats = self.ranks
        # Entries >= 2 are all but a final run of ones.
        if self.spread and self.n - (runs[-1][1] if runs[-1][0] == 1 else 0) >= self.klass.c + 2:
            fields, products, floats = self.spread_ranks
        for shift, field, extremes in fields:
            extremes.add(keys >> shift & field, runs)
        for extremes in products:
            extremes.add(product, runs)
        for table, extremes in floats:
            extremes.add(sum([m * table[d] for d, m in runs]), runs)

    def is_member(self, runs) -> bool:
        """Whether a run-length form is a candidate of the class that Erdos-Gallai accepts."""
        try:
            validate_runs(runs, self.n)
        except ValueError:
            return False
        return sum(d * count for d, count in runs) == self.total and is_graphical(runs)

    def result(self) -> ClassWalk:
        report = None
        family, witnesses = self.family, self.witnesses
        if family is not None:
            minimal = family.minimal_runs
            report = ExtremalityReport(
                c=self.klass.c,
                n=self.n,
                sequence_count=self.members,
                members_valid=all(map(self.is_member, family.maximal_runs))
                and (minimal is None or self.is_member(minimal)),
                pairwise_incomparable=self.incomparable,
                not_below_any_maximal=tuple(self.uncovered),
                dominated_patterns=tuple(
                    (top, witnesses[top]) for top in family.maximal_runs if top in witnesses
                ),
                not_above_minimal=tuple(self.below_minimal),
            )
        return ClassWalk(
            self.candidates, tuple(self.failures), self.members, report, self.extremes, self.spread
        )


def _ranks(tables, extremes, width) -> tuple:
    """Where the key of each index, by its key table, goes: a packed field, the product or a sum."""
    fields, products, floats = [], [], []
    for (table, product), each in zip(tables, extremes):
        if product:
            products.append(each)
        elif not isinstance(table[1], float):
            fields.append((len(fields) * width, (1 << width) - 1, each))
        else:
            floats.append((table, each))
    return fields, products, floats
