"""Degree sequences of connected graphs with a prescribed number of independent cycles.

A connected simple graph on ``n`` vertices with ``m`` edges has cyclomatic
number ``c = m - n + 1``: trees have c=0, unicyclic graphs c=1, and so on.
For ``0 <= c <= 6`` the degree sequences of such graphs are characterized by
a fixed family of counting conditions ("at least j entries are >= t"); each
condition doubles as a box of the form handled by :mod:`ccyclic.extremal`,
which yields the majorization-maximal and -minimal degree sequences of the
whole class.

Two independent characterizations are implemented side by side: the counting
form used throughout this package, and the classic test via edge count plus
prefix-sum inequalities.  They are proved equivalent in the literature; the
test suite re-checks the equivalence exhaustively at small orders, and both
are cross-validated against plain graphicality, since for any c >= 0 a
positive sequence with sum ``2(n + c - 1)`` belongs to the class exactly when
it is graphical (a graphical sequence with minimum degree >= 1 and at least
``n - 1`` edges always has a connected realization).  Enumerated populations
are filtered by graphicality alone, so they check the counting conditions
rather than repeat them.

Index-notation caveat: two of the published block descriptions carry
overlapping subscripts for where the "degree >= 2" block ends; the counting
form is authoritative here (first seven entries >= 2 for the widest c=5 set,
first eight for the widest c=6 set).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import lt
from typing import Iterator, Optional

from .extremal import BoxSet, integerize_runs, maximal_runs, minimal_runs
from .majorization import Relation, compare, compare_runs, expand_runs, is_majorized_by

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

MAX_SUPPORTED_CYCLES = max(_COUNT_CONDITIONS)


class EnumerationCapError(RuntimeError):
    """Requested order exceeds the configured exhaustive-enumeration cap."""


def min_order(c: int) -> int:
    """Smallest vertex count admitting a connected graph with c independent cycles."""
    if c < 0:
        raise ValueError("cyclomatic number must be nonnegative")
    n = 2
    while (n - 1) * (n - 2) // 2 < c:
        n += 1
    return n


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


def validate_degree_sequence(seq, n: int) -> tuple:
    """Check a degree sequence: length n, nonincreasing, entries in [1, n-1]."""
    seq = tuple(map(int, seq))
    if len(seq) != n:
        raise ValueError(f"expected {n} degrees, got {len(seq)}")
    if any(map(lt, seq, seq[1:])):
        raise ValueError("degrees not sorted nonincreasing")
    if seq[-1] < 1 or seq[0] > n - 1:
        raise ValueError("degrees must lie in [1, n-1]")
    return seq


def _counting_form_holds(counts, klass: CyclomaticClass) -> bool:
    """Counting-form test of a valid degree sequence given as ``(degree, count)`` pairs."""
    if sum(d * count for d, count in counts) != klass.degree_total:
        return False
    for needed_order, needs in _COUNT_CONDITIONS[klass.c]:
        if klass.n < needed_order:
            continue
        if all(sum(count for d, count in counts if d >= t) >= j for t, j in needs):
            return True
    return False


def is_ccyclic_sequence(seq, klass: CyclomaticClass) -> bool:
    """Counting-form membership test for the degree sequences of the class."""
    seq = validate_degree_sequence(seq, klass.n)
    if klass.c > MAX_SUPPORTED_CYCLES:
        raise ValueError(
            f"no characterization implemented beyond c={MAX_SUPPORTED_CYCLES}"
        )
    return _counting_form_holds(Counter(seq).items(), klass)


def is_ccyclic_sequence_via_inequalities(seq, klass: CyclomaticClass) -> bool:
    """Classic membership test: edge count plus prefix-sum inequalities.

    Kept textually independent from the counting form so the two can guard
    each other; missing entries count as zero in the longer inequalities.
    """
    seq = validate_degree_sequence(seq, klass.n)
    n, c = klass.n, klass.c
    total = sum(seq)
    if total % 2:
        return False
    m = total // 2
    if m != n + c - 1:
        return False

    def d(i: int) -> int:
        return seq[i - 1] if i <= n else 0

    if c == 0:
        return m >= 1
    if c == 1:
        return m >= 3 and d(1) + d(2) <= n + 1
    if c == 2:
        return m >= 5 and d(1) + d(2) <= n + 2 and d(1) + d(2) + d(3) <= n + 4
    if c == 3:
        return m >= 6 and d(1) + d(2) <= n + 3 and d(1) + d(2) + d(3) <= n + 5
    if c == 4:
        return (
            m >= 8
            and d(1) + d(2) <= n + 4
            and d(1) + d(2) + d(3) <= n + 6
            and d(1) + d(2) + d(3) + d(4) <= n + 9
        )
    if c == 5:
        return (
            m >= 9
            and d(1) + d(2) <= n + 5
            and d(1) + d(2) + d(3) <= n + 7
            and d(1) + d(2) + d(3) + d(4) <= n + 10
            and 2 * d(1) + 2 * d(2) + d(3) + d(4) + d(5) <= 2 * n + 16
        )
    if c == 6:
        return (
            m >= 10
            and d(1) + d(2) <= n + 6
            and d(1) + d(2) + d(3) <= n + 8
            and d(1) + d(2) + d(3) + d(4) <= n + 11
            and 2 * d(1) + 2 * d(2) + d(3) + d(4) + d(5) <= 2 * n + 18
            and 2 * d(1) + 2 * d(2) + d(3) + d(4) + d(5) + d(6) <= 2 * n + 20
        )
    raise ValueError(f"no inequality characterization implemented for c={c}")


def is_graphical(seq) -> bool:
    """Erdos-Gallai test: is the sequence realizable by a simple graph?

    Linear after the sort.  With the degrees nonincreasing, the entries >= k
    form a head ``degrees[:above]``, so the right side ``k(k - 1) + sum(min(d_i,
    k))`` over i > k is ``k(k - 1) + k(above - k)`` plus the sum beyond the
    head, O(1) from prefix sums.

    Only k with d_k >= k are tested: for d_k < k the k-th inequality follows
    from the (k-1)-th, since its left side grows by d_k and its right side by
    at least 2(k - 1) - d_k >= d_k.
    """
    degrees = sorted((int(d) for d in seq), reverse=True)
    n = len(degrees)
    if n == 0 or degrees[-1] < 0 or degrees[0] > n - 1:
        return False
    prefix = list(accumulate(degrees, initial=0))
    total = prefix[n]
    if total % 2:
        return False
    above = n
    for k in range(1, n + 1):
        if degrees[k - 1] < k:
            break
        while degrees[above - 1] < k:  # stops at above >= k, as d_k >= k
            above -= 1
        if prefix[k] > k * (above - 1) + total - prefix[above]:
            return False
    return True


def candidate_sequences(n: int, total: int) -> Iterator[tuple]:
    """All nonincreasing positive length-n sequences with max <= n-1 and the given sum.

    Yielded in descending lexicographic order; the recursion prunes on the
    amount of sum the remaining slots can still absorb.
    """

    def rec(slots: int, remaining: int, bound: int) -> Iterator[tuple]:
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        high = min(bound, remaining - (slots - 1))
        low = -(-remaining // slots)  # ceil: parts below this cannot stay nonincreasing
        for part in range(high, max(low, 1) - 1, -1):
            for rest in rec(slots - 1, remaining - part, part):
                yield (part,) + rest

    if n < 1:
        return
    yield from rec(n, total, n - 1)


def _members(klass: CyclomaticClass, cap: int) -> list:
    """The candidates of the class's order and degree total that :func:`is_graphical` accepts."""
    if klass.n > cap:
        raise EnumerationCapError(f"order {klass.n} exceeds enumeration cap {cap}")
    return [seq for seq in candidate_sequences(klass.n, klass.degree_total) if is_graphical(seq)]


def enumerate_sequences(
    klass: CyclomaticClass, cap: int = DEFAULT_ENUMERATION_CAP
) -> list:
    """Every degree sequence of the class, in descending lexicographic order.

    A positive sequence with sum ``2(n + c - 1)`` is the degree sequence of a
    connected graph with c independent cycles iff it is graphical, so the
    population comes from the Erdos-Gallai test alone, for any c >= 0, and
    stays independent of the counting conditions the extremal boxes are
    built from.
    """
    return _members(klass, cap)


def graphical_class_sequences(
    klass: CyclomaticClass, cap: int = DEFAULT_ENUMERATION_CAP
) -> list:
    """The same population as :func:`enumerate_sequences`, under the name the scan uses."""
    return _members(klass, cap)


# ---------------------------------------------------------------------------
# Extremal families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalFamily:
    """Maximal degree sequences (pairwise incomparable) and the unique minimal one."""

    klass: CyclomaticClass
    maximals: tuple
    minimal: Optional[tuple]  # None only where a closed-form minimal pattern is undefined


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
    forms, O(runs) per sequence; only the result is expanded into tuples.
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
    return ExtremalFamily(
        klass=klass, maximals=tuple(map(expand_runs, maximals)), minimal=expand_runs(least)
    )


# ---------------------------------------------------------------------------
# Closed-form c-parameterized patterns
# ---------------------------------------------------------------------------


def _valid_pattern(seq: tuple, klass: CyclomaticClass) -> bool:
    if len(seq) != klass.n or sum(seq) != klass.degree_total:
        return False
    if any(a < b for a, b in zip(seq, seq[1:])):
        return False
    return 1 <= seq[-1] and seq[0] <= klass.n - 1


def parametric_extremal_family(c: int, n: int) -> ExtremalFamily:
    """Instantiate the closed-form extremal patterns at (c, n).

    Proven extremal for c <= 6 and a conjecture beyond.  A pattern whose
    exponents turn negative or whose entries leave [1, n-1] is omitted; the
    minimal one (else None) also needs c >= 1 and 2c - 2 <= n.
    """
    klass = CyclomaticClass(c=c, n=n)
    maximals = []

    def push(*parts):
        seq = tuple(d for d in parts if d > 0)
        if _valid_pattern(seq, klass):
            maximals.append(seq)

    if n - c - 2 >= 0:
        push(n - 1, c + 1, *([2] * c), *([1] * (n - c - 2)))
    if c >= 3 and n - c - 1 >= 0:
        push(n - 1, c, 3, 3, *([2] * (c - 3)), *([1] * (n - c - 1)))
    if c >= 5 and n - c >= 0:
        push(n - 1, c - 1, 4, 3, 3, *([2] * (c - 5)), *([1] * (n - c)))

    minimal = None
    if c >= 1 and 2 * c - 2 <= n:
        seq = (3,) * (2 * c - 2) + (2,) * (n - 2 * c + 2)
        if _valid_pattern(seq, klass):
            minimal = seq
    return ExtremalFamily(klass=klass, maximals=tuple(maximals), minimal=minimal)


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


def _extremality_report(family: ExtremalFamily, population) -> ExtremalityReport:
    maximals, minimal = family.maximals, family.minimal
    pop = set(population)
    members_valid = all(seq in pop for seq in maximals) and (
        minimal is None or minimal in pop
    )
    incomparable = all(
        compare(a, b) is Relation.INCOMPARABLE
        for i, a in enumerate(maximals)
        for b in maximals[i + 1 :]
    )
    uncovered = []
    witnesses = {}
    for seq in population:
        covered = False
        for top in maximals:
            rel = compare(seq, top)
            if rel is Relation.GREATER_OR_EQUAL:
                witnesses.setdefault(top, seq)
            elif rel is not Relation.INCOMPARABLE:
                covered = True
                # Below one of pairwise incomparable maximals, seq cannot
                # strictly majorize another: that one would lie below this one.
                if incomparable:
                    break
        if not covered:
            uncovered.append(seq)
    below = (
        tuple(seq for seq in population if not is_majorized_by(minimal, seq))
        if minimal is not None
        else ()
    )
    return ExtremalityReport(
        c=family.klass.c,
        n=family.klass.n,
        sequence_count=len(population),
        members_valid=members_valid,
        pairwise_incomparable=incomparable,
        not_below_any_maximal=tuple(uncovered),
        dominated_patterns=tuple(
            (top, witnesses[top]) for top in maximals if top in witnesses
        ),
        not_above_minimal=below,
    )


def check_family_extremality(klass: CyclomaticClass, population) -> ExtremalityReport:
    """Check the extremal family against ``population``, the enumerated class."""
    return _extremality_report(extremal_family(klass), population)


def check_pattern_extremality(klass: CyclomaticClass, population) -> ExtremalityReport:
    """Check the closed-form patterns against ``population``, the enumerated class (any c)."""
    return _extremality_report(parametric_extremal_family(klass.c, klass.n), population)
