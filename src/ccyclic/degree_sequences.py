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
holds candidates of its class only, as runs.

The oracle of every ``--verify``, and the one extremality check, is
:func:`walk_class`: one walk of the candidate tree per class, holding no
population, whose every push of a run updates the state its subtree shares
(:class:`_Walk`).  A rest of all ones is pushed in its parent's loop, and a
full stack reaches one leaf block there, by no call of its own: the
candidate gets :func:`validate_runs`, the verdicts of the tables, compiled
once per walk (:func:`_class_tables`), and the Erdos-Gallai verdict, one
test of the class's slack, with no call of :func:`is_graphical`.  Each push
carries that slack and the exact index keys in one int, from one table
(:func:`_slack_tables`).  Extremality is one prefix-sum rule: each push
carries whether the prefix sums of each vector of the family still lie
above the member's, and whether below, and a member's verdicts are read off
those bits (see :class:`_Walk`).  Exact index extremes start at the
balanced member's key, read off the same table, and one packed test skips
them.

Index-notation caveat: two of the published block descriptions carry
overlapping subscripts for where the "degree >= 2" block ends; the counting
form is authoritative here (first seven entries >= 2 for the widest c=5 set,
first eight for the widest c=6 set).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations, repeat
from math import isqrt, prod
from operator import add, le, or_, xor
from typing import Iterator, Optional

from .extremal import BoxSet, integerize_runs, maximal_runs, minimal_runs
from .indices import Extremes, key_table
from .majorization import Relation, coalesce_runs, expand_runs, relation_of_runs

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


def _class_tables(klass: CyclomaticClass) -> tuple:
    """The two tables compiled for a class with c <= 6, by their one reader, at each call.

    The counting rows live at its order, as their needs; the inequality rows
    as ``(k, j, a n + b)``, k and j at most n (a head's longest), or below the
    least edge count as the one row 0 <= -1, which no sequence holds.
    """
    n, c = klass.n, klass.c
    least, rows = _INEQUALITIES[c]
    conditions = [needs for needed_order, needs in _COUNT_CONDITIONS[c] if n >= needed_order]
    if n + c - 1 < least:
        return conditions, [(0, 0, -1)]
    return conditions, [(k if k < n else n, j if j < n else n, a * n + b) for k, j, a, b in rows]


def _conditions_hold(head: tuple, conditions: list) -> bool:
    """The compiled counting rows on a nonincreasing head holding each count: the j-th is >= t."""
    for needs in conditions:
        for t, j in needs:
            if head[j - 1] < t:
                break
        else:
            return True
    return False


def _rows_hold(head: tuple, rows) -> bool:
    """The compiled inequality rows on the head of a sequence, as far as they read it."""
    prefix = [0, *accumulate(head)]
    for k, j, limit in rows:
        if prefix[k] + prefix[j] > limit:
            return False
    return True


def _counting_form_holds(runs, total: int, conditions: list) -> bool:
    """Counting-form test of a valid run-length degree sequence, on the compiled rows."""
    return sum(d * m for d, m in runs) == total and _conditions_hold(_head(runs), conditions)


def is_ccyclic_sequence(runs, klass: CyclomaticClass) -> bool:
    """Counting-form membership test for the degree sequences of the class.

    ``runs`` is checked by :func:`validate_runs`, the one check a candidate
    gets: the other membership tests take its validity as given.
    """
    validate_runs(runs, klass.n)
    if klass.c > MAX_SUPPORTED_CYCLES:
        raise ValueError(f"no characterization implemented beyond c={MAX_SUPPORTED_CYCLES}")
    return _counting_form_holds(runs, klass.degree_total, _class_tables(klass)[0])


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
    return _rows_hold(_head(runs), _class_tables(klass)[1])


def is_graphical(runs) -> bool:
    """Erdos-Gallai test: is the run-length degree sequence realizable by a simple graph?

    ``runs`` is the ``(degree, count)`` form of a nonincreasing sequence, as
    :func:`~ccyclic.majorization.runs_of` gives it; False for an empty
    sequence, an odd degree sum or a degree outside [0, n-1].  That screen
    passed, :func:`_erdos_gallai` decides.  O(runs).
    """
    n = total = 0
    for degree, count in runs:
        n += count
        total += degree * count
    if n == 0 or total % 2 or runs[-1][0] < 0 or runs[0][0] > n - 1:
        return False
    return _erdos_gallai(runs, n)


def _erdos_gallai(runs, n: int) -> bool:
    """The Erdos-Gallai inequalities on nonempty runs of n degrees in [0, n-1], with an even sum.

    The caller vouches for that screen, as :func:`is_graphical` does.
    O(runs).  Only k with d_k >= k are tested: for d_k < k the k-th
    inequality follows from the (k-1)-th, since its right side grows by at
    least 2(k - 1) - 2 d_k >= 0 more than its left side.  Within one run, on
    those k, the slack (right side minus left side) is concave in k, so it
    suffices to test the last such k of each run (Tripathi & Vijay 2003).
    The right side ``k(k - 1) + sum(min(d_i, k))`` over i > k is
    ``k(above - 1)`` plus the degree sum beyond the entries >= k, which end
    at ``above``; that end only moves back as k grows, one run at a time.
    """
    last = len(runs) - 1  # the last run of degrees >= k
    above, tail = n, 0  # entries through that run, and the degree sum after it
    start = head = 0  # entries and degree sum before the current run
    for degree, count in runs:
        if degree <= start:  # d_k < k from k = start + 1 on
            break
        k = start + count  # min(k, degree), without the cost of a call per run
        if k > degree:
            k = degree
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


def _slack_tables(klass: CyclomaticClass, keys=(), shift: int = 0) -> tuple:
    """``(table, G, L)``: the Erdos-Gallai slack of the class, packed for :class:`_Walk`.

    The lemma: a positive sequence d_1 >= ... >= d_n with the class total
    2(n + c - 1) meets the k-th Erdos-Gallai inequality exactly when
    R_k >= L_k, where R_k is the sum of g_k(d_i) over i > k, g_k(d) = d +
    min(d, k) - 2 and L_k = 2c - 2 + 3k - k^2.  Proof: the inequality bounds
    the sum of the first k entries by k(k - 1) plus the sum of min(d_i, k)
    over i > k; that prefix is the total less the rest, so moving it to the
    right side and taking 2 from each of the n - k terms there leaves
    L_k <= R_k.  At k = 1 it says d_1 <= n - 1, which every candidate
    keeps.  As g_k >= 0 and g_k(1) = 0, only a k >= 2 with L_k > 0 can fail,
    and a final run of ones adds nothing.  L_k falls from k = 2 on, and
    L_n <= 0 (with R_n = 0) exactly when (n - 1)(n - 2) / 2 >= c, that is
    from the class's least order on, so each such k lies below n.

    Field j of a packed slack holds R_k for the j-th such k, in
    w = (2 total).bit_length() + 1 bits from bit ``shift`` + j w, the top
    one a guard (G holds the guards, L each L_k in its field).
    ``table[p][d]`` is p ``keys[d]`` (each entry's packed key, which takes
    the bits below ``shift``; none by default) plus the sum over j of
    max(0, p - k_j) g_{k_j}(d) in field j, so a run of d from position a to
    b adds ``table[b][d] - table[a][d]`` to the keys and the slack at once.
    As R_k <= 2 total < 2^(w-1) and L_k <= 2c, ``(slack | G) - L & G == G``
    keeps every guard, with no borrow across a field, exactly when each
    R_k >= L_k: when the sequence is graphical.  The keys below ``shift``
    leave that verdict as it is, as L has no bit there, and the slack leaves
    theirs (:func:`_packed_bounds`), as the low bits of a difference depend
    on no higher bit.
    """
    n, c = klass.n, klass.c
    width = (2 * klass.degree_total).bit_length() + 1
    fields = [(k, 2 * c - 2 + 3 * k - k * k) for k in range(2, n)]
    fields = [(k, low) for k, low in fields if low > 0]  # each k that can fail, with its L_k
    guards = sum(1 << shift + j * width + width - 1 for j in range(len(fields)))
    needs = sum(low << shift + j * width for j, (_, low) in enumerate(fields))
    # Row p is row p - 1 plus `step`: each entry d's key, and its g_k(d) for each k below p.
    table, step = [[0] * n], [*keys] or [0] * n
    for p in range(1, n + 1):
        for j, (k, _) in enumerate(fields):
            if k == p - 1:
                step = [s + (d + min(d, k) - 2 << shift + j * width) for d, s in enumerate(step)]
        table.append(list(map(add, table[-1], step)))
    return table, guards, needs


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
    descending lexicographic order.  The one copy of this arithmetic:
    :func:`walk_class` calls it only when its inline read of ``choices``
    misses, and never for a rest of all ones, which it pushes itself.
    Many prefixes share a rest, so each enumeration keeps its answers in
    ``choices``, as lists: freed tuples of many lengths would fill the
    interpreter's tuple free lists, which a long-running process keeps.
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
    """Maximal degree sequences (pairwise incomparable) and the unique minimal one, as runs.

    Each is a candidate of the class, or making the family raises ``ValueError``.
    """

    klass: CyclomaticClass
    maximal_runs: tuple
    minimal_runs: tuple

    def __post_init__(self):
        for runs in (*self.maximal_runs, self.minimal_runs):
            validate_runs(runs, self.klass.n)
            if sum(d * count for d, count in runs) != self.klass.degree_total:
                raise ValueError(f"family sequence {runs} is off the total of {self.klass}")


def class_boxes(klass: CyclomaticClass, conditions: list) -> list:
    """The constraint boxes of the class, one per counting row live at its order.

    ``conditions`` are those rows, as :func:`_class_tables` compiles them.  A
    row's thresholds fall as its counts rise, so each need ``(t, j)`` is one
    segment, entries past the previous need's count up to j in [t, n-1].
    """
    n, total = klass.n, klass.degree_total
    boxes = []
    for needs in conditions:
        segments, covered = [], 0
        for threshold, count in needs:
            segments.append(((threshold, n - 1), count - covered))
            covered = count
        segments.append(((1, n - 1), n - covered))
        boxes.append(BoxSet(total=total, segments=segments))
    return boxes


def _discard_dominated(candidates: list) -> list:
    """Drop run-length sequences majorized by another distinct candidate.

    The candidates must be valid forms of one order, each with maximal runs,
    which sort as the sequences they stand for.  The lexicographic lemma: x
    below y with x != y makes x lexicographically smaller (at the first entry
    where they differ, equal prefix sums before it force x's entry to be the
    smaller).  So, in descending lexicographic order, a candidate is related
    (by the unchecked :func:`~ccyclic.majorization.relation_of_runs`) only to
    the survivors before it, and must be below or incomparable with each, else
    ``AssertionError``; the survivors come out pairwise incomparable, in order.
    """
    kept = []
    for seq in sorted(set(candidates), reverse=True):
        for other in kept:
            rel = relation_of_runs(seq, other)
            if rel is Relation.LESS_OR_EQUAL:
                break
            if rel is not Relation.INCOMPARABLE:
                raise AssertionError(f"maximal candidates {seq} and {other} are {rel.value}")
        else:
            kept.append(seq)
    return kept


def extremal_family(klass: CyclomaticClass) -> ExtremalFamily:
    """Majorization-extremal degree sequences of the class, each relation decided once.

    Each live constraint box contributes one maximal and one integer minimal
    element, run-length forms that passed its box's membership check (order,
    bounds, dimension and total) when built, so the unchecked
    :func:`~ccyclic.majorization.relation_of_runs` relates them, O(runs)
    each.  :func:`_discard_dominated` keeps the maximals and checks them
    pairwise incomparable.  By its lexicographic lemma only the least minimal
    candidate can minorize the others, and here it is checked to; then every
    family sequence is checked a class member by the counting form, and the
    minimal below every maximal.  :class:`ExtremalFamily` checks the rest.
    """
    if klass.c > MAX_SUPPORTED_CYCLES:
        raise ValueError(f"extremal families are only established up to c={MAX_SUPPORTED_CYCLES}")
    conditions, total = _class_tables(klass)[0], klass.degree_total
    boxes = class_boxes(klass, conditions)
    maximals = _discard_dominated([maximal_runs(box) for box in boxes])
    least, *rest = sorted({integerize_runs(minimal_runs(box), box) for box in boxes})

    # assertion messages print the (degree, count) runs: a tuple can be huge
    below = (Relation.EQUAL, Relation.LESS_OR_EQUAL)
    for cand in rest:
        if relation_of_runs(least, cand) not in below:
            raise AssertionError(f"{least} fails to minorize candidate {cand}")
    for seq in maximals + [least]:
        if not _counting_form_holds(seq, total, conditions):
            raise AssertionError(f"extremal sequence {seq} is not in the class")
    for top in maximals:
        if relation_of_runs(least, top) not in below:
            raise AssertionError(f"minimal {least} not below maximal {top}")
    return ExtremalFamily(klass=klass, maximal_runs=tuple(maximals), minimal_runs=least)


# ---------------------------------------------------------------------------
# Closed-form c-parameterized patterns
# ---------------------------------------------------------------------------


def _balanced_runs(n: int, total: int) -> tuple:
    """The lexicographically least n entries summing to ``total``, each its floor mean or more."""
    base, extra = divmod(total, n)  # ``extra`` entries of base + 1, the rest base
    return coalesce_runs(((base + 1, extra), (base, n - extra)))


def parametric_extremal_family(c: int, n: int) -> ExtremalFamily:
    """Instantiate the closed-form extremal patterns at (c, n), as runs: O(1) in n.

    The maximals are proven extremal for c <= 6 and a conjecture beyond; a
    pattern whose exponents turn negative is omitted, which makes every one a
    candidate of the class.  The minimal is the balanced sequence, each entry
    floor(2(n + c - 1) / n) or one more, at every order: every other sequence
    with that length and total majorizes it.  It is ``3^(2c-2) 2^(n-2c+2)``
    wherever that pattern is defined (c >= 1 and 2c - 2 <= n).  Each call
    checks every pattern a candidate, raising ``AssertionError`` if not.
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
    try:
        return ExtremalFamily(klass, maximals, _balanced_runs(n, klass.degree_total))
    except ValueError as exc:
        raise AssertionError(f"closed-form pattern at {klass}: {exc}") from None


# ---------------------------------------------------------------------------
# Extremality checks against exhaustive enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalityReport:
    """Whether candidate extremal sequences are extremal within an enumerated class.

    ``ok`` says the candidates are genuine extremal elements: members of the
    class, pairwise incomparable maximals, no enumerated sequence strictly
    majorizing any maximal, and the minimal minorizing every enumerated
    sequence.  ``complete`` also asks every enumerated sequence to lie below
    some maximal, which the closed-form patterns need not achieve (already
    for c = 6 a fourth maximal exists beyond the three closed forms).
    Sequences in the report are maximal runs.
    """

    c: int
    n: int
    sequence_count: int
    members_valid: bool  # every family sequence is graphical (each is a class candidate)
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
    failures: tuple  # (runs, counting, inequalities, graphical by the slack) where they disagree
    members: int
    extremality: Optional[ExtremalityReport]  # None when no family was given
    extremes: tuple  # an indices.Extremes per index, over the members
    spread: tuple  # the same over the members with at least c + 2 entries >= 2; () unless asked


def walk_class(
    klass: CyclomaticClass, cap: int, family: Optional[ExtremalFamily] = None, indices=(),
    spread: bool = False,
) -> ClassWalk:
    """The oracle over a class in one walk of its candidates, holding no population.

    Each candidate gets :func:`validate_runs` and the Erdos-Gallai verdict
    of its packed slack, which each push updates with its index keys
    (:func:`_slack_tables`).
    That verdict is :func:`is_graphical`'s: the walk fixes the order and the
    class total, and :func:`validate_runs` the degree range, so its screen
    would pass every candidate, and on those the lemma of
    :func:`_slack_tables` is Erdos-Gallai.  The members are the candidates
    it accepts (``graphical``).  Where the tables have a row for c (c <= 6),
    each candidate also gets the counting form and the inequalities,
    compiled once per walk (:func:`_class_tables`), and a disagreement
    among the three verdicts is recorded.  With ``family``,
    the walk makes the family's :class:`ExtremalityReport` over the members
    (see :class:`_Walk`).  For each of ``indices`` it keeps the
    :class:`~ccyclic.indices.Extremes` of the members' ranking keys; with
    ``spread``, also over the members with at least c + 2 entries >= 2, for
    a refined upper bound.  With no ``indices`` no key is carried or ranked;
    with some, exact extremes are seeded by the balanced member's key and
    each member meets them in one packed test (see :class:`_Walk`).  Raises
    :class:`EnumerationCapError` above the cap, and
    ``ValueError`` for a family of another class, before any candidate.
    """
    if family is not None and family.klass != klass:
        raise ValueError(f"a family of {family.klass} cannot be checked over {klass}")
    check_cap(klass, cap)
    walk = _Walk(klass, family, indices, spread)
    # The empty prefix holds every bit of the mask (-1).
    walk.below(klass.n, klass.degree_total, klass.n - 1, (), walk.verdicts, -1, 0, 1)
    return walk.result()


class _Walk:
    """The constants and tallies of one :func:`walk_class`; :meth:`below` is the recursion.

    A push of a run ``(value, count)`` onto the candidate stack moves the run's
    end from position ``a`` to ``b`` and the prefix sum from ``start`` to
    ``s``, and updates the state its whole subtree shares: the head the two
    tables read (their verdicts once it is complete), one int that holds the
    exact index keys and the Erdos-Gallai slack above them (one difference of
    the walk's table, :func:`_slack_tables`, so the leaf's verdict is one
    guard-bit test), the degree product (only when an index is ranked), and
    one mask of bits of the family's vectors, each a candidate of the class: a
    vector's up bit is held while its prefix sums are at least the member's,
    its down bit while they are at most.  Within a member's run its prefix sums
    are linear and the vector's are concave, bending only where its entries
    fall, so the up bit is tested at the member's run ends and the down bit
    there and at the vector's falls.  A member is covered when a maximal's up
    bit is held, strictly majorizes each maximal whose down bit alone is held,
    and lies below the minimal when the minimal's down bit is not held.  A push
    that leaves a rest of all ones pushes that run too, a pair shared by every
    leaf (``ones``): it completes the head and adds its keys, adds no slack,
    and tests no bit, as a vector's prefix sums gain at least the member's 1 a
    step there and both end at the total.  Either way a full stack reaches the
    one leaf block, with no call of its own, and becomes a tuple only where its
    runs are kept.  Most members would move an exact extreme, as the balanced
    sequence (:func:`_balanced_runs`) comes last: pushed through the same
    table, its key seeds each when the leaf's own slack test admits it, so
    when it is a member the walk adds later (a spread one for the spread
    extremes).  A member strictly inside all exact extremes of its set skips
    them (:func:`_packed_bounds`), a test that reads only the key bits; a
    spread member's set is the spread one, whose interval lies inside the
    other's.  A member that does not skip them puts its degree product above
    the slack's top guard, and each key is read off its field.
    """

    def __init__(self, klass: CyclomaticClass, family, indices, spread: bool):
        n, total = klass.n, klass.degree_total
        self.klass, self.n, self.family = klass, n, family
        tabled = klass.c in _COUNT_CONDITIONS
        conditions, rows = _class_tables(klass) if tabled else (None, None)
        self.verdicts = None if tabled else ()  # with no table row no head is built
        self.candidates = self.members = 0
        self.failures, self.uncovered, self.below_minimal, self.witnesses = [], [], [], {}
        ones = [(1, k) for k in range(n + 1)]  # shared: a leaf's runs hold these pairs
        # The exact sum keys travel packed in the low bits of one int, a field
        # of `width` bits each and a 0 guard bit: a key is at most n times its
        # largest term, so no field carries into the next.  The class's slack
        # sits above them, and one table pushes both (`_slack_tables`).
        # Product keys share one table (d -> d), so they are one key, which a
        # leaf puts above the slack's top guard.  Float keys are summed at the
        # leaf, as `evaluate` sums them.
        tables = [key_table(index, n - 1) for index in indices]
        exact = [t for t, product in tables if not (product or isinstance(t[1], float))]
        width = max((n * max(table)).bit_length() for table in exact) if exact else 0
        packed = [sum(t[d] << i * (width + 1) for i, t in enumerate(exact)) for d in range(n)]
        product_table = next((table for table, product in tables if product), [1] * n)
        key_bits = len(exact) * (width + 1)
        pushes, slack_guards, slack_needs = self.layout = _slack_tables(klass, packed, key_bits)
        product_shift = slack_guards.bit_length() or key_bits  # above the slack's top guard
        self.extremes = tuple(Extremes() for _ in indices)
        ranks = _ranks(tables, self.extremes, width, product_shift)
        self.spread = tuple(Extremes() for _ in indices) if spread else ()
        more = _ranks(tables, self.spread, width, product_shift)  # spread members go to both
        spread_ranks = [ranks[0] + more[0], ranks[1] + more[1], None]
        self.sets = ((ranks, ranks[0]), (spread_ranks, more[0]))  # bounds of its own fields
        most_ones = n - klass.c - 2 if spread else -1  # in a spread member
        balanced = _balanced_runs(n, total)  # the last candidate, ranked when it is a member
        # Its pushes, an entry at a time, then the leaf's own test of its slack.
        state = sum(pushes[i + 1][d] - pushes[i][d] for i, d in enumerate(expand_runs(balanced)))
        if indices and (state | slack_guards) - slack_needs & slack_guards == slack_guards:
            key = state + (prod(product_table[d] ** m for d, m in balanced) << product_shift)
            spread_member = (balanced[-1][1] if balanced[-1][0] == 1 else 0) <= most_ones
            for shift, field, extremes in ranks[0] + (more[0] if spread_member else []):
                extremes.seed(key >> shift & field)
        self.rebound()

        self.tops = () if family is None else family.maximal_runs
        self.vectors = () if family is None else (*self.tops, family.minimal_runs)
        # Bit 0 is the minimal's down bit (its up bit is never read); maximal i
        # has up bit 1 + i and down bit 1 + m + i.  The bits held most often are
        # the lowest, so that most masks are small ints, which are not allocated.
        self.m = m = len(self.tops)
        maximal_up = (1 << m) - 1 << 1
        maximal_down = maximal_up << m
        # prefix[k][s]: the up bits of the vectors whose prefix sum at k is at
        # least s, and the down bits of those whose is at most s.  Each bit is
        # spread over the sums below its mark, an up bit's at the prefix sum, a
        # down bit's one below it, where it says "above s" until it is flipped.
        marks = [[0] * (total + 1) for _ in range(n + 1)]
        sums, falls = [], {}  # falls: position -> the down bits tested there
        for i, runs in enumerate(self.vectors):
            up, down = (2 << i, 2 << m + i) if i < m else (0, 1)
            sums.append(list(accumulate(expand_runs(runs))))
            for k, top in enumerate(sums[-1], start=1):
                marks[k][top] |= up
                marks[k][top - 1] |= down
            for k in accumulate(count for _, count in runs[:-1]):  # its falls, at its run ends
                falls[k] = falls.get(k, 0) | down
        flip = maximal_down | 1
        prefix = [list(map(xor, accumulate(row[::-1], or_), repeat(flip)))[::-1] for row in marks]
        # Past each position: the bits tested at some kink, and each kink with its bits.
        kinks, tested, past = [], 0, ()
        for a in range(n, -1, -1):
            kinks.append((tested, past))
            if a in falls:
                tested, past = tested | falls[a], ((a, falls[a]), *past)
        kinks.reverse()
        # Two maximals are comparable when no prefix sum of the one is above the other's.
        self.incomparable = not any(all(map(le, a, b)) for a, b in permutations(sums[:m], 2))
        # What `below` reads, unpacked at once per call.  With no index ranked
        # the state is the slack alone and a leaf ranks nothing.
        self.constants = (
            n, total, [], {}, ones, min(_HEAD_SIZE, n), conditions, rows, prefix, kinks, packed[1],
            product_table, bool(indices), product_shift, ranks, spread_ranks, most_ones, family,
            maximal_up, maximal_down, pushes, slack_guards, slack_needs,
        )

    def below(self, slots, remaining, bound, head, verdicts, mask, state, product):
        """Push each run :func:`_run_choices` allows (the memo read inline), then the runs below."""
        (n, total, stack, choices, ones, head_size, conditions, rows, prefix, kink_table, one,
         product_table, ranked, product_shift, ranks, spread_ranks, most_ones, family, maximal_up,
         maximal_down, pushes, slack_guards, slack_needs) = self.constants
        depth, a, start = len(stack), n - slots, total - remaining
        tested, kinks = kink_table[a]
        here = pushes[a]
        room = head_size - a  # entries the head still lacks
        key = (slots, remaining, bound)
        leaves = members = 0
        # A node's choices are never empty, so a hit of the memo costs no call.
        for pair in choices.get(key) or _run_choices(choices, slots, remaining, bound):
            value, count = pair
            rest, left = slots - count, remaining - count * value
            run_head, run_verdicts = head, verdicts
            if verdicts is None:
                run_head = head + (value,) * (count if count < room else room)
                if count >= room or rest == left:  # complete, with a rest of all ones
                    run_head += (1,) * (room - count)
                    run_verdicts = (_conditions_hold(run_head, conditions),
                                    _rows_hold(run_head, rows))
            b, s = a + count, start + value * count
            run_mask = mask & prefix[b][s]
            if run_mask & tested:
                for k, bits in kinks:
                    if k >= b:
                        break
                    if run_mask & bits:
                        run_mask &= prefix[k][start + value * (k - a)]
            run_state, run_product = state + pushes[b][value] - here[value], product
            if ranked:  # a rest of all ones leaves the degree product as it is
                run_product *= product_table[value] ** count
            stack.append(pair)
            if rest != left:
                self.below(rest, left, value - 1, run_head, run_verdicts, run_mask, run_state,
                           run_product)
                stack.pop()
                continue
            if rest:  # the rest is all ones, its one choice: pushed here, not in a call
                stack.append(ones[rest])
                run_state += rest * one  # its keys, as a run of ones adds no slack
            # The leaf.  A valid candidate of the class is graphical when its slack holds.
            leaves += 1
            validate_runs(stack, n)
            graphical = (run_state | slack_guards) - slack_needs & slack_guards == slack_guards
            runs = ()  # the candidate as a tuple, made where it is kept
            if run_verdicts and run_verdicts != ((False, False), (True, True))[graphical]:
                runs = tuple(stack)
                self.failures.append((runs, *run_verdicts, graphical))
            if graphical:
                members += 1
                if family is not None:
                    if not run_mask & maximal_up:
                        self.uncovered.append(runs := runs or tuple(stack))
                    if run_mask & maximal_down:
                        strictly = run_mask >> self.m & ~run_mask  # above a maximal, not equal
                        for i, top in enumerate(self.tops):
                            if strictly >> 1 + i & 1 and top not in self.witnesses:
                                runs = self.witnesses[top] = runs or tuple(stack)
                    if not run_mask & 1:
                        self.below_minimal.append(runs := runs or tuple(stack))
                if ranked:
                    fields, floats, bounds = ranks
                    # Entries >= 2 are all but a final run of ones.
                    if (stack[-1][1] if stack[-1][0] == 1 else 0) <= most_ones:
                        fields, floats, bounds = spread_ranks
                    low, high, guards, product_low, product_high = bounds
                    if ((run_state | guards) - low & high - run_state & guards != guards
                            or not product_low < run_product < product_high):
                        run_state += run_product << product_shift  # the exact key, whole
                        runs = runs or tuple(stack)
                        for shift, field, extremes in fields:
                            extremes.add(run_state >> shift & field, runs)
                        self.rebound()
                    for table, extremes in floats:
                        runs = runs or tuple(stack)
                        extremes.add(sum([m * table[d] for d, m in runs]), runs)
            del stack[depth:]
        self.candidates += leaves
        self.members += members

    def rebound(self) -> None:
        """Pack each set's bounds afresh, as its extremes may have moved."""
        for ranks, fields in self.sets:
            ranks[2] = _packed_bounds(fields)

    def result(self) -> ClassWalk:
        report = None if self.family is None else ExtremalityReport(
            c=self.klass.c,
            n=self.n,
            sequence_count=self.members,
            members_valid=all(map(is_graphical, self.vectors)),
            pairwise_incomparable=self.incomparable,
            not_below_any_maximal=tuple(self.uncovered),
            dominated_patterns=tuple(
                (top, self.witnesses[top]) for top in self.tops if top in self.witnesses
            ),
            not_above_minimal=tuple(self.below_minimal),
        )
        return ClassWalk(
            self.candidates, tuple(self.failures), self.members, report, self.extremes, self.spread
        )


def _ranks(tables, extremes, width, top) -> tuple:
    """Each key's field of the exact key (the product's at ``top``) or float sum; no bounds yet."""
    fields, floats, shift = [], [], 0
    for (table, product), each in zip(tables, extremes):
        if product:
            fields.append((top, -1, each))
        elif isinstance(table[1], float):
            floats.append((table, each))
        else:
            fields.append((shift, (1 << width) - 1, each))
            shift += width + 1  # and a guard bit
    return [fields, floats, None]


def _packed_bounds(fields) -> tuple:
    """``(L, H, G, plow, phigh)``: a key is strictly inside every exact extreme of a set when
    ``(key | G) - L & H - key & G == G`` and ``plow < product < phigh``.  G holds each sum
    field's guard bit, L its low + 1, H its high - 1 plus G: for w value bits, key + 2^w - low
    - 1 lies in [0, 2^(w+1)), so no borrow crosses a field, with the guard iff key > low; H -
    key keeps it iff key < high.
    """
    low, high, guards, plow, phigh = 0, 0, 0, 0, 2  # with no product ranked, every product is 1
    for shift, field, extremes in fields:
        if extremes.low is None:
            return 0, 0, 0, 0, 0  # no product lies inside
        if field < 0:
            plow, phigh = extremes.low, extremes.high
        else:
            guards += field + 1 << shift
            low += extremes.low + 1 << shift
            high += extremes.high - 1 << shift
    return low, high + guards, guards, plow, phigh
