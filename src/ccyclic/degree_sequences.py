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
which the generator's output is, built of run choices that one process-wide
cache holds, each list checked once per process, when the cache makes it
(:func:`_checked_choices`).  :class:`ExtremalFamily` holds candidates of its
class only, as runs.

The oracle of every ``--verify``, and the one extremality check, is
:func:`walk_class`: one walk of the candidate tree per class, holding no
population, whose every push of a run updates the state its subtree shares.
A rest of all ones is pushed in its parent's loop, and a full stack reaches
one leaf block there, by no call of its own, and is valid by its runs'
checks, made once per choice list.  The candidate gets guard-bit tests of
one packed int, the Erdos-Gallai verdict of the class's slack, with no call
of :func:`is_graphical`, and, for c <= 6, one test per row of the two tables,
compiled once per walk (:func:`_class_tables`), with no call of their
readers.  Each push carries that slack, the tables' counts and inequality
sums, the exact index keys and, with a family, the member's threshold sums
in that int, from one table (:func:`_walk_layout`, :func:`_slack_tables`).
Extremality is one threshold-sum rule: a member lies below a vector of the
family exactly when none of its threshold sums exceeds the vector's, so
each of its verdicts is one guard-bit test at the leaf.  Exact index
extremes start at the balanced member's key, read off the same table, and
one packed test skips them.

Index-notation caveat: two of the published block descriptions carry
overlapping subscripts for where the "degree >= 2" block ends; the counting
form is authoritative here (first seven entries >= 2 for the widest c=5 set,
first eight for the widest c=6 set).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, permutations
from math import isqrt, prod
from operator import add
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


#: the longest head (largest entries) that either table reads, for the public membership tests
_HEAD_SIZE = max(
    [j for conditions in _COUNT_CONDITIONS.values() for _, needs in conditions for _, j in needs]
    + [k for _, rows in _INEQUALITIES.values() for k, _, _, _ in rows]
)


def _head(runs) -> tuple:
    """The first ``_HEAD_SIZE`` entries of a run-length sequence (all of them, when fewer).

    The public membership tests read the tables off it; :func:`walk_class`
    reads them off its packed state, and builds no head.
    """
    head = ()
    for degree, count in runs:
        if len(head) >= _HEAD_SIZE:
            break
        head += (degree,) * min(count, _HEAD_SIZE - len(head))
    return head


def _class_tables(klass: CyclomaticClass) -> tuple:
    """The two tables compiled for a class with c <= 6, at each call.

    The counting rows live at its order, as their needs; the inequality rows
    as ``(k, j, a n + b)``, k and j at most n (a head's longest), or below the
    least edge count as the one row 0 <= -1, which no sequence holds.  Three
    readers take them: :func:`_counting_form_holds` and
    :func:`is_ccyclic_sequence_via_inequalities` on a head, one table each,
    and :func:`_walk_layout`, which packs both into the state of
    :func:`walk_class`, once per walk.
    """
    n, c = klass.n, klass.c
    least, rows = _INEQUALITIES[c]
    conditions = [needs for needed_order, needs in _COUNT_CONDITIONS[c] if n >= needed_order]
    if n + c - 1 < least:
        return conditions, [(0, 0, -1)]
    return conditions, [(k if k < n else n, j if j < n else n, a * n + b) for k, j, a, b in rows]


def _counting_form_holds(runs, total: int, conditions: list) -> bool:
    """Counting-form test of a valid run-length degree sequence, on the compiled rows."""
    if sum(d * m for d, m in runs) != total:
        return False
    head = _head(runs)
    for needs in conditions:
        for t, j in needs:
            if head[j - 1] < t:  # fewer than j entries are >= t
                break
        else:
            return True
    return False


def is_ccyclic_sequence(runs, klass: CyclomaticClass) -> bool:
    """Counting-form membership test for the degree sequences of the class.

    ``runs`` is checked by :func:`validate_runs`: the other membership tests
    take its validity as given.
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
    prefix = [0, *accumulate(_head(runs))]
    for k, j, limit in _class_tables(klass)[1]:
        if prefix[k] + prefix[j] > limit:
            return False
    return True


def is_graphical(runs) -> bool:
    """Erdos-Gallai test: is the run-length degree sequence realizable by a simple graph?

    ``runs`` is the ``(degree, count)`` form of a nonincreasing sequence, as
    :func:`~ccyclic.majorization.runs_of` gives it; False for an empty
    sequence, an odd degree sum or a degree outside [0, n-1].  That screen
    passed, the Erdos-Gallai inequalities decide.  O(runs).  Only k with
    d_k >= k are tested: for d_k < k the k-th inequality follows from the
    (k-1)-th, since its right side grows by at least 2(k - 1) - 2 d_k >= 0
    more than its left side.  Within one run, on those k, the slack (right
    side minus left side) is concave in k, so it suffices to test the last
    such k of each run (Tripathi & Vijay 2003).  The right side ``k(k - 1) +
    sum(min(d_i, k))`` over i > k is ``k(above - 1)`` plus the degree sum
    beyond the entries >= k, which end at ``above``; that end only moves back
    as k grows, one run at a time.
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


def _slack_tables(klass: CyclomaticClass, keys=(), shift: int = 0, rows=()) -> tuple:
    """``(table, G, L, M)``: the class's Erdos-Gallai slack and inequality rows, packed.

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
    one a guard (G holds the guards, L each L_k in its field).  Above them
    lies one more such field for each compiled inequality row ``(k, j, a n +
    b)`` of ``rows`` (:func:`_class_tables`): the sum of the entries past
    position k plus those past position j, which is 2 total - (P_k + P_j),
    where P_k is the sum of the first k entries.  With the total fixed, the
    row holds exactly when its field is at least 2 total - (a n + b), its
    need in M (0 when negative).  The row 0 <= -1 needs 2 total + 1, above
    any field's value, so it never holds.  G holds these guards too.
    ``table[p][d]`` is p ``keys[d]`` (each entry's packed index keys,
    threshold terms and counts, :func:`_walk_layout`, which take the bits
    below ``shift``; none by default) plus, in each field, its term of d
    for each of the first p positions past its k: g_k(d), or, for a row, d
    past its k and d more past its j.  So a run of d from position a to b
    adds ``table[b][d] - table[a][d]`` to the keys, the slack and the rows
    at once.  As each field is at most 2 total < 2^(w-1) and each need at
    most 2 total + 1, ``(slack | G) - L & G == G`` keeps every guard, with
    no borrow across a field, exactly when each R_k >= L_k: when the
    sequence is graphical; the rows' fields need 0 in L, so their guards
    stay.  ``(slack | G) - M & G == G`` is the rows' verdict in the same
    way.  The keys below ``shift`` leave those verdicts as they are, as L
    and M have no bit there, and the slack leaves theirs
    (:func:`_packed_bounds`), as the low bits of a difference depend on no
    higher bit.
    """
    n, c, total = klass.n, klass.c, klass.degree_total
    width = (2 * total).bit_length() + 1
    fields = [(k, 2 * c - 2 + 3 * k - k * k) for k in range(2, n)]
    fields = [(k, low) for k, low in fields if low > 0]  # each k that can fail, with its L_k
    bits = [shift + i * width for i in range(len(fields) + len(rows))]  # each field's lowest
    row_bits = bits[len(fields):]
    guards = sum(1 << bit + width - 1 for bit in bits)
    needs = sum(low << bit for (_, low), bit in zip(fields, bits))
    row_needs = sum(max(2 * total - limit, 0) << bit for (*_, limit), bit in zip(rows, row_bits))
    # Each (k, bit, terms): from position k on, an entry d adds terms[d] at `bit`.
    onsets = [(k, bit, [d + min(d, k) - 2 for d in range(n)]) for (k, _), bit in zip(fields, bits)]
    onsets += [(past, bit, range(n)) for (k, j, _), bit in zip(rows, row_bits) for past in (k, j)]
    table, step = [[0] * n], [*keys] or [0] * n
    for p in range(n):  # row p + 1 is row p plus `step`, which takes each term from p on
        for k, bit, terms in onsets:
            if k == p:
                step = [s + (term << bit) for s, term in zip(step, terms)]
        table.append(list(map(add, table[-1], step)))
    return table, guards, needs, row_needs


def candidate_sequences(n: int, total: int) -> Iterator[tuple]:
    """Every nonincreasing positive length-n sequence with max <= n-1 and the given sum.

    Each is yielded as its run-length form ``((degree, count), ...)``, in
    descending lexicographic order of the sequences.  One shared stack of
    runs is extended by the runs :func:`_checked_choices` allows, so no
    branch dead-ends, and only the yielded forms are copied.  Each ``(degree,
    count)`` pair is made once per process, and shared by every form and
    every list of choices that holds it, so a kept form costs one tuple of
    references.
    """
    if n >= 1:
        yield from _runs_below([], n, total, n - 1)


def _run_choices(slots: int, remaining: int, bound: int) -> list:
    """Each next run ``(value, count)``, value <= ``bound``, that leaves the rest completable.

    The rest is ``slots`` entries summing to ``remaining``; runs come in
    descending lexicographic order, in a fresh list.  The one copy of this
    arithmetic: :func:`_checked_choices` calls it once per rest and process,
    for :func:`walk_class` and :func:`_runs_below`, and the walk never for a
    rest of all ones, which it pushes itself.
    """
    high = min(bound, remaining - slots + 1)  # the rest are at least 1
    low = max(-(-remaining // slots), 1)  # the rest are at most the next value
    return [
        (value, count)
        for value in range(high, low - 1, -1)
        # After `count` copies of the value, the rest lie in [1, value - 1] or are none.
        for count in range(
            slots if value == 1 else min(slots, (remaining - slots) // (value - 1)),
            max(remaining - slots * (value - 1), 1) - 1,
            -1,
        )
    ]


#: each ``(value, count)`` pair that :func:`_checked_choices` has made, as the one copy it shares
_PAIRS: dict = {}


@cache
def _checked_choices(slots: int, remaining: int, bound: int) -> tuple:
    """:func:`_run_choices`'s list for a rest, each run checked, as a tuple the process keeps.

    Each ``(value, count)`` must have ``count >= 1``, ``1 <= value <=
    bound``, ``count <= slots``, and leave a completable rest: ``rest <= left
    <= rest (value - 1)`` for the ``rest = slots - count`` entries left to
    sum to ``left = remaining - count value``, each in [1, value - 1].
    Else ``ValueError``, with :func:`validate_runs`'s message where it has
    one, and the cache keeps nothing.  The choices at a rest depend on
    nothing else, so one cache serves every walk and enumeration: each list
    is checked once per process, when the cache makes it, and a stack of
    checked runs needs no check of its own.  The tuple is shared, so no
    caller can change it, and so is each pair in it, taken from ``_PAIRS``:
    the lists of all rests hold one object per distinct pair.
    """
    runs = tuple(_PAIRS.setdefault(pair, pair) for pair in _run_choices(slots, remaining, bound))
    for value, count in runs:
        rest, left = slots - count, remaining - count * value
        if count < 1:
            raise ValueError("every run needs a positive length")
        if value < 1:
            raise ValueError("degrees must lie in [1, n-1]")
        if value > bound:
            raise ValueError("degrees not in decreasing runs")
        if rest < 0:
            raise ValueError(f"a run of {count} is longer than the {slots} entries left")
        if not rest <= left <= rest * (value - 1):
            raise ValueError(f"no {rest} entries in [1, {value - 1}] sum to {left}")
    return runs


def _runs_below(stack: list, slots: int, remaining: int, bound: int) -> Iterator:
    """Extend ``stack`` by runs of values <= ``bound``: ``slots`` entries summing to ``remaining``.

    The runs are :func:`_checked_choices`'s, checked once per process and rest.
    """
    for pair in _checked_choices(slots, remaining, bound):
        value, count = pair
        stack.append(pair)
        if count == slots:
            yield tuple(stack)
        else:
            yield from _runs_below(stack, slots - count, remaining - count * value, value - 1)
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

    A push of a run ``(value, count)`` onto the candidate stack moves the
    run's end from position ``a`` to ``a + count`` and updates the state its
    whole subtree shares: one int that holds the exact index keys, the counts
    and inequality sums the two tables read, the threshold sums against the
    family and the Erdos-Gallai slack (one difference of the walk's table,
    :func:`_walk_layout`), and the degree product (only when an index is
    ranked).  A push that leaves a rest of all ones pushes that run too, a
    pair shared by every leaf: one more table difference adds its keys and
    its inequality terms, and no slack, no threshold sum and no count.
    Either way a full stack reaches the one leaf block, with no call of its
    own, and becomes a tuple only where its runs are kept.  ``below`` is the
    recursion, and reads the walk's tables as free variables.

    Each candidate is valid by induction, with no check of its own: every
    run the walk takes from the cache was checked once per process, when
    the cache made its list (:func:`_checked_choices`: a positive count, a
    value in [1, bound] below the run before it, and a completable rest,
    which makes a run of 1 the last), the walk pushes a run of ones itself
    only after a run of value >= 2, and the slot count makes every leaf
    exactly n long.
    Each candidate gets the Erdos-Gallai verdict of its slack, one guard-bit
    test (:func:`_slack_tables`).  That verdict is :func:`is_graphical`'s:
    the walk fixes the order and the class total, and the checked choices
    the degree range [1, n - 1], so its screen would pass every candidate,
    and on those the lemma of :func:`_slack_tables` is Erdos-Gallai.  The
    members are the candidates it accepts.  Where the tables have a row for
    c (c <= 6), each candidate also gets the verdicts of the counting form
    and of the inequalities, compiled once per walk (:func:`_class_tables`)
    into the same int: a guard-bit test per row, the counting form holding
    when one of its rows does, with no call of :func:`is_ccyclic_sequence`
    or :func:`is_ccyclic_sequence_via_inequalities`.  A disagreement among
    the three verdicts is recorded.

    With ``family``, the walk makes the family's :class:`ExtremalityReport`
    over the members.  By the lemma of :func:`_walk_layout` a member lies
    below a vector exactly when none of its threshold sums exceeds the
    vector's, and above it when none falls short, each one guard-bit test.
    It is covered when it lies below a maximal, a witness against each
    maximal it lies above and not below, and below the minimal when it does
    not lie above it.  Three lemmas skip tests.  A covered member of a
    pairwise-incomparable family strictly majorizes no maximal: x below v
    and strictly above v' puts v' below v and v' != v.  A member above a
    maximal has each sum at least the maximals' least, so one test against
    those least sums comes first.  Every candidate lies above the balanced
    sequence (:func:`_balanced_runs`), so a balanced minimal needs no test.

    For each of ``indices`` the walk keeps the
    :class:`~ccyclic.indices.Extremes` of the members' ranking keys; with
    ``spread``, also over the members with at least c + 2 entries >= 2, for
    a refined upper bound.  With no ``indices`` no key is ranked.  Most
    members would move an exact extreme, as the balanced sequence comes last:
    pushed through the same table, its key seeds each when the leaf's own
    slack test admits it, so when it is a member the walk adds later (a
    spread one for the spread extremes).  A member strictly inside all exact
    extremes of its set skips them (:func:`_packed_bounds`), a test that
    reads only the key bits; a spread member's set is the spread one, whose
    interval lies inside the other's.  A member that does not skip them puts
    its degree product above the top guard, and each key is read off its
    field.  Raises :class:`EnumerationCapError` above the cap, and
    ``ValueError`` for a family of another class, before any candidate.
    """
    if family is not None and family.klass != klass:
        raise ValueError(f"a family of {family.klass} cannot be checked over {klass}")
    check_cap(klass, cap)
    n, total = klass.n, klass.degree_total
    tables, width, product_shift, pushes, guards, needs, tabled, fence, floor, marks = (
        _walk_layout(klass, indices, family)
    )
    row_needs, counts = tabled or (0, ())
    stack, ones = [], [(1, k) for k in range(n + 1)]  # a leaf's runs share ones
    product_table = next((table for table, product in tables if product), [1] * n)
    ranked, failures, candidates, members = bool(indices), [], 0, 0
    extremes = tuple(Extremes() for _ in indices)
    spread_extremes = tuple(Extremes() for _ in indices) if spread else ()
    ranks = _ranks(tables, extremes, width, product_shift)
    more = _ranks(tables, spread_extremes, width, product_shift)  # spread members go to both
    spread_ranks = [ranks[0] + more[0], ranks[1] + more[1], None]
    sets = ((ranks, ranks[0]), (spread_ranks, more[0]))  # bounds of its own fields
    most_ones = n - klass.c - 2 if spread else -1  # in a spread member
    balanced = _balanced_runs(n, total)  # the last candidate, ranked when it is a member
    # Its pushes, an entry at a time, then the leaf's own test of its slack.
    state = sum(pushes[i + 1][d] - pushes[i][d] for i, d in enumerate(expand_runs(balanced)))
    if ranked and (state | guards) - needs & guards == guards:
        key = state + (prod(product_table[d] ** m for d, m in balanced) << product_shift)
        spread_member = (balanced[-1][1] if balanced[-1][0] == 1 else 0) <= most_ones
        for shift, field, each in ranks[0] + (more[0] if spread_member else []):
            each.seed(key >> shift & field)
    for bounded, fields in sets:
        bounded[2] = _packed_bounds(fields)

    tops = () if family is None else family.maximal_runs
    covers = [mark for _, mark in marks[:-1]]
    # Two maximals are comparable when one lies below the other.
    incomparable = not any(
        marks[j][1] - marks[i][0] & fence == fence for i, j in permutations(range(len(tops)), 2)
    )
    least = marks[-1][0] if family is not None and family.minimal_runs != balanced else None
    uncovered, below_minimal, witnesses = [], [], {}

    def below(slots, remaining, bound, state, product):
        """Push each run the checked choices allow, then the runs below."""
        nonlocal candidates, members
        depth, a = len(stack), n - slots
        here, leaves, found = pushes[a], 0, 0
        for pair in _checked_choices(slots, remaining, bound):
            value, count = pair
            rest, left = slots - count, remaining - count * value
            run_state, run_product = state + pushes[a + count][value] - here[value], product
            if ranked:  # a rest of all ones leaves the degree product as it is
                run_product *= product_table[value] ** count
            stack.append(pair)
            if rest != left:
                below(rest, left, value - 1, run_state, run_product)
                stack.pop()
                continue
            if rest:  # the rest is all ones, its one choice: pushed here, not in a call
                stack.append(ones[rest])
                run_state += pushes[n][1] - pushes[a + count][1]
            # The leaf.  A valid candidate of the class is graphical when its slack holds.
            leaves += 1
            guarded = run_state | guards  # a verdict keeps every guard where its rows hold
            graphical = guarded - needs & guards == guards
            runs = ()  # the candidate as a tuple, made where it is kept
            if tabled:
                counting = False
                for need in counts:
                    if guarded - need & guards == guards:
                        counting = True
                        break
                rows_hold = guarded - row_needs & guards == guards
                if counting is not graphical or rows_hold is not graphical:
                    runs = tuple(stack)
                    failures.append((runs, counting, rows_hold, graphical))
            if graphical:
                found += 1
                if family is not None:
                    lifted = run_state | fence  # less a vector's sums: above it where guards stay
                    for mark in covers:
                        if mark - run_state & fence == fence:  # below this maximal
                            hunt = not incomparable
                            break
                    else:
                        hunt = True
                        uncovered.append(runs := runs or tuple(stack))
                    if hunt and lifted - floor & fence == fence:
                        for top, (sums, mark) in zip(tops, marks):
                            if (lifted - sums & fence == fence and mark - run_state & fence != fence
                                    and top not in witnesses):
                                runs = witnesses[top] = runs or tuple(stack)
                    if least is not None and lifted - least & fence != fence:
                        below_minimal.append(runs := runs or tuple(stack))
                if ranked:
                    fields, floats, bounds = ranks
                    # Entries >= 2 are all but a final run of ones.
                    if (stack[-1][1] if stack[-1][0] == 1 else 0) <= most_ones:
                        fields, floats, bounds = spread_ranks
                    low, high, inside, product_low, product_high = bounds
                    if ((run_state | inside) - low & high - run_state & inside != inside
                            or not product_low < run_product < product_high):
                        run_state += run_product << product_shift  # the exact key, whole
                        runs = runs or tuple(stack)
                        for shift, field, each in fields:
                            each.add(run_state >> shift & field, runs)
                        for bounded, held in sets:  # the extremes may have moved
                            bounded[2] = _packed_bounds(held)
                    for table, each in floats:
                        runs = runs or tuple(stack)
                        each.add(sum([m * table[d] for d, m in runs]), runs)
            del stack[depth:]
        candidates += leaves
        members += found

    below(n, total, n - 1, 0, 1)
    below = None  # the walk is done: no cycle is left to hold its tables
    report = None if family is None else ExtremalityReport(
        c=klass.c,
        n=n,
        sequence_count=members,
        members_valid=all(map(is_graphical, (*tops, family.minimal_runs))),
        pairwise_incomparable=incomparable,
        not_below_any_maximal=tuple(uncovered),
        dominated_patterns=tuple((top, witnesses[top]) for top in tops if top in witnesses),
        not_above_minimal=tuple(below_minimal),
    )
    return ClassWalk(candidates, tuple(failures), members, report, extremes, spread_extremes)


def _walk_layout(klass: CyclomaticClass, indices=(), family=None) -> tuple:
    """``(tables, width, top, table, G, L, tabled, F, floor, marks)``: the one int of a walk.

    ``tables`` holds each index's :func:`~ccyclic.indices.key_table`.  The
    exact sum keys take the low bits, a field of ``width`` bits each and a 0
    guard bit, as :func:`_ranks` lays them out: a key is at most n times its
    largest term, so no field carries into the next.  Product keys share one
    table (d -> d), so they are one key, which a leaf puts at bit ``top``,
    above every pushed field.  Float keys are summed at the leaf, as
    :func:`~ccyclic.indices.evaluate` sums them.

    Where the tables have a row for c (c <= 6), each entry's key also holds
    [d >= t] for each threshold t of the counting rows that
    :func:`_class_tables` compiles, in a field of b = n.bit_length() + 1
    bits above the index keys whose top one is a guard, so the pushes count
    N_t, the entries >= t.  A row's needs "at least j entries are >= t" say
    N_t >= j: its J packs each j in t's field, and as N_t <= n < 2^(b-1)
    and each j is at most the row's least order, ``(X | G) - J & G == G``
    exactly when the row holds.  The counting verdict holds when one row
    does, and with no row live it fails.  The inequality rows take fields
    above the slack, each with its need in M (:func:`_slack_tables`), and
    ``tabled`` is ``(M, [J, ...])``, or None past the tables.

    With ``family``, each entry's key also holds its threshold term (d - t)+
    for each t = 2..n-2, in a field of w = total.bit_length() + 1 bits above
    the counts whose top one is a guard (F holds the guards), so the
    pushes sum a member's threshold sums S_t.  The lemma: n entries x in
    [1, n-1] lie below n entries v in [1, n-1] with the same total (x is
    majorized by v) exactly when S_t(x) <= S_t(v) for each such t.  Proof:
    S_t(x) is the largest P_k(x) - kt over k, where P_k is the sum of the k
    largest entries (the entries above t add a positive term, the others
    none), so P_k(x) <= P_k(v) for each k gives each S_t(x) <= S_t(v).
    Conversely, at t = v_k, P_k(x) - kt <= S_t(x) <= S_t(v) = P_k(v) - kt;
    S_t is the total less nt for both at t <= 1, and 0 for both at t >= n - 1,
    so only t = 2..n-2 is tested.  ``marks`` holds, for each maximal and then
    the minimal, its packed sums V and V | F with every bit below them set: a
    state X lies below the vector when ``(V | F | low) - X & F == F`` and
    above it when ``(X | F) - V & F == F``, as each field then holds its
    guard plus a difference of two sums at most the total, and no borrow
    crosses a field.  ``floor`` packs each sum's least value over the
    maximals (0 with none).  The class's slack and the inequality rows sit
    above the sums: ``table``, ``L`` and M are their :func:`_slack_tables`,
    and ``G`` holds their guards and the counts'.  Each field of G that a
    test's needs leave at 0 keeps its guard, so every test reads the same
    X | G: the slack's against L, the rows' against M, each counting row's
    against its J.
    """
    n, total = klass.n, klass.degree_total
    tabled = klass.c in _COUNT_CONDITIONS
    conditions, rows = _class_tables(klass) if tabled else ([], [])
    tables = [key_table(index, n - 1) for index in indices]
    exact = [t for t, product in tables if not (product or isinstance(t[1], float))]
    width = max((n * max(table)).bit_length() for table in exact) if exact else 0
    size, thresholds = n.bit_length() + 1, sorted({t for row in conditions for t, _ in row})
    counts = {t: len(exact) * (width + 1) + i * size for i, t in enumerate(thresholds)}
    base, step = len(exact) * (width + 1) + len(counts) * size, total.bit_length() + 1
    shifts = range(base, base + (n - 3) * step, step) if family is not None else ()  # t = 2..n-2
    fence = sum(1 << shift + step - 1 for shift in shifts)
    keys = [
        sum(table[d] << i * (width + 1) for i, table in enumerate(exact))
        + sum((d >= t) << bit for t, bit in counts.items())
        + sum(max(d - t, 0) << shift for t, shift in enumerate(shifts, start=2))
        for d in range(n)
    ]
    vectors = () if family is None else (*family.maximal_runs, family.minimal_runs)
    sums = [sum(m * keys[d] for d, m in runs) >> base << base for runs in vectors]
    floor = sum(min([v >> shift & (1 << step) - 1 for v in sums[:-1]], default=0) << shift
                for shift in shifts)
    marks = [(v, v | fence | (1 << base) - 1) for v in sums]
    top = base + len(shifts) * step
    table, guards, needs, row_needs = _slack_tables(klass, keys, top, rows)
    top = guards.bit_length() or top  # above every pushed field
    guards += sum(1 << bit + size - 1 for bit in counts.values())
    verdicts = (row_needs, [sum(j << counts[t] for t, j in row) for row in conditions])
    verdicts = verdicts if tabled else None
    return tables, width, top, table, guards, needs, verdicts, fence, floor, marks


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
