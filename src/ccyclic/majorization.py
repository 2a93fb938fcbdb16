"""Nonincreasing vectors, prefix sums, and the majorization partial order.

Arithmetic is exact throughout: components are ints or ``fractions.Fraction``
values, never floats, so order tests carry no tolerance questions.  Vectors
must already be sorted nonincreasing; unsorted input is rejected rather than
silently sorted, because every constraint set handled downstream lives in the
cone x1 >= x2 >= ... >= xn and silent sorting would mask caller bugs.

A vector also has a run-length form, the ``(value, length)`` pairs of its
maximal runs; a long degree sequence is a short head and two long runs.

The order of two run-length forms is decided by one core,
:func:`relation_of_runs`: a single merge of the two run lists that tracks the
sign of the prefix-sum gap at each piece end, O(runs), with no check of its
input.  Where a vector is checked depends on where it comes from.
:func:`compare_runs` (and :func:`compare` through it) checks both forms on
every call, then runs the core.  The extremal layer checks each vector once,
when it is built: every box element passes its box's membership test
(:meth:`ccyclic.extremal.BoxSet.contains_runs`), and
:func:`ccyclic.degree_sequences.extremal_family` then relates those vectors
with the core alone.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, groupby, repeat, starmap
from operator import lt
from typing import Iterable, Sequence


class Relation(Enum):
    """Outcome of comparing two equal-length vectors under majorization."""

    EQUAL = "equal"
    LESS_OR_EQUAL = "less-or-equal"
    GREATER_OR_EQUAL = "greater-or-equal"
    INCOMPARABLE = "incomparable"


def check_vector(vec: Sequence) -> None:
    """Reject anything that is not a nonincreasing vector of nonnegatives.

    Sortedness is tested first; a sorted vector is nonnegative when its last
    entry is.
    """
    if len(vec) == 0:
        raise ValueError("vector must have at least one component")
    if any(map(lt, vec, vec[1:])):
        raise ValueError("components not sorted nonincreasing")
    if vec[-1] < 0:
        raise ValueError(f"negative component {vec[-1]!r}")


def compare(left: Sequence, right: Sequence) -> Relation:
    """Compare two nonincreasing vectors in the majorization order.

    ``LESS_OR_EQUAL`` means every prefix sum of ``left`` is at most the
    corresponding prefix sum of ``right`` with equal totals.  Vectors with
    unequal component sums are incomparable by definition; a length mismatch
    is a caller error and raises.  Decided on the run-length forms by
    :func:`compare_runs`.
    """
    return compare_runs(runs_of(left), runs_of(right))


def runs_of(vec: Iterable) -> tuple:
    """Run-length form of a vector: ``(value, length)`` per maximal run of equal entries."""
    return tuple((value, len(list(run))) for value, run in groupby(vec))


def coalesce_runs(runs: Iterable) -> tuple:
    """Drop empty runs and merge neighbours of equal value, giving maximal runs.

    A merged run keeps the value of its first part, so an ``int`` stays an
    ``int`` when an equal ``Fraction`` follows it, and the other way round.
    """
    out = []
    for value, length in runs:
        if not length:
            continue
        if out and out[-1][0] == value:
            out[-1] = (out[-1][0], out[-1][1] + length)
        else:
            out.append((value, length))
    return tuple(out)


def expand_runs(runs: Iterable) -> tuple:
    """The vector a run-length form stands for."""
    return tuple(chain.from_iterable(starmap(repeat, runs)))


def compare_runs(left: Sequence, right: Sequence) -> Relation:
    """:func:`compare` on run-length forms, in O(runs) instead of O(n).

    Both forms are checked (equal dimension, then each nonincreasing and
    nonnegative), then :func:`relation_of_runs` decides.
    """
    sizes = [sum(length for _, length in runs) for runs in (left, right)]
    if sizes[0] != sizes[1]:
        raise ValueError(f"dimension mismatch: {sizes[0]} vs {sizes[1]}")
    for runs in (left, right):
        check_vector([value for value, _ in runs])
    return relation_of_runs(left, right)


def relation_of_runs(left: Sequence, right: Sequence) -> Relation:
    """The majorization relation of two run-length forms, taken as valid.

    Unchecked: both forms must be nonincreasing, of one dimension.  One merge
    cuts them at every run end of either; on each piece both vectors are
    constant, so the gap between their prefix sums is linear there and its
    sign at the piece ends decides the order.  The last gap is the
    difference of the totals.  Once the gap has taken both signs the
    vectors are incomparable, and the merge stops.
    """
    pieces = iter(right)
    rest = gap = 0
    above = below = False
    for a, length in left:
        while length:
            if not rest:
                b, rest = next(pieces)
                continue
            step = length if length < rest else rest
            gap += (a - b) * step
            length -= step
            rest -= step
            if gap > 0:
                if below:
                    return Relation.INCOMPARABLE
                above = True
            elif gap < 0:
                if above:
                    return Relation.INCOMPARABLE
                below = True
    if gap:
        return Relation.INCOMPARABLE
    if above:
        return Relation.GREATER_OR_EQUAL
    return Relation.LESS_OR_EQUAL if below else Relation.EQUAL


def is_majorized_by(left: Sequence, right: Sequence) -> bool:
    """True when ``left`` sits below ``right`` in the majorization order."""
    return compare(left, right) in (Relation.EQUAL, Relation.LESS_OR_EQUAL)
