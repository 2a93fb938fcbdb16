"""Nonincreasing vectors, prefix sums, and the majorization partial order.

Arithmetic is exact throughout: components are ints or ``fractions.Fraction``
values, never floats, so order tests carry no tolerance questions.  Vectors
must already be sorted nonincreasing; unsorted input is rejected rather than
silently sorted, because every constraint set handled downstream lives in the
cone x1 >= x2 >= ... >= xn and silent sorting would mask caller bugs.

A vector also has a run-length form, the ``(value, length)`` pairs of its
maximal runs; a long degree sequence is a short head and two long runs.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, chain, groupby, repeat, starmap
from operator import itemgetter, lt
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
    """Drop empty runs and merge neighbours of equal value, giving maximal runs."""
    groups = groupby((run for run in runs if run[1]), itemgetter(0))
    return tuple((value, sum(length for _, length in group)) for value, group in groups)


def expand_runs(runs: Iterable) -> tuple:
    """The vector a run-length form stands for."""
    return tuple(chain.from_iterable(starmap(repeat, runs)))


def aligned_runs(left: Iterable, right: Iterable):
    """Pieces ``(a, b, length)`` of two run-length forms of one dimension.

    Cut at every run end of either form, so that both vectors are constant on
    a piece: ``a`` on the left and ``b`` on the right.
    """
    right, rest = iter(right), 0
    for a, length in left:
        while length:
            if not rest:
                b, rest = next(right)
            step = min(length, rest)
            yield a, b, step
            length, rest = length - step, rest - step


def compare_runs(left: Sequence, right: Sequence) -> Relation:
    """:func:`compare` on run-length forms, in O(runs) instead of O(n).

    Within a piece of :func:`aligned_runs` the difference of the two prefix
    sums is linear, so its values at the piece ends decide the order exactly;
    the last of them is the difference of the totals.
    """
    sizes = [sum(length for _, length in runs) for runs in (left, right)]
    if sizes[0] != sizes[1]:
        raise ValueError(f"dimension mismatch: {sizes[0]} vs {sizes[1]}")
    for runs in (left, right):
        check_vector([value for value, _ in runs])
    gaps = list(accumulate((a - b) * length for a, b, length in aligned_runs(left, right)))
    if not any(gaps):
        return Relation.EQUAL
    if gaps[-1]:
        return Relation.INCOMPARABLE
    if max(gaps) <= 0:
        return Relation.LESS_OR_EQUAL
    return Relation.GREATER_OR_EQUAL if min(gaps) >= 0 else Relation.INCOMPARABLE


def is_majorized_by(left: Sequence, right: Sequence) -> bool:
    """True when ``left`` sits below ``right`` in the majorization order."""
    return compare(left, right) in (Relation.EQUAL, Relation.LESS_OR_EQUAL)
