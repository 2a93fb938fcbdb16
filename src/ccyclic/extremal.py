"""Majorization-extremal elements of box-constrained sum slices.

A :class:`BoxSet` collects the nonincreasing vectors with a fixed component
sum and per-coordinate bounds ``lower[i] <= x[i] <= upper[i]`` (both bound
vectors nonincreasing).  Its maximal element packs as much mass as possible
into the leading coordinates; its minimal element clamps one water level
into every coordinate's bounds.  A two-block set, with one bound pair for
the first ``h`` coordinates and another for the rest, is a box of two
segments; its extremal elements admit closed floor formulas which are
cross-checked here against the general box computation on every call.

Arithmetic is exact and stays in the numbers it is given: ``int`` and
``Fraction`` values are kept, and any other number (float, str, ``Decimal``)
becomes the ``Fraction`` it denotes, so an integer box has an ``int`` maximal
element.  Every returned vector is checked to be a member of its set with
exactly the requested component sum.

A box is held as segments, the maximal runs of equal ``(lower, upper)``
pairs (a class box of :mod:`ccyclic.degree_sequences` has at most four), and
its extremal elements are computed as runs (see :mod:`ccyclic.majorization`).
Each computation and membership check costs O(segments + runs), plus a
logarithmic factor for the water level.  Tuples are built only at the edges:
:attr:`BoxSet.lower` and :attr:`BoxSet.upper`, and the ``*_box`` and
:func:`integerize_minimal` results.

Each kernel is one loop over runs and segments.  The membership check
(:meth:`BoxSet.contains_runs`) is one merge of the two; it is where every
element built here is checked, once, as it is returned: the maximal, the
fractional minimal and the rounded minimal.  The minimal element places its
water level against the two bound values that bracket it, so each segment is
clamped by comparing bounds, never the fractional level itself.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .majorization import check_vector, coalesce_runs, expand_runs, runs_of


class InfeasibleSetError(ValueError):
    """The constraint set is empty or an element cannot be constructed in it."""


class UnsupportedCaseError(ValueError):
    """The requested closed form is not available for these parameters."""


def _exact(value):
    """``value`` itself when it is an int or a Fraction, else the Fraction it denotes."""
    return value if type(value) in (int, Fraction) else Fraction(value)


@dataclass(frozen=True, init=False)
class BoxSet:
    """Nonincreasing vectors with component sum ``total`` inside a coordinate box.

    The bounds are given per coordinate (``lower``, ``upper``) or as
    ``segments``, ``((low, high), length)`` runs; the box keeps maximal runs.
    """

    total: Fraction
    segments: tuple

    def __init__(self, total, lower=(), upper=(), *, segments=None):
        if segments is None:
            lower, upper = tuple(map(_exact, lower)), tuple(map(_exact, upper))
            if len(lower) != len(upper):
                raise ValueError("lower and upper bound vectors differ in length")
            segments = runs_of(zip(lower, upper))
        segments = coalesce_runs(
            ((_exact(low), _exact(high)), length) for (low, high), length in segments
        )
        object.__setattr__(self, "total", _exact(total))
        object.__setattr__(self, "segments", segments)
        check_vector([low for (low, _), _ in segments])
        check_vector([high for (_, high), _ in segments])
        for (low, high), length in segments:
            if low > high:
                raise ValueError(f"crossed bounds: {low} > {high}")
            if length < 1:
                raise ValueError(f"segment length {length} is not positive")
        least = sum(low * length for (low, _), length in segments)
        most = sum(high * length for (_, high), length in segments)
        if not least <= self.total <= most:
            raise InfeasibleSetError(f"total {self.total} outside [{least}, {most}]")

    @property
    def n(self) -> int:
        return sum(length for _, length in self.segments)

    @property
    def lower(self) -> tuple:
        return expand_runs((low, length) for (low, _), length in self.segments)

    @property
    def upper(self) -> tuple:
        return expand_runs((high, length) for (_, high), length in self.segments)

    def contains(self, vec: Sequence) -> bool:
        """Membership test: right length, nonincreasing, in the box, right sum."""
        return self.contains_runs(runs_of(vec))

    def contains_runs(self, runs: Sequence) -> bool:
        """:meth:`contains` for a vector in run-length form, in O(runs + segments).

        One merge of the runs with the segments checks the order, the bounds
        on every piece, the dimension and the sum.
        """
        segments = iter(self.segments)
        rest = mass = 0
        previous = None
        for value, length in runs:
            if previous is not None and value > previous:
                return False
            previous = value
            mass += value * length
            while length > 0:
                if not rest:
                    segment = next(segments, None)
                    if segment is None:  # longer than the box
                        return False
                    (low, high), rest = segment
                if not low <= value <= high:
                    return False
                step = length if length < rest else rest
                length -= step
                rest -= step
        return not rest and next(segments, None) is None and mass == self.total


def _assert_member(box: BoxSet, runs: tuple, what: str) -> None:
    if not box.contains_runs(runs):
        raise AssertionError(f"{what} with runs {runs} escaped its constraint set")


def maximal_runs(box: BoxSet) -> tuple:
    """The element of ``box`` that majorizes every other element, as runs.

    The first ``k`` coordinates sit at their upper bounds, coordinates past
    ``k+1`` at their lower bounds, and the single coordinate in between takes
    whatever value restores the component sum.  ``k`` is the smallest index
    for which that filler fits between its own bounds.  Inside a segment each
    coordinate moved from its lower to its upper bound uses ``high - low`` of
    the slack, so one floor division finds ``k`` there.
    """
    segments, total = box.segments, box.total
    top = 0  # sum of upper bounds before this segment
    tail = sum(low * length for (low, _), length in segments)  # lower bounds from it on
    for at, ((low, high), length) in enumerate(segments):
        slack = total - top - tail
        take = slack // (high - low) if high > low else length
        if take < length:
            fill = slack + low - take * (high - low)
            runs = coalesce_runs(
                [(up, size) for (_, up), size in segments[:at]]
                + [(high, take), (fill, 1), (low, length - take - 1)]
                + [(down, size) for (down, _), size in segments[at + 1 :]]
            )
            _assert_member(box, runs, "maximal element")
            return runs
        top += high * length
        tail -= low * length
    if total == top:  # the upper corner
        return coalesce_runs((high, length) for (_, high), length in segments)
    raise AssertionError("feasible box without a maximal element")


def maximal_box(box: BoxSet) -> tuple:
    """The element of ``box`` that majorizes every other element; see :func:`maximal_runs`."""
    return expand_runs(maximal_runs(box))


def minimal_runs(box: BoxSet) -> tuple:
    """The element of ``box`` majorized by every other element, as runs.

    Coordinate ``i`` is the water level ``t`` clamped into its bounds,
    ``min(upper[i], max(lower[i], t))``.  The clamped sum is continuous,
    nondecreasing and linear between adjacent bound values, so a bisection
    over the sorted bound values brackets ``t`` and one division places it.
    The result can have fractional components even when the box is integral;
    see :func:`integerize_minimal`.
    """
    segments, total = box.segments, box.total

    def clamped_sum(level):
        reached = 0
        for (low, high), size in segments:
            reached += (high if high <= level else low if low >= level else level) * size
        return reached

    # clamped_sum runs from sum(lower) <= total at the least bound value to
    # sum(upper) >= total at the greatest, so this index exists
    levels = sorted({bound for bounds, _ in segments for bound in bounds})
    above = bisect_left(levels, total, key=clamped_sum)
    level = bottom = top = levels[above]
    reached = clamped_sum(level)
    if reached != total:  # interpolate between the two bracketing bound values
        bottom = levels[above - 1]
        base = clamped_sum(bottom)
        level = bottom + Fraction((total - base) * (top - bottom), reached - base)

    # min(high, max(low, level)), with no fractional comparison: no bound
    # value lies strictly between bottom and top, so comparing a segment's
    # bounds with those two places the level against it.  A pinned segment
    # (low == high) keeps its upper bound, as min does.
    def clamped(low, high):
        if high <= bottom or low == high:
            return high
        return low if low >= top else level

    runs = coalesce_runs((clamped(low, high), size) for (low, high), size in segments)
    _assert_member(box, runs, "minimal element")
    return runs


def minimal_box(box: BoxSet) -> tuple:
    """The element of ``box`` majorized by every other element; see :func:`minimal_runs`."""
    return expand_runs(minimal_runs(box))


def _blocks(box: BoxSet) -> tuple:
    """``(h, m1, M1, m2, M2)``: ``[m1, M1]`` bounds the first ``h`` entries, ``[m2, M2]`` the rest.

    A box of one segment is a single block (``h == n``) that also stands in
    for the empty second block.  Any other box has no two-block closed form.
    """
    segments = box.segments
    if len(segments) > 2 or any(low == high for (low, high), _ in segments):
        raise UnsupportedCaseError(
            "closed forms need at most two segments, each with lower < upper bound"
        )
    ((m1, M1), h), ((m2, M2), _) = segments[0], segments[-1]
    return h, m1, M1, m2, M2


def _agree(vec: tuple, general: tuple, what: str) -> tuple:
    if vec != general:
        raise AssertionError(
            f"two-block {what} formula {vec} disagrees with box computation {general}"
        )
    return vec


def maximal_two_block(box: BoxSet) -> tuple:
    """Closed-form maximal element of a box with two segments (two blocks).

    Uses the floor formulas for the number of coordinates saturated at their
    upper bound, with the single filler coordinate chosen to restore the sum.
    The result is asserted equal to the general box computation, so both
    routes guard each other.
    """
    n, total = box.n, box.total
    h, m1, M1, m2, M2 = _blocks(box)
    if total == h * M1 + (n - h) * M2:
        vec = (M1,) * h + (M2,) * (n - h)
    elif total < h * M1 + (n - h) * m2:
        take = (total - h * (m1 - m2) - n * m2) // (M1 - m1)
        fill = total - take * M1 - (h - take - 1) * m1 - (n - h) * m2
        vec = (M1,) * take + (fill,) + (m1,) * (h - take - 1) + (m2,) * (n - h)
    else:
        take = (total - h * (M1 - M2) - n * m2) // (M2 - m2)
        fill = total - h * M1 - (take - h) * M2 - (n - take - 1) * m2
        vec = (M1,) * h + (M2,) * (take - h) + (fill,) + (m2,) * (n - take - 1)
    return _agree(vec, maximal_box(box), "maximal")


def minimal_two_block(box: BoxSet) -> tuple:
    """Closed-form minimal element of a two-segment box, for overlapping blocks.

    Only the case ``m1 <= M2`` is supported: either the flat average fits
    both blocks, or exactly one block is pinned at the bound that blocks the
    average and the other block absorbs the rest evenly.  For ``m1 > M2``
    raise :class:`UnsupportedCaseError`; use :func:`minimal_box` instead.
    The result is asserted equal to the general box computation.
    """
    n, total = box.n, box.total
    h, m1, M1, m2, M2 = _blocks(box)
    if m1 > M2:
        raise UnsupportedCaseError(
            "closed form requires the blocks to overlap (m1 <= M2); use minimal_box instead"
        )
    flat = Fraction(total, n)
    if m1 <= flat <= M2:
        vec = (flat,) * n
    elif flat < m1:
        # feasibility rules this branch out when h == n
        vec = (m1,) * h + (Fraction(total - h * m1, n - h),) * (n - h)
    else:
        vec = (Fraction(total - M2 * (n - h), h),) * h + (M2,) * (n - h)
    return _agree(vec, minimal_box(box), "minimal")


def integerize_runs(runs: Sequence, box: BoxSet) -> tuple:
    """Round a (possibly fractional) minimal element, as runs, to the integer one.

    The runs are merged into maximal runs first.  Within each run the values
    are replaced by the two nearest integers, the larger ones first, so that
    the run keeps its sum; integer runs pass through unchanged.  Requires
    integer bounds and an integer component sum; the rounded vector is
    validated against the box.
    """
    if box.total.denominator != 1:
        raise UnsupportedCaseError("integer rounding needs an integer component sum")
    if any(bound.denominator != 1 for bounds, _ in box.segments for bound in bounds):
        raise UnsupportedCaseError("integer rounding needs integer box bounds")
    runs = coalesce_runs((_exact(value), length) for value, length in runs)
    check_vector([value for value, _ in runs])
    out = []
    for value, length in runs:
        run_sum, remainder = divmod(value.numerator * length, value.denominator)
        if remainder:
            raise InfeasibleSetError(
                f"fractional run of {value} x{length} has non-integer sum {value * length}"
            )
        base = value.numerator // value.denominator
        bumped = run_sum - base * length
        out += [(base + 1, bumped), (base, length - bumped)]
    result = coalesce_runs(out)
    if not box.contains_runs(result):
        raise InfeasibleSetError(f"rounded vector {expand_runs(result)} leaves the constraint set")
    return result


def integerize_minimal(vec: Sequence, box: BoxSet) -> tuple:
    """:func:`integerize_runs` for a vector given per coordinate."""
    return expand_runs(integerize_runs(runs_of(vec), box))
