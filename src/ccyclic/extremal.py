"""Majorization-extremal elements of box-constrained sum slices.

A :class:`BoxSet` collects the nonincreasing vectors with a fixed component
sum and per-coordinate bounds ``lower[i] <= x[i] <= upper[i]`` (both bound
vectors nonincreasing).  Its maximal element packs as much mass as possible
into the leading coordinates; its minimal element clamps one water level
into every coordinate's bounds.  A :class:`TwoBlockSet` is the special case
with one bound pair for the first ``h`` coordinates and another for the
rest; its extremal elements admit closed floor formulas which are
cross-checked here against the general box computation on every call.

Arithmetic is exact and stays in the numbers it is given: ``int`` and
``Fraction`` values are kept, and any other number (float, str, ``Decimal``)
becomes the ``Fraction`` it denotes, so an integer box has an ``int`` maximal
element.  Each computation is linear in the dimension (the water level adds
a logarithmic factor), and every returned vector is checked to be a member
of its set with exactly the requested component sum.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Sequence, Union

from .majorization import check_vector


class InfeasibleSetError(ValueError):
    """The constraint set is empty or an element cannot be constructed in it."""


class UnsupportedCaseError(ValueError):
    """The requested closed form is not available for these parameters."""


def _exact(value):
    """``value`` itself when it is an int or a Fraction, else the Fraction it denotes."""
    return value if type(value) in (int, Fraction) else Fraction(value)


@dataclass(frozen=True)
class BoxSet:
    """Nonincreasing vectors with component sum ``total`` inside a coordinate box."""

    total: Fraction
    lower: tuple
    upper: tuple

    def __post_init__(self):
        object.__setattr__(self, "total", _exact(self.total))
        object.__setattr__(self, "lower", tuple(map(_exact, self.lower)))
        object.__setattr__(self, "upper", tuple(map(_exact, self.upper)))
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper bound vectors differ in length")
        check_vector(self.lower)
        check_vector(self.upper)
        for low, high in zip(self.lower, self.upper):
            if low > high:
                raise ValueError(f"crossed bounds: {low} > {high}")
        if not sum(self.lower) <= self.total <= sum(self.upper):
            raise InfeasibleSetError(
                f"total {self.total} outside [{sum(self.lower)}, {sum(self.upper)}]"
            )

    @property
    def n(self) -> int:
        return len(self.lower)

    def contains(self, vec: Sequence) -> bool:
        """Membership test: right length, nonincreasing, in the box, right sum."""
        if len(vec) != self.n:
            return False
        if any(b > a for a, b in zip(vec, list(vec)[1:])):
            return False
        if any(not (low <= x <= high) for x, low, high in zip(vec, self.lower, self.upper)):
            return False
        return sum(vec) == self.total


@dataclass(frozen=True)
class TwoBlockSet:
    """A box set whose first ``h`` coordinates share one bound pair and the rest another."""

    n: int
    h: int
    total: Fraction
    m1: Fraction
    M1: Fraction
    m2: Fraction
    M2: Fraction

    def __post_init__(self):
        for name in ("total", "m1", "M1", "m2", "M2"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not 1 <= self.h <= self.n:
            raise ValueError(f"block split h={self.h} outside [1, {self.n}]")
        if not (0 <= self.m2 <= self.m1 and 0 <= self.M2 <= self.M1):
            raise ValueError("block bounds must satisfy 0 <= m2 <= m1 and 0 <= M2 <= M1")
        if not (self.m1 < self.M1 and self.m2 < self.M2):
            raise ValueError("each block needs strictly separated bounds (m < M)")
        low = self.h * self.m1 + (self.n - self.h) * self.m2
        high = self.h * self.M1 + (self.n - self.h) * self.M2
        if not low <= self.total <= high:
            raise InfeasibleSetError(f"total {self.total} outside [{low}, {high}]")

    def as_box(self) -> BoxSet:
        """Expand the two blocks into per-coordinate bounds."""
        lower = (self.m1,) * self.h + (self.m2,) * (self.n - self.h)
        upper = (self.M1,) * self.h + (self.M2,) * (self.n - self.h)
        return BoxSet(total=self.total, lower=lower, upper=upper)


AnySet = Union[BoxSet, TwoBlockSet]


def _assert_member(box: BoxSet, vec: tuple, what: str) -> None:
    if not box.contains(vec):
        raise AssertionError(f"{what} {vec} escaped its constraint set")


def maximal_box(box: BoxSet) -> tuple:
    """The element of ``box`` that majorizes every other element.

    The first ``k`` coordinates sit at their upper bounds, coordinates past
    ``k+1`` at their lower bounds, and the single coordinate in between takes
    whatever value restores the component sum.  ``k`` is the smallest index
    for which that filler fits between its own bounds.
    """
    lower, upper, total, n = box.lower, box.upper, box.total, box.n
    if total == sum(upper):
        return upper
    top = 0  # running sum of leading upper bounds
    tail = sum(lower)  # running sum of trailing lower bounds, lower[take:]
    for take in range(n):
        tail_next = tail - lower[take]
        corner_next = top + upper[take] + tail_next
        if total < corner_next:
            fill = total - top - tail_next
            vec = upper[:take] + (fill,) + lower[take + 1 :]
            _assert_member(box, vec, "maximal element")
            return vec
        top += upper[take]
        tail = tail_next
    raise AssertionError("feasible box without a maximal element")


def minimal_box(box: BoxSet) -> tuple:
    """The element of ``box`` majorized by every other element.

    Coordinate ``i`` is the water level ``t`` clamped into its bounds,
    ``min(upper[i], max(lower[i], t))``.  The clamped sum is continuous,
    nondecreasing and linear between adjacent bound values, so a bisection
    over the sorted bound values brackets ``t`` and one division places it.
    The result can have fractional components even when the box is integral;
    see :func:`integerize_minimal`.
    """
    lower, upper, total = box.lower, box.upper, box.total

    def clamped_sum(level):
        return sum(min(high, max(low, level)) for low, high in zip(lower, upper))

    # clamped_sum runs from sum(lower) <= total at the least bound value to
    # sum(upper) >= total at the greatest, so this index exists
    levels = sorted(set(lower + upper))
    above = bisect_left(levels, total, key=clamped_sum)
    level = levels[above]
    reached = clamped_sum(level)
    if reached != total:  # interpolate between the two bracketing bound values
        below = levels[above - 1]
        base = clamped_sum(below)
        level = below + Fraction((total - base) * (level - below), reached - base)
    vec = tuple(min(high, max(low, level)) for low, high in zip(lower, upper))
    _assert_member(box, vec, "minimal element")
    return vec


def maximal_two_block(blocks: TwoBlockSet) -> tuple:
    """Closed-form maximal element of a two-block set.

    Uses the floor formulas for the number of coordinates saturated at their
    upper bound, with the single filler coordinate chosen to restore the sum.
    The result is asserted equal to the general box computation, so both
    routes guard each other.
    """
    n, h, total = blocks.n, blocks.h, blocks.total
    m1, M1, m2, M2 = blocks.m1, blocks.M1, blocks.m2, blocks.M2
    if total == h * M1 + (n - h) * M2:
        vec = (M1,) * h + (M2,) * (n - h)
    else:
        pivot = h * M1 + (n - h) * m2
        if total < pivot:
            take = math.floor((total - h * (m1 - m2) - n * m2) / (M1 - m1))
            fill = total - take * M1 - (h - take - 1) * m1 - (n - h) * m2
            vec = (M1,) * take + (fill,) + (m1,) * (h - take - 1) + (m2,) * (n - h)
        else:
            take = math.floor((total - h * (M1 - M2) - n * m2) / (M2 - m2))
            fill = total - h * M1 - (take - h) * M2 - (n - take - 1) * m2
            vec = (M1,) * h + (M2,) * (take - h) + (fill,) + (m2,) * (n - take - 1)
    box = blocks.as_box()
    _assert_member(box, vec, "two-block maximal element")
    general = maximal_box(box)
    if vec != general:
        raise AssertionError(
            f"two-block formula {vec} disagrees with box computation {general}"
        )
    return vec


def minimal_two_block(blocks: TwoBlockSet) -> tuple:
    """Closed-form minimal element of a two-block set, for overlapping blocks.

    Only the case ``m1 <= M2`` is supported: either the flat average fits
    both blocks, or exactly one block is pinned at the bound that blocks the
    average and the other block absorbs the rest evenly.  For ``m1 > M2``
    raise :class:`UnsupportedCaseError`; route such sets through
    :func:`minimal_box` on :meth:`TwoBlockSet.as_box` instead.
    """
    if blocks.m1 > blocks.M2:
        raise UnsupportedCaseError(
            "closed form requires the blocks to overlap (m1 <= M2); "
            "use minimal_box on the expanded box instead"
        )
    n, h, total = blocks.n, blocks.h, blocks.total
    flat = Fraction(total, 1) / n
    if blocks.m1 <= flat <= blocks.M2:
        vec = (flat,) * n
    elif flat < blocks.m1:
        # feasibility rules this branch out when h == n
        rest = (total - h * blocks.m1) / (n - h)
        vec = (blocks.m1,) * h + (rest,) * (n - h)
    else:
        head = (total - blocks.M2 * (n - h)) / h
        vec = (head,) * h + (blocks.M2,) * (n - h)
    _assert_member(blocks.as_box(), vec, "two-block minimal element")
    return vec


def integerize_minimal(vec: Sequence, constraint: AnySet) -> tuple:
    """Round a (possibly fractional) minimal element to the integer minimal element.

    Within each maximal run of equal fractional components the values are
    replaced by the two nearest integers, the larger ones first, so that the
    run keeps its sum.  Runs that are already integer pass through unchanged.
    Requires integer bounds and an integer component sum; the rounded vector
    is validated against the constraint set.
    """
    box = constraint.as_box() if isinstance(constraint, TwoBlockSet) else constraint
    if box.total.denominator != 1:
        raise UnsupportedCaseError("integer rounding needs an integer component sum")
    if any(b.denominator != 1 for b in box.lower + box.upper):
        raise UnsupportedCaseError("integer rounding needs integer box bounds")
    values = tuple(map(_exact, vec))
    check_vector(values)
    out: list = []
    for value, run in groupby(values):
        length = len(list(run))
        if value.denominator == 1:
            out.extend([int(value)] * length)
            continue
        run_sum = value * length
        if run_sum.denominator != 1:
            raise InfeasibleSetError(
                f"fractional run of {value} x{length} has non-integer sum {run_sum}"
            )
        base = math.floor(value)
        bumped = int(run_sum) - base * length
        out.extend([base + 1] * bumped + [base] * (length - bumped))
    result = tuple(out)
    if not box.contains(result):
        raise InfeasibleSetError(f"rounded vector {result} leaves the constraint set")
    return result
