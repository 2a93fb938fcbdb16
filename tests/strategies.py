"""Hypothesis strategies for vectors, boxes, and degree sequences."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from ccyclic.extremal import BoxSet


@st.composite
def nonincreasing_int_vectors(draw, min_size=1, max_size=8, low=0, high=12):
    values = draw(
        st.lists(st.integers(low, high), min_size=min_size, max_size=max_size)
    )
    return tuple(sorted(values, reverse=True))


@st.composite
def nonincreasing_fraction_vectors(draw, min_size=1, max_size=6):
    values = draw(
        st.lists(
            st.fractions(min_value=0, max_value=10, max_denominator=4),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return tuple(sorted(values, reverse=True))


@st.composite
def integer_boxes(draw, max_size=7, high=10):
    """A feasible BoxSet with integer bounds and an integer total."""
    n = draw(st.integers(1, max_size))
    upper = sorted(
        (draw(st.integers(0, high)) for _ in range(n)), reverse=True
    )
    lower = []
    previous = None
    for i in range(n):
        cap = upper[i] if previous is None else min(upper[i], previous)
        lower.append(draw(st.integers(0, cap)))
        previous = lower[-1]
    total = draw(st.integers(sum(lower), sum(upper)))
    return BoxSet(total=total, lower=tuple(lower), upper=tuple(upper))


@st.composite
def fraction_boxes(draw, max_size=6):
    """A feasible BoxSet with Fraction bounds and a Fraction total."""
    n = draw(st.integers(1, max_size))
    fractions = st.fractions(min_value=0, max_value=10, max_denominator=4)
    upper = sorted((draw(fractions) for _ in range(n)), reverse=True)
    lower = []
    for i in range(n):
        cap = upper[i] if not lower else min(upper[i], lower[-1])
        lower.append(draw(st.fractions(min_value=0, max_value=cap, max_denominator=4)))
    total = draw(
        st.fractions(min_value=sum(lower), max_value=sum(upper), max_denominator=12)
    )
    return BoxSet(total=total, lower=tuple(lower), upper=tuple(upper))


def two_block_box(n, h, total, m1, M1, m2, M2):
    """The box with bounds [m1, M1] on the first h coordinates and [m2, M2] on the rest."""
    return BoxSet(total=total, segments=(((m1, M1), h), ((m2, M2), n - h)))


@st.composite
def two_block_sets(draw, max_size=8, high=9, overlap_only=False):
    """A feasible two-block box (two segments, one when h == n) with integer data."""
    n = draw(st.integers(2, max_size))
    h = draw(st.integers(1, n))
    m2 = draw(st.integers(0, high - 1))
    m1 = draw(st.integers(m2, high - 1))
    M1 = draw(st.integers(m1 + 1, high))
    if overlap_only:
        M2 = draw(st.integers(max(m2 + 1, m1), M1))
    else:
        M2 = draw(st.integers(m2 + 1, M1))
    low = h * m1 + (n - h) * m2
    high_total = h * M1 + (n - h) * M2
    total = draw(st.integers(low, high_total))
    return two_block_box(n, h, total, m1, M1, m2, M2)


@st.composite
def degree_sequences(draw, min_size=2, max_size=9):
    """A positive nonincreasing sequence with max entry below its length."""
    n = draw(st.integers(min_size, max_size))
    values = draw(
        st.lists(st.integers(1, n - 1), min_size=n, max_size=n)
    )
    return tuple(sorted(values, reverse=True))


@st.composite
def raw_degree_lists(draw, max_size=10):
    """Unsorted integer lists: half within [0, n-1], half with negatives and entries >= n."""
    n = draw(st.integers(0, max_size))
    low, high = draw(st.sampled_from([(0, max(n - 1, 0)), (-2, n + 2)]))
    return draw(st.lists(st.integers(low, high), min_size=n, max_size=n))


@st.composite
def run_length_boxes(draw, max_segments=6, max_length=300, top=12):
    """A feasible BoxSet built from segments: long runs of equal bound pairs.

    Segments run up to ``max_length`` coordinates; some are degenerate
    (lower == upper) and some repeat their left neighbour's bounds, so the
    box must merge them.  Bounds and total are ints or, in one draw of four,
    Fractions.
    """
    fractional = draw(st.integers(0, 3)) == 0

    def number(low, high):
        if fractional:
            return draw(st.fractions(min_value=low, max_value=high, max_denominator=3))
        return draw(st.integers(low, high))

    segments = []
    for _ in range(draw(st.integers(1, max_segments))):
        length = draw(st.integers(1, max_length))
        if segments and draw(st.integers(0, 3)) == 0:  # same bounds as the neighbour
            segments.append((segments[-1][0], length))
            continue
        cap_low, cap_high = segments[-1][0] if segments else (top, top)
        low = number(0, cap_low)
        degenerate = draw(st.integers(0, 3)) == 0
        segments.append(((low, low if degenerate else number(low, cap_high)), length))
    least = sum(low * length for (low, _), length in segments)
    most = sum(high * length for (_, high), length in segments)
    total = (
        draw(st.fractions(min_value=least, max_value=most, max_denominator=12))
        if fractional
        else draw(st.integers(least, most))
    )
    return BoxSet(total=total, segments=segments)
