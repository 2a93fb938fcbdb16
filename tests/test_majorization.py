"""Unit and property tests for the majorization order."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccyclic.majorization import (
    Relation,
    check_vector,
    compare,
    compare_runs,
    expand_runs,
    is_majorized_by,
    runs_of,
)

from oracles import per_coordinate_compare, prefix_dominates, random_nonincreasing, transfer_down
from strategies import nonincreasing_fraction_vectors, nonincreasing_int_vectors

import random


@pytest.mark.parametrize(
    "vec,message",
    [
        ((3, -1, 5), "components not sorted nonincreasing"),  # sortedness is tested first
        ((2, -1), "negative component -1"),
        ((), "vector must have at least one component"),
    ],
    ids=["unsorted", "negative", "empty"],
)
def test_check_vector_rejects(vec, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_vector(vec)


class TestCompare:
    def test_flat_below_spread(self):
        assert compare((2, 2, 2), (3, 2, 1)) is Relation.LESS_OR_EQUAL

    def test_incomparable_maximal_pair(self):
        left = (7, 4, 2, 2, 2, 1, 1, 1)
        right = (7, 3, 3, 3, 1, 1, 1, 1)
        assert compare(left, right) is Relation.INCOMPARABLE

    def test_pentacyclic_minimals(self):
        left = (3, 3, 3, 3, 3, 3, 3, 3, 2)
        right = (4, 4, 4, 3, 3, 2, 2, 2, 2)
        assert compare(left, right) is Relation.LESS_OR_EQUAL

    def test_equal(self):
        assert compare((3, 1), (3, 1)) is Relation.EQUAL

    def test_unequal_totals_incomparable(self):
        assert compare((3, 1), (3, 2)) is Relation.INCOMPARABLE

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compare((2, 1), (2, 1, 0))

    def test_fraction_vs_int(self):
        assert compare((Fraction(8, 5),) * 5, (4, 1, 1, 1, 1)) is Relation.LESS_OR_EQUAL


@settings(max_examples=200)
@given(nonincreasing_int_vectors())
def test_reflexive(vec):
    assert compare(vec, vec) is Relation.EQUAL


@settings(max_examples=200)
@given(nonincreasing_fraction_vectors())
def test_reflexive_fractions(vec):
    assert compare(vec, vec) is Relation.EQUAL


@settings(max_examples=200)
@given(nonincreasing_int_vectors(min_size=2), nonincreasing_int_vectors(min_size=2))
def test_duality_and_sum_guard(left, right):
    if len(left) != len(right):
        left = left[: min(len(left), len(right))]
        right = right[: len(left)]
    rel = compare(left, right)
    back = compare(right, left)
    swapped = {
        Relation.EQUAL: Relation.EQUAL,
        Relation.LESS_OR_EQUAL: Relation.GREATER_OR_EQUAL,
        Relation.GREATER_OR_EQUAL: Relation.LESS_OR_EQUAL,
        Relation.INCOMPARABLE: Relation.INCOMPARABLE,
    }
    assert back is swapped[rel]
    if sum(left) != sum(right):
        assert rel is Relation.INCOMPARABLE
    if rel is Relation.EQUAL:
        assert left == right


@settings(max_examples=200)
@given(
    nonincreasing_int_vectors(min_size=2, low=1),
    nonincreasing_int_vectors(min_size=2, low=1),
)
def test_agreement_with_plain_prefix_oracle(left, right):
    if len(left) != len(right):
        return
    rel = compare(left, right)
    below = prefix_dominates(right, left)
    above = prefix_dominates(left, right)
    assert below == (rel in (Relation.LESS_OR_EQUAL, Relation.EQUAL))
    assert above == (rel in (Relation.GREATER_OR_EQUAL, Relation.EQUAL))


def test_transitivity_on_transfer_chains():
    rng = random.Random(42)
    for _ in range(500):
        top = random_nonincreasing(rng, rng.randint(2, 9))
        mid = transfer_down(rng, top)
        low = transfer_down(rng, mid)
        assert is_majorized_by(mid, top)
        assert is_majorized_by(low, mid)
        assert is_majorized_by(low, top)


@st.composite
def vector_pairs(draw):
    """Two nonincreasing vectors of one length, int or Fraction, with many repeated entries.

    The second is drawn on its own (totals mostly unequal) or made from the
    first by a few balancing transfers (equal totals, below the first).
    """
    n = draw(st.integers(1, 24))
    fractional = draw(st.booleans())
    values = st.sampled_from([Fraction(k, 4) for k in range(25)]) if fractional else st.integers(0, 6)

    def vector():
        return tuple(sorted(draw(st.lists(values, min_size=n, max_size=n)), reverse=True))

    left = vector()
    if draw(st.booleans()):
        right = vector()
    else:
        moved = list(left)
        for _ in range(draw(st.integers(0, 4))):
            i, j = sorted((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
            gap = moved[i] - moved[j]
            delta = gap * Fraction(draw(st.integers(0, 4)), 4) if fractional else draw(
                st.integers(0, gap)
            )
            moved[i], moved[j] = moved[i] - delta, moved[j] + delta
            moved.sort(reverse=True)
        right = tuple(moved)
    return (left, right) if draw(st.booleans()) else (right, left)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vector_pairs())
def test_run_comparison_agrees_with_compare(pair):
    left, right = pair
    expected = per_coordinate_compare(left, right)
    assert expand_runs(runs_of(left)) == left
    assert compare(left, right) is expected
    assert compare_runs(runs_of(left), runs_of(right)) is expected
    # runs need not be maximal: one run per entry gives the same answer
    assert compare_runs(tuple((x, 1) for x in left), runs_of(right)) is expected


@pytest.mark.parametrize(
    "left,right",
    [((2, 1), (2, 1, 0)), ((1, 2), (2, 1)), ((2, 1), (3, -1)), ((), ())],
    ids=["dimension", "unsorted", "negative", "empty"],
)
def test_compare_rejects_what_the_per_coordinate_form_rejects(left, right):
    with pytest.raises(ValueError) as reference:
        per_coordinate_compare(left, right)
    with pytest.raises(ValueError) as run_native:
        compare(left, right)
    assert str(run_native.value) == str(reference.value)


class TestCompareRuns:
    def test_incomparable_maximal_pair(self):
        left, right = runs_of((7, 4, 2, 2, 2, 1, 1, 1)), runs_of((7, 3, 3, 3, 1, 1, 1, 1))
        assert compare_runs(left, right) is Relation.INCOMPARABLE

    def test_long_runs(self):
        spread = ((999, 1), (7, 1), (2, 6), (1, 992))
        flat = ((3, 10), (2, 990))
        assert compare_runs(flat, spread) is Relation.LESS_OR_EQUAL
        assert compare_runs(spread, flat) is Relation.GREATER_OR_EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            compare_runs(((2, 3),), ((2, 4),))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            compare_runs(((1, 1), (2, 1)), ((2, 1), (1, 1)))
