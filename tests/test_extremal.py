"""Tests for box and two-block extremal elements, including enumeration oracles."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccyclic.extremal import (
    BoxSet,
    InfeasibleSetError,
    UnsupportedCaseError,
    integerize_minimal,
    integerize_runs,
    maximal_box,
    maximal_two_block,
    minimal_box,
    minimal_two_block,
)
from ccyclic.majorization import Relation, compare, is_majorized_by

from oracles import (
    box_integer_points,
    per_coordinate_contains,
    per_coordinate_integerize,
    per_coordinate_maximal,
    per_coordinate_minimal,
    pinned_split_minimal,
)
from strategies import (
    fraction_boxes,
    integer_boxes,
    run_length_boxes,
    two_block_box,
    two_block_sets,
)


def F(*args):
    return Fraction(*args)


class TestBoxSetValidation:
    def test_infeasible_total(self):
        with pytest.raises(InfeasibleSetError):
            BoxSet(total=100, lower=(1, 1), upper=(3, 3))

    def test_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoxSet(total=4, lower=(3, 3), upper=(2, 2))

    def test_unsorted_bounds(self):
        with pytest.raises(ValueError):
            BoxSet(total=4, lower=(1, 2), upper=(3, 3))

    def test_other_numbers_become_exact_fractions(self):
        box = BoxSet(total=2.5, lower=(0.5, "1/4"), upper=("3/2", Decimal("1.25")))
        assert (box.total, box.lower, box.upper) == (F(5, 2), (F(1, 2), F(1, 4)), (F(3, 2), F(5, 4)))
        assert all(type(x) is Fraction for x in (box.total,) + box.lower + box.upper)


class TestMaximalBox:
    def test_tree_box_gives_star(self):
        box = BoxSet(total=8, lower=(1,) * 5, upper=(4,) * 5)
        assert maximal_box(box) == (4, 1, 1, 1, 1)

    def test_upper_corner(self):
        box = BoxSet(total=12, lower=(1, 1, 1), upper=(5, 4, 3))
        assert maximal_box(box) == (5, 4, 3)

    def test_bicyclic_box(self):
        box = BoxSet(total=14, lower=(2, 2, 2, 2, 1, 1), upper=(5,) * 6)
        assert maximal_box(box) == (5, 3, 2, 2, 1, 1)

    def test_three_block_tetracyclic_box(self):
        # middle singleton block: only the general path handles it
        box = BoxSet(total=22, lower=(3, 3, 3, 3, 2, 1, 1, 1), upper=(7,) * 8)
        assert maximal_box(box) == (7, 4, 3, 3, 2, 1, 1, 1)

    def test_single_point_box(self):
        box = BoxSet(total=18, lower=(4, 4, 4, 3, 3), upper=(4,) * 5)
        assert maximal_box(box) == (4, 4, 4, 3, 3)


class TestMinimalBox:
    def test_flat_interior(self):
        box = BoxSet(total=8, lower=(1,) * 5, upper=(4,) * 5)
        assert minimal_box(box) == (F(8, 5),) * 5

    def test_pentacyclic_pinned_prefix(self):
        box = BoxSet(total=26, lower=(4, 4, 4, 3, 3, 1, 1, 1, 1), upper=(8,) * 9)
        assert minimal_box(box) == (4, 4, 4, 3, 3, 2, 2, 2, 2)

    def test_lower_corner(self):
        box = BoxSet(total=5, lower=(3, 1, 1), upper=(4, 4, 4))
        assert minimal_box(box) == (3, 1, 1)

    def test_pinned_suffix(self):
        # forcing trailing coordinates at their upper bounds
        box = BoxSet(total=10, lower=(0, 0, 0), upper=(9, 2, 2))
        assert minimal_box(box) == (6, 2, 2)


class TestTwoBlock:
    def test_tricyclic_widest(self):
        box = two_block_box(n=8, h=5, total=20, m1=2, M1=7, m2=1, M2=7)
        assert maximal_two_block(box) == (7, 4, 2, 2, 2, 1, 1, 1)

    def test_pentacyclic_widest(self):
        box = two_block_box(n=8, h=7, total=24, m1=2, M1=7, m2=1, M2=7)
        assert maximal_two_block(box) == (7, 6, 2, 2, 2, 2, 2, 1)

    def test_degenerate_single_block_corner(self):
        box = two_block_box(n=4, h=4, total=20, m1=1, M1=5, m2=0, M2=5)
        assert maximal_two_block(box) == (5, 5, 5, 5)

    def test_minimal_pinned_first_block(self):
        box = two_block_box(n=8, h=4, total=20, m1=3, M1=7, m2=1, M2=7)
        assert minimal_two_block(box) == (3, 3, 3, 3, 2, 2, 2, 2)

    def test_minimal_forced_constant(self):
        box = two_block_box(n=6, h=3, total=12, m1=2, M1=5, m2=0, M2=4)
        assert minimal_two_block(box) == (2,) * 6

    def test_minimal_cycle(self):
        n = 9
        box = two_block_box(n=n, h=3, total=2 * n, m1=2, M1=n - 1, m2=1, M2=n - 1)
        assert minimal_two_block(box) == (2,) * n

    def test_minimal_pinned_second_block(self):
        box = two_block_box(n=4, h=2, total=14, m1=1, M1=9, m2=0, M2=3)
        assert minimal_two_block(box) == (4, 4, 3, 3)

    def test_minimal_rejects_disjoint_blocks(self):
        box = two_block_box(n=4, h=2, total=12, m1=5, M1=9, m2=0, M2=3)
        with pytest.raises(UnsupportedCaseError):
            minimal_two_block(box)

    def test_fraction_blocks_stay_exact(self):
        box = two_block_box(n=3, h=1, total=4, m1=F(1, 2), M1=F(5, 2), m2=F(1, 2), M2=F(3, 2))
        assert maximal_two_block(box) == (F(5, 2), 1, F(1, 2))
        assert minimal_two_block(box) == (F(4, 3),) * 3

    @pytest.mark.parametrize(
        "box",
        [
            BoxSet(total=22, lower=(3, 3, 2, 1), upper=(7,) * 4),  # three segments
            two_block_box(n=4, h=2, total=10, m1=3, M1=3, m2=1, M2=3),  # pinned first block
        ],
    )
    def test_other_boxes_have_no_closed_form(self, box):
        for closed_form in (maximal_two_block, minimal_two_block):
            with pytest.raises(UnsupportedCaseError):
                closed_form(box)


class TestIntegerize:
    def test_tree_path(self):
        box = BoxSet(total=8, lower=(1,) * 5, upper=(4,) * 5)
        assert integerize_minimal(minimal_box(box), box) == (2, 2, 2, 1, 1)

    def test_identity_on_integers(self):
        box = BoxSet(total=12, lower=(2,) * 6, upper=(5,) * 6)
        assert integerize_minimal((2,) * 6, box) == (2,) * 6

    def test_tetracyclic(self):
        box = BoxSet(total=22, lower=(2,) * 6 + (1, 1), upper=(7,) * 8)
        assert integerize_minimal(minimal_box(box), box) == (3, 3, 3, 3, 3, 3, 2, 2)

    def test_mixed_runs(self):
        box = BoxSet(total=18, lower=(4, 1, 1, 1, 1, 1), upper=(9,) * 6)
        vec = (4,) + (F(14, 5),) * 5
        assert integerize_minimal(vec, box) == (4, 3, 3, 3, 3, 2)

    def test_equal_neighbouring_runs_are_merged_first(self):
        box = BoxSet(total=5, lower=(1, 1), upper=(4, 4))
        # rounded one by one, each half-integer run would have a fractional sum
        assert integerize_runs(((F(5, 2), 1), (F(5, 2), 1)), box) == ((3, 1), (2, 1))

    def test_fractional_total_rejected(self):
        box = BoxSet(total=F(9, 2), lower=(1, 1), upper=(4, 4))
        with pytest.raises(UnsupportedCaseError):
            integerize_minimal((F(9, 4), F(9, 4)), box)


# ---------------------------------------------------------------------------
# Named class boxes, checked exhaustively against integer enumeration
# ---------------------------------------------------------------------------

NAMED_BOXES = []
for n in range(5, 9):
    NAMED_BOXES.append(BoxSet(total=2 * (n - 1), lower=(1,) * n, upper=(n - 1,) * n))
    NAMED_BOXES.append(
        BoxSet(total=2 * n, lower=(2, 2, 2) + (1,) * (n - 3), upper=(n - 1,) * n)
    )
    NAMED_BOXES.append(
        BoxSet(total=2 * (n + 2), lower=(3, 3, 3, 3) + (1,) * (n - 4), upper=(n - 1,) * n)
    )
    if n >= 6:
        NAMED_BOXES.append(
            BoxSet(
                total=2 * (n + 3),
                lower=(3, 3, 3, 3, 2) + (1,) * (n - 5),
                upper=(n - 1,) * n,
            )
        )


@pytest.mark.parametrize("box", NAMED_BOXES)
def test_named_boxes_against_enumeration(box):
    points = box_integer_points(box.lower, box.upper, box.total)
    assert points, "named box unexpectedly empty"
    top = maximal_box(box)
    bottom = integerize_minimal(minimal_box(box), box)
    assert all(is_majorized_by(p, top) for p in points)
    assert all(is_majorized_by(bottom, p) for p in points)
    assert tuple(int(x) for x in top) in points
    assert bottom in points


@settings(max_examples=120, deadline=None)
@given(integer_boxes(max_size=5, high=7))
def test_random_boxes_against_enumeration(box):
    points = box_integer_points(box.lower, box.upper, box.total)
    top = maximal_box(box)
    assert box.contains(top)
    assert sum(top) == box.total
    assert all(is_majorized_by(p, top) for p in points)
    bottom = integerize_minimal(minimal_box(box), box)
    assert all(is_majorized_by(bottom, p) for p in points)


@settings(max_examples=120, deadline=None)
@given(integer_boxes())
def test_minimal_box_membership_and_below_maximal(box):
    top = maximal_box(box)
    bottom = minimal_box(box)
    assert box.contains(bottom)
    assert sum(bottom) == box.total
    rel = compare(bottom, top)
    assert rel in (Relation.LESS_OR_EQUAL, Relation.EQUAL)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_boxes())
def test_maximal_box_of_integer_box_has_int_components(box):
    assert all(type(x) is int for x in maximal_box(box))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    st.one_of(
        integer_boxes(),
        fraction_boxes(),
        two_block_sets(),
    )
)
def test_minimal_box_matches_pinned_split_search(box):
    assert minimal_box(box) == pinned_split_minimal(box.lower, box.upper, box.total)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        integer_boxes(),
        fraction_boxes(),
        two_block_sets(),
        run_length_boxes(),
    )
)
def test_segment_computations_match_per_coordinate_oracles(box):
    lower, upper, total = box.lower, box.upper, box.total
    assert BoxSet(total=total, lower=lower, upper=upper) == box
    top, bottom = maximal_box(box), minimal_box(box)
    assert top == per_coordinate_maximal(lower, upper, total)
    assert bottom == per_coordinate_minimal(lower, upper, total)
    flat = (Fraction(total) / len(lower),) * len(lower)  # right sum and order, maybe out of bounds
    probes = (
        top, bottom, flat, top[::-1], bottom[:-1], top[:-1] + (top[-1] + 1,),
        top + (0,), bottom + bottom[-1:], top[:-1] + (top[-1] - 1, 1),  # longer than the box
    )
    for vec in probes:
        expected = per_coordinate_contains(lower, upper, total, vec)
        assert box.contains(vec) == expected
        # one run per entry, with empty runs between them, reads the same
        assert box.contains_runs(tuple(run for x in vec for run in ((x, 1), (x, 0)))) == expected
    if all(x.denominator == 1 for x in (total,) + lower + upper):
        assert integerize_minimal(bottom, box) == per_coordinate_integerize(bottom)


def test_segments_merge_and_expand():
    box = BoxSet(total=20, segments=(((4, 4), 2), ((4, 4), 3), ((3, 5), 0)))
    assert box.segments == (((4, 4), 5),)
    assert (box.n, box.lower, box.upper) == (5, (4,) * 5, (4,) * 5)
    assert maximal_box(box) == minimal_box(box) == (4,) * 5
    with pytest.raises(ValueError, match="not positive"):
        BoxSet(total=0, segments=(((0, 1), -1),))


@settings(max_examples=150, deadline=None)
@given(two_block_sets())
def test_two_block_maximal_matches_box(box):
    # maximal_two_block itself asserts agreement with the general box path
    vec = maximal_two_block(box)
    assert box.contains(vec)


@settings(max_examples=150, deadline=None)
@given(two_block_sets(overlap_only=True))
def test_two_block_minimal_is_minimal(box):
    vec = minimal_two_block(box)
    assert box.contains(vec)
    general = minimal_box(box)
    assert vec == general
