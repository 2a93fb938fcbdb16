"""Tests for class membership, enumeration, and extremal families."""

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings

from ccyclic.degree_sequences import (
    CyclomaticClass,
    EnumerationCapError,
    ExtremalFamily,
    candidate_sequences,
    check_family_extremality,
    check_pattern_extremality,
    class_boxes,
    class_candidates,
    enumerate_sequences,
    extremal_family,
    extremality_report,
    graphical_class_sequences,
    is_ccyclic_sequence,
    is_ccyclic_sequence_via_inequalities,
    is_graphical,
    min_order,
    parametric_extremal_family,
)
from ccyclic.majorization import (
    Relation, coalesce_runs, compare, expand_runs, is_majorized_by, runs_of
)

from oracles import (
    cwr_candidates,
    published_inequalities,
    reference_extremality_report,
    textbook_is_graphical,
    tuple_candidates,
    tuple_patterns,
)
from strategies import degree_sequences, raw_degree_lists


def expanded(runs_list):
    return [expand_runs(runs) for runs in runs_list]


class TestClassValidation:
    @pytest.mark.parametrize(
        "c,n_min", [(0, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 5), (6, 5)]
    )
    def test_minimum_orders(self, c, n_min):
        assert min_order(c) == n_min
        CyclomaticClass(c=c, n=n_min)
        with pytest.raises(ValueError):
            CyclomaticClass(c=c, n=n_min - 1)

    def test_large_c_min_order(self):
        # need (n-1)(n-2)/2 >= c for the complete graph to fit the edges
        assert min_order(7) == 6
        assert min_order(15) == 7

    def test_min_order_is_the_least_fitting_order(self):
        def fits(n, c):
            return (n - 1) * (n - 2) // 2 >= c

        for c in (*range(3000), 10**12, 10**12 + 1, 10**100, 10**100 + 1):
            n = min_order(c)
            assert fits(n, c) and (n == 2 or not fits(n - 1, c)), c


class TestMembership:
    def test_k4_is_tricyclic(self):
        klass = CyclomaticClass(c=3, n=4)
        assert is_ccyclic_sequence(runs_of((3, 3, 3, 3)), klass)
        assert is_ccyclic_sequence_via_inequalities(runs_of((3, 3, 3, 3)), klass)

    def test_star_is_tree(self):
        klass = CyclomaticClass(c=0, n=5)
        assert is_ccyclic_sequence(runs_of((4, 1, 1, 1, 1)), klass)
        assert is_ccyclic_sequence_via_inequalities(runs_of((4, 1, 1, 1, 1)), klass)

    def test_bicyclic_rejects_heavy_top(self):
        klass = CyclomaticClass(c=2, n=6)
        assert not is_ccyclic_sequence(runs_of((5, 5, 2, 2, 1, 1)), klass)
        assert not is_ccyclic_sequence_via_inequalities(runs_of((5, 5, 2, 2, 1, 1)), klass)

    def test_unicyclic_needs_three_cycle_degrees(self):
        klass = CyclomaticClass(c=1, n=4)
        assert not is_ccyclic_sequence(runs_of((3, 3, 1, 1)), klass)
        assert is_ccyclic_sequence(runs_of((2, 2, 2, 2)), klass)

    def test_pentacyclic_k5_minus_edge(self):
        klass = CyclomaticClass(c=5, n=5)
        assert is_ccyclic_sequence(runs_of((4, 4, 4, 3, 3)), klass)

    def test_wrong_sum_is_rejected(self):
        klass = CyclomaticClass(c=1, n=4)
        assert not is_ccyclic_sequence(runs_of((3, 3, 2, 2)), klass)

    def test_malformed_sequences_raise(self):
        klass = CyclomaticClass(c=0, n=3)
        with pytest.raises(ValueError):
            is_ccyclic_sequence(runs_of((1, 2, 1)), klass)
        with pytest.raises(ValueError):
            is_ccyclic_sequence(runs_of((3, 1, 1)), klass)  # entry above n-1
        with pytest.raises(ValueError):
            is_ccyclic_sequence(runs_of((2, 1)), klass)  # wrong length


    def test_malformed_runs_raise(self):
        # each form has one fault: an empty run, a zero degree, a run split in two, no run
        klass = CyclomaticClass(c=0, n=4)
        for runs in (((3, 1), (2, 0), (1, 3)), ((2, 2), (1, 1), (0, 1)), ((1, 1), (1, 3)), ()):
            with pytest.raises(ValueError):
                is_ccyclic_sequence(runs, klass)


class TestGraphical:
    def test_k4(self):
        assert is_graphical(runs_of((3, 3, 3, 3)))

    def test_overloaded_hub(self):
        assert not is_graphical(runs_of((3, 1, 1)))

    def test_cycle(self):
        assert is_graphical(runs_of((2, 2, 2, 2, 2)))

    def test_odd_sum(self):
        assert not is_graphical(runs_of((2, 1)))

    def test_matches_textbook_on_every_candidate(self):
        for n in range(1, 11):
            for total in range(n * (n - 1) + 1):
                for runs in candidate_sequences(n, total):
                    assert is_graphical(runs) == textbook_is_graphical(expand_runs(runs)), runs

    def test_matches_textbook_with_isolated_vertices(self):
        for n in range(1, 9):
            for seq in combinations_with_replacement(range(n - 1, -1, -1), n):
                assert is_graphical(runs_of(seq)) == textbook_is_graphical(seq), seq

    @settings(max_examples=500, derandomize=True)
    @given(raw_degree_lists())
    def test_matches_textbook_on_raw_lists(self, seq):
        assert is_graphical(runs_of(sorted(seq, reverse=True))) == textbook_is_graphical(seq)


def test_characterizations_agree_exhaustively():
    """Counting form == inequality form == graphicality, for all candidates n <= 9."""
    for c in range(7):
        for n in range(min_order(c), 10):
            klass = CyclomaticClass(c=c, n=n)
            for seq in candidate_sequences(n, klass.degree_total):
                counting = is_ccyclic_sequence(seq, klass)
                inequalities = is_ccyclic_sequence_via_inequalities(seq, klass)
                graphical = is_graphical(seq)
                assert counting == inequalities == graphical, (c, n, seq)


def test_inequality_table_agrees_with_the_published_chain():
    """The table form and the written-out inequalities, near and at the class sum, n <= 12."""
    checked = 0
    for c in range(7):
        for n in range(min_order(c), 13):
            klass = CyclomaticClass(c=c, n=n)
            for total in (klass.degree_total - 2, klass.degree_total, klass.degree_total + 2):
                for runs in candidate_sequences(n, total):
                    expected = published_inequalities(runs, klass)
                    assert is_ccyclic_sequence_via_inequalities(runs, klass) == expected, runs
                    checked += 1
    assert checked == 17816


def test_inequality_table_refuses_c_above_six_up_front():
    klass = CyclomaticClass(c=7, n=6)
    for runs in (runs_of((5, 5, 4, 4, 4, 2)), runs_of((1,) * 6)):  # the right sum, and not
        with pytest.raises(ValueError, match="no inequality characterization implemented for c=7"):
            is_ccyclic_sequence_via_inequalities(runs, klass)


class TestEnumeration:
    def test_small_unicyclic(self):
        assert expanded(enumerate_sequences(CyclomaticClass(c=1, n=4))) == [
            (3, 2, 2, 1),
            (2, 2, 2, 2),
        ]

    def test_k4_only(self):
        assert expanded(enumerate_sequences(CyclomaticClass(c=3, n=4))) == [(3, 3, 3, 3)]

    def test_single_edge(self):
        assert expanded(enumerate_sequences(CyclomaticClass(c=0, n=2))) == [(1, 1)]

    def test_descending_lexicographic_order(self):
        seqs = expanded(enumerate_sequences(CyclomaticClass(c=2, n=7)))
        assert seqs == sorted(seqs, reverse=True)
        assert len(seqs) == len(set(seqs))

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            enumerate_sequences(CyclomaticClass(c=1, n=13), cap=12)

    def test_cap_refused_before_the_generator_starts(self, monkeypatch):
        def started(n, total):
            raise AssertionError(f"candidate generation started at n={n}")

        monkeypatch.setattr("ccyclic.degree_sequences.candidate_sequences", started)
        klass = CyclomaticClass(c=1, n=13)
        for enumerate_class in (class_candidates, enumerate_sequences, graphical_class_sequences):
            with pytest.raises(EnumerationCapError, match="order 13 exceeds enumeration cap 12"):
                enumerate_class(klass, 12)
        # at the cap itself the class is enumerated
        with pytest.raises(AssertionError, match="started at n=13"):
            class_candidates(klass, 13)

    def test_class_candidates_are_the_candidates_of_the_class(self):
        klass = CyclomaticClass(c=3, n=8)
        assert list(class_candidates(klass, 8)) == list(candidate_sequences(8, klass.degree_total))

    def test_matches_independent_generator(self):
        for c in range(11):
            for n in range(min_order(c), 11):
                klass = CyclomaticClass(c=c, n=n)
                ours = expanded(candidate_sequences(n, klass.degree_total))
                theirs = cwr_candidates(n, klass.degree_total)
                assert sorted(ours, reverse=True) == sorted(theirs, reverse=True)

    def test_runs_match_the_tuple_recursion(self):
        for c in range(11):
            for n in range(min_order(c), 15):
                total = CyclomaticClass(c=c, n=n).degree_total
                ours = list(candidate_sequences(n, total))
                assert expanded(ours) == list(tuple_candidates(n, total)), (c, n)
                assert all(runs == runs_of(expand_runs(runs)) for runs in ours), (c, n)

    def test_runs_match_the_tuple_recursion_at_every_total(self):
        for n in range(0, 9):
            for total in range(-1, n * (n - 1) + 2):
                ours = expanded(candidate_sequences(n, total))
                assert ours == list(tuple_candidates(n, total)), (n, total)

    def test_graphical_enumeration_agrees_for_supported_c(self):
        for c in range(7):
            for n in range(min_order(c), 11):
                klass = CyclomaticClass(c=c, n=n)
                candidates = candidate_sequences(n, klass.degree_total)
                counted = [seq for seq in candidates if is_ccyclic_sequence(seq, klass)]
                assert enumerate_sequences(klass) == counted, (c, n)


# the published extremal sequences for every exceptional small order
SMALL_N_FAMILIES = {
    (3, 4): ([(3, 3, 3, 3)], (3, 3, 3, 3)),
    (4, 5): ([(4, 4, 3, 3, 2)], (4, 3, 3, 3, 3)),
    (5, 5): ([(4, 4, 4, 3, 3)], (4, 4, 4, 3, 3)),
    (5, 6): (
        [(5, 5, 3, 3, 2, 2), (5, 4, 4, 3, 3, 1)],
        (4, 4, 3, 3, 3, 3),
    ),
    (5, 7): (
        [(6, 6, 2, 2, 2, 2, 2), (6, 5, 3, 3, 2, 2, 1), (6, 4, 4, 3, 3, 1, 1)],
        (4, 3, 3, 3, 3, 3, 3),
    ),
    (6, 5): ([(4, 4, 4, 4, 4)], (4, 4, 4, 4, 4)),
    (6, 6): (
        [(5, 5, 4, 3, 3, 2), (5, 4, 4, 4, 4, 1)],
        (4, 4, 4, 4, 3, 3),
    ),
    (6, 7): (
        [(6, 6, 3, 3, 2, 2, 2), (6, 5, 4, 3, 3, 2, 1), (6, 4, 4, 4, 4, 1, 1)],
        (4, 4, 4, 3, 3, 3, 3),
    ),
    (6, 8): (
        [
            (7, 7, 2, 2, 2, 2, 2, 2),
            (7, 6, 3, 3, 2, 2, 2, 1),
            (7, 5, 4, 3, 3, 2, 1, 1),
            (7, 4, 4, 4, 4, 1, 1, 1),
        ],
        (4, 4, 3, 3, 3, 3, 3, 3),
    ),
    (6, 9): (
        [
            (8, 7, 2, 2, 2, 2, 2, 2, 1),
            (8, 6, 3, 3, 2, 2, 2, 1, 1),
            (8, 5, 4, 3, 3, 2, 1, 1, 1),
            (8, 4, 4, 4, 4, 1, 1, 1, 1),
        ],
        (4, 3, 3, 3, 3, 3, 3, 3, 3),
    ),
}


class TestExtremalFamily:
    def test_tricyclic_n8(self):
        family = extremal_family(CyclomaticClass(c=3, n=8))
        assert family.maximals == (
            (7, 4, 2, 2, 2, 1, 1, 1),
            (7, 3, 3, 3, 1, 1, 1, 1),
        )
        assert family.minimal == (3, 3, 3, 3, 2, 2, 2, 2)

    def test_tetracyclic_n5(self):
        family = extremal_family(CyclomaticClass(c=4, n=5))
        assert family.maximals == ((4, 4, 3, 3, 2),)
        assert family.minimal == (4, 3, 3, 3, 3)

    def test_hexacyclic_n10_minimal(self):
        family = extremal_family(CyclomaticClass(c=6, n=10))
        assert family.minimal == (3,) * 10

    def test_triangle(self):
        family = extremal_family(CyclomaticClass(c=1, n=3))
        assert family.maximals == ((2, 2, 2),)
        assert family.minimal == (2, 2, 2)

    @pytest.mark.parametrize("key", sorted(SMALL_N_FAMILIES))
    def test_small_order_families(self, key):
        c, n = key
        expected_max, expected_min = SMALL_N_FAMILIES[key]
        family = extremal_family(CyclomaticClass(c=c, n=n))
        assert sorted(family.maximals, reverse=True) == sorted(
            expected_max, reverse=True
        )
        assert family.minimal == expected_min

    def test_rejects_unsupported_c(self):
        with pytest.raises(ValueError):
            extremal_family(CyclomaticClass(c=7, n=10))

    def test_members_and_incomparability(self):
        for c in range(7):
            for n in range(min_order(c), 11):
                klass = CyclomaticClass(c=c, n=n)
                family = extremal_family(klass)
                for seq in family.maximals:
                    assert is_ccyclic_sequence(runs_of(seq), klass)
                    assert is_majorized_by(family.minimal, seq)
                for i, a in enumerate(family.maximals):
                    for b in family.maximals[i + 1 :]:
                        assert compare(a, b) is Relation.INCOMPARABLE

    def test_extremality_against_enumeration(self):
        for c in range(7):
            for n in range(min_order(c), 10):
                klass = CyclomaticClass(c=c, n=n)
                report = check_family_extremality(klass, enumerate_sequences(klass))
                assert report.ok and report.complete, (c, n, report)

    def test_extremality_catches_a_dominating_intruder(self):
        klass = CyclomaticClass(c=3, n=8)
        maximals = extremal_family(klass).maximals
        assert maximals == ((7, 4, 2, 2, 2, 1, 1, 1), (7, 3, 3, 3, 1, 1, 1, 1))
        # Neither is a class member; each strictly majorizes both maximals.
        first, second = runs_of((7, 5, 2, 2, 1, 1, 1, 1)), runs_of((7, 4, 3, 2, 1, 1, 1, 1))
        population = enumerate_sequences(klass)
        report = check_family_extremality(klass, population + [first, second])
        assert report.not_below_any_maximal == (first, second)
        tops = tuple(map(runs_of, maximals))
        assert report.dominated_patterns == ((tops[0], first), (tops[1], first))
        assert not report.ok and not report.complete
        family = extremal_family(klass)
        assert report == reference_extremality_report(family, population + [first, second])


class TestExtremalityReportMatchesReference:
    """The prefix-sum report equals the former pairwise ``compare`` report, field for field."""

    def test_family_reports(self):
        for c in range(7):
            for n in range(min_order(c), 13):
                klass = CyclomaticClass(c=c, n=n)
                population = graphical_class_sequences(klass)
                expected = reference_extremality_report(extremal_family(klass), population)
                assert check_family_extremality(klass, population) == expected, (c, n)

    def test_pattern_reports(self):
        for c in range(11):
            for n in range(min_order(c), 13):
                klass = CyclomaticClass(c=c, n=n)
                population = graphical_class_sequences(klass)
                family = parametric_extremal_family(c, n)
                expected = reference_extremality_report(family, population)
                assert check_pattern_extremality(klass, population) == expected, (c, n)

    def test_families_of_arbitrary_members(self):
        # Fixed vectors with a head below n - 1, comparable among themselves,
        # and a minimal that is not below everything reach every branch.
        rng = random.Random(5)
        for c, n in ((3, 8), (6, 9), (8, 10)):
            klass = CyclomaticClass(c=c, n=n)
            population = graphical_class_sequences(klass)
            for _ in range(30):
                picks = rng.sample(population, rng.randint(2, 5))
                family = ExtremalFamily(klass, tuple(picks[1:]), picks[0])
                report = extremality_report(family, population)
                assert report == reference_extremality_report(family, population), picks

    def test_family_with_a_wrong_total(self):
        # A maximal and a minimal two above the class total: incomparable
        # with every member, so nothing lies below the one or above the other.
        klass = CyclomaticClass(c=3, n=8)
        population = enumerate_sequences(klass)
        wrong_top = runs_of((7, 4, 3, 2, 2, 1, 1, 1))
        wrong_least = runs_of((3, 3, 3, 3, 3, 3, 2, 2))
        for maximal_runs in ((wrong_top,), (wrong_top, runs_of((7, 3, 3, 3, 1, 1, 1, 1)))):
            family = ExtremalFamily(klass, maximal_runs, wrong_least)
            report = extremality_report(family, population)
            assert report == reference_extremality_report(family, population)
            assert not report.members_valid
            assert len(report.not_above_minimal) == len(population)
        assert report.pairwise_incomparable and len(report.not_below_any_maximal) > 0


class TestParametricPatterns:
    def test_bicyclic_pattern(self):
        family = parametric_extremal_family(2, 10)
        assert family.maximals == ((9, 3, 2, 2, 1, 1, 1, 1, 1, 1),)
        assert family.minimal == (3, 3) + (2,) * 8

    def test_hexacyclic_minimal_pattern(self):
        family = parametric_extremal_family(6, 12)
        assert family.minimal == (3,) * 10 + (2, 2)

    def test_conjectural_c7(self):
        family = parametric_extremal_family(7, 16)
        assert family.maximals == (
            (15, 8) + (2,) * 7 + (1,) * 7,
            (15, 7, 3, 3) + (2,) * 4 + (1,) * 8,
            (15, 6, 4, 3, 3) + (2,) * 2 + (1,) * 9,
        )
        assert family.minimal == (3,) * 12 + (2,) * 4

    def test_tree_pattern(self):
        family = parametric_extremal_family(0, 6)
        assert family.maximals == ((5, 1, 1, 1, 1, 1),)
        assert family.minimal is None  # path pattern is not the 3..2 form

    def test_minimal_omitted_when_n_small(self):
        family = parametric_extremal_family(5, 7)
        assert family.minimal is None
        assert len(family.maximals) == 3

    def test_patterns_equal_the_tuple_reference(self):
        for c in range(40):
            for n in range(min_order(c), 120):
                family = parametric_extremal_family(c, n)
                assert (family.maximals, family.minimal) == tuple_patterns(c, n), (c, n)
                assert family.maximal_runs == tuple(map(runs_of, family.maximals)), (c, n)
                if family.minimal is not None:
                    assert family.minimal_runs == runs_of(family.minimal), (c, n)

    def test_patterns_cost_no_entry_per_vertex(self):
        # c = 7 at every order to 20,000, past any enumeration cap, and at 10**12
        small = {
            6: ((), None),
            7: ((((6, 2), (4, 1), (3, 2), (2, 2)),), None),
            8: (
                (((7, 2), (3, 2), (2, 4)), ((7, 1), (6, 1), (4, 1), (3, 2), (2, 2), (1, 1))),
                None,
            ),
            9: (
                (
                    ((8, 2), (2, 7)),
                    ((8, 1), (7, 1), (3, 2), (2, 4), (1, 1)),
                    ((8, 1), (6, 1), (4, 1), (3, 2), (2, 2), (1, 2)),
                ),
                None,
            ),
        }
        assert min_order(7) == 6
        for n in [*range(6, 20_001), 10**12]:
            family = parametric_extremal_family(7, n)
            expected = small.get(n) or (
                (
                    ((n - 1, 1), (8, 1), (2, 7), (1, n - 9)),
                    ((n - 1, 1), (7, 1), (3, 2), (2, 4), (1, n - 8)),
                    ((n - 1, 1), (6, 1), (4, 1), (3, 2), (2, 2), (1, n - 7)),
                ),
                None if n < 12 else ((3, 12),) if n == 12 else ((3, 12), (2, n - 12)),
            )
            assert (family.maximal_runs, family.minimal_runs) == expected, n

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda runs: runs[:-1], "expected 16 degrees"),
            (lambda runs: ((runs[0][0] - 1, 1),) + runs[1:], "off the total"),
        ],
        ids=["short", "off-total"],
    )
    def test_a_broken_pattern_fails_its_self_check(self, monkeypatch, damage, message):
        monkeypatch.setattr(
            "ccyclic.degree_sequences.coalesce_runs", lambda runs: damage(coalesce_runs(runs))
        )
        with pytest.raises(AssertionError, match=f"closed-form pattern .*{message}"):
            parametric_extremal_family(7, 16)

    def test_patterns_subset_of_family(self):
        for c in range(7):
            for n in range(max(min_order(c), c + 2), 16):
                patterns = parametric_extremal_family(c, n)
                family = extremal_family(CyclomaticClass(c=c, n=n))
                for seq in patterns.maximals:
                    assert seq in family.maximals, (c, n, seq)
                if patterns.minimal is not None:
                    assert patterns.minimal == family.minimal

    def test_pattern_extremality_check_holds_for_proven_c(self):
        for c in (5, 6):
            klass = CyclomaticClass(c=c, n=10)
            report = check_pattern_extremality(klass, graphical_class_sequences(klass))
            assert report.ok

    def test_pattern_extremality_conjecture_c7(self):
        klass = CyclomaticClass(c=7, n=11)
        report = check_pattern_extremality(klass, graphical_class_sequences(klass))
        assert report.ok


@settings(max_examples=300, deadline=None)
@given(degree_sequences())
def test_counting_form_matches_inequality_form(seq):
    n = len(seq)
    total = sum(seq)
    if total < 2 * (n - 1) or total % 2:
        return
    c = total // 2 - n + 1
    if c > 6:
        return
    klass = CyclomaticClass(c=c, n=n)
    assert is_ccyclic_sequence(runs_of(seq), klass) == is_ccyclic_sequence_via_inequalities(
        runs_of(seq), klass
    )


def test_class_boxes_counts():
    # live constraint boxes per order mirror the published case split
    assert len(class_boxes(CyclomaticClass(c=5, n=5))) == 1
    assert len(class_boxes(CyclomaticClass(c=5, n=6))) == 2
    assert len(class_boxes(CyclomaticClass(c=5, n=7))) == 3
    assert len(class_boxes(CyclomaticClass(c=6, n=5))) == 1
    assert len(class_boxes(CyclomaticClass(c=6, n=6))) == 3
    assert len(class_boxes(CyclomaticClass(c=6, n=7))) == 4
    assert len(class_boxes(CyclomaticClass(c=6, n=8))) == 5
