"""Tests for class membership, enumeration, and extremal families."""

import random
import re
from collections import Counter
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings

from ccyclic.degree_sequences import (
    _COUNT_CONDITIONS,
    _class_tables,
    _discard_dominated,
    _erdos_gallai,
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
    graphical_class_sequences,
    is_ccyclic_sequence,
    is_ccyclic_sequence_via_inequalities,
    is_graphical,
    min_order,
    parametric_extremal_family,
    walk_class,
)
from ccyclic.majorization import (
    Relation,
    coalesce_runs,
    compare,
    compare_runs,
    expand_runs,
    is_majorized_by,
    relation_of_runs,
    runs_of,
)

from oracles import (
    cwr_candidates,
    expanded_family,
    per_coordinate_family,
    per_entry_class_bounds,
    published_inequalities,
    reference_extremality_report,
    textbook_is_graphical,
    transfer_down,
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

    @pytest.mark.parametrize("c", range(16))
    def test_core_matches_on_every_class_candidate(self, c):
        # The core without its screen, on candidates of order n and the class total.
        for n in range(min_order(c), 15):
            for runs in class_candidates(CyclomaticClass(c=c, n=n), n):
                expected = textbook_is_graphical(expand_runs(runs))
                assert _erdos_gallai(runs, n) == is_graphical(runs) == expected, runs

    def test_screen_rejects_what_the_core_is_never_given(self):
        # An empty sequence, an odd sum, a degree >= n and a negative degree.
        for runs in ((), ((2, 1), (1, 3)), ((5, 1), (1, 3)), ((1, 2), (0, 1), (-2, 1))):
            assert not is_graphical(runs), runs
        # The core alone takes the odd sum: the screen is what rejects it.
        assert _erdos_gallai(((2, 1), (1, 3)), 4)


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
        maximals, minimal = expanded_family(extremal_family(CyclomaticClass(c=3, n=8)))
        assert maximals == (
            (7, 4, 2, 2, 2, 1, 1, 1),
            (7, 3, 3, 3, 1, 1, 1, 1),
        )
        assert minimal == (3, 3, 3, 3, 2, 2, 2, 2)

    def test_tetracyclic_n5(self):
        maximals, minimal = expanded_family(extremal_family(CyclomaticClass(c=4, n=5)))
        assert maximals == ((4, 4, 3, 3, 2),)
        assert minimal == (4, 3, 3, 3, 3)

    def test_hexacyclic_n10_minimal(self):
        _, minimal = expanded_family(extremal_family(CyclomaticClass(c=6, n=10)))
        assert minimal == (3,) * 10

    def test_triangle(self):
        maximals, minimal = expanded_family(extremal_family(CyclomaticClass(c=1, n=3)))
        assert maximals == ((2, 2, 2),)
        assert minimal == (2, 2, 2)

    @pytest.mark.parametrize("key", sorted(SMALL_N_FAMILIES))
    def test_small_order_families(self, key):
        c, n = key
        expected_max, expected_min = SMALL_N_FAMILIES[key]
        maximals, minimal = expanded_family(extremal_family(CyclomaticClass(c=c, n=n)))
        assert sorted(maximals, reverse=True) == sorted(expected_max, reverse=True)
        assert minimal == expected_min

    def test_rejects_unsupported_c(self):
        with pytest.raises(ValueError):
            extremal_family(CyclomaticClass(c=7, n=10))

    @pytest.mark.parametrize("c", range(7))
    def test_family_across_orders_matches_per_coordinate_build(self, c):
        for n in range(min_order(c), 301):
            klass = CyclomaticClass(c=c, n=n)
            expected = per_coordinate_family(boxes_of(klass))
            assert expanded_family(extremal_family(klass)) == expected, (c, n)

    def test_members_and_incomparability(self):
        for c in range(7):
            for n in range(min_order(c), 11):
                klass = CyclomaticClass(c=c, n=n)
                maximals, minimal = expanded_family(extremal_family(klass))
                for seq in maximals:
                    assert is_ccyclic_sequence(runs_of(seq), klass)
                    assert is_majorized_by(minimal, seq)
                for i, a in enumerate(maximals):
                    for b in maximals[i + 1 :]:
                        assert compare(a, b) is Relation.INCOMPARABLE

    def test_extremality_against_enumeration(self):
        for c in range(7):
            for n in range(min_order(c), 10):
                klass = CyclomaticClass(c=c, n=n)
                report = check_family_extremality(klass, n)
                assert report.ok and report.complete, (c, n, report)

    def test_extremality_catches_dominated_maximals(self):
        # Two class members strictly below the true maximals
        # [7, 4, 2^3, 1^3] and [7, 3^3, 1^4], put in as the maximals.
        klass = CyclomaticClass(c=3, n=8)
        tops = runs_of((6, 5, 2, 2, 2, 1, 1, 1)), runs_of((6, 4, 3, 3, 1, 1, 1, 1))
        family = replace(extremal_family(klass), maximal_runs=tops)
        report = walk_class(klass, 8, family).extremality
        assert report == reference_extremality_report(family, enumerate_sequences(klass))
        # the first member strictly above each, in descending lexicographic order
        assert report.dominated_patterns == (
            (tops[0], runs_of((7, 4, 2, 2, 2, 1, 1, 1))),
            (tops[1], runs_of((7, 3, 3, 3, 1, 1, 1, 1))),
        )
        assert report.members_valid and report.pairwise_incomparable
        assert not report.ok and not report.complete


class TestDiscardDominated:
    """Candidates are compared only with the lexicographically larger survivors."""

    @staticmethod
    def all_pairs(candidates):
        return sorted(
            {
                a for a in candidates
                if not any(compare_runs(a, b) is Relation.LESS_OR_EQUAL for b in candidates)
            },
            reverse=True,
        )

    def test_at_most_half_the_pairs_and_the_all_pairs_survivors(self, monkeypatch):
        calls = []

        def counted(left, right):
            calls.append((left, right))
            return relation_of_runs(left, right)

        monkeypatch.setattr("ccyclic.degree_sequences.relation_of_runs", counted)
        rng = random.Random(25)
        for _ in range(400):
            n, total = rng.randint(1, 12), rng.randint(0, 30)
            vectors = []
            for _ in range(rng.randint(1, 6)):  # stars and bars: n parts summing to total
                cuts = sorted(rng.sample(range(total + n - 1), n - 1))
                parts = map(int.__sub__, cuts + [total + n - 1], [-1] + cuts)
                vectors.append(tuple(sorted((part - 1 for part in parts), reverse=True)))
            vectors += [transfer_down(rng, vec) for vec in vectors]  # some pairs comparable
            candidates = [runs_of(vec) for vec in vectors]
            candidates += rng.sample(candidates, rng.randint(0, len(candidates)))  # repeats
            m = len(set(candidates))
            calls.clear()
            kept = _discard_dominated(candidates)
            assert len(calls) <= m * (m - 1) // 2
            assert all(left != right for left, right in calls)
            assert kept == self.all_pairs(candidates)


class TestEachRelationOnce:
    """``extremal_family`` decides each relation once, and its checks still fire."""

    @staticmethod
    def counted(monkeypatch, lie=lambda left, right: None):
        """Record the core's calls; ``lie`` gives a false answer for the pairs it chooses."""
        calls = []

        def core(left, right):
            calls.append((left, right))
            return lie(left, right) or relation_of_runs(left, right)

        monkeypatch.setattr("ccyclic.degree_sequences.relation_of_runs", core)
        return calls

    def test_no_pair_is_related_twice(self, monkeypatch):
        calls = self.counted(monkeypatch)
        for c in range(7):
            for n in [*range(min_order(c), 61), 1000]:
                calls.clear()
                extremal_family(CyclomaticClass(c=c, n=n))
                repeats = Counter(frozenset(pair) for pair in calls)
                assert max(repeats.values()) == 1, (c, n)
        assert len(calls) <= 17  # the family at (6, 1000)

    def test_a_comparable_maximal_pair_raises(self, monkeypatch):
        klass = CyclomaticClass(c=3, n=8)
        earlier, later = extremal_family(klass).maximal_runs  # descending lexicographic
        ranked = {(later, earlier): Relation.GREATER_OR_EQUAL}
        self.counted(monkeypatch, lambda left, right: ranked.get((left, right)))
        with pytest.raises(AssertionError, match=re.escape(f"{later} and {earlier}")):
            extremal_family(klass)

    def test_a_minimal_that_fails_to_minorize_raises(self, monkeypatch):
        klass = CyclomaticClass(c=6, n=1000)  # three distinct minimal candidates
        least = extremal_family(klass).minimal_runs
        self.counted(monkeypatch, lambda left, right: left == least and Relation.INCOMPARABLE)
        with pytest.raises(AssertionError, match=f"{re.escape(str(least))} fails to minorize"):
            extremal_family(klass)


class TestExtremalityReportMatchesReference:
    """The walk's report equals the former pairwise report, field for field."""

    def test_family_reports(self):
        for c in range(7):
            for n in range(min_order(c), 13):
                klass = CyclomaticClass(c=c, n=n)
                population = graphical_class_sequences(klass)
                expected = reference_extremality_report(extremal_family(klass), population)
                assert check_family_extremality(klass, n) == expected, (c, n)

    def test_pattern_reports(self):
        for c in range(11):
            for n in range(min_order(c), 13):
                klass = CyclomaticClass(c=c, n=n)
                population = graphical_class_sequences(klass)
                family = parametric_extremal_family(c, n)
                expected = reference_extremality_report(family, population)
                assert check_pattern_extremality(klass, n) == expected, (c, n)

    def test_checks_refuse_an_order_above_the_cap_before_the_family(self, monkeypatch):
        def built(*args):
            raise AssertionError("the family was built")

        monkeypatch.setattr("ccyclic.degree_sequences.extremal_family", built)
        monkeypatch.setattr("ccyclic.degree_sequences.parametric_extremal_family", built)
        for check in (check_family_extremality, check_pattern_extremality):
            with pytest.raises(EnumerationCapError, match="order 9 exceeds enumeration cap 8"):
                check(CyclomaticClass(c=3, n=9), 8)

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
                report = walk_class(klass, n, family).extremality
                assert report == reference_extremality_report(family, population), picks

    def test_family_with_a_wrong_total(self):
        # A maximal and a minimal two above the class total are refused, beside
        # a member maximal or alone.  Each case: (c, n), the maximal, the
        # minimal, and a member maximal.
        cases = [
            (3, 8, (7, 4, 3, 2, 2, 1, 1, 1), (3, 3, 3, 3, 3, 3, 2, 2), (7, 3, 3, 3, 1, 1, 1, 1)),
            (8, 10, (9, 9, 3, 3) + (2,) * 6, (4,) * 6 + (3,) * 4, (9, 9) + (2,) * 8),
        ]
        for c, n, wrong_top, wrong_least, member in cases:
            klass = CyclomaticClass(c=c, n=n)
            wrong_top, wrong_least, member = map(runs_of, (wrong_top, wrong_least, member))
            for maximal_runs, minimal_runs in (
                ((wrong_top,), wrong_least),
                ((wrong_top, member), member),
                ((member,), wrong_least),
            ):
                with pytest.raises(ValueError, match="off the total"):
                    ExtremalFamily(klass, maximal_runs, minimal_runs)


class TestParametricPatterns:
    def test_bicyclic_pattern(self):
        maximals, minimal = expanded_family(parametric_extremal_family(2, 10))
        assert maximals == ((9, 3, 2, 2, 1, 1, 1, 1, 1, 1),)
        assert minimal == (3, 3) + (2,) * 8

    def test_hexacyclic_minimal_pattern(self):
        _, minimal = expanded_family(parametric_extremal_family(6, 12))
        assert minimal == (3,) * 10 + (2, 2)

    def test_conjectural_c7(self):
        maximals, minimal = expanded_family(parametric_extremal_family(7, 16))
        assert maximals == (
            (15, 8) + (2,) * 7 + (1,) * 7,
            (15, 7, 3, 3) + (2,) * 4 + (1,) * 8,
            (15, 6, 4, 3, 3) + (2,) * 2 + (1,) * 9,
        )
        assert minimal == (3,) * 12 + (2,) * 4

    def test_tree_pattern(self):
        maximals, minimal = expanded_family(parametric_extremal_family(0, 6))
        assert maximals == ((5, 1, 1, 1, 1, 1),)
        assert minimal == (2, 2, 2, 2, 1, 1)  # the path, not the 3..2 form

    def test_minimal_balanced_when_n_small(self):
        family = parametric_extremal_family(5, 7)
        assert family.minimal_runs == ((4, 1), (3, 6))  # 2c - 2 = 8 > n: no 3..2 form
        assert len(family.maximal_runs) == 3

    def test_patterns_equal_the_tuple_reference(self):
        for c in range(40):
            for n in range(min_order(c), 120):
                family = parametric_extremal_family(c, n)
                maximals, minimal = tuple_patterns(c, n)
                assert family.maximal_runs == tuple(map(runs_of, maximals)), (c, n)
                if minimal is not None:  # the 3..2 form, where it is defined
                    assert family.minimal_runs == runs_of(minimal), (c, n)
                # at every order, the balanced sequence: n entries that differ by at most one
                seq = expand_runs(family.minimal_runs)
                assert len(seq) == n and sum(seq) == 2 * (n + c - 1), (c, n)
                assert seq[0] - seq[-1] <= 1, (c, n)

    def test_minimal_equals_the_box_minimal(self):
        # the closed form against the general computation, at every order to 59 and far past it
        for c in range(7):
            for n in [*range(min_order(c), 60), 1000, 10**6]:
                klass = CyclomaticClass(c=c, n=n)
                family = parametric_extremal_family(c, n)
                assert family.minimal_runs == extremal_family(klass).minimal_runs, (c, n)

    def test_patterns_cost_no_entry_per_vertex(self):
        # c = 7 at every order to 20,000, past any enumeration cap, and at 10**12
        small = {
            6: ((), ((4, 6),)),
            7: ((((6, 2), (4, 1), (3, 2), (2, 2)),), ((4, 5), (3, 2))),
            8: (
                (((7, 2), (3, 2), (2, 4)), ((7, 1), (6, 1), (4, 1), (3, 2), (2, 2), (1, 1))),
                ((4, 4), (3, 4)),
            ),
            9: (
                (
                    ((8, 2), (2, 7)),
                    ((8, 1), (7, 1), (3, 2), (2, 4), (1, 1)),
                    ((8, 1), (6, 1), (4, 1), (3, 2), (2, 2), (1, 2)),
                ),
                ((4, 3), (3, 6)),
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
                ((4, 12 - n), (3, 2 * n - 12)) if n < 12
                else ((3, 12),) if n == 12 else ((3, 12), (2, n - 12)),
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
                for runs in patterns.maximal_runs:
                    assert runs in family.maximal_runs, (c, n, runs)
                assert patterns.minimal_runs == family.minimal_runs

    def test_pattern_extremality_check_holds_for_proven_c(self):
        for c in (5, 6):
            report = check_pattern_extremality(CyclomaticClass(c=c, n=10), 10)
            assert report.ok

    def test_pattern_extremality_conjecture_c7(self):
        report = check_pattern_extremality(CyclomaticClass(c=7, n=11), 11)
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


def boxes_of(klass):
    """The class's boxes, from its counting rows as compiled for it."""
    return class_boxes(klass, _class_tables(klass)[0])


def test_class_boxes_counts():
    # live constraint boxes per order mirror the published case split
    assert len(boxes_of(CyclomaticClass(c=5, n=5))) == 1
    assert len(boxes_of(CyclomaticClass(c=5, n=6))) == 2
    assert len(boxes_of(CyclomaticClass(c=5, n=7))) == 3
    assert len(boxes_of(CyclomaticClass(c=6, n=5))) == 1
    assert len(boxes_of(CyclomaticClass(c=6, n=6))) == 3
    assert len(boxes_of(CyclomaticClass(c=6, n=7))) == 4
    assert len(boxes_of(CyclomaticClass(c=6, n=8))) == 5


def test_count_condition_rows_fall_and_rise():
    # class_boxes makes one segment per need on this form of the rows, and a
    # row live at an order never counts more entries than the order holds
    for conditions in _COUNT_CONDITIONS.values():
        for needed_order, needs in conditions:
            assert all(j <= needed_order for _, j in needs), needs
            for (t, j), (u, k) in zip(needs, needs[1:]):
                assert t > u and j < k, needs


@pytest.mark.parametrize("c", range(7))
def test_class_boxes_match_a_per_entry_reading(c):
    for n in range(min_order(c), 301):
        klass = CyclomaticClass(c=c, n=n)
        boxes = [(box.lower, box.upper) for box in boxes_of(klass)]
        assert boxes == per_entry_class_bounds(klass), (c, n)
