"""The one-walk oracle of every ``--verify`` against the separate passes it replaced."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from ccyclic import degree_sequences
from ccyclic.bounds import bounds, oracle_outcome
from ccyclic.cli import VERIFY_INDICES
from ccyclic.degree_sequences import (
    CyclomaticClass,
    EnumerationCapError,
    ExtremalFamily,
    class_candidates,
    enumerate_sequences,
    extremal_family,
    min_order,
    parametric_extremal_family,
    walk_class,
)
from ccyclic.indices import IndexSpec
from ccyclic.majorization import runs_of

from oracles import (
    reference_equivalence_check,
    reference_extremality_report,
    reference_verify_bounds,
    upside_down,
    with_a_maximal_as_minimal,
)


def assert_same_outcome(report, extremes, population):
    new, old = oracle_outcome(report, extremes), reference_verify_bounds(report, population)
    assert new == old, report
    for field in ("minimum", "maximum"):
        assert type(getattr(new, field)) is type(getattr(old, field)), field


def assert_same_outcomes(walk, reports, population):
    for report, extremes in zip(reports, walk.extremes, strict=True):
        assert_same_outcome(report, extremes, population)


def damaged(family):
    """Damaged families, each reaching the walk's fallback to prefix sums."""
    yield upside_down(family)
    yield with_a_maximal_as_minimal(family)
    yield replace(family, maximal_runs=family.maximal_runs[:-1])  # the last maximal dropped
    yield replace(family, maximal_runs=family.maximal_runs + family.maximal_runs[-1:])  # comparable


class TestWalkMatchesSeparatePasses:
    @pytest.mark.parametrize("c", range(7))
    def test_every_class_to_16(self, c):
        for n in range(min_order(c), 17):
            klass = CyclomaticClass(c=c, n=n)
            family = extremal_family(klass)
            walk = walk_class(klass, n, family, VERIFY_INDICES)
            count, failures, population = reference_equivalence_check(klass, n)
            assert (walk.candidates, walk.failures, walk.members) == (
                count, tuple(failures), len(population)
            ), (c, n)
            assert walk.extremality == reference_extremality_report(family, population), (c, n)
            assert walk.extremality.complete
            reports = [bounds(klass, index, family) for index in VERIFY_INDICES]
            assert_same_outcomes(walk, reports, population)

    @pytest.mark.parametrize("c", range(7))
    def test_damaged_families(self, c):
        for n in range(min_order(c), 12):
            klass = CyclomaticClass(c=c, n=n)
            _, _, population = reference_equivalence_check(klass, n)
            for family in damaged(extremal_family(klass)):
                report = walk_class(klass, n, family).extremality
                assert report == reference_extremality_report(family, population), (c, n, family)
                assert not report.complete or len(population) == 1  # one member: no damage

    @pytest.mark.parametrize("c", [7, 8])
    def test_damaged_families_past_the_tables(self, c):
        # From the least order with a minimal pattern, which upside_down needs.
        for n in range(2 * c - 2, 17):
            klass = CyclomaticClass(c=c, n=n)
            population = enumerate_sequences(klass, n)
            for family in damaged(parametric_extremal_family(c, n)):
                report = walk_class(klass, n, family).extremality
                assert report == reference_extremality_report(family, population), (c, n, family)

    def test_families_off_the_class(self):
        # Off the total, and out of order: no regular maximal covers a member,
        # and the minimal's order makes its run ends matter.
        klass = CyclomaticClass(c=3, n=8)
        _, _, population = reference_equivalence_check(klass, 8)
        top, least = runs_of((7, 4, 2, 2, 2, 1, 1, 1)), runs_of((3, 3, 3, 3, 2, 2, 1, 1))
        families = [
            ExtremalFamily(klass, (runs_of((7, 4, 3, 2, 2, 1, 1, 1)),), runs_of((3,) * 6 + (2, 2))),
            ExtremalFamily(klass, (top,), ((2, 2), (3, 4), (2, 2))),
            ExtremalFamily(klass, (((1, 1), (7, 1), (4, 1), (2, 3), (1, 2)), top), least),
            ExtremalFamily(klass, (), None),
        ]
        for family in families:
            report = walk_class(klass, 8, family).extremality
            assert report == reference_extremality_report(family, population), family

    @pytest.mark.parametrize("c", range(7))
    def test_damaged_reports(self, c):
        for n in range(min_order(c), 12):
            klass = CyclomaticClass(c=c, n=n)
            family = extremal_family(klass)
            walk = walk_class(klass, n, family, VERIFY_INDICES)
            _, _, population = reference_equivalence_check(klass, n)
            for index, extremes in zip(VERIFY_INDICES, walk.extremes):
                report = bounds(klass, index, family)
                outcome = oracle_outcome(report, extremes)
                intruder = next((s for s in population if s not in outcome.minimizers), None)
                tampered = [
                    replace(report, lower=report.lower + 1),
                    replace(report, upper=report.upper - 1),
                ]
                if intruder is not None:
                    tampered.append(replace(report, lower_attainer=intruder))
                    tampered.append(replace(report, upper_attainer=intruder))
                for bad in tampered:
                    assert_same_outcome(bad, extremes, population)

    @pytest.mark.parametrize("alpha", [-2, 4, -5])
    def test_other_exact_indices(self, alpha):
        # Wider packed fields than the oracle's indices need: lcm(1..n-1) ** 5 at alpha = -5.
        index = IndexSpec.general_zagreb(alpha)
        for c in range(7):
            for n in range(min_order(c), 13):
                klass = CyclomaticClass(c=c, n=n)
                walk = walk_class(klass, n, extremal_family(klass), (index,) + VERIFY_INDICES)
                _, _, population = reference_equivalence_check(klass, n)
                reports = [bounds(klass, i) for i in (index,) + VERIFY_INDICES]
                assert_same_outcomes(walk, reports, population)

    def test_fractional_exponents_are_ranked(self):
        # Float keys beside packed and product keys, in one walk with a family.
        indices = (IndexSpec.general_zagreb(F(1, 2)), IndexSpec.general_zagreb(F(-3, 2)))
        indices += VERIFY_INDICES
        for c in range(7):
            for n in range(min_order(c), 13):
                klass = CyclomaticClass(c=c, n=n)
                walk = walk_class(klass, n, extremal_family(klass), indices)
                _, _, population = reference_equivalence_check(klass, n)
                assert_same_outcomes(walk, [bounds(klass, i) for i in indices], population)

    def test_a_refined_bound_needs_the_spread_extremes(self):
        klass = CyclomaticClass(c=3, n=8)
        walk = walk_class(klass, 8, extremal_family(klass), VERIFY_INDICES)
        report = replace(bounds(klass, VERIFY_INDICES[0]), refined_upper=F(47, 8))
        with pytest.raises(ValueError, match="refined"):
            oracle_outcome(report, walk.extremes[0])

    def test_equivalence_failures_match(self, monkeypatch):
        # A loosened counting condition admits non-graphical candidates, and a
        # tightened inequality row rejects members: both disagree with Erdos-Gallai.
        loosened = degree_sequences._COUNT_CONDITIONS[6][:-1] + ((5, ((4, 4),)),)
        monkeypatch.setitem(degree_sequences._COUNT_CONDITIONS, 6, loosened)
        least, rows = degree_sequences._INEQUALITIES[5]
        tightened = (least, rows[:-1] + ((5, 2, 2, 15),))
        monkeypatch.setitem(degree_sequences._INEQUALITIES, 5, tightened)
        for c in (5, 6):
            for n in range(min_order(c), 13):
                klass = CyclomaticClass(c=c, n=n)
                walk = walk_class(klass, n)
                count, failures, population = reference_equivalence_check(klass, n)
                assert (walk.candidates, walk.failures, walk.members) == (
                    count, tuple(failures), len(population)
                ), (c, n)
                assert walk.extremality is None and walk.extremes == ()
        assert walk.failures

    def test_cap_refused_before_the_walk_starts(self, monkeypatch):
        def started(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(degree_sequences, "_run_choices", started)
        klass = CyclomaticClass(c=1, n=13)
        with pytest.raises(EnumerationCapError, match="order 13 exceeds enumeration cap 12"):
            walk_class(klass, 12)
        with pytest.raises(AssertionError, match="the walk started"):
            walk_class(klass, 13)

    def test_past_the_tables_no_failure_is_recorded(self):
        # No counting or inequality row exists: the walk takes no verdicts,
        # and its candidates and members are the reference's.
        for c in (7, 8, 12):
            for n in range(min_order(c), 14):
                klass = CyclomaticClass(c=c, n=n)
                walk = walk_class(klass, n)
                count = sum(1 for _ in class_candidates(klass, n))
                assert (walk.candidates, walk.failures, walk.members) == (
                    count, (), len(enumerate_sequences(klass, n))
                ), (c, n)

    @pytest.mark.parametrize("c", range(13))
    def test_pattern_reports_to_14(self, c):
        for n in range(min_order(c), 15):
            klass = CyclomaticClass(c=c, n=n)
            family = parametric_extremal_family(c, n)
            population = enumerate_sequences(klass, n)
            report = walk_class(klass, n, family).extremality
            assert report == reference_extremality_report(family, population), (c, n)
