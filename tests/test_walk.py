"""The one-walk oracle of every ``--verify`` against the separate passes it replaced."""

import gc
import random
import sys
from dataclasses import replace
from fractions import Fraction as F
from itertools import accumulate, product
from math import prod
from operator import ge
from types import CodeType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    is_ccyclic_sequence_via_inequalities,
    is_graphical,
    min_order,
    parametric_extremal_family,
    walk_class,
)
from ccyclic.indices import Extremes, IndexSpec, key_table
from ccyclic.majorization import Relation, expand_runs, relation_of_runs, runs_of

from oracles import (
    extremes_record,
    reference_equivalence_check,
    reference_extremality_report,
    reference_extremes,
    reference_verify_bounds,
    transfer_down,
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


def walk_record(walk):
    """A :class:`ClassWalk` with each of its extremes as its record, so two walks compare."""
    return (
        walk.candidates, walk.failures, walk.members, walk.extremality,
        list(map(extremes_record, walk.extremes + walk.spread)),
    )


def damaged(family):
    """Damaged families: upside down, a maximal as the minimal, the last maximal
    dropped, and the last maximal repeated."""
    yield upside_down(family)
    yield with_a_maximal_as_minimal(family)
    yield replace(family, maximal_runs=family.maximal_runs[:-1])  # the last maximal dropped
    yield replace(family, maximal_runs=family.maximal_runs + family.maximal_runs[-1:])  # comparable


def lowered(runs, i):
    """A maximal with one unit moved from entry ``i`` to the start of its last run,
    or None where that is no move, or leaves it out of order."""
    seq = list(expand_runs(runs))
    last = len(seq) - runs[-1][1]
    seq[i] -= 1
    seq[last] += 1
    return runs_of(seq) if i < last and all(map(ge, seq, seq[1:])) else None


def is_candidate(seq, klass):
    """Whether a tuple is a candidate of the class: n nonincreasing entries in [1, n-1]
    with the class total."""
    n = klass.n
    return (
        len(seq) == n
        and sum(seq) == klass.degree_total
        and all(map(ge, seq, seq[1:]))
        and 1 <= seq[-1] <= seq[0] <= n - 1
    )


def random_family(rng, klass, population):
    """A family of 0-4 maximals and a minimal (one time in four, the balanced candidate).

    Each vector is a candidate of the class, drawn from a random member: the
    member itself, the member balanced by :func:`transfer_down`, or the member
    after a few unit moves, left where they fall or sorted.  About one in six
    draws is then moved one unit off the class total.  A draw that is no
    candidate is asserted refused as a family vector, and drawn again.  Some
    families repeat a maximal.
    """
    n = klass.n

    def vector():
        seq = list(expand_runs(rng.choice(population)))
        kind = rng.randrange(4)
        if kind == 1:
            seq = list(transfer_down(rng, seq))
        elif kind > 1:
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                if seq[i] > 1:
                    seq[i] -= 1
                    seq[j] += 1
            if kind == 3:
                seq.sort(reverse=True)
        if rng.randrange(6) == 0:
            i = rng.randrange(n)
            seq[i] += 1 if seq[i] == 1 or rng.randrange(2) else -1
        if is_candidate(seq, klass):
            return runs_of(seq)
        with pytest.raises(ValueError):
            ExtremalFamily(klass, (runs_of(seq),), population[0])
        return vector()

    maximals = [vector() for _ in range(rng.randint(0, 4))]
    if 0 < len(maximals) < 4 and rng.randrange(4) == 0:
        maximals.append(rng.choice(maximals))
    balanced = parametric_extremal_family(klass.c, n).minimal_runs
    minimal = balanced if rng.randrange(4) == 0 else vector()
    return ExtremalFamily(klass, tuple(maximals), minimal)


def off_order(runs, step):
    """A vector on the same total, one entry longer (``step`` 1: a trailing 0) or
    shorter (``step`` -1: the last entry added to the first)."""
    seq = list(expand_runs(runs))
    if step > 0:
        seq.append(0)
    else:
        seq[0] += seq.pop()
    return runs_of(seq)


def off_total(runs, step):
    """A vector in order one unit above the total (``step`` 1: the first entry of the
    last run raised) or below it (``step`` -1: the last entry of the first run lowered)."""
    seq = list(expand_runs(runs))
    seq[len(seq) - runs[-1][1] if step > 0 else runs[0][1] - 1] += step
    return runs_of(seq)


def overfull(runs):
    """A vector in order on the same total whose first entry is n, one more than a
    degree can be: the units come from its last entries above 1."""
    seq = list(expand_runs(runs))
    total = sum(seq)
    seq[0] = len(seq)
    while sum(seq) > total:
        seq[max(i for i, d in enumerate(seq) if d > 1)] -= 1
    return runs_of(seq)


def emptied(runs):
    """A vector with its last entry moved onto its first: it ends in a 0, a fall."""
    seq = list(expand_runs(runs))
    seq[0] += seq[-1]
    seq[-1] = 0
    return runs_of(seq)


def tipped(runs):
    """A vector with one unit moved from its last entry but one to its last: a rise."""
    seq = list(expand_runs(runs))
    seq[-2] -= 1
    seq[-1] += 1
    return runs_of(seq)


def swapped(runs):
    """A maximal with its first two entries swapped: on the class total, but out of order."""
    seq = list(expand_runs(runs))
    seq[0], seq[1] = seq[1], seq[0]
    return runs_of(seq)


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
        # Off the total, and out of order: refused as family vectors.  The
        # empty family is judged as the reference judges it.
        klass = CyclomaticClass(c=3, n=8)
        _, _, population = reference_equivalence_check(klass, 8)
        top, least = runs_of((7, 4, 2, 2, 2, 1, 1, 1)), runs_of((3, 3, 3, 3, 2, 2, 1, 1))
        refused = [
            ((runs_of((7, 4, 3, 2, 2, 1, 1, 1)),), runs_of((3,) * 6 + (2, 2)), "off the total"),
            ((top,), ((2, 2), (3, 4), (2, 2)), "decreasing runs"),
            ((((1, 1), (7, 1), (4, 1), (2, 3), (1, 2)), top), least, "decreasing runs"),
        ]
        for maximal_runs, minimal_runs, message in refused:
            with pytest.raises(ValueError, match=message):
                ExtremalFamily(klass, maximal_runs, minimal_runs)
        family = ExtremalFamily(klass, (), runs_of((3,) * 4 + (2,) * 4))
        report = walk_class(klass, 8, family).extremality
        assert report == reference_extremality_report(family, population)

    def test_families_of_another_order(self):
        # A vector of order n + 1 or n - 1 is refused, as a maximal or as the minimal.
        for c in range(7):
            for n in range(min_order(c), 11):
                family = extremal_family(CyclomaticClass(c=c, n=n))
                first, *others = family.maximal_runs
                longer, shorter = off_order(first, 1), off_order(first, -1)
                for changes in (
                    {"maximal_runs": (longer, *others)},
                    {"maximal_runs": (shorter, *others)},
                    {"maximal_runs": (longer, shorter)},
                    {"minimal_runs": off_order(family.minimal_runs, 1)},
                    {"minimal_runs": off_order(family.minimal_runs, -1)},
                ):
                    with pytest.raises(ValueError):
                        replace(family, **changes)

    def test_families_with_kinks_in_the_ones(self):
        # Vectors of order n on the class total with a kink past a member's
        # last run end, a fall to 0 or a rise at n - 1, are refused.
        for c in range(7):
            for n in range(max(min_order(c), 3), 13):
                family = extremal_family(CyclomaticClass(c=c, n=n))
                first, *others = family.maximal_runs
                for changes in (
                    {"maximal_runs": (tipped(first), *others)},
                    {"maximal_runs": (emptied(first), *others)},
                    {"minimal_runs": tipped(family.minimal_runs)},
                    {"minimal_runs": emptied(family.minimal_runs)},
                ):
                    with pytest.raises(ValueError):
                        replace(family, **changes)

    @pytest.mark.parametrize("which", ["maximal", "minimal"])
    def test_a_family_holds_class_candidates_only(self, which):
        # Each damage leaves a vector that is no candidate of the class, for one
        # reason.  From one above the least order, where no vector is all n - 1.
        damages = [
            (lambda runs: off_order(runs, 1), "expected"),
            (lambda runs: off_order(runs, -1), r"expected|\[1, n-1\]"),
            (lambda runs: off_total(runs, 1), "off the total"),
            (lambda runs: off_total(runs, -1), "off the total"),
            (swapped, "decreasing runs"),
            (tipped, "decreasing runs"),
            (emptied, r"\[1, n-1\]"),
            (overfull, r"\[1, n-1\]"),
        ]
        tried = set()
        for c in range(1, 7):
            for n in range(min_order(c) + 1, 13):
                family = extremal_family(CyclomaticClass(c=c, n=n))
                first, *others = family.maximal_runs
                vector = first if which == "maximal" else family.minimal_runs
                for i, (damage, message) in enumerate(damages):
                    damaged_vector = damage(vector)
                    if damaged_vector == vector:  # swapped on two equal entries
                        continue
                    tried.add(i)
                    changes = (
                        {"maximal_runs": (damaged_vector, *others)}
                        if which == "maximal"
                        else {"minimal_runs": damaged_vector}
                    )
                    with pytest.raises(ValueError, match=message):
                        replace(family, **changes)
        assert len(tried) == len(damages)

    def test_a_family_of_another_class_is_refused(self, monkeypatch):
        def started(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(degree_sequences, "_run_choices", started)
        klass = CyclomaticClass(c=3, n=9)
        for other in (CyclomaticClass(c=3, n=8), CyclomaticClass(c=4, n=9)):
            with pytest.raises(ValueError, match="cannot be checked over"):
                walk_class(klass, 9, extremal_family(other))
        with pytest.raises(AssertionError, match="the walk started"):
            walk_class(klass, 9, extremal_family(klass))

    def test_random_families(self):
        # Members, balanced members and moved members (sorted or not), a few
        # off the total, repeated maximals, members as maximals and the
        # balanced minimal; a draw that is no candidate is refused and drawn
        # again.  Each family is judged as the reference judges it.
        rng = random.Random(22)
        for c in range(9):
            for n in range(min_order(c), 11):
                klass = CyclomaticClass(c=c, n=n)
                population = enumerate_sequences(klass, n)
                for _ in range(15):
                    family = random_family(rng, klass, population)
                    report = walk_class(klass, n, family).extremality
                    assert report == reference_extremality_report(family, population), family

    @pytest.mark.parametrize("c", range(3, 9))
    def test_lowered_and_swapped_patterns(self, c):
        # Patterns lowered at their first entry (to n - 2) or their second
        # (keeping n - 1) stay in order, and each is strictly majorized by
        # the pattern it came from, so each has a witness.  Some members lie
        # below none of them with a first entry below all of theirs.  A
        # swapped pattern beside them, out of order on the class total where
        # its first two entries differ, is refused.
        unplaced = 0  # uncovered members with a first entry below every maximal's
        for n in range(min_order(c), 15):
            klass = CyclomaticClass(c=c, n=n)
            patterns = parametric_extremal_family(c, n)
            population = enumerate_sequences(klass, n)
            for i in (0, 1):
                tops = tuple(filter(None, (lowered(runs, i) for runs in patterns.maximal_runs)))
                if not tops:
                    continue
                family = ExtremalFamily(klass, tops, patterns.minimal_runs)
                report = walk_class(klass, n, family).extremality
                assert report == reference_extremality_report(family, population), (c, n, i)
                assert len(report.dominated_patterns) == len(tops), (c, n, i)
                first = min(runs[0][0] for runs in tops)
                unplaced += sum(runs[0][0] < first for runs in report.not_below_any_maximal)
                top = patterns.maximal_runs[0]
                if swapped(top) != top:
                    with pytest.raises(ValueError, match="decreasing runs"):
                        replace(family, maximal_runs=tops + (swapped(top),))
        assert unplaced

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
        in_ones = set()  # short and long orders with a failure whose head ends in its ones
        for c in (5, 6):
            for n in range(min_order(c), 13):
                klass = CyclomaticClass(c=c, n=n)
                walk = walk_class(klass, n)
                count, failures, population = reference_equivalence_check(klass, n)
                assert (walk.candidates, walk.failures, walk.members) == (
                    count, tuple(failures), len(population)
                ), (c, n)
                assert walk.extremality is None and walk.extremes == ()
                for (*_, (last, ones)), *_ in walk.failures:
                    if last == 1 and n - ones < min(n, degree_sequences._HEAD_SIZE):
                        in_ones.add(n < degree_sequences._HEAD_SIZE)
        assert walk.failures
        assert in_ones == {True, False}

    def test_tables_are_compiled_per_walk(self, monkeypatch):
        # A table changed between two walks in one process takes effect at the
        # second: no walk reads rows compiled at import or by an earlier walk.
        klass = CyclomaticClass(c=6, n=10)
        assert walk_class(klass, 10).failures == ()
        loosened = degree_sequences._COUNT_CONDITIONS[6][:-1] + ((5, ((4, 4),)),)
        monkeypatch.setitem(degree_sequences._COUNT_CONDITIONS, 6, loosened)
        assert walk_class(klass, 10).failures

    def test_every_leaf_is_validated(self, monkeypatch):
        # A run of length 0 among the root's choices would reach every leaf
        # below it: _checked_choices refuses the root's list when it is made,
        # before any leaf.
        run_choices = degree_sequences._run_choices

        def with_an_empty_run(slots, remaining, bound):
            runs = run_choices(slots, remaining, bound)
            if bound == 7:  # only the root allows n - 1
                runs.insert(0, (bound, 0))
            return runs

        monkeypatch.setattr(degree_sequences, "_run_choices", with_an_empty_run)
        with pytest.raises(ValueError, match="every run needs a positive length"):
            walk_class(CyclomaticClass(c=3, n=8), 8)

    @pytest.mark.parametrize("pair, message", [
        (lambda slots, bound: (bound + 1, 1), "degrees not in decreasing runs"),
        (lambda slots, bound: (0, 1), r"degrees must lie in \[1, n-1\]"),
        (lambda slots, bound: (1, slots + 1), "a run of 8 is longer than the 7 entries left"),
        (lambda slots, bound: (2, 1), r"no 6 entries in \[1, 1\] sum to 11"),
    ], ids=["repeated degree", "degree 0", "longer than its slots", "incompletable rest"])
    def test_every_run_choice_is_checked(self, monkeypatch, pair, message):
        # A bad run among the choices of the node below the root's (7, 1), at
        # (c, n) = (3, 8), is refused by the walk and by the generator alike.
        run_choices = degree_sequences._run_choices

        def with_a_bad_run(slots, remaining, bound):
            runs = run_choices(slots, remaining, bound)
            if (slots, remaining, bound) == (7, 13, 6) and pair(slots, bound) not in runs:
                runs.insert(0, pair(slots, bound))
            return runs

        monkeypatch.setattr(degree_sequences, "_run_choices", with_a_bad_run)
        with pytest.raises(ValueError, match=message):
            walk_class(CyclomaticClass(c=3, n=8), 8)
        with pytest.raises(ValueError, match=message):
            list(degree_sequences.candidate_sequences(8, 20))

    @pytest.mark.parametrize("c, n", [(0, 10), (3, 11), (6, 12), (7, 12), (15, 14)])
    def test_no_leaf_calls_validate_runs(self, monkeypatch, c, n):
        # The checked run choices make every leaf valid: with validate_runs made
        # to raise, the walk finds what it finds with it, the reference's counts.
        klass = CyclomaticClass(c=c, n=n)
        family = extremal_family(klass) if c <= 6 else parametric_extremal_family(c, n)
        count, members = sum(1 for _ in class_candidates(klass, n)), enumerate_sequences(klass, n)
        expected = walk_record(walk_class(klass, n, family, VERIFY_INDICES, spread=True))

        def called(runs, n):
            raise AssertionError("the walk called validate_runs")

        monkeypatch.setattr(degree_sequences, "validate_runs", called)
        walk = walk_class(klass, n, family, VERIFY_INDICES, spread=True)
        assert walk_record(walk) == expected
        assert (walk.candidates, walk.members) == (count, len(members))
        with pytest.raises(AssertionError, match="called validate_runs"):
            degree_sequences.is_ccyclic_sequence(members[0], klass)

    @pytest.mark.parametrize("c, n", [(6, 18), (10, 16), (15, 18)])
    def test_each_choice_list_is_checked_once(self, monkeypatch, c, n):
        # The cache misses, each a call of _run_choices and its check, once
        # per distinct (slots, remaining, bound) of a node the walk calls
        # below for, and the generator's likewise from a cold cache: far
        # fewer than the candidates.
        keys = counted_run_choices(monkeypatch)
        klass = CyclomaticClass(c=c, n=n)
        below_calls(n, klass.degree_total, n - 1)  # every node's rest, uncached
        rests = set(keys)
        keys.clear()
        walk = walk_class(klass, n)
        assert len(keys) == len(set(keys)) == len(rests) and set(keys) == rests
        assert 5 * len(keys) < walk.candidates
        keys.clear()
        degree_sequences._checked_choices.cache_clear()
        assert sum(1 for _ in class_candidates(klass, n)) == walk.candidates
        assert len(keys) == len(set(keys)) and 5 * len(keys) < walk.candidates

    @pytest.mark.parametrize("c, n", [(6, 14), (10, 14)])
    def test_a_second_walk_makes_no_choice_list(self, monkeypatch, c, n):
        # The cache is the process's: a second walk of the class finds every
        # list made, and finds what the first found.
        keys = counted_run_choices(monkeypatch)
        klass = CyclomaticClass(c=c, n=n)
        family = extremal_family(klass) if c <= 6 else parametric_extremal_family(c, n)
        first = walk_record(walk_class(klass, n, family, VERIFY_INDICES, spread=True))
        assert keys
        keys.clear()
        assert walk_record(walk_class(klass, n, family, VERIFY_INDICES, spread=True)) == first
        assert keys == []

    def test_a_refused_list_is_never_cached(self, monkeypatch):
        # A repeated degree among the choices of the node below the root's
        # (7, 1), at (c, n) = (3, 8), is refused at every walk; once the bad
        # choices are gone, the walk finds what it finds without them, so no
        # refused list was kept.
        klass = CyclomaticClass(c=3, n=8)
        family = extremal_family(klass)
        expected = walk_record(walk_class(klass, 8, family, VERIFY_INDICES))
        degree_sequences._checked_choices.cache_clear()
        run_choices = degree_sequences._run_choices

        def with_a_bad_run(slots, remaining, bound):
            runs = run_choices(slots, remaining, bound)
            if (slots, remaining, bound) == (7, 13, 6):
                runs.insert(0, (7, 1))
            return runs

        with monkeypatch.context() as patched:
            patched.setattr(degree_sequences, "_run_choices", with_a_bad_run)
            for _ in range(3):
                with pytest.raises(ValueError, match="degrees not in decreasing runs"):
                    walk_class(klass, 8, family, VERIFY_INDICES)
        keys = counted_run_choices(monkeypatch)
        assert walk_record(walk_class(klass, 8, family, VERIFY_INDICES)) == expected
        assert (7, 13, 6) in keys

    def test_checked_choices_are_a_shared_tuple(self):
        # No caller can change a list that every later walk reads.
        runs = degree_sequences._checked_choices(7, 13, 6)
        assert type(runs) is tuple
        assert runs == tuple(degree_sequences._run_choices(7, 13, 6))
        assert degree_sequences._checked_choices(7, 13, 6) is runs

    @pytest.mark.parametrize("c, n", [(0, 10), (1, 10), (3, 11), (6, 12), (7, 12), (15, 14)])
    def test_no_erdos_gallai_call(self, monkeypatch, c, n):
        # The packed slack decides every leaf: the core, made to raise, is never reached.
        klass = CyclomaticClass(c=c, n=n)
        if c <= 6:
            count, failures, population = reference_equivalence_check(klass, n)
        else:
            count, failures = sum(1 for _ in class_candidates(klass, n)), []
            population = enumerate_sequences(klass, n)

        def called(runs, n):
            raise AssertionError("the walk called _erdos_gallai")

        monkeypatch.setattr(degree_sequences, "_erdos_gallai", called)
        walk = walk_class(klass, n)
        assert (walk.candidates, walk.failures, walk.members) == (
            count, tuple(failures), len(population)
        )
        with pytest.raises(AssertionError, match="called _erdos_gallai"):
            is_graphical(population[0])

    def test_no_call_of_the_table_readers(self, monkeypatch):
        # The walk reads both tables off its packed int and builds no head: with
        # their readers made to raise, its candidates, failures and members are
        # the reference's, with the tables as they are and damaged as above.
        below = next(
            code for code in walk_class.__code__.co_consts
            if isinstance(code, CodeType) and code.co_name == "below"
        )
        assert below.co_varnames[:below.co_argcount] == (
            "slots", "remaining", "bound", "state", "product"
        )

        def called(*args):
            raise AssertionError("the walk called a table reader")

        loosened = degree_sequences._COUNT_CONDITIONS[6][:-1] + ((5, ((4, 4),)),)
        least, rows = degree_sequences._INEQUALITIES[5]
        seen = set()  # whether some class had a failure, for each state of the tables
        for damage in (False, True):
            with monkeypatch.context() as tables:
                if damage:
                    tables.setitem(degree_sequences._COUNT_CONDITIONS, 6, loosened)
                    tightened = (least, rows[:-1] + ((5, 2, 2, 15),))
                    tables.setitem(degree_sequences._INEQUALITIES, 5, tightened)
                for c in range(7):
                    for n in range(min_order(c), 12):
                        klass = CyclomaticClass(c=c, n=n)
                        count, failures, population = reference_equivalence_check(klass, n)
                        with monkeypatch.context() as readers:
                            readers.setattr(degree_sequences, "_conditions_hold", called)
                            readers.setattr(degree_sequences, "_rows_hold", called)
                            walk = walk_class(klass, n, None, VERIFY_INDICES)
                            with pytest.raises(AssertionError, match="called a table reader"):
                                is_ccyclic_sequence_via_inequalities(population[0], klass)
                        assert (walk.candidates, walk.failures, walk.members) == (
                            count, tuple(failures), len(population)
                        ), (damage, c, n)
                        seen.add((damage, bool(failures)))
        assert seen == {(False, False), (True, False), (True, True)}

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
    def test_every_record_to_14(self, monkeypatch, c):
        # Candidates, failures, members, the report, and each extreme's low,
        # high and holders, on every path a key takes: with the family (the
        # patterns past c = 6), exact, product and float keys, and the spread
        # extremes; the product key alone; a negative exponent alone; a float
        # key beside one packed key; no family; and extremes left unseeded,
        # whose packed bounds come from the running extremes.
        half = IndexSpec.general_zagreb(F(1, 2))
        cases = [  # (indices, with the family, spread, seeded)
            (VERIFY_INDICES + (half,), True, True, True),
            ((IndexSpec.mult_zagreb_log(),), True, True, True),
            ((IndexSpec.general_zagreb(-2),), True, True, True),
            ((half, IndexSpec.general_zagreb(2)), True, True, True),
            (VERIFY_INDICES, False, True, True),
            (VERIFY_INDICES + (half,), True, True, False),
        ]
        for n in range(min_order(c), 15):
            klass = CyclomaticClass(c=c, n=n)
            if c <= 6:
                family = extremal_family(klass)
                count, failures, population = reference_equivalence_check(klass, n)
            else:
                family = parametric_extremal_family(c, n)
                count, failures = sum(1 for _ in class_candidates(klass, n)), []
                population = enumerate_sequences(klass, n)
            for indices, with_family, spread, seeded in cases:
                with monkeypatch.context() as patched:
                    if not seeded:
                        patched.setattr(Extremes, "seed", lambda extremes, key: None)
                    given = family if with_family else None
                    walk = walk_class(klass, n, given, indices, spread=spread)
                where = (c, n, indices, with_family, seeded)
                assert (walk.candidates, walk.failures, walk.members) == (
                    count, tuple(failures), len(population)
                ), where
                report = reference_extremality_report(family, population) if with_family else None
                assert walk.extremality == report, where
                records = list(map(extremes_record, walk.extremes + walk.spread))
                assert records == reference_extremes(klass, indices, population, spread), where

    @pytest.mark.parametrize("c", range(13))
    def test_pattern_reports_to_14(self, c):
        for n in range(min_order(c), 15):
            klass = CyclomaticClass(c=c, n=n)
            family = parametric_extremal_family(c, n)
            population = enumerate_sequences(klass, n)
            report = walk_class(klass, n, family).extremality
            assert report == reference_extremality_report(family, population), (c, n)


def counted_run_choices(monkeypatch) -> list:
    """Patch ``_run_choices`` to note each rest it is called for, the cache's misses."""
    run_choices, keys = degree_sequences._run_choices, []

    def counted(*key):
        keys.append(key)
        return run_choices(*key)

    monkeypatch.setattr(degree_sequences, "_run_choices", counted)
    return keys


def below_calls(slots, remaining, bound):
    """``(calls, forced)`` under a node of the candidate tree: one call for it and
    for each node below whose rest is not all ones, and how many rests are."""
    calls, forced = 1, 0
    for value, count in degree_sequences._run_choices(slots, remaining, bound):
        rest, left = slots - count, remaining - count * value
        if rest and rest == left:
            forced += 1
        elif rest:
            more = below_calls(rest, left, value - 1)
            calls, forced = calls + more[0], forced + more[1]
    return calls, forced


class TestForcedOnes:
    """A rest of all ones is pushed in its parent's loop, not in a call of its own."""

    @pytest.mark.parametrize("c, n", [(7, 12), (6, 14), (0, 10)])
    def test_one_call_per_node_whose_rest_is_not_all_ones(self, c, n):
        calls = []
        below = next(
            code for code in walk_class.__code__.co_consts
            if isinstance(code, CodeType) and code.co_name == "below"
        )

        def counted(frame, event, arg):  # each frame of the walk's recursion, as it starts
            if event == "call" and frame.f_code is below:
                calls.append((frame.f_locals["slots"], frame.f_locals["remaining"]))

        klass = CyclomaticClass(c=c, n=n)
        sys.setprofile(counted)
        try:
            walk = walk_class(klass, n)
        finally:
            sys.setprofile(None)
        expected, forced = below_calls(n, klass.degree_total, n - 1)
        assert forced > 0 and len(calls) == expected
        assert not any(slots == remaining for slots, remaining in calls)
        assert walk.candidates == sum(1 for _ in class_candidates(klass, n))

    def test_a_finished_walk_leaves_no_cycle(self):
        # The recursion is a closure that reads itself; the walk drops it when
        # done, so nothing the walk built waits for the garbage collector.
        klass = CyclomaticClass(c=6, n=12)
        family = extremal_family(klass)
        gc.collect()
        gc.disable()
        try:
            walk = walk_class(klass, 12, family, VERIFY_INDICES, spread=True)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert walk.members and walk.extremality.complete

    def test_ones_pairs_are_shared(self):
        # Each kept member's final run of ones is one object per length, not a
        # new tuple.  With no maximal, the report keeps every member's runs.
        klass = CyclomaticClass(c=6, n=12)
        family = ExtremalFamily(klass, (), extremal_family(klass).minimal_runs)
        kept = walk_class(klass, 12, family).extremality.not_below_any_maximal
        assert len(kept) == len(enumerate_sequences(klass, 12))
        held = [runs[-1] for runs in kept]
        ones = {pair: id(pair) for pair in held if pair[0] == 1}
        assert ones and all(id(pair) == ones[pair] for pair in held if pair[0] == 1)


def slack_holds(slack, guards, needs):
    """The leaf's one test of a candidate's packed Erdos-Gallai slack: every R_k >= L_k."""
    return (slack | guards) - needs & guards == guards


def pushed_state(runs, table):
    """A candidate's packed keys and slack, summed from the table differences its runs push."""
    state = a = 0
    for value, count in runs:
        state += table[a + count][value] - table[a][value]
        a += count
    return state


def member_fields(tables, width, top):
    """Each ranked key's ``(shift, mask, i)`` in the members' set, ``i`` its index's place
    in ``tables``, laid out by the walk's own ``_ranks``: a mask of -1 is the degree
    product, which the leaf puts at ``top``."""
    return degree_sequences._ranks(tables, range(len(tables)), width, top)[0]


def walk_layout(klass, indices=VERIFY_INDICES, family=None):
    """``(table, guards, needs, keys, fence, floor, marks, tabled)``: the push table that
    the walk of the class compiles for ``indices`` and ``family``, the guards of its
    verdicts and its slack's needs, each exact sum key's ``(shift, mask, terms)``, the
    guards, least sums and marks of the family's threshold sums, and the needs of the
    tables' rows (None past the tables)."""
    tables, width, top, table, guards, needs, tabled, fence, floor, marks = (
        degree_sequences._walk_layout(klass, indices, family)
    )
    keys = [  # the degree product is put above the slack at the leaf, not pushed
        (shift, mask, tables[i][0]) for shift, mask, i in member_fields(tables, width, top)
        if mask >= 0
    ]
    return table, guards, needs, keys, fence, floor, marks, tabled


def class_family(klass):
    """The box family of the class for c <= 6, the closed-form patterns beyond."""
    if klass.c <= 6:
        return extremal_family(klass)
    return parametric_extremal_family(klass.c, klass.n)


#: what the threshold tests say, (below the vector, above it), for each relation
THRESHOLD_VERDICTS = {
    Relation.EQUAL: (True, True),
    Relation.LESS_OR_EQUAL: (True, False),
    Relation.GREATER_OR_EQUAL: (False, True),
    Relation.INCOMPARABLE: (False, False),
}


def threshold_verdicts(state, fence, mark):
    """The leaf's two tests of a state against a vector's packed threshold sums:
    whether it lies below the vector, and whether above."""
    sums, lifted = mark
    return lifted - state & fence == fence, (state | fence) - sums & fence == fence


def table_verdicts(state, guards, tabled):
    """The leaf's tests of a state against the two tables' packed rows: (counting,
    inequalities), the first holding when one of its rows does."""
    row_needs, counts = tabled
    held = state | guards
    return (
        any(held - need & guards == guards for need in counts),
        held - row_needs & guards == guards,
    )


def check_slack_agreement(c_max, n_max):
    """``(classes, candidates, comparisons, tabled)``: on every candidate of each class
    with c <= ``c_max`` and n <= ``n_max``, the state summed from the push table a walk
    builds for ``VERIFY_INDICES`` and the class's family (:func:`class_family`) holds
    each exact key in its field, as the sum of its terms, a slack above them that decides
    what :func:`is_graphical` decides, and threshold sums whose two tests against each
    family vector say what ``relation_of_runs`` says; above a maximal, it is above their
    least sums.  On the ``tabled`` candidates, those with c <= 6, its counting and
    inequality verdicts are those of ``_conditions_hold`` and ``_rows_hold`` on its head.
    Every candidate passes ``validate_runs``, the reference for the checked run choices
    that make each leaf of a walk valid with no check of its own."""
    classes = candidates = comparisons = checked = 0
    for c in range(c_max + 1):
        for n in range(min_order(c), n_max + 1):
            klass = CyclomaticClass(c=c, n=n)
            family = class_family(klass)
            vectors = (*family.maximal_runs, family.minimal_runs)
            table, guards, needs, keys, fence, floor, marks, tabled = walk_layout(
                klass, family=family
            )
            assert (tabled is None) is (c > 6), (c, n)
            conditions, rows = degree_sequences._class_tables(klass) if tabled else ((), ())
            classes += 1
            for runs in class_candidates(klass, n):
                candidates += 1
                degree_sequences.validate_runs(runs, n)
                state = pushed_state(runs, table)
                assert slack_holds(state, guards, needs) == is_graphical(runs), (c, n, runs)
                if tabled:
                    checked += 1
                    head = degree_sequences._head(runs)
                    assert table_verdicts(state, guards, tabled) == (
                        degree_sequences._conditions_hold(head, conditions),
                        degree_sequences._rows_hold(head, rows),
                    ), (c, n, runs)
                for shift, mask, terms in keys:
                    assert state >> shift & mask == sum([m * terms[d] for d, m in runs]), (
                        c, n, runs, shift
                    )
                for vector, mark in zip(vectors, marks, strict=True):
                    comparisons += 1
                    verdicts = threshold_verdicts(state, fence, mark)
                    assert verdicts == THRESHOLD_VERDICTS[relation_of_runs(runs, vector)], (
                        c, n, runs, vector
                    )
                    if verdicts[1] and vector is not vectors[-1]:
                        assert threshold_verdicts(state, fence, (floor, 0))[1], (c, n, runs)
    return classes, candidates, comparisons, checked


def row_fields(klass, family=None):
    """Each compiled inequality row ``(k, j, limit)`` of the class with the lowest bit of
    its field in the walk's layout for ``VERIFY_INDICES`` and ``family``: fields of the
    slack's width, the last ending where the leaf puts the degree product (none past the
    tables)."""
    if klass.c > 6:
        return []
    rows = degree_sequences._class_tables(klass)[1]
    top = degree_sequences._walk_layout(klass, VERIFY_INDICES, family)[2]
    width = (2 * klass.degree_total).bit_length() + 1
    return [(*row, top - (len(rows) - i) * width) for i, row in enumerate(rows)]


class TestBalancedSeed:
    """Every ranked walk seeds its exact extremes with the balanced member's key."""

    def test_the_balanced_sequence_is_graphical(self):
        for c in range(41):
            for n in range(min_order(c), 121):
                balanced = degree_sequences._balanced_runs(n, 2 * (n + c - 1))
                assert is_graphical(balanced), (c, n)

    def test_the_walk_admits_and_seeds_it(self, monkeypatch):
        # The leaf's own guard test on the walk's table admits the balanced
        # sequence, and each exact extreme starts at its key: with no choice
        # at the root, a walk visits no candidate and returns its seeds.
        monkeypatch.setattr(degree_sequences, "_run_choices", lambda *args: [])
        for c in range(16):
            for n in range(min_order(c), 41):
                klass = CyclomaticClass(c=c, n=n)
                balanced = degree_sequences._balanced_runs(n, klass.degree_total)
                walk = walk_class(klass, n, None, VERIFY_INDICES)
                table, guards, needs, *_ = walk_layout(klass)
                assert walk.candidates == 0
                assert slack_holds(pushed_state(balanced, table), guards, needs), (c, n)
                for index, extremes in zip(VERIFY_INDICES, walk.extremes):
                    terms, multiplies = key_table(index, n - 1)
                    key = (prod if multiplies else sum)(
                        terms[d] ** m if multiplies else m * terms[d] for d, m in balanced
                    )
                    assert extremes.low == extremes.high == key, (c, n, index)


class TestPackedSlack:
    """The class's Erdos-Gallai slack, packed one field per k that can fail, decides
    membership by one guard-bit test."""

    def test_every_candidate_to_14(self):
        assert check_slack_agreement(15, 14) == (153, 205845, 484440, 11864)

    @pytest.mark.parametrize("c", range(16))
    def test_each_field_at_its_need(self, c):
        # Field j keeps its guard at R_k = L_k and at its largest value, and
        # loses it at L_k - 1, with every other field at 0 or at its largest
        # value: each other field keeps its guard as it would alone, so no
        # borrow crosses a field, and the test holds when every guard is kept.
        for n in (min_order(c), min_order(c) + 1, 20):
            klass = CyclomaticClass(c=c, n=n)
            _, guards, needs, row_needs = degree_sequences._slack_tables(klass)
            assert row_needs == 0  # no inequality row is given
            width = (2 * klass.degree_total).bit_length() + 1
            lows = [2 * c - 2 + 3 * k - k * k for k in range(2, n)]
            lows = [low for low in lows if low > 0]
            assert guards == sum(1 << j * width + width - 1 for j in range(len(lows)))
            assert needs == sum(low << j * width for j, low in enumerate(lows))
            top = (1 << width - 1) - 1  # the largest value below the guard
            assert 2 * klass.degree_total <= top
            for j, low in enumerate(lows):
                guard = 1 << j * width + width - 1
                for others in (0, top):
                    rest = sum(others << i * width for i in range(len(lows)) if i != j)
                    kept = sum(  # the other fields' guards that hold alone
                        1 << i * width + width - 1
                        for i, other in enumerate(lows) if i != j and others >= other
                    )
                    for value, holds in ((low, True), (low - 1, False), (top, True)):
                        slack = rest + (value << j * width)
                        where = (c, n, j, others, value)
                        assert (slack | guards) - needs & guards == kept + guard * holds, where
                        assert slack_holds(slack, guards, needs) is (
                            holds and kept + guard == guards
                        ), where
            assert slack_holds(0, guards, needs) is (not lows)  # a slack of 0 fails any field

    def test_the_fields_that_can_fail(self):
        # L_2 = 2c, so a tree has no field, and the last k with L_k > 0 is 4 at
        # c = 6 and 6 at c = 15: one field for each k from 2.
        for c, fields in ((0, 0), (1, 1), (6, 3), (15, 5)):
            guards = degree_sequences._slack_tables(CyclomaticClass(c=c, n=30))[1]
            assert bin(guards).count("1") == fields, c

    def test_a_final_run_of_ones_adds_nothing(self):
        # Nothing to its slack: the walk's table grows only the keys of a 1,
        # which sit below the slack's fields.
        # Nor to its threshold sums, which sit between the keys and the slack.
        # Nor to its counts, as a 1 is below every threshold t >= 2.  Past
        # the tables (c = 15) that is all; for c <= 6, a 1 at position p adds
        # [p >= k] + [p >= j] to the field of each inequality row (k, j),
        # its share of the entries past k and past j.
        for klass in (CyclomaticClass(c=15, n=22), CyclomaticClass(c=6, n=22)):
            assert all(row[1] == 0 for row in degree_sequences._slack_tables(klass)[0])
            for family in (None, class_family(klass)):
                table, guards, needs, keys, fence, _, _, tabled = walk_layout(klass, family=family)
                key_bits = sum(mask.bit_length() + 1 for _, mask, _ in keys)
                one = sum(terms[1] << shift for shift, _, terms in keys)  # the keys of a 1
                rows = row_fields(klass, family)
                assert keys and guards and (tabled is None) is (not rows) is (klass.c > 6)
                below_rows = (1 << rows[0][3]) - 1 if rows else -1  # every bit below the rows
                assert all(row[1] & below_rows == p * one for p, row in enumerate(table))
                assert all(
                    row[1] - p * one
                    == sum(max(p - k, 0) + max(p - j, 0) << bit for k, j, _, bit in rows)
                    for p, row in enumerate(table)
                )
                if not rows:
                    assert all(row[1] >> key_bits == 0 for row in table)
                    assert all(row[1] == p * table[1][1] for p, row in enumerate(table))
                assert [table[1][1] >> shift & mask for shift, mask, _ in keys] == [
                    terms[1] for _, _, terms in keys
                ]
                assert (fence > 0) is (family is not None)


class TestPackedTables:
    """The paper's two tables, packed in the walk's one int for c <= 6: a count N_t of
    the entries >= t per threshold, and a field per inequality row holding 2 total -
    (P_k + P_j), each row's verdict one guard-bit test of the same guards."""

    @pytest.mark.parametrize("c, n", [(1, 3), (3, 4), (4, 9), (5, 6), (6, 5), (6, 8), (6, 20)])
    def test_each_count_field_at_its_need(self, c, n):
        # A need (t, j) keeps t's guard at N_t = j and at N_t = n, and loses it
        # at j - 1, with every other count at 0 or n and every bit outside the
        # counts clear or set: each other guard stays as it would alone, so
        # no borrow crosses a field, and the row holds when every guard stays.
        klass = CyclomaticClass(c=c, n=n)
        _, guards, _, keys, _, _, _, (_, needs) = walk_layout(klass)
        key_bits = sum(mask.bit_length() + 1 for _, mask, _ in keys)
        size, counts = count_fields(klass, key_bits)
        conditions = degree_sequences._class_tables(klass)[0]
        assert needs == [sum(j << counts[t] for t, j in row) for row in conditions]
        assert all(j <= n < 1 << size - 1 for row in conditions for _, j in row)
        field_bits = sum((1 << size) - 1 << shift for shift in counts.values())
        noises = (0, (1 << guards.bit_length()) - 1 & ~field_bits & ~guards)
        for row, need in zip(conditions, needs):
            wants = dict(row)
            for t, j in row:
                for others in (0, n):
                    for value, holds in ((j, True), (j - 1, False), (n, True)):
                        held = {u: value if u == t else others for u in counts}
                        state = sum(held[u] << shift for u, shift in counts.items())
                        kept = guards - sum(
                            1 << shift + size - 1
                            for u, shift in counts.items() if held[u] < wants.get(u, 0)
                        )
                        for noise in noises:
                            where = (row, t, others, value, noise)
                            assert (state + noise | guards) - need & guards == kept, where
                            assert (kept == guards) is (holds and all(
                                others >= wants.get(u, 0) for u in counts if u != t
                            )), where

    @pytest.mark.parametrize("c, n", [(1, 3), (2, 7), (4, 9), (5, 5), (6, 5), (6, 11)])
    def test_each_row_field_at_its_limit(self, c, n):
        # A row's field holds 2 total - (P_k + P_j), the entries past k and
        # past j, on every candidate.  It keeps its guard at P_k + P_j = a n +
        # b and at 0, and loses it at a n + b + 1, with every other row's
        # field at 0 or 2 total and every bit below the rows clear or set.
        klass = CyclomaticClass(c=c, n=n)
        total = klass.degree_total
        table, guards, _, _, _, _, _, (needs, _) = walk_layout(klass)
        rows = row_fields(klass)
        width = (2 * total).bit_length() + 1
        assert rows and needs == sum(2 * total - limit << bit for _, _, limit, bit in rows)
        assert all(0 <= 2 * total - limit < 1 << width - 1 for _, _, limit, _ in rows)
        for runs in class_candidates(klass, n):
            prefix = [0, *accumulate(expand_runs(runs))]
            state = pushed_state(runs, table)
            for k, j, _, bit in rows:
                assert state >> bit & (1 << width) - 1 == 2 * total - prefix[k] - prefix[j], runs
        noises = (0, (1 << rows[0][3]) - 1)
        for i, (_, _, limit, bit) in enumerate(rows):
            for others in (0, 2 * total):
                rest = sum(others << b for h, (*_, b) in enumerate(rows) if h != i)
                lost = sum(
                    1 << b + width - 1 for h, (*_, cap, b) in enumerate(rows)
                    if h != i and others < 2 * total - cap
                )
                for prefixes, holds in ((limit, True), (limit + 1, False), (0, True)):
                    for noise in noises:
                        state = rest + (2 * total - prefixes << bit) + noise
                        where = (i, others, prefixes, noise)
                        assert (state | guards) - needs & guards == guards - lost - (
                            0 if holds else 1 << bit + width - 1
                        ), where

    def test_a_tree_has_no_inequality_row(self):
        # At c = 0 the inequality verdict is the constant True, as is the
        # counting one: its one live row has no need.
        for n in range(min_order(0), 13):
            klass = CyclomaticClass(c=0, n=n)
            table, guards, _, _, _, _, _, tabled = walk_layout(klass)
            assert degree_sequences._class_tables(klass) == ([()], [])
            assert tabled == (0, [0])
            states = [pushed_state(runs, table) for runs in class_candidates(klass, n)]
            for state in states + [0, (1 << guards.bit_length() + 1) - 1]:
                assert table_verdicts(state, guards, tabled) == (True, True), (n, state)
            assert walk_class(klass, n).failures == ()

    @pytest.mark.parametrize("c", range(1, 7))
    def test_below_the_tables_least_orders(self, monkeypatch, c):
        # Below the least edge count the one row 0 <= -1 is the constant
        # False, and with no counting row live so is the counting verdict:
        # every member is a failure, as the reference finds it.
        least, rows = degree_sequences._INEQUALITIES[c]
        monkeypatch.setitem(degree_sequences._INEQUALITIES, c, (least + 100, rows))
        conditions = degree_sequences._COUNT_CONDITIONS[c]
        raised = tuple((order + 100, needs) for order, needs in conditions)
        monkeypatch.setitem(degree_sequences._COUNT_CONDITIONS, c, raised)
        for n in range(min_order(c), 11):
            klass = CyclomaticClass(c=c, n=n)
            table, guards, _, _, _, _, _, tabled = walk_layout(klass)
            total = klass.degree_total
            assert degree_sequences._class_tables(klass) == ([], [(0, 0, -1)])
            ((*_, bit),) = row_fields(klass)
            assert tabled == (2 * total + 1 << bit, [])
            states = [pushed_state(runs, table) for runs in class_candidates(klass, n)]
            for state in states + [0, (2 * total + 1 << bit) - 1]:  # its field at 2 total
                assert table_verdicts(state, guards, tabled) == (False, False), (n, state)
            walk = walk_class(klass, n)
            count, failures, population = reference_equivalence_check(klass, n)
            assert (walk.candidates, walk.failures) == (count, tuple(failures))
            assert len(walk.failures) == walk.members == len(population) > 0


def count_fields(klass, key_bits):
    """``(size, {t: shift})``: the count fields of the class's tables directly above
    ``key_bits`` bits of keys, one per threshold that its live counting rows read, in
    ascending t (none past the tables), each of ``size`` bits with its guard on top."""
    conditions = degree_sequences._class_tables(klass)[0] if klass.c <= 6 else []
    size = klass.n.bit_length() + 1
    thresholds = sorted({t for row in conditions for t, _ in row})
    return size, {t: key_bits + i * size for i, t in enumerate(thresholds)}


class TestOneState:
    """The walk carries its exact keys, the tables' counts, the class's slack and the
    tables' inequality fields in one int: the keys in the low bits, as ``_ranks`` lays
    them out, the counts directly above, the slack and the inequality fields above them,
    and, at a leaf that ranks, the degree product above the top guard."""

    @pytest.mark.parametrize("c, n", [(0, 9), (1, 3), (6, 8), (6, 20), (15, 7), (15, 22)])
    def test_the_layout(self, c, n):
        klass = CyclomaticClass(c=c, n=n)
        tables, width, top, table, guards, needs, tabled, fence, _, _ = (
            degree_sequences._walk_layout(klass, VERIFY_INDICES)
        )
        assert fence == 0  # no family: no threshold sum
        assert (tabled is None) is (c > 6)
        fields = member_fields(tables, width, top)
        ((product_shift, _, _),) = [field for field in fields if field[1] < 0]
        sums = [(shift, mask) for shift, mask, _ in fields if mask >= 0]
        width = sums[0][1].bit_length()
        assert sums == [(i * (width + 1), (1 << width) - 1) for i in range(len(sums))]
        key_bits = len(sums) * (width + 1)
        size, counts = count_fields(klass, key_bits)
        assert list(counts) == {0: [], 1: [2], 6: [2, 3, 4], 15: []}[c]
        slack_at = key_bits + len(counts) * size
        rows = len(degree_sequences._class_tables(klass)[1]) if c <= 6 else 0
        slack_width = (2 * klass.degree_total).bit_length() + 1
        lows = [low for low in (2 * c - 2 + 3 * k - k * k for k in range(2, n)) if low > 0]
        assert guards == sum(1 << shift + size - 1 for shift in counts.values()) + sum(
            1 << slack_at + (j + 1) * slack_width - 1 for j in range(len(lows) + rows)
        )
        assert needs == sum(low << slack_at + j * slack_width for j, low in enumerate(lows))
        assert product_shift == slack_at + (len(lows) + rows) * slack_width
        assert table[0] == [0] * n and len(table) == n + 1

    @pytest.mark.parametrize("c, n", [(0, 4), (1, 3), (1, 9), (6, 8), (6, 20), (15, 22)])
    def test_the_layout_with_a_family(self, c, n):
        # With a family, one field per threshold t = 2..n-2 directly above the
        # keys and counts, total.bit_length() + 1 bits each with its guard on
        # top, and the slack, the inequality fields and the product's bit
        # moved up past them.  Each entry d adds (d - t)+ to field t; each
        # vector's mark is its sums, and its sums with the guards and every
        # key and count bit set; the floor is the maximals' least sum in each
        # field.
        klass = CyclomaticClass(c=c, n=n)
        family = class_family(klass)
        _, _, plain_top, plain_table, plain_guards, plain_needs, plain_tabled, _, _, _ = (
            degree_sequences._walk_layout(klass, VERIFY_INDICES)
        )
        tables, width, top, table, guards, needs, tabled, fence, floor, marks = (
            degree_sequences._walk_layout(klass, VERIFY_INDICES, family)
        )
        key_bits = sum(mask.bit_length() + 1 for _, mask, _ in walk_layout(klass)[3])
        size, counts = count_fields(klass, key_bits)
        base = key_bits + len(counts) * size  # the counts stay below the threshold sums
        step, fields = klass.degree_total.bit_length() + 1, max(n - 3, 0)
        shifts = [base + j * step for j in range(fields)]

        def moved(bits):  # the bits above the counts moved up past the threshold sums
            return (bits & (1 << base) - 1) + (bits >> base << base + fields * step)

        assert fence == sum(1 << shift + step - 1 for shift in shifts)
        assert (guards, needs) == (moved(plain_guards), moved(plain_needs))
        assert tabled == (plain_tabled and (moved(plain_tabled[0]), plain_tabled[1]))
        assert top == plain_top + fields * step
        assert member_fields(tables, width, top)[:-1] == member_fields(tables, width, plain_top)[:-1]

        def packed(sums):
            return sum(value << shift for value, shift in zip(sums, shifts, strict=True))

        def threshold_sums(runs):
            return [sum(m * max(d - t, 0) for d, m in runs) for t in range(2, n - 1)]

        assert table[1] == [
            moved(key) + packed(threshold_sums(((d, 1),))) for d, key in enumerate(plain_table[1])
        ]
        vectors = (*family.maximal_runs, family.minimal_runs)
        assert marks == [
            (packed(threshold_sums(runs)), packed(threshold_sums(runs)) | fence | (1 << base) - 1)
            for runs in vectors
        ]
        least = [min(each) for each in zip(*map(threshold_sums, family.maximal_runs))]
        assert floor == packed(least or [0] * fields)

    @pytest.mark.parametrize("c, n", [(0, 4), (3, 8), (6, 12), (15, 22)])
    def test_each_threshold_field_at_its_boundary(self, c, n):
        # A member's sum equal to a vector's keeps that field's guard in the
        # test below the vector and in the test above it; one more loses it
        # below, one less above.  The other fields at 0 or at the total, and
        # the key, count, slack and inequality bits clear or set, move no
        # guard: no borrow crosses a field.
        klass = CyclomaticClass(c=c, n=n)
        total = klass.degree_total
        layout = degree_sequences._walk_layout(klass, VERIFY_INDICES, class_family(klass))
        top, fence = layout[2], layout[7]
        step = total.bit_length() + 1
        shifts = [bit - step + 1 for bit in range(fence.bit_length()) if fence >> bit & 1]
        assert len(shifts) == n - 3
        keys = (1 << shifts[0]) - 1  # every key and count bit
        slack = (1 << top) - (1 << shifts[-1] + step)  # every slack and inequality bit
        for j, shift in enumerate(shifts):
            for others in (0, total):
                rest = sum(others << s for i, s in enumerate(shifts) if i != j)
                for value in (0, 1, total - 1, total):
                    sums = rest + (value << shift)
                    mark = (sums, sums | fence | keys)
                    for delta in (-1, 0, 1):
                        if not 0 <= value + delta <= total:
                            continue
                        for noise in (0, keys, slack, keys + slack):
                            state = rest + (value + delta << shift) + noise
                            assert threshold_verdicts(state, fence, mark) == (
                                delta <= 0, delta >= 0
                            ), (j, others, value, delta, noise)

    @staticmethod
    def boundary_slacks(c, n, shift):
        """The class's guards and needs with the slack at ``shift``, and each boundary
        slack there with its verdict: one field at 0, L_k - 1, L_k or its largest value,
        every other field at 0 or at its largest value."""
        klass = CyclomaticClass(c=c, n=n)
        _, guards, needs, _ = degree_sequences._slack_tables(klass, [0] * n, shift)
        width = (2 * klass.degree_total).bit_length() + 1
        lows = [low for low in (2 * c - 2 + 3 * k - k * k for k in range(2, n)) if low > 0]
        top = (1 << width - 1) - 1
        slacks = []
        for j, low in enumerate(lows):
            for others in (0, top):
                rest = sum(others << i * width for i in range(len(lows)) if i != j)
                for value in (0, low - 1, low, top):
                    holds = value >= low and all(
                        others >= other for i, other in enumerate(lows) if i != j
                    )
                    slacks.append((rest + (value << j * width) << shift, holds))
        return guards, needs, slacks

    @pytest.mark.parametrize("c, n", [(1, 3), (6, 8), (15, 7)])
    def test_the_key_test_ignores_the_slack_above(self, c, n):
        values = range(4)  # two key fields of width 2, below the slack
        pairs = [(low, high) for low in values for high in values if low <= high]
        _, _, slacks = self.boundary_slacks(c, n, 2 * 3)
        assert slacks
        for sums in product(pairs, repeat=2):
            bounds, shifts = packed_set(2, list(sums))
            for keys in product(values, repeat=2):
                key = sum(k << shift for k, shift in zip(keys, shifts))
                inside = packed_inside(bounds, key, 1)
                assert inside is all(low < k < high for (low, high), k in zip(sums, keys))
                for slack, _ in slacks:
                    assert packed_inside(bounds, key + slack, 1) is inside, (sums, keys, slack)

    @pytest.mark.parametrize("c, n", [(1, 3), (6, 8), (6, 20), (15, 7), (15, 22)])
    def test_the_slack_test_ignores_the_keys_below(self, c, n):
        width = 5  # three key fields, each at a boundary of its bounds
        bounds, shifts = packed_set(width, [(3, 17)] * 3)
        guards, needs, slacks = self.boundary_slacks(c, n, 3 * (width + 1))
        values = (0, 3, 4, 16, 17, (1 << width) - 1)
        for keys in product(values, repeat=3):
            key = sum(k << shift for k, shift in zip(keys, shifts))
            for slack, holds in slacks:
                assert slack_holds(key + slack, guards, needs) is holds, (keys, slack)


def packed_inside(bounds, key, degree_product):
    """The leaf's one test of a member against a set's packed bounds: strictly inside
    every exact extreme."""
    low, high, guards, product_low, product_high = bounds
    return (key | guards) - low & high - key & guards == guards and (
        product_low < degree_product < product_high
    )


def packed_set(width, sums, products=None):
    """The packed bounds and the field shifts of one set of exact extremes: a sum index
    per ``(low, high)`` of ``sums`` and, given ``products``, the degree product with
    those bounds, laid out by the walk's own ``_ranks``."""
    tables = [([0, 1], False)] * len(sums) + [([0, 1], True)] * (products is not None)
    extremes = [Extremes() for _ in tables]
    for each, (low, high) in zip(extremes, sums + ([products] if products else [])):
        each.low, each.high = low, high
    fields, _, _ = degree_sequences._ranks(tables, extremes, width, 0)
    shifts = [shift for shift, field, _ in fields if field >= 0]
    return degree_sequences._packed_bounds(fields), shifts


def assert_packed_agrees(width, sums, products, keys, degree_product):
    bounds, shifts = packed_set(width, sums, products)
    key = sum(k << shift for k, shift in zip(keys, shifts, strict=True))
    plow, phigh = products or (0, 2)
    expected = all(low < k < high for (low, high), k in zip(sums, keys))
    expected = expected and plow < degree_product < phigh
    assert packed_inside(bounds, key, degree_product) is expected, (sums, products, keys)


@st.composite
def packed_cases(draw):
    """A width, 1-4 sum fields with bounds and a key each (0, the largest value a field
    holds and the bounds themselves drawn often), and maybe a product with its bounds."""
    width = draw(st.integers(1, 24))
    top = (1 << width) - 1
    value = st.one_of(st.sampled_from([0, 1, top - 1, top]), st.integers(0, top))
    sums, keys = [], []
    for _ in range(draw(st.integers(1, 4))):
        low, high = sorted((draw(value), draw(value)))
        sums.append((low, high))
        keys.append(draw(st.one_of(st.sampled_from([low, high, low + 1, high - 1]), value)))
    keys = [max(0, min(top, k)) for k in keys]
    products = None
    degree_product = 1
    if draw(st.booleans()):
        plow, phigh = sorted((draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))))
        products = (plow, phigh)
        degree_product = draw(st.sampled_from([plow, phigh, plow + 1, phigh - 1]))
    return width, sums, products, keys, degree_product


class TestPackedBounds:
    """One packed test of a member against a set's exact extremes agrees with a strict
    comparison on each field."""

    @pytest.mark.parametrize("width", [1, 2])
    def test_every_value_at_small_widths(self, width):
        values = range(1 << width)
        pairs = [(low, high) for low in values for high in values if low <= high]
        for sums in product(pairs, repeat=2):
            for products in (None, (1, 1), (1, 3), (2, 4)):
                for keys in product(values, repeat=2):
                    for degree_product in range(6) if products else (1,):
                        assert_packed_agrees(width, list(sums), products, keys, degree_product)

    @settings(max_examples=300)
    @given(packed_cases())
    def test_wide_fields(self, case):
        assert_packed_agrees(*case)

    def test_the_product_alone_and_no_field(self):
        for plow, phigh in [(2, 2), (2, 5), (1, 10**30)]:
            for degree_product in (plow - 1, plow, plow + 1, phigh - 1, phigh, phigh + 1):
                assert_packed_agrees(3, [], (plow, phigh), [], degree_product)
        assert packed_inside(packed_set(5, [])[0], 0, 1)  # nothing to move: every key inside

    def test_nothing_lies_inside_an_empty_extreme(self):
        held, empty = Extremes(), Extremes()
        held.seed(3)
        fields, _, _ = degree_sequences._ranks([([0, 1], False)] * 2, [held, empty], 4, 0)
        bounds = degree_sequences._packed_bounds(fields)
        assert not any(packed_inside(bounds, key, 1) for key in range(1 << 10))
