"""Tests for the bounds engine, closed forms, oracle verification, and serialization."""

import json
import math
import operator
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import ccyclic.bounds as bounds_module
from ccyclic.bounds import (
    EXACT_MATCH,
    MISMATCH,
    ORIENTATION_NOTE,
    SKIPPED,
    annotate_orientation,
    bounds,
    bounds_table,
    closed_form_inverse_degree,
    oracle_outcome,
    refined_inverse_degree_upper,
    verify_bounds,
    verify_class,
    with_verification,
)
from ccyclic import degree_sequences
from ccyclic.degree_sequences import CyclomaticClass, enumerate_sequences, min_order, walk_class
from ccyclic.cli import VERIFY_INDICES, report_to_json_dict, reports_to_csv
from ccyclic.indices import (
    INVERSE_DEGREE, MULT_ZAGREB_LOG, Extremes, IndexSpec, SchurClass, evaluate, key_table,
    same_value,
)
from ccyclic.majorization import runs_of

from oracles import reference_reports_to_csv, reference_verify_bounds


def F(*args):
    return Fraction(*args)


RHO = IndexSpec.inverse_degree()


class TestBounds:
    def test_unicyclic_inverse_degree(self):
        report = bounds(CyclomaticClass(c=1, n=10), RHO)
        assert report.lower == 5
        assert report.upper == 8 + F(1, 9)
        assert report.lower_attainer == runs_of((2,) * 10)
        assert report.upper_attainer == runs_of((9, 2, 2) + (1,) * 7)

    def test_tetracyclic_upper(self):
        report = bounds(CyclomaticClass(c=4, n=8), RHO)
        assert report.upper == 3 + F(1, 7) + F(17, 12)

    def test_bicyclic_first_zagreb(self):
        report = bounds(CyclomaticClass(c=2, n=6), IndexSpec.general_zagreb(2))
        assert report.lower == 34
        assert report.upper == 44
        assert report.lower_attainer == runs_of((3, 3, 2, 2, 2, 2))
        assert report.upper_attainer == runs_of((5, 3, 2, 2, 1, 1))

    def test_concave_orientation_swaps(self):
        report = bounds(CyclomaticClass(c=3, n=8), IndexSpec.mult_zagreb_log())
        # minimal sequence now attains the upper bound
        assert report.upper_attainer == runs_of((3, 3, 3, 3, 2, 2, 2, 2))
        assert report.lower <= report.upper

    def test_schur_orientation_attainers(self):
        for c in range(7):
            for n in range(min_order(c), 10):
                klass = CyclomaticClass(c=c, n=n)
                for index in (RHO, IndexSpec.general_zagreb(3), IndexSpec.mult_zagreb_log()):
                    report = bounds(klass, index)
                    family_max = {seq for seq, _ in report.candidates}
                    if index.schur_class is SchurClass.CONVEX:
                        assert report.upper_attainer in family_max
                    else:
                        assert report.lower_attainer in family_max

    def test_refuses_a_family_of_another_class(self):
        family = degree_sequences.extremal_family(CyclomaticClass(c=3, n=12))
        with pytest.raises(ValueError, match="cannot bound"):
            bounds(CyclomaticClass(c=3, n=10), IndexSpec.general_zagreb(2), family)


class TestClosedForms:
    def test_tree(self):
        report = closed_form_inverse_degree(CyclomaticClass(c=0, n=5))
        assert report.lower == F(7, 2)
        assert report.upper == 4 + F(1, 4)

    def test_hexacyclic(self):
        report = closed_form_inverse_degree(CyclomaticClass(c=6, n=11))
        assert report.lower == F(1, 2) + F(10, 3)
        assert report.upper == 7 + F(1, 10)

    def test_tricyclic(self):
        report = closed_form_inverse_degree(CyclomaticClass(c=3, n=8))
        assert report.lower == 2 + F(4, 3)
        assert report.upper == 5 + F(1, 7)

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError):
            closed_form_inverse_degree(CyclomaticClass(c=5, n=6))

    def test_matches_engine_everywhere(self):
        for c in range(7):
            for n in range(c + 2, 51):
                klass = CyclomaticClass(c=c, n=n)
                closed = closed_form_inverse_degree(klass)
                computed = bounds(klass, RHO)
                assert closed.lower == computed.lower, (c, n)
                assert closed.upper == computed.upper, (c, n)
                assert closed.lower_attainer == computed.lower_attainer, (c, n)
                assert closed.upper_attainer == computed.upper_attainer, (c, n)

    def test_disagreeing_with_the_engine_raises(self, monkeypatch):
        engine = bounds_module.bounds

        def lower_off_by_one(klass, index):
            report = engine(klass, index)
            return replace(report, lower=report.lower + 1)

        monkeypatch.setattr(bounds_module, "bounds", lower_off_by_one)
        with pytest.raises(AssertionError, match="differ from bounds"):
            closed_form_inverse_degree(CyclomaticClass(c=3, n=9))

    def test_beyond_six_cycles_rejected(self):
        with pytest.raises(ValueError, match="only established up to c=6"):
            closed_form_inverse_degree(CyclomaticClass(c=7, n=12))

    def test_piecewise_small_orders(self):
        assert closed_form_inverse_degree(CyclomaticClass(c=5, n=7)).lower == F(9, 4)
        assert closed_form_inverse_degree(CyclomaticClass(c=6, n=8)).lower == F(5, 2)
        assert closed_form_inverse_degree(CyclomaticClass(c=6, n=9)).lower == F(35, 12)

    def test_attainers_are_class_members(self):
        from ccyclic.degree_sequences import is_ccyclic_sequence

        for c in range(7):
            for n in (c + 2, 13, 29, 50):
                klass = CyclomaticClass(c=c, n=n)
                report = closed_form_inverse_degree(klass)
                assert is_ccyclic_sequence(report.lower_attainer, klass)
                assert is_ccyclic_sequence(report.upper_attainer, klass)


class TestRefinedBound:
    def test_tricyclic_example(self):
        value = refined_inverse_degree_upper(CyclomaticClass(c=3, n=8))
        assert value == 4 + F(25, 28)

    def test_hexacyclic_example(self):
        value = refined_inverse_degree_upper(CyclomaticClass(c=6, n=11))
        assert value == 6 + F(17, 70)

    def test_identity(self):
        for c in range(3, 7):
            for n in range(c + 2, 51):
                value = refined_inverse_degree_upper(CyclomaticClass(c=c, n=n))
                assert value - (n - c) - F(1, n - 1) == F(c * c - 3 * c - 2, 2 * (c + 1))

    def test_never_exceeds_plain_upper(self):
        for c in range(3, 7):
            for n in range(c + 2, 31):
                klass = CyclomaticClass(c=c, n=n)
                refined = refined_inverse_degree_upper(klass)
                plain = bounds(klass, RHO).upper
                assert refined <= plain

    def test_needs_three_cycles(self):
        with pytest.raises(ValueError):
            refined_inverse_degree_upper(CyclomaticClass(c=2, n=8))


class TestVerifyBounds:
    def test_tricyclic_inverse_degree(self):
        klass = CyclomaticClass(c=3, n=8)
        assert verify_bounds(bounds(klass, RHO)).status == EXACT_MATCH

    def test_forced_single_sequence(self):
        klass = CyclomaticClass(c=3, n=4)
        outcome = verify_bounds(bounds(klass, IndexSpec.general_zagreb(2)))
        assert outcome.status == EXACT_MATCH
        assert outcome.minimum == outcome.maximum == 36

    def test_pentacyclic_first_zagreb(self):
        klass = CyclomaticClass(c=5, n=9)
        outcome = verify_bounds(bounds(klass, IndexSpec.general_zagreb(2)))
        assert outcome.status == EXACT_MATCH
        assert outcome.minimizers == (runs_of((3, 3, 3, 3, 3, 3, 3, 3, 2)),)

    def test_verify_class_refuses_no_reports(self):
        with pytest.raises(ValueError, match="not 0"):
            verify_class([])

    def test_verify_class_refuses_reports_of_two_classes(self, monkeypatch):
        walked = []
        monkeypatch.setattr(bounds_module, "walk_class", lambda *args, **kwargs: walked.append(1))
        reports = [bounds(CyclomaticClass(c=c, n=8), RHO) for c in (2, 3)]
        with pytest.raises(ValueError, match="not 2"):
            verify_class(reports)
        assert walked == []

    def test_cap_yields_skipped(self):
        report = with_verification(bounds(CyclomaticClass(c=1, n=20), RHO), cap=12)
        assert report.verified == SKIPPED

    def test_with_verification_attaches_status(self):
        report = with_verification(bounds(CyclomaticClass(c=2, n=7), RHO))
        assert report.verified == EXACT_MATCH

    def test_log_index_small_orders(self):
        for c in range(7):
            for n in range(min_order(c), 9):
                klass = CyclomaticClass(c=c, n=n)
                outcome = verify_bounds(bounds(klass, IndexSpec.mult_zagreb_log()))
                assert outcome.status == EXACT_MATCH, (c, n)

    def test_tampered_closed_form_upper_is_a_mismatch(self):
        report = closed_form_inverse_degree(CyclomaticClass(c=3, n=9))
        assert with_verification(report).verified == EXACT_MATCH
        tampered = replace(report, upper=F(999))
        assert with_verification(tampered).verified == MISMATCH

    def test_tampered_lower_is_a_mismatch(self):
        report = bounds(CyclomaticClass(c=2, n=7), IndexSpec.general_zagreb(2))
        tampered = replace(report, lower=F(-5))
        assert with_verification(tampered).verified == MISMATCH

    def test_non_minimizing_lower_attainer_is_a_mismatch(self):
        klass = CyclomaticClass(c=2, n=7)
        report = bounds(klass, RHO)
        population = enumerate_sequences(klass)
        minimizers = verify_bounds(report).minimizers
        intruder = next(seq for seq in population if seq not in minimizers)
        tampered = replace(report, lower_attainer=intruder)
        assert with_verification(tampered).verified == MISMATCH

    def test_refined_upper_is_checked(self):
        for c in range(3, 7):
            for n in range(c + 2, 10):
                klass = CyclomaticClass(c=c, n=n)
                refined = refined_inverse_degree_upper(klass)
                report = replace(bounds(klass, RHO), refined_upper=refined)
                assert with_verification(report).verified == EXACT_MATCH, (c, n)
                tampered = replace(report, refined_upper=F(999))
                assert with_verification(tampered).verified == MISMATCH, (c, n)

    def test_refined_only_mismatch_shows_the_refined_maximum(self):
        klass = CyclomaticClass(c=3, n=9)
        refined = refined_inverse_degree_upper(klass)
        report = replace(bounds(klass, RHO), refined_upper=F(999))
        outcome = verify_bounds(report)
        assert outcome.status == MISMATCH
        assert (outcome.minimum, outcome.maximum) == (report.lower, report.upper)
        assert outcome.refined_maximum == refined
        assert verify_bounds(bounds(klass, RHO)).refined_maximum is None
        # the refined bound is an inverse-degree bound; no other index carries it
        other = replace(bounds(klass, IndexSpec.general_zagreb(2)), refined_upper=refined)
        outcome = verify_bounds(other)
        assert (outcome.status, outcome.refined_maximum) == (MISMATCH, None)

    def test_a_membership_disagreement_is_a_mismatch(self, monkeypatch):
        # A tightened inequality row rejects members that the counting form and
        # Erdos-Gallai accept; the bounds and their extremes are unchanged.
        report = bounds(CyclomaticClass(c=5, n=9), RHO)
        assert with_verification(report).verified == EXACT_MATCH
        least, rows = degree_sequences._INEQUALITIES[5]
        tightened = (least, rows[:-1] + ((5, 2, 2, 15),))
        monkeypatch.setitem(degree_sequences._INEQUALITIES, 5, tightened)
        outcome = verify_bounds(report)
        assert (outcome.minimum, outcome.maximum) == (report.lower, report.upper)
        assert outcome.status == MISMATCH
        assert with_verification(report).verified == MISMATCH

    def test_tiny_float_bounds_are_matched_relatively(self):
        # every power sum here is about 1e-100, far below an absolute 1e-12
        klass = CyclomaticClass(c=3, n=8)
        index = IndexSpec.general_zagreb(F(-1001, 3))
        report = bounds(klass, index)
        assert report.lower_attainer == runs_of((3,) * 4 + (2,) * 4)
        assert with_verification(report).verified == EXACT_MATCH
        wrong = runs_of((6,) + (2,) * 7)
        tampered = replace(report, lower=evaluate(index, wrong), lower_attainer=wrong)
        assert tampered.lower > 1.7 * report.lower
        assert with_verification(tampered).verified == MISMATCH


class TestBoundsTable:
    def test_six_rows_with_orientation_note(self):
        rows = bounds_table(10, 2)
        assert len(rows) == 6
        assert [row.klass.c for row in rows] == [1, 2, 3, 4, 5, 6]
        assert rows[0].lower == 40 and rows[0].upper == 96
        assert rows[1].lower == 50 and rows[1].upper == 104
        assert ORIENTATION_NOTE in rows[0].notes
        assert ORIENTATION_NOTE in rows[1].notes
        assert all(ORIENTATION_NOTE not in row.notes for row in rows[2:])

    def test_candidate_lists_for_multiple_maximals(self):
        rows = bounds_table(8, -1)
        by_c = {row.klass.c: row for row in rows}
        assert len(by_c[3].candidates) == 2
        values = {seq: val for seq, val in by_c[3].candidates}
        assert values[runs_of((7, 4, 2, 2, 2, 1, 1, 1))] == 4 + F(25, 28)
        assert values[runs_of((7, 3, 3, 3, 1, 1, 1, 1))] == 5 + F(1, 7)
        assert by_c[3].upper == 5 + F(1, 7)

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            bounds_table(7, 2)


class TestSerialization:
    def test_csv_schema(self):
        report = with_verification(bounds(CyclomaticClass(c=1, n=10), RHO))
        text = reports_to_csv([report])
        lines = text.strip().splitlines()
        assert lines[0] == (
            "n,c,index,alpha,lower_exact,lower_decimal,upper_exact,upper_decimal,"
            "lower_attainer,upper_attainer,verified"
        )
        assert lines[1] == (
            "10,1,inverse-degree,,5,5,73/9,8.11111111111,"
            "2 2 2 2 2 2 2 2 2 2,9 2 2 1 1 1 1 1 1 1,exact-match"
        )

    def test_json_document(self):
        report = bounds(CyclomaticClass(c=3, n=8), IndexSpec.general_zagreb(2))
        doc = report_to_json_dict(report)
        json.dumps(doc)  # must be serializable
        assert doc["n"] == 8 and doc["c"] == 3
        assert doc["alpha"] == "2"
        assert doc["lower_attainer"] == [3, 3, 3, 3, 2, 2, 2, 2]
        assert len(doc["candidates"]) == 2

    def test_refined_upper_only_when_set(self):
        klass = CyclomaticClass(c=3, n=8)
        plain = bounds(klass, RHO)
        refined = replace(plain, refined_upper=refined_inverse_degree_upper(klass))
        assert "refined_upper_exact" not in reports_to_csv([plain])
        header, row = reports_to_csv([refined]).splitlines()
        assert header.endswith(",verified,refined_upper_exact,refined_upper_decimal")
        assert row.endswith(",137/28,4.89285714286")
        assert "refined_upper" not in report_to_json_dict(plain)
        assert list(report_to_json_dict(refined).items())[-2:] == [
            ("refined_upper", "137/28"), ("refined_upper_decimal", "4.89285714286")
        ]

    def test_inexact_index_blank_exact_columns(self):
        report = bounds(CyclomaticClass(c=1, n=6), IndexSpec.mult_zagreb_log())
        text = reports_to_csv([report])
        row = text.strip().splitlines()[1].split(",")
        assert row[4] == "" and row[6] == ""
        assert row[5] != "" and row[7] != ""


def serialization_grid():
    """Reports of every index kind, at exponents of both signs and at the float limit.

    General-Zagreb exponents 2, 3, -1, -1/2 and 1/2 at n = 10 and 1000, plus
    323 at n = 10, whose largest value, 1.66e308, is just below the largest
    float; refined inverse-degree reports for c >= 3; float values at both
    ends of the float range; and each of the oracle's verdicts on every report.
    """
    indices = [IndexSpec.inverse_degree(), IndexSpec.mult_zagreb_log()] + [
        IndexSpec.general_zagreb(alpha) for alpha in (2, 3, -1, F(-1, 2), F(1, 2))
    ]
    cases = [(index, n) for index in indices for n in (10, 1000)]
    cases.append((IndexSpec.general_zagreb(323), 10))
    reports = []
    for index, n in cases:
        for klass in (CyclomaticClass(c=c, n=n) for c in (0, 1, 3, 6)):
            report = annotate_orientation(bounds(klass, index))
            reports.append(report)
            if index.kind == INVERSE_DEGREE and klass.c >= 3:
                reports.append(replace(report, refined_upper=refined_inverse_degree_upper(klass)))
            if index.kind == MULT_ZAGREB_LOG:
                reports.append(replace(report, lower=5e-324, upper=sys.float_info.max))
    verdicts = (None, EXACT_MATCH, MISMATCH, SKIPPED)
    return [replace(report, verified=verdict) for report in reports for verdict in verdicts]


def csv_lines(write, reports):
    # compared as lists of lines: a failing comparison of long strings is slow to explain
    return write(reports).splitlines(keepends=True)


class TestCsvWriter:
    def test_grid_reaches_the_float_limit(self):
        uppers = [float(report.upper) for report in serialization_grid()]
        assert 1.6e308 < max(u for u in uppers if u != sys.float_info.max) < sys.float_info.max

    def test_each_report_equals_the_dictwriter_reference(self):
        for report in serialization_grid():
            expected = csv_lines(reference_reports_to_csv, [report])
            assert csv_lines(reports_to_csv, [report]) == expected, report

    def test_whole_grid_equals_the_dictwriter_reference(self):
        # refined and plain reports in one document: the plain rows get empty refined fields
        reports = serialization_grid()
        expected = csv_lines(reference_reports_to_csv, reports)
        assert csv_lines(reports_to_csv, reports) == expected

    def test_empty_document_is_the_header(self):
        assert reports_to_csv([]) == reference_reports_to_csv([])


#: the oracle's indices plus exponents of every kind: fractional and integer, both signs
RANKED_INDICES = VERIFY_INDICES + tuple(
    IndexSpec.general_zagreb(alpha) for alpha in (F(1, 2), F(-1, 2), -2, F(3, 2), 4)
)


def value_of_key(index, key, top):
    """The index value a ranking key stands for, by the scale the keys are documented with."""
    if index.kind == MULT_ZAGREB_LOG:
        return 2 * math.log(key)
    power = -1 if index.kind == INVERSE_DEGREE else index.alpha
    if power.denominator != 1 or power > 0:
        return key
    return Fraction(key, math.lcm(*range(1, top + 1)) ** -int(power))


def keys_of(index, population, top):
    """Each member's ranking key, from the :func:`key_table` of degrees up to ``top``."""
    table, product = key_table(index, top)
    if product:
        return [math.prod([table[d] ** m for d, m in runs]) for runs in population]
    return [sum([m * table[d] for d, m in runs]) for runs in population]


def keyed_outcome(report, population):
    """The oracle's outcome over a hand-made population, ranked by :func:`key_table` keys."""
    top = max(runs[0][0] for runs in population)
    extremes = Extremes()
    for runs, key in zip(population, keys_of(report.index, population, top)):
        extremes.add(key, runs)
    return oracle_outcome(report, extremes)


def assert_same_outcome(report, outcome, population):
    old = reference_verify_bounds(report, population)
    assert outcome == old
    for field in ("minimum", "maximum", "refined_maximum"):
        assert type(getattr(outcome, field)) is type(getattr(old, field)), field
    return outcome


class TestRankingKeys:
    """The walk's outcomes on ranking keys against the former evaluate-per-member check."""

    @pytest.mark.parametrize("c", range(7))
    def test_outcomes_match_the_reference(self, c):
        for n in range(min_order(c), 13):
            klass = CyclomaticClass(c=c, n=n)
            population = enumerate_sequences(klass)
            walk = walk_class(klass, n, indices=RANKED_INDICES, spread=True)
            for index, extremes, spread in zip(RANKED_INDICES, walk.extremes, walk.spread):
                same = same_value if index.kind == MULT_ZAGREB_LOG else operator.eq
                for runs, key in zip(population, keys_of(index, population, n - 1)):
                    assert same(value_of_key(index, key, n - 1), evaluate(index, runs)), (c, n)
                report = bounds(klass, index)
                outcome = assert_same_outcome(report, oracle_outcome(report, extremes), population)
                assert outcome.status == EXACT_MATCH, (c, n, index)
                intruder = next((s for s in population if s not in outcome.minimizers), None)
                damaged = [
                    replace(report, lower=report.lower + 1),
                    replace(report, upper=report.upper - 1),
                    replace(report, refined_upper=F(999)),
                ]
                if intruder is not None:
                    damaged.append(replace(report, lower_attainer=intruder))
                    damaged.append(replace(report, upper_attainer=intruder))
                if index.kind == INVERSE_DEGREE and c >= 3 and n >= c + 2:
                    refined = refined_inverse_degree_upper(klass)
                    damaged.append(replace(report, refined_upper=refined))
                    damaged.append(replace(report, refined_upper=refined - F(1, 7)))
                for tampered in damaged:
                    assert_same_outcome(
                        tampered, oracle_outcome(tampered, extremes, spread), population
                    )

    def test_multiplicative_zagreb_ranks_by_the_exact_product(self):
        # Log sums equal within 1e-12 whose products (818 digits each) differ.
        a = ((3, 274), (2, 2282))
        b = ((7, 208), (5, 57), (2, 2000))
        index = IndexSpec.mult_zagreb_log()
        assert same_value(evaluate(index, a), evaluate(index, b))
        assert math.prod(d**m for d, m in a) > math.prod(d**m for d, m in b)
        report = bounds(CyclomaticClass(c=3, n=8), index)
        outcome = keyed_outcome(report, [a, b])
        assert (outcome.minimizers, outcome.maximizers) == ((b,), (a,))
        assert (outcome.minimum, outcome.maximum) == (evaluate(index, b), evaluate(index, a))
        assert reference_verify_bounds(report, [a, b]).maximizers == (a, b)

    def test_float_keys_tie_as_same_value_does(self):
        # 4 * sqrt(2) twice, as floats one unit in the last place apart
        a, b = ((18, 1), (2, 1)), ((8, 2),)
        index = IndexSpec.general_zagreb(F(1, 2))
        assert evaluate(index, a) != evaluate(index, b)
        report = bounds(CyclomaticClass(c=3, n=8), index)
        outcome = assert_same_outcome(report, keyed_outcome(report, [a, b]), [a, b])
        assert outcome.minimizers == outcome.maximizers == (a, b)

    @pytest.mark.parametrize(
        "alpha, population",
        [
            (2, [runs_of((2, 2, 2)), ((2, 2), (0, 1))]),  # a non-positive degree
            (F(1000000, 3), [runs_of((7, 2, 2, 1, 1, 1, 1, 1))]),  # a power overflows a float
            (364, [runs_of((2, 2, 2)), ((7, 5),)]),  # 7 ** 364 fits a float, five of them do not
            (-10000, [runs_of((7, 2, 2, 1, 1, 1, 1, 1))]),  # over 4300 digits
        ],
    )
    def test_refuses_what_evaluate_refuses(self, alpha, population):
        index = IndexSpec.general_zagreb(alpha)
        report = replace(bounds(CyclomaticClass(c=1, n=3), RHO), index=index)
        with pytest.raises(ValueError):
            reference_verify_bounds(report, population)
        with pytest.raises(ValueError):
            keyed_outcome(report, population)
