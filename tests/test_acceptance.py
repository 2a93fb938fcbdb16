"""Acceptance suite: one test per shipped guarantee, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values are frozen from independent derivations: closed-form
pattern instantiations, hand prefix sums, and brute-force enumerations that
live in this file or in ``oracles.py``, never from the code paths under test.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ccyclic.bounds import (
    EXACT_MATCH,
    ORIENTATION_NOTE,
    bounds,
    bounds_table,
    closed_form_inverse_degree,
    refined_inverse_degree_upper,
    verify_bounds,
    verify_class,
)
from ccyclic.cli import main
from ccyclic.degree_sequences import (
    CyclomaticClass,
    candidate_sequences,
    enumerate_sequences,
    extremal_family,
    is_ccyclic_sequence,
    is_ccyclic_sequence_via_inequalities,
    min_order,
)
from ccyclic.extremal import BoxSet, integerize_minimal, maximal_box, minimal_box
from ccyclic.indices import IndexSpec, evaluate
from ccyclic.majorization import Relation, compare, expand_runs, is_majorized_by, runs_of
from ccyclic.realization import cyclomatic_number, is_connected, realize

from oracles import expanded_family, random_nested_boxes, random_nonincreasing, transfer_down


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {name}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {name}")


def F(*args):
    return Fraction(*args)


# -- independent instantiation of the published extremal-sequence table -----


def table_maximals(c, n):
    rows = {
        0: [[n - 1] + [1] * (n - 1)],
        1: [[n - 1, 2, 2] + [1] * (n - 3)],
        2: [[n - 1, 3, 2, 2] + [1] * (n - 4)],
        3: [
            [n - 1, 4, 2, 2, 2] + [1] * (n - 5),
            [n - 1, 3, 3, 3] + [1] * (n - 4),
        ],
        4: [
            [n - 1, 5, 2, 2, 2, 2] + [1] * (n - 6),
            [n - 1, 4, 3, 3, 2] + [1] * (n - 5),
        ],
        5: [
            [n - 1, 6, 2, 2, 2, 2, 2] + [1] * (n - 7),
            [n - 1, 5, 3, 3, 2, 2] + [1] * (n - 6),
            [n - 1, 4, 4, 3, 3] + [1] * (n - 5),
        ],
        6: [
            [n - 1, 7, 2, 2, 2, 2, 2, 2] + [1] * (n - 8),
            [n - 1, 6, 3, 3, 2, 2, 2] + [1] * (n - 7),
            [n - 1, 5, 4, 3, 3, 2] + [1] * (n - 6),
            [n - 1, 4, 4, 4, 4] + [1] * (n - 5),
        ],
    }
    return [tuple(row) for row in rows[c]]


def table_minimal(c, n):
    if c == 0:
        return (2,) * (n - 2) + (1, 1)
    if c == 5 and n == 7:
        return (4,) + (3,) * 6
    if c == 6 and n == 8:
        return (4, 4) + (3,) * 6
    if c == 6 and n == 9:
        return (4,) + (3,) * 8
    return (3,) * (2 * c - 2) + (2,) * (n - 2 * c + 2)


EXCEPTIONAL_FAMILIES = {
    (3, 4): ([(3, 3, 3, 3)], (3, 3, 3, 3)),
    (4, 5): ([(4, 4, 3, 3, 2)], (4, 3, 3, 3, 3)),
    (5, 5): ([(4, 4, 4, 3, 3)], (4, 4, 4, 3, 3)),
    (5, 6): ([(5, 5, 3, 3, 2, 2), (5, 4, 4, 3, 3, 1)], (4, 4, 3, 3, 3, 3)),
    (5, 7): (
        [(6, 6, 2, 2, 2, 2, 2), (6, 5, 3, 3, 2, 2, 1), (6, 4, 4, 3, 3, 1, 1)],
        (4, 3, 3, 3, 3, 3, 3),
    ),
    (6, 5): ([(4, 4, 4, 4, 4)], (4, 4, 4, 4, 4)),
    (6, 6): ([(5, 5, 4, 3, 3, 2), (5, 4, 4, 4, 4, 1)], (4, 4, 4, 4, 3, 3)),
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


def test_criterion_01_extremal_table_reproduction():
    with criterion(1, "extremal families match the table for c+2 <= n <= 12"):
        start = time.perf_counter()
        for c in range(7):
            for n in range(c + 2, 13):
                maximals, minimal = expanded_family(extremal_family(CyclomaticClass(c=c, n=n)))
                expected_max = sorted(table_maximals(c, n), reverse=True)
                assert sorted(maximals, reverse=True) == expected_max, (c, n)
                assert minimal == table_minimal(c, n), (c, n)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"table reproduction took {elapsed:.3f}s"


def test_criterion_02_small_order_special_cases():
    with criterion(2, "exceptional small-order families match exactly"):
        for (c, n), (expected_max, expected_min) in sorted(EXCEPTIONAL_FAMILIES.items()):
            maximals, minimal = expanded_family(extremal_family(CyclomaticClass(c=c, n=n)))
            assert sorted(maximals, reverse=True) == sorted(expected_max, reverse=True), (c, n)
            assert minimal == expected_min, (c, n)


def test_criterion_03_inverse_degree_closed_forms():
    with criterion(3, "closed-form inverse-degree bounds equal engine, n <= 50"):
        rho = IndexSpec.inverse_degree()
        for c in range(7):
            for n in range(c + 2, 51):
                klass = CyclomaticClass(c=c, n=n)
                closed = closed_form_inverse_degree(klass)
                engine = bounds(klass, rho)
                assert closed.lower == engine.lower, (c, n)
                assert closed.upper == engine.upper, (c, n)
        spot = closed_form_inverse_degree(CyclomaticClass(c=4, n=8))
        assert spot.upper == 3 + F(1, 7) + F(17, 12)


def test_criterion_04_refined_bound_identity():
    with criterion(4, "refined upper bound identity, 3 <= c <= 6, n <= 50"):
        for c in range(3, 7):
            for n in range(c + 2, 51):
                value = refined_inverse_degree_upper(CyclomaticClass(c=c, n=n))
                gap = value - (n - c) - F(1, n - 1)
                assert gap == F(c * c - 3 * c - 2, 2 * (c + 1)), (c, n)


def test_criterion_05_oracle_sharpness():
    with criterion(5, "bounds equal exhaustive extrema for all indices, n <= 9"):
        start = time.perf_counter()
        indices = [
            IndexSpec.general_zagreb(-1),
            IndexSpec.general_zagreb(2),
            IndexSpec.general_zagreb(3),
            IndexSpec.mult_zagreb_log(),
        ]
        for c in range(7):
            for n in range(c + 2, 10):
                klass = CyclomaticClass(c=c, n=n)
                reports = [bounds(klass, index) for index in indices]
                for index, outcome in zip(indices, verify_class(reports)):
                    assert outcome.status == EXACT_MATCH, (c, n, index.label)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"oracle grid took {elapsed:.1f}s"


def test_criterion_06_characterization_equivalence():
    with criterion(6, "counting and inequality characterizations agree, n <= 12"):
        for c in range(7):
            for n in range(min_order(c), 13):
                klass = CyclomaticClass(c=c, n=n)
                for seq in candidate_sequences(n, klass.degree_total):
                    counting = is_ccyclic_sequence(seq, klass)
                    inequalities = is_ccyclic_sequence_via_inequalities(seq, klass)
                    assert counting == inequalities, (c, n, seq)


def test_criterion_07_majorization_extremality():
    with criterion(7, "families bracket every enumerated sequence, n <= 10"):
        for c in range(7):
            for n in range(min_order(c), 11):
                klass = CyclomaticClass(c=c, n=n)
                maximals, minimal = expanded_family(extremal_family(klass))
                for i, a in enumerate(maximals):
                    for b in maximals[i + 1 :]:
                        assert compare(a, b) is Relation.INCOMPARABLE, (c, n)
                for seq in map(expand_runs, enumerate_sequences(klass)):
                    assert any(
                        is_majorized_by(seq, top) for top in maximals
                    ), (c, n, seq)
                    assert is_majorized_by(minimal, seq), (c, n, seq)


def test_criterion_08_realization_soundness():
    with criterion(8, "every extremal sequence realizes connected with the right c"):
        for c in range(7):
            for n in range(min_order(c), 13):
                maximals, minimal = expanded_family(extremal_family(CyclomaticClass(c=c, n=n)))
                for seq in maximals + (minimal,):
                    graph = realize(seq)
                    assert graph.vertex_degrees() == list(seq), (c, n, seq)
                    assert is_connected(graph)
                    assert cyclomatic_number(graph) == c, (c, n, seq)


def test_criterion_09_orientation_finding(capsys):
    with criterion(9, "oracle-fixed column orientation for c = 1, 2 is reported"):
        rows = bounds_table(10, 2)
        by_c = {row.klass.c: row for row in rows}
        assert by_c[1].lower == 40 and by_c[1].upper == 96
        assert by_c[2].lower == 50 and by_c[2].upper == 104
        klass_1, klass_2 = CyclomaticClass(c=1, n=10), CyclomaticClass(c=2, n=10)
        zagreb = IndexSpec.general_zagreb(2)
        oracle_1 = verify_bounds(bounds(klass_1, zagreb))
        oracle_2 = verify_bounds(bounds(klass_2, zagreb))
        assert oracle_1.status == EXACT_MATCH and oracle_2.status == EXACT_MATCH
        assert (oracle_1.minimum, oracle_1.maximum) == (40, 96)
        assert (oracle_2.minimum, oracle_2.maximum) == (50, 104)
        assert ORIENTATION_NOTE in by_c[1].notes
        assert ORIENTATION_NOTE in by_c[2].notes
        assert all(ORIENTATION_NOTE not in by_c[c].notes for c in (3, 4, 5, 6))
        # the diagnostic must surface in the rendered report as well
        code = main(["bounds", "--n", "10", "--c", "1..6", "--alpha", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count(f"note: {ORIENTATION_NOTE}") == 2


def test_criterion_10_property_suites():
    with criterion(10, "randomized order, Schur, and inclusion property suites"):
        rng = random.Random(20260810)

        # majorization order properties on 10^4 random chains
        for _ in range(10_000):
            top = random_nonincreasing(rng, rng.randint(2, 10))
            mid = transfer_down(rng, top, steps=rng.randint(0, 4))
            low = transfer_down(rng, mid, steps=rng.randint(0, 4))
            assert compare(top, top) is Relation.EQUAL
            rel = compare(mid, top)
            assert rel in (Relation.LESS_OR_EQUAL, Relation.EQUAL)
            if rel is Relation.EQUAL:
                assert mid == top
            back = compare(top, mid)
            assert back in (Relation.GREATER_OR_EQUAL, Relation.EQUAL)
            assert is_majorized_by(low, top)

        # Schur order preservation on 10^4 comparable pairs
        inverse, square = IndexSpec.general_zagreb(-1), IndexSpec.general_zagreb(2)
        for _ in range(10_000):
            top = random_nonincreasing(rng, rng.randint(2, 10))
            low = transfer_down(rng, top, steps=rng.randint(1, 4))
            low_runs, top_runs = runs_of(low), runs_of(top)
            assert evaluate(inverse, low_runs) <= evaluate(inverse, top_runs)
            assert evaluate(square, low_runs) <= evaluate(square, top_runs)

        # inclusion monotonicity on 10^3 nested box pairs
        for _ in range(1_000):
            total, in_lo, in_hi, out_lo, out_hi = random_nested_boxes(rng)
            inner = BoxSet(total=total, lower=in_lo, upper=in_hi)
            outer = BoxSet(total=total, lower=out_lo, upper=out_hi)
            assert is_majorized_by(maximal_box(inner), maximal_box(outer))
            assert is_majorized_by(minimal_box(outer), minimal_box(inner))
