"""Tests for index evaluation and Schur classification."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ccyclic.formatting import format_fraction
from ccyclic.indices import MAX_EXACT_DIGITS, IndexSpec, SchurClass, evaluate
from ccyclic.majorization import expand_runs, runs_of

from oracles import (
    per_entry_power_sum,
    random_connected_degrees,
    random_nonincreasing,
    transfer_down,
)
from strategies import degree_sequences


class TestEvaluate:
    def test_inverse_degree_exact(self):
        value = evaluate(IndexSpec.inverse_degree(), runs_of((7, 3, 3, 3, 1, 1, 1, 1)))
        assert value.exact
        assert value.value == Fraction(36, 7)

    def test_first_zagreb_on_cycle(self):
        value = evaluate(IndexSpec.general_zagreb(2), runs_of((2,) * 6))
        assert value.value == 24

    def test_first_zagreb_bicyclic_extremes(self):
        assert evaluate(IndexSpec.general_zagreb(2), runs_of((3, 3, 2, 2, 2, 2))).value == 34
        assert evaluate(IndexSpec.general_zagreb(2), runs_of((5, 3, 2, 2, 1, 1))).value == 44

    def test_negative_exponent_matches_inverse_degree(self):
        seq = runs_of((5, 4, 3, 2, 1, 1))
        assert (
            evaluate(IndexSpec.general_zagreb(-1), seq).value
            == evaluate(IndexSpec.inverse_degree(), seq).value
        )

    def test_square_sum_independent(self):
        rng = random.Random(7)
        for _ in range(50):
            seq = random_nonincreasing(rng, rng.randint(2, 8))
            expected = sum(d * d for d in seq)
            assert evaluate(IndexSpec.general_zagreb(2), runs_of(seq)).value == expected

    def test_log_form(self):
        seq = (4, 3, 2)
        value = evaluate(IndexSpec.mult_zagreb_log(), runs_of(seq))
        assert not value.exact
        assert value.value == pytest.approx(2 * (math.log(4) + math.log(3) + math.log(2)))

    def test_fractional_exponent_is_float(self):
        value = evaluate(IndexSpec.general_zagreb(Fraction(1, 2)), runs_of((4, 1)))
        assert not value.exact
        assert value.value == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "index,alpha",
        [(IndexSpec.inverse_degree(), -1)]
        + [(IndexSpec.general_zagreb(a), a) for a in (*range(-6, 0), *range(2, 7))],
        ids=lambda value: getattr(value, "label", None),
    )
    def test_exact_values_match_per_entry_fractions(self, index, alpha):
        rng = random.Random(alpha)
        for _ in range(60):
            n = rng.randint(2, 30)
            seq = random_connected_degrees(rng, n, rng.randint(0, min(10, (n - 1) * (n - 2) // 2)))
            value = evaluate(index, runs_of(seq))
            assert value.exact and isinstance(value.value, Fraction)
            assert value.value == per_entry_power_sum(seq, alpha), seq

    def test_runs_match_per_entry_values(self):
        # Runs of length 1, long runs, and repeated or unsorted degrees, whose
        # terms the evaluation must add without merging or sorting them.
        rng = random.Random(11)
        indices = [(IndexSpec.inverse_degree(), -1)] + [
            (IndexSpec.general_zagreb(a), a) for a in (-3, -2, 2, 3, 5)
        ]
        for _ in range(100):
            lengths = (1, 1, 2, rng.randint(3, 50), rng.randint(200, 1000))
            runs = tuple(
                (rng.randint(1, 40), rng.choice(lengths)) for _ in range(rng.randint(1, 6))
            )
            seq = expand_runs(runs)
            for index, alpha in indices:
                value = evaluate(index, runs)
                assert value.exact and value.value == per_entry_power_sum(seq, alpha), runs
            log_form = evaluate(IndexSpec.mult_zagreb_log(), runs).value
            assert math.isclose(log_form, 2 * math.fsum(map(math.log, seq)), rel_tol=1e-12)
            root = evaluate(IndexSpec.general_zagreb(Fraction(1, 2)), runs).value
            assert math.isclose(root, math.fsum(d**0.5 for d in seq), rel_tol=1e-12)

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            evaluate(IndexSpec.inverse_degree(), runs_of((2, 1, 0)))


class TestSchurClass:
    def test_classification_table(self):
        assert IndexSpec.general_zagreb(2).schur_class is SchurClass.CONVEX
        assert IndexSpec.general_zagreb(-1).schur_class is SchurClass.CONVEX
        assert IndexSpec.general_zagreb(Fraction(1, 2)).schur_class is SchurClass.CONCAVE
        assert IndexSpec.inverse_degree().schur_class is SchurClass.CONVEX
        assert IndexSpec.mult_zagreb_log().schur_class is SchurClass.CONCAVE

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_excluded_exponents(self, alpha):
        with pytest.raises(ValueError):
            IndexSpec.general_zagreb(alpha)

    def test_kind_alpha_mismatch(self):
        with pytest.raises(ValueError):
            IndexSpec(kind="inverse-degree", alpha=Fraction(2))


def test_order_preservation_random_chains():
    """Convex indices grow along the majorization order; concave ones shrink."""
    rng = random.Random(2024)
    convex = [IndexSpec.general_zagreb(2), IndexSpec.general_zagreb(-1)]
    concave = [IndexSpec.mult_zagreb_log(), IndexSpec.general_zagreb(Fraction(1, 2))]
    for _ in range(400):
        top = random_nonincreasing(rng, rng.randint(2, 9))
        low = transfer_down(rng, top)
        for index in convex:
            a = evaluate(index, runs_of(low)).value
            b = evaluate(index, runs_of(top)).value
            assert a <= b
        for index in concave:
            a = evaluate(index, runs_of(low)).as_float()
            b = evaluate(index, runs_of(top)).as_float()
            assert a >= b - 1e-12


@settings(max_examples=200)
@given(degree_sequences())
def test_exactness_flags(seq):
    assert evaluate(IndexSpec.general_zagreb(3), runs_of(seq)).exact
    assert evaluate(IndexSpec.inverse_degree(), runs_of(seq)).exact
    assert not evaluate(IndexSpec.mult_zagreb_log(), runs_of(seq)).exact


def test_format_fraction_refuses_values_too_long_to_print():
    too_long = 10**MAX_EXACT_DIGITS
    for value in (too_long, -too_long, Fraction(1, too_long)):
        with pytest.raises(ValueError, match=f"more than {MAX_EXACT_DIGITS} digits"):
            format_fraction(value)


def test_format_fraction_prints_the_longest_allowed_values():
    longest = 10**MAX_EXACT_DIGITS - 1
    assert format_fraction(Fraction(-longest, longest - 1)) == f"-{longest}/{longest - 1}"
