"""Tests for index evaluation and Schur classification."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ccyclic.cli import format_decimal, format_fraction
from ccyclic.indices import (
    MAX_EXACT_DIGITS, IndexSpec, SchurClass, evaluate, key_table, same_value,
)
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
        assert not isinstance(value, float)
        assert value == Fraction(36, 7)

    def test_first_zagreb_on_cycle(self):
        value = evaluate(IndexSpec.general_zagreb(2), runs_of((2,) * 6))
        assert value == 24

    def test_first_zagreb_bicyclic_extremes(self):
        assert evaluate(IndexSpec.general_zagreb(2), runs_of((3, 3, 2, 2, 2, 2))) == 34
        assert evaluate(IndexSpec.general_zagreb(2), runs_of((5, 3, 2, 2, 1, 1))) == 44

    def test_negative_exponent_matches_inverse_degree(self):
        seq = runs_of((5, 4, 3, 2, 1, 1))
        assert (
            evaluate(IndexSpec.general_zagreb(-1), seq)
            == evaluate(IndexSpec.inverse_degree(), seq)
        )

    def test_square_sum_independent(self):
        rng = random.Random(7)
        for _ in range(50):
            seq = random_nonincreasing(rng, rng.randint(2, 8))
            expected = sum(d * d for d in seq)
            assert evaluate(IndexSpec.general_zagreb(2), runs_of(seq)) == expected

    def test_log_form(self):
        seq = (4, 3, 2)
        value = evaluate(IndexSpec.mult_zagreb_log(), runs_of(seq))
        assert isinstance(value, float)
        assert value == pytest.approx(2 * (math.log(4) + math.log(3) + math.log(2)))

    def test_fractional_exponent_is_float(self):
        value = evaluate(IndexSpec.general_zagreb(Fraction(1, 2)), runs_of((4, 1)))
        assert isinstance(value, float)
        assert value == pytest.approx(3.0)

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
            assert type(value) is (int if alpha > 0 else Fraction)
            assert value == per_entry_power_sum(seq, alpha), seq

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
                assert not isinstance(value, float), runs
                assert value == per_entry_power_sum(seq, alpha), runs
            log_form = evaluate(IndexSpec.mult_zagreb_log(), runs)
            assert math.isclose(log_form, 2 * math.fsum(map(math.log, seq)), rel_tol=1e-12)
            root = evaluate(IndexSpec.general_zagreb(Fraction(1, 2)), runs)
            assert math.isclose(root, math.fsum(d**0.5 for d in seq), rel_tol=1e-12)

    @pytest.mark.parametrize(
        "index,kind",
        [(IndexSpec.general_zagreb(a), int) for a in range(2, 7)]
        + [(IndexSpec.general_zagreb(a), Fraction) for a in range(-6, 0)]
        + [
            (IndexSpec.inverse_degree(), Fraction),
            (IndexSpec.general_zagreb(Fraction(1, 2)), float),
            (IndexSpec.general_zagreb(Fraction(7, 3)), float),
            (IndexSpec.general_zagreb(Fraction(-1, 2)), float),
            (IndexSpec.mult_zagreb_log(), float),
        ],
        ids=lambda value: getattr(value, "label", getattr(value, "__name__", None)),
    )
    def test_value_type_says_whether_it_is_exact(self, index, kind):
        # All degrees 1 gives an integral inverse degree: still a Fraction.
        for seq in ((5, 3, 2, 2, 1, 1), (2,) * 6, (1, 1)):
            assert type(evaluate(index, runs_of(seq))) is kind, seq

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


class TestExponent:
    """The inverse degree is the power sum at alpha = -1; the log form has no exponent."""

    ALPHAS = (-2, -1, Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2), 2, 3)

    def test_each_kind(self):
        assert IndexSpec.inverse_degree().exponent == -1
        assert type(IndexSpec.inverse_degree().exponent) is Fraction
        assert IndexSpec.mult_zagreb_log().exponent is None
        for alpha in self.ALPHAS:
            assert IndexSpec.general_zagreb(alpha).exponent == alpha

    def test_cannot_be_set(self):
        with pytest.raises(AttributeError):
            IndexSpec.inverse_degree().exponent = Fraction(2)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_schur_class_of_a_power_sum(self, alpha):
        expected = SchurClass.CONCAVE if 0 < alpha < 1 else SchurClass.CONVEX
        assert IndexSpec.general_zagreb(alpha).schur_class is expected

    def test_schur_class_of_the_other_kinds(self):
        assert IndexSpec.inverse_degree().schur_class is SchurClass.CONVEX
        assert IndexSpec.mult_zagreb_log().schur_class is SchurClass.CONCAVE

    def test_inverse_degree_is_general_zagreb_at_minus_one(self):
        rho, minus_one = IndexSpec.inverse_degree(), IndexSpec.general_zagreb(-1)
        rng = random.Random(32)
        for _ in range(200):
            runs = tuple(
                (rng.randint(1, 60), rng.randint(1, 500)) for _ in range(rng.randint(1, 6))
            )
            value = evaluate(rho, runs)
            assert type(value) is Fraction and value == evaluate(minus_one, runs), runs
        for top in (1, 2, 7, 30, 61):
            assert key_table(rho, top) == key_table(minus_one, top), top


def test_order_preservation_random_chains():
    """Convex indices grow along the majorization order; concave ones shrink."""
    rng = random.Random(2024)
    convex = [IndexSpec.general_zagreb(2), IndexSpec.general_zagreb(-1)]
    concave = [IndexSpec.mult_zagreb_log(), IndexSpec.general_zagreb(Fraction(1, 2))]
    for _ in range(400):
        top = random_nonincreasing(rng, rng.randint(2, 9))
        low = transfer_down(rng, top)
        for index in convex:
            a = evaluate(index, runs_of(low))
            b = evaluate(index, runs_of(top))
            assert a <= b
        for index in concave:
            a = float(evaluate(index, runs_of(low)))
            b = float(evaluate(index, runs_of(top)))
            assert a >= b - 1e-12


@pytest.mark.parametrize(
    "a,b,same",
    [
        (34, 34, True),
        (34, 35, False),
        (Fraction(68, 2), 34, True),
        (Fraction(1, 3), Fraction(2, 6), True),
        (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30), False),
        (1.0, 1.0 + 1e-13, True),
        (1.0, 1.0 + 1e-11, False),
        (1e-100, 1e-100 * (1 + 1e-13), True),
        (1e-100, 2e-100, False),
        (0.0, 1e-300, False),
        (0.5, Fraction(1, 2), True),
        (Fraction(1, 3), 1 / 3, True),
        (Fraction(1, 3), 0.3334, False),
        (3.0, 3, True),
    ],
)
def test_same_value(a, b, same):
    assert same_value(a, b) is same
    assert same_value(b, a) is same


@settings(max_examples=200)
@given(degree_sequences())
def test_exactness_flags(seq):
    assert not isinstance(evaluate(IndexSpec.general_zagreb(3), runs_of(seq)), float)
    assert not isinstance(evaluate(IndexSpec.inverse_degree(), runs_of(seq)), float)
    assert isinstance(evaluate(IndexSpec.mult_zagreb_log(), runs_of(seq)), float)


def test_float_values_past_the_float_range_are_refused():
    # Each count of these runs converts to a float, but the log form's sum
    # does not fit one; past the float range no count converts at all.
    big = 10**308
    with pytest.raises(ValueError, match="order too large"):
        evaluate(IndexSpec.mult_zagreb_log(), ((3, big),))
    assert evaluate(IndexSpec.mult_zagreb_log(), ((3, big // 10),)) < math.inf
    for index in (IndexSpec.mult_zagreb_log(), IndexSpec.general_zagreb(Fraction(1, 2)),
                  IndexSpec.general_zagreb(Fraction(-1, 2)), IndexSpec.general_zagreb(2)):
        with pytest.raises(ValueError, match="order too large"):
            evaluate(index, ((2, 10**309), (1, 2)))
    # Exact values stay exact, and only their decimal is refused.
    value = evaluate(IndexSpec.inverse_degree(), ((2, 10**309), (1, 2)))
    assert value == Fraction(10**309, 2) + 2
    with pytest.raises(ValueError, match=r"too large for a float: about 5e\+308"):
        format_decimal(value)
    assert format_decimal(Fraction(10**308, 2)) == "5e+307"


def test_format_fraction_refuses_values_too_long_to_print():
    too_long = 10**MAX_EXACT_DIGITS
    for value in (too_long, -too_long, Fraction(1, too_long)):
        with pytest.raises(ValueError, match=f"more than {MAX_EXACT_DIGITS} digits"):
            format_fraction(value)


def test_format_fraction_prints_the_longest_allowed_values():
    longest = 10**MAX_EXACT_DIGITS - 1
    assert format_fraction(Fraction(-longest, longest - 1)) == f"-{longest}/{longest - 1}"
