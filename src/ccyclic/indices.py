"""Degree-based topological indices and their Schur classification.

Supported indices are the ones determined by the degree sequence alone:

* general first Zagreb, ``sum(d_i ** alpha)`` for rational alpha not in {0, 1};
* inverse degree, ``sum(1 / d_i)`` (the alpha = -1 special case);
* first multiplicative Zagreb in logarithmic form, ``2 * sum(ln d_i)``.

Power sums with convex ``d ** alpha`` (alpha < 0 or alpha > 1) are
Schur-convex on positive vectors, those with 0 < alpha < 1 Schur-concave,
and the log form is Schur-concave.  :func:`evaluate` takes one term per
(degree, multiplicity) run: an int for a positive integer exponent, one
``Fraction`` over ``lcm(degrees) ** -alpha`` for a negative one (the inverse
degree is alpha = -1), else a float.  :func:`ranking_keys` ranks a population
by one table: int keys where values are exact, degree products for the log form.

A value is the plain number, and its type says whether it is exact: an int or
a ``Fraction`` is, a float is not.  :func:`same_value` compares two values,
exactly unless one of them is a float, else within a relative 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Real
from typing import Optional

FLOAT_TOLERANCE = 1e-12
MAX_EXACT_DIGITS = 4300  # longest exact power evaluated or value printed (Python's default int print limit)

GENERAL_ZAGREB = "general-zagreb"
INVERSE_DEGREE = "inverse-degree"
MULT_ZAGREB_LOG = "mult-zagreb-log"

_KINDS = (GENERAL_ZAGREB, INVERSE_DEGREE, MULT_ZAGREB_LOG)


class SchurClass(Enum):
    CONVEX = "convex"
    CONCAVE = "concave"


@dataclass(frozen=True)
class IndexSpec:
    """A degree-based index together with its exponent, when it has one."""

    kind: str
    alpha: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown index kind {self.kind!r}")
        if self.kind == GENERAL_ZAGREB:
            if self.alpha is None:
                raise ValueError("general-zagreb needs an exponent")
            object.__setattr__(self, "alpha", Fraction(self.alpha))
            if self.alpha in (0, 1):
                raise ValueError("exponents 0 and 1 are excluded by definition")
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} takes no exponent")

    @classmethod
    def general_zagreb(cls, alpha) -> "IndexSpec":
        return cls(kind=GENERAL_ZAGREB, alpha=Fraction(alpha))

    @classmethod
    def inverse_degree(cls) -> "IndexSpec":
        return cls(kind=INVERSE_DEGREE)

    @classmethod
    def mult_zagreb_log(cls) -> "IndexSpec":
        return cls(kind=MULT_ZAGREB_LOG)

    @property
    def schur_class(self) -> SchurClass:
        if self.kind == GENERAL_ZAGREB:
            return SchurClass.CONCAVE if 0 < self.alpha < 1 else SchurClass.CONVEX
        if self.kind == INVERSE_DEGREE:
            return SchurClass.CONVEX
        return SchurClass.CONCAVE

    @property
    def label(self) -> str:
        if self.kind == GENERAL_ZAGREB:
            return f"{GENERAL_ZAGREB}(alpha={self.alpha})"
        return self.kind


def same_value(a, b) -> bool:
    """Equality of index values: exact, or within a relative 1e-12 when either is a float."""
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=FLOAT_TOLERANCE)
    return a == b


def evaluate(index: IndexSpec, runs) -> Real:
    """Evaluate the index on a degree sequence given as ``(degree, count)`` runs.

    An int for a positive integer exponent, a ``Fraction`` for a negative one
    and for the inverse degree, a float otherwise.  One term per run; every
    degree must be >= 1.  The runs need be neither maximal nor sorted.
    """
    degrees = [degree for degree, _ in runs]
    if not degrees or min(degrees) < 1:
        raise ValueError("index evaluation needs positive degrees")
    if index.kind == INVERSE_DEGREE:
        return _exact_power_sum(runs, degrees, -1)
    if index.kind == MULT_ZAGREB_LOG:
        return 2.0 * sum(count * math.log(d) for d, count in runs)
    top = max(degrees)
    if index.alpha > 0:
        # Every report prints a float, so a power sum beyond the float range is
        # rejected, before any exact power: Fraction(9) ** 10**400 never returns.
        try:
            exponent = float(index.alpha)
            bound = sum(count for _, count in runs) * top**exponent
            finite = bound < math.inf or math.fsum(
                count * d**exponent for d, count in runs
            ) < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("exponent too large: the power sum overflows a float")
    if index.alpha.denominator == 1:
        power = int(index.alpha)
        # Every report prints the exact value, so a power too long to print is
        # rejected before it is taken: Fraction(9) ** -10**400 never returns.
        if top > 1 and abs(power) > MAX_EXACT_DIGITS / math.log10(top):
            raise ValueError(
                f"exponent too large: an exact power would exceed {MAX_EXACT_DIGITS} digits"
            )
        return _exact_power_sum(runs, degrees, power)
    try:
        exponent = float(index.alpha)
    except OverflowError:
        raise ValueError("exponent too large: it overflows a float") from None
    return sum(count * d**exponent for d, count in runs)


def _exact_power_sum(runs, degrees: list, power: int) -> Real:
    """``sum(count * d ** power)`` over runs of positive integer degrees, exactly.

    An int for a positive power.  A negative power goes over the one common
    denominator ``lcm(degrees) ** -power``, so the whole sum is a single
    Fraction, reduced once.
    """
    if power > 0:
        return sum(count * d**power for d, count in runs)
    common = math.lcm(*degrees)
    numerator = sum(count * (common // d) ** -power for d, count in runs)
    return Fraction(numerator, common**-power)


def ranking_keys(index: IndexSpec, population) -> list:
    """One number per member that orders members as their values do.

    ``sum(m * table[d])`` over its runs: the value, times ``lcm(1..top)**-alpha``
    (top the largest degree) for an integer alpha < 0; ``prod(d ** m)`` for the log form.
    """
    degrees = {d for runs in population for d, _ in runs}
    evaluate(index, ((min(degrees), 1), (max(degrees), 1)))  # refuses what evaluate would
    if index.kind == MULT_ZAGREB_LOG:
        return [math.prod([d**m for d, m in runs]) for runs in population]
    power, span = -1 if index.kind == INVERSE_DEGREE else index.alpha, range(1, max(degrees) + 1)
    if power.denominator != 1:
        table = [0.0] + [d ** float(power) for d in span]
    else:
        common = math.lcm(*span)
        table = [0] + [(d if power > 0 else common // d) ** abs(int(power)) for d in span]
    return [sum([m * table[d] for d, m in runs]) for runs in population]
