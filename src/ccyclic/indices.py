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
degree is alpha = -1), else a float.  The oracle walk ranks members by one
table (:func:`key_table`): int keys where values are exact, degree products
for the log form, floats for a fractional exponent; :class:`Extremes` keeps
the least and largest key with the members that hold them.

A value is the plain number, and its type says whether it is exact: an int or
a ``Fraction`` is, a float is not.  :func:`same_value` compares two values,
exactly unless one of them is a float, else within a relative 1e-12.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from numbers import Real
from typing import Optional

FLOAT_TOLERANCE = 1e-12
MAX_EXACT_DIGITS = 4300  # longest exact power evaluated or value printed (Python's default int print limit)

GENERAL_ZAGREB = "general-zagreb"
INVERSE_DEGREE = "inverse-degree"
MULT_ZAGREB_LOG = "mult-zagreb-log"

KINDS = (GENERAL_ZAGREB, INVERSE_DEGREE, MULT_ZAGREB_LOG)


class SchurClass(Enum):
    CONVEX = "convex"
    CONCAVE = "concave"


@dataclass(frozen=True)
class IndexSpec:
    """A degree-based index together with its exponent, when it has one."""

    kind: str
    alpha: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in KINDS:
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
    def exponent(self) -> Optional[Fraction]:
        """The power of the power sum this index is: ``alpha``, -1 for the inverse degree.

        ``None`` for the log form.  Evaluation, key tables and the Schur class
        read this, not the kind.
        """
        return Fraction(-1) if self.kind == INVERSE_DEGREE else self.alpha

    @property
    def schur_class(self) -> SchurClass:
        exponent = self.exponent
        if exponent is None or 0 < exponent < 1:
            return SchurClass.CONCAVE
        return SchurClass.CONVEX

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
    alpha = index.exponent
    if alpha is None:
        return 2.0 * sum(count * math.log(d) for d, count in runs)
    top = max(degrees)
    if alpha > 0:
        # Every report prints a float, so a power sum beyond the float range is
        # rejected, before any exact power: Fraction(9) ** 10**400 never returns.
        try:
            exponent = float(alpha)
            bound = sum(count for _, count in runs) * top**exponent
            finite = bound < math.inf or math.fsum(
                count * d**exponent for d, count in runs
            ) < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("exponent too large: the power sum overflows a float")
    if alpha.denominator == 1:
        power = int(alpha)
        # Every report prints the exact value, so a power too long to print is
        # rejected before it is taken: Fraction(9) ** -10**400 never returns.
        if top > 1 and abs(power) > MAX_EXACT_DIGITS / math.log10(top):
            raise ValueError(
                f"exponent too large: an exact power would exceed {MAX_EXACT_DIGITS} digits"
            )
        return _exact_power_sum(runs, degrees, power)
    try:
        exponent = float(alpha)
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


def key_table(index: IndexSpec, top: int) -> tuple:
    """The ranking term of each degree 0..top, and whether a member's key is their product.

    A member's key is ``sum(m * table[d])`` over its runs: the value, times
    ``lcm(1..top)**-alpha`` for an integer alpha < 0.  For the log form it is
    ``prod(table[d] ** m)``, the exact degree product.  The table refuses
    what :func:`evaluate` would on the degrees 1 and ``top``.
    """
    evaluate(index, ((1, 1), (top, 1)))
    span = range(1, top + 1)
    power = index.exponent
    if power is None:
        return [0, *span], True
    if power.denominator != 1:
        return [0.0] + [d ** float(power) for d in span], False
    common = math.lcm(*span)
    return [0] + [(d if power > 0 else common // d) ** abs(int(power)) for d in span], False


class Extremes:
    """The least and the largest ranking key over members added one at a time.

    Each extreme keeps the members that hold it, in the order added.  Keys
    tie by :func:`same_value`: exactly, or within a relative 1e-12 when they
    are floats.  A float extreme may still move, so until it is final each
    side keeps every member within twice that of its current extreme, a
    superset of its final holders (ranking keys are positive), and
    :meth:`holders` filters them.
    """

    def __init__(self):
        self.low = self.high = None
        self._lows, self._highs = [], []

    def add(self, key, runs) -> None:
        if self.low is None:
            exact = not isinstance(key, float)
            self._near = operator.eq if exact else partial(math.isclose, rel_tol=2 * FLOAT_TOLERANCE)
            self.low = self.high = key
        near = self._near
        if key < self.low:
            self.low = key
            self._lows = [pair for pair in self._lows if near(pair[0], key)]
        if near(key, self.low):
            self._lows.append((key, runs))
        if key > self.high:
            self.high = key
            self._highs = [pair for pair in self._highs if near(pair[0], key)]
        if near(key, self.high):
            self._highs.append((key, runs))

    def seed(self, key) -> None:
        """Start at an exact key held by no member yet: one added later must tie and hold it."""
        self._near = operator.eq
        self.low = self.high = key

    def holders(self, largest: bool) -> tuple:
        """The members whose key ties the least (or the largest) key."""
        extreme, pairs = (self.high, self._highs) if largest else (self.low, self._lows)
        return tuple(runs for key, runs in pairs if same_value(key, extreme))

    def value(self, index: IndexSpec, largest: bool) -> Real:
        """The index value at the extreme: one evaluation, at the first member with that key."""
        extreme, pairs = (self.high, self._highs) if largest else (self.low, self._lows)
        return evaluate(index, next(runs for key, runs in pairs if key == extreme))
