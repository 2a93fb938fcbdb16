"""Deterministic rendering helpers shared by reports and the CLI."""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from .indices import MAX_EXACT_DIGITS

_TOO_LONG = 10**MAX_EXACT_DIGITS  # the least int with more than MAX_EXACT_DIGITS digits
MAX_PRINTED_ENTRIES = 10**6  # longest sequence written out entry by entry (CSV and JSON)


def format_fraction(value) -> str:
    """Exact rational as ``p/q`` (or plain ``p`` for integers).

    A numerator or denominator longer than ``MAX_EXACT_DIGITS`` digits is
    refused with a ``ValueError``, whatever the interpreter's own limit on
    printing ints, so the output never depends on that setting.
    """
    frac = Fraction(value)
    if abs(frac.numerator) >= _TOO_LONG or frac.denominator >= _TOO_LONG:
        raise ValueError(f"exact value too long to print: more than {MAX_EXACT_DIGITS} digits")
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def format_decimal(value) -> str:
    """Decimal rendering with 12 significant digits."""
    return f"{float(value):.12g}"


def format_index_value(value) -> str:
    """A float as its decimal; an exact value as ``p/q`` with its decimal alongside."""
    if isinstance(value, float):
        return format_decimal(value)
    return f"{format_fraction(value)} ({format_decimal(value)})"


def format_sequence(runs) -> str:
    """Rendering of maximal runs: ((7, 1), (4, 1), (2, 3), (1, 3)) -> ``[7, 4, 2^3, 1^3]``."""
    parts = (f"{value}^{count}" if count > 1 else f"{value}" for value, count in runs)
    return "[" + ", ".join(parts) + "]"


def printable(runs):
    """The runs, or a ``ValueError`` when they hold more than ``MAX_PRINTED_ENTRIES`` entries."""
    size = sum(count for _, count in runs)
    if size > MAX_PRINTED_ENTRIES:
        raise ValueError(f"sequence too long to print: {size} entries")
    return runs


def plain_sequence(runs) -> str:
    """Space-separated rendering of every entry, used inside CSV fields."""
    return " ".join(" ".join(repeat(str(value), count)) for value, count in printable(runs))
